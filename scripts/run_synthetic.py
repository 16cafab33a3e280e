#!/usr/bin/env python3
"""Seeded comparison of coupled vs per-frame clustering on synthetic graph sequences.

Runs both edge-density presets (or one of them) for a number of trials and writes
a per-trial CSV next to a printed summary table.
"""

import argparse
import time
from pathlib import Path

from tvclust.entry import one_blas_thread

one_blas_thread()  # before numpy loads, so the printed figures do not depend on the core count

import numpy as np

from tvclust.experiments import (
    DENSE_DESK,
    DENSE_FULL,
    SPARSE_DESK,
    SPARSE_FULL,
    compare_methods,
    recommended_alpha,
)
from tvclust.solver import SolverConfig

PRESETS = {
    "dense-desk": DENSE_DESK,
    "sparse-desk": SPARSE_DESK,
    "dense-full": DENSE_FULL,
    "sparse-full": SPARSE_FULL,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", choices=sorted(PRESETS) + ["all-desk"], default="all-desk")
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--alpha", type=float, default=None,
                    help="temporal weight; defaults to the preset-calibrated value")
    ap.add_argument("--out", type=Path, default=Path("results"))
    args = ap.parse_args()

    names = ["dense-desk", "sparse-desk"] if args.preset == "all-desk" else [args.preset]
    args.out.mkdir(parents=True, exist_ok=True)
    for name in names:
        params = PRESETS[name]
        alpha = args.alpha if args.alpha is not None else recommended_alpha(params)
        cfg = SolverConfig(alpha=alpha)
        started = time.perf_counter()
        outcomes = compare_methods(params, args.trials, args.seed, cfg)
        elapsed = time.perf_counter() - started
        rows = ["trial,acc_tv_pds,acc_static_sc,mismatch_tv_pds,mismatch_static_sc"]
        for i, o in enumerate(outcomes):
            rows.append(
                f"{i},{o.accuracy_tv!r},{o.accuracy_static!r},"
                f"{o.mismatch_tv},{o.mismatch_static}"
            )
        csv_path = args.out / f"synthetic_{name}.csv"
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        tv = np.mean([o.accuracy_tv for o in outcomes])
        st = np.mean([o.accuracy_static for o in outcomes])
        wins = sum(o.mismatch_tv <= o.mismatch_static for o in outcomes)
        print(
            f"{name} (alpha={alpha:.2f}, {args.trials} trials, {elapsed:.0f}s): "
            f"tv-pds {tv:.3f} vs static-sc {st:.3f} "
            f"(gap {tv - st:+.3f}), mismatch wins {wins}/{args.trials} -> {csv_path}"
        )


if __name__ == "__main__":
    main()
