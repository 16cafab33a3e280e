#!/usr/bin/env python3
"""Cluster a synthetic articulated point cloud (five rigid blobs moving smoothly).

Builds per-frame kNN graphs from the cloud and compares the coupled method with
the per-frame baseline. Optionally dumps the cloud as per-frame CSVs so the same
data can be pushed through `tvclust build-knn`.
"""

import argparse
from pathlib import Path

from tvclust.entry import one_blas_thread

one_blas_thread()  # before numpy loads, so the printed figures do not depend on the core count

from tvclust.clustering import static_sc, tv_cluster_multi
from tvclust.experiments import cloud_to_graphs, make_articulated_cloud
from tvclust.metrics import accuracy_report
from tvclust.solver import SolverConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-per-part", type=int, default=30)
    ap.add_argument("--t-len", type=int, default=20)
    ap.add_argument("--k", type=int, default=8, help="kNN neighbors per point")
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dump-csv", type=Path, default=None,
                    help="also write the cloud frames as x,y,z CSVs here")
    args = ap.parse_args()

    cloud, truth = make_articulated_cloud(args.n_per_part, args.t_len, seed=args.seed)
    if args.dump_csv is not None:
        args.dump_csv.mkdir(parents=True, exist_ok=True)
        for t in range(cloud.t_len):
            path = args.dump_csv / f"frame_{t:03d}.csv"
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                for row in cloud.frame(t):
                    fh.write(",".join(repr(float(v)) for v in row) + "\n")
        print(f"wrote {cloud.t_len} frames to {args.dump_csv}")

    seq = cloud_to_graphs(cloud, args.k)
    cfg = SolverConfig(alpha=args.alpha, seed=args.seed)
    est_tv, _, _ = tv_cluster_multi(seq, truth.k, cfg)
    est_st = static_sc(seq, truth.k, seed=args.seed)
    for name, est in (("tv-pds", est_tv), ("static-sc", est_st)):
        rep = accuracy_report(est, truth)
        print(
            f"{name}: mean pair accuracy {rep.mean:.4f} "
            f"(min {rep.per_frame.min():.4f}), label changes "
            f"{int(rep.mismatch_per_frame.sum())}"
        )


if __name__ == "__main__":
    main()
