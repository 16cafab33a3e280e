#!/usr/bin/env python3
"""Paired benchmark runs of a parent and a change source tree, written to one JSON file.

    python3 scripts/bench_pairs.py --parent ../parent-tree --change . \\
        --run cli-static:5101:10 --run sbm-desk:5201:3 --out BENCH_11.json

Each --run WORKLOAD:FIRST_SEED:PAIRS runs `<tree>/perfbench/run.py --workload
WORKLOAD --seed S --seconds RUN_SECONDS --trace 0` once from each tree for every
seed S from FIRST_SEED on, alternating which tree runs first. RUN_SECONDS is
run_seconds from the change tree's BENCHMARK.json, so both sides run as the
benchmark runs them. It fails, and writes nothing, if a run reports a failed
check. A seed on which the two trees' pair_accuracy differ is listed under
the workload's pair_accuracy_differs as {seed, parent, change}, and the runs go
on. The output holds each side's per-run end-to-end values, their medians and
quartiles, the pairs the change won, and the machine line run.py printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(result, detail): the last two lines run.py prints, as JSON objects."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if res.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    *_, detail, result = res.stdout.splitlines()
    return json.loads(result), json.loads(detail)


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's values in seed order, their medians and inclusive
    quartiles, and how many pairs the change won (strictly better) or tied.

    `pairs` holds {"seed", "parent", "change"}, each side a {metric: value}
    dict; `better` maps each metric to "lower" or "higher".
    """

    def stats(vals):
        q = statistics.quantiles(vals, n=4, method="inclusive") if len(vals) > 1 else vals * 3
        return {"values": vals, "median": statistics.median(vals), "quartiles": [q[0], q[2]]}

    out = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        gaps = [sign * (p["parent"][name] - p["change"][name]) for p in pairs]
        out[name] = {
            "better": direction,
            "parent": stats([p["parent"][name] for p in pairs]),
            "change": stats([p["change"][name] for p in pairs]),
            "change_won": sum(g > 0 for g in gaps),
            "tied": sum(g == 0 for g in gaps),
        }
    return out


def run_pairs(run, trees: dict, workload: str, first: int, count: int, seconds: float,
              better: dict[str, str]) -> tuple[dict, dict]:
    """(entry, machine): `count` pairs of `run(tree, workload, seed, seconds)` on the
    "parent" and "change" trees, seeds from `first` on, alternating which side
    runs first, and the machine line of the last run.

    `run` returns (result, detail) as run_once does. The entry holds the seeds,
    the side that ran first, the seeds whose pair_accuracy differ and the
    summarized metrics; a run whose check failed raises SystemExit.
    """
    pairs, differs, machine = [], [], None
    for i in range(count):
        seed = first + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            result, detail = run(trees[side], workload, seed, seconds)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{side} {workload} seed {seed}: a check failed")
            pair[side] = {k: v["value"] for k, v in result["metrics"].items()}
            machine = detail["machine"]
        accuracy = {side: pair[side]["pair_accuracy"] for side in ("parent", "change")}
        if accuracy["parent"] != accuracy["change"]:
            differs.append({"seed": seed, **accuracy})
        print(json.dumps(pair), flush=True)
        pairs.append(pair)
    entry = {
        "seeds": [p["seed"] for p in pairs],
        "first": [p["first"] for p in pairs],
        "pair_accuracy_differs": differs,
        "metrics": summarize(pairs, better),
    }
    return entry, machine


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="source tree of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="source tree of the change")
    ap.add_argument("--run", action="append", required=True, metavar="WORKLOAD:FIRST_SEED:PAIRS")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = ap.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "machine": None, "workloads": {}}
    for item in args.run:
        workload, first, count = item.split(":")
        entry, machine = run_pairs(run_once, trees, workload, int(first), int(count), seconds,
                                   better)
        report["workloads"][workload] = entry
        report["machine"] = report["machine"] or machine
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
