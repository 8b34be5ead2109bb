#!/usr/bin/env python3
"""Same-host perf gate: a change tree against its parent tree.

Usage: check_perf_regression.py --parent PARENT_TREE --change CHANGE_TREE

Both trees are checkouts with BENCHMARK.json at their root, built and
run on this host by perfbench (perfbench/README.md). For every workload
in BENCHMARK.json the gate runs PAIRS alternating parent/change pairs of
SECONDS each through perfbench/ab.py, on seeds FIRST_SEED and up. Those
seeds have recorded digests in perfbench/reference_digests.json, so a
run is correct only if it reproduces them. The gate fails when any run
is incorrect. It also fails, naming the workload and metric, when the
change's median of an end-to-end metric is worse than the parent's
median by more than that metric's bound and every change run is worse
than every parent run. A median past the bound with overlapping runs is
host noise at this sample size; it is printed as unresolved.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))
import ab  # noqa: E402

PAIRS = 3
SECONDS = 10
FIRST_SEED = 1


def run_pairs(trees, workload):
    """Per-metric values of each tree, parent first on even pairs."""
    values = ({}, {})
    for i in range(PAIRS):
        print(f"{workload}: pair {i}, seed {FIRST_SEED + i}", flush=True)
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            metrics, _ = ab.run_once(trees[side], workload, FIRST_SEED + i,
                                     SECONDS)
            for name, m in metrics.items():
                values[side].setdefault(name, []).append(m["value"])
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    args = ap.parse_args()
    spec = ab.bounds(args.parent)
    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    failures, unresolved = [], []
    for workload in workloads:
        parent, change = run_pairs((args.parent, args.change), workload)
        print(f"{workload}: metric, parent median, change median, "
              f"worse by, bound")
        for name, metric in spec.items():
            p_runs, c_runs = parent[name], change[name]
            p = ab.quartiles(p_runs)[1]
            c = ab.quartiles(c_runs)[1]
            if metric["better"] == "lower":
                worse = (c - p) / p
                apart = min(c_runs) > max(p_runs)
            else:
                worse = (p - c) / p
                apart = max(c_runs) < min(p_runs)
            flag = ""
            if worse > metric["bound"]:
                verdict = (f"{workload}: {name} worse by {worse:.1%} "
                           f"(bound {metric['bound']:.0%})")
                if apart:
                    flag = "  << REGRESSION"
                    failures.append(verdict)
                else:
                    flag = "  << unresolved (runs overlap)"
                    unresolved.append(verdict)
            print(f"  {name:16s} {p:12.6g} {c:12.6g} {worse:+8.1%} "
                  f"{metric['bound']:6.0%}{flag}")

    if unresolved:
        print("\nUNRESOLVED: " + "; ".join(unresolved))
    if failures:
        print("\nFAIL: " + "; ".join(failures))
        return 1
    print(f"\nOK: no regression on {len(workloads)} workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
