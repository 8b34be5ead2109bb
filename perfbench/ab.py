#!/usr/bin/env python3
"""Spread and A/B comparisons for perfbench, on one host.

spread: run one tree's benchmark on several seeds and report, per
end-to-end metric, the median, the quartiles and the inter-quartile
range as a share of the median, next to the bound in BENCHMARK.json.

    python3 perfbench/ab.py spread --workload churn --seeds 1-5

pair: run a parent tree and a change tree in alternating order (parent
first on even pairs, change first on odd ones), each pair on a fresh
seed, and report each side's median and quartiles and how many pairs
the change won. Results whose host stamps differ are refused.

    python3 perfbench/ab.py pair --parent ../parent --change . \\
        --workload campaign --pairs 10

Each tree is a checkout with BENCHMARK.json at its root; it is built in
its own .bench_build directory. Nothing here claims a gain. A gain
needs the change to win at least nine pairs in ten, and the medians to
differ by more than the parent's own inter-quartile range.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type")


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(tree, workload, seed, seconds):
    tree = os.path.abspath(tree)
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        command = json.load(f)["command"]
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"ab: run failed in {tree} (exit {proc.returncode})")
    detail = json.loads(lines[-2]).get("perfbench_detail", {})
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"ab: incorrect run in {tree}: {detail.get('errors')}")
    return result["metrics"], detail.get("host", {})


def bounds(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_spread(args):
    spec = bounds(args.tree)
    series = {}
    for seed in parse_seeds(args.seeds):
        metrics, _ = run_once(args.tree, args.workload, seed, args.seconds)
        for name, m in metrics.items():
            series.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in metrics.items()), flush=True)
    print(f"\n{args.workload}: metric, median, q1, q3, iqr/median, bound")
    for name, values in series.items():
        q1, med, q3 = quartiles(values)
        share = (q3 - q1) / med if med else float("inf")
        bound = spec.get(name, {}).get("bound", float("nan"))
        flag = "" if share <= bound / 3 else "  (above bound/3)"
        print(f"  {name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{share:8.4f} {bound:6.3f}{flag}")


def cmd_pair(args):
    spec = bounds(args.parent)
    sides = {"parent": {}, "change": {}}
    wins = {}
    hosts = []
    for i, seed in enumerate(range(args.first_seed,
                                   args.first_seed + args.pairs)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            tree = args.parent if side == "parent" else args.change
            metrics, host = run_once(tree, args.workload, seed, args.seconds)
            hosts.append({k: host.get(k) for k in HOST_KEYS})
            pair[side] = metrics
            for name, m in metrics.items():
                sides[side].setdefault(name, []).append(m["value"])
        for name, m in pair["parent"].items():
            better = spec.get(name, {}).get("better", "lower")
            a, b = m["value"], pair["change"][name]["value"]
            won = b < a if better == "lower" else b > a
            wins.setdefault(name, [0, 0])
            wins[name][0] += 1 if won else 0
            wins[name][1] += 1 if a != b else 0
        print(f"pair {i} (seed {seed}, {order[0]} first) done", flush=True)
    if any(h != hosts[0] for h in hosts):
        sys.exit("ab: host stamps differ between runs; not comparing")
    print(f"\n{args.workload}: metric, parent median [q1, q3], "
          f"change median [q1, q3], change wins / decided pairs")
    for name in sides["parent"]:
        p = quartiles(sides["parent"][name])
        c = quartiles(sides["change"][name])
        print(f"  {name:16s} {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}]  "
              f"{c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}]  "
              f"{wins[name][0]}/{wins[name][1]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--tree", default=".")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", default="1-5")
    sp.add_argument("--seconds", type=int, default=None)
    pp = sub.add_parser("pair")
    pp.add_argument("--parent", required=True)
    pp.add_argument("--change", required=True)
    pp.add_argument("--workload", required=True)
    pp.add_argument("--pairs", type=int, default=10)
    pp.add_argument("--first-seed", type=int, default=1000)
    pp.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    tree = args.tree if args.mode == "spread" else args.parent
    if args.seconds is None:
        with open(os.path.join(tree, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    if args.mode == "spread":
        cmd_spread(args)
    else:
        cmd_pair(args)


if __name__ == "__main__":
    main()
