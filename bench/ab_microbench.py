#!/usr/bin/env python3
"""Same-host A/B of the kernel microbenchmarks across two checkouts.

Builds one `microbench_kernels` binary per tree, each linking that
tree's engine (`src/`) but compiling the *change* tree's
`bench/microbench_kernels.cpp`, so a benchmark added by the change
times the parent's code too. The two binaries then run in alternating
order (parent first on even rounds, change first on odd ones), and the
script reports each benchmark's CPU time per iteration (wall time
with --time real) as median [q1, q3] per side, with how many rounds
the change won.

    python3 bench/ab_microbench.py --parent ../parent --change . \\
        --filter 'BM_TdcFastTrace|BM_BtiCollapse' --rounds 10

Both builds are Release with the repository's default options, under
--build-dir (default: .microbench_ab in the change tree). Needs
google-benchmark (libbenchmark-dev). Nothing here claims a gain: like
perfbench/ab.py, a gain needs the change to win at least nine rounds
in ten, with the medians further apart than the parent's
inter-quartile range.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PROJECT = """cmake_minimum_required(VERSION 3.20)
project(microbench_ab LANGUAGES CXX)
set(CMAKE_CXX_STANDARD 20)
set(CMAKE_CXX_STANDARD_REQUIRED ON)
set(CMAKE_CXX_EXTENSIONS OFF)
set(CMAKE_BUILD_TYPE Release CACHE STRING "" FORCE)
option(PENTIMENTO_FAULT_INJECTION "" ON)
add_compile_options(-Wall -Wextra)
find_package(Threads REQUIRED)
find_package(benchmark REQUIRED)
add_subdirectory("{engine}/src" pentimento)
add_executable(microbench_kernels "{source}")
target_link_libraries(microbench_kernels
  PRIVATE pentimento benchmark::benchmark)
"""


def build(side, engine, source, build_dir):
    project_dir = os.path.join(build_dir, side, "project")
    binary_dir = os.path.join(build_dir, side, "build")
    os.makedirs(project_dir, exist_ok=True)
    with open(os.path.join(project_dir, "CMakeLists.txt"), "w") as f:
        f.write(PROJECT.format(engine=engine, source=source))
    for command in (["cmake", "-S", project_dir, "-B", binary_dir],
                    ["cmake", "--build", binary_dir, "-j",
                     str(min(os.cpu_count() or 1, 4))]):
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.exit(f"{proc.stdout}\nab_microbench: {side} build "
                     f"failed: {' '.join(command)}")
    return os.path.join(binary_dir, "microbench_kernels")


def run_once(binary, bench_filter, min_time, clock):
    proc = subprocess.run(
        [binary, f"--benchmark_filter={bench_filter}",
         "--benchmark_format=json",
         f"--benchmark_min_time={min_time}"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit(f"ab_microbench: {binary} exited {proc.returncode}")
    times = {}
    for bench in json.loads(proc.stdout)["benchmarks"]:
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[
            bench["time_unit"]]
        times[bench["name"]] = bench[clock] * scale
    return times


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default=".")
    parser.add_argument("--filter", required=True,
                        help="google-benchmark --benchmark_filter regex")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--min-time", type=float, default=0.5,
                        help="seconds per benchmark per run")
    parser.add_argument("--time", choices=("cpu", "real"), default="cpu",
                        help="report CPU time (default) or wall time; "
                        "use real for work that waits on I/O or on "
                        "other threads")
    parser.add_argument("--build-dir")
    args = parser.parse_args()
    if args.rounds < 1:
        sys.exit("ab_microbench: --rounds must be at least 1")

    parent = os.path.abspath(args.parent)
    change = os.path.abspath(args.change)
    source = os.path.join(change, "bench", "microbench_kernels.cpp")
    build_dir = os.path.abspath(
        args.build_dir or os.path.join(change, ".microbench_ab"))
    binaries = {side: build(side, tree, source, build_dir)
                for side, tree in (("parent", parent),
                                   ("change", change))}

    series = {"parent": {}, "change": {}}
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change",
                                                          "parent")
        for side in order:
            times = run_once(binaries[side], args.filter, args.min_time,
                             f"{args.time}_time")
            for name, ns in times.items():
                series[side].setdefault(name, []).append(ns)
        print(f"round {r + 1}/{args.rounds} done", file=sys.stderr)

    if not series["change"]:
        sys.exit(f"ab_microbench: no benchmark matches {args.filter!r}")
    print(f"{'benchmark':32} {'parent ns':>28} {'change ns':>28} wins")
    for name, change_ns in series["change"].items():
        parent_ns = series["parent"].get(name)
        if parent_ns is None:
            continue
        pq = quartiles(parent_ns)
        cq = quartiles(change_ns)
        wins = sum(c < p for p, c in zip(parent_ns, change_ns))
        print(f"{name:32} {pq[1]:10.1f} [{pq[0]:7.1f}, {pq[2]:7.1f}] "
              f"{cq[1]:10.1f} [{cq[0]:7.1f}, {cq[2]:7.1f}] "
              f"{wins}/{len(change_ns)}")


if __name__ == "__main__":
    main()
