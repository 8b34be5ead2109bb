#!/usr/bin/env python3
"""Same-host benchmark of the pentimento simulator.

Builds the library, campaign_server and the perfbench driver from
source (Release) into $CARGO_TARGET_DIR or .bench_build, runs one
workload for a fixed window, checks its outputs and prints every metric
with its unit. Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Workloads: campaign, churn, durable, serve (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
run's detail and host stamp.

--record-reference adds the run's campaign digests to
perfbench/reference_digests.json (an existing entry is never changed).
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(BENCH_DIR, "reference_digests.json")
WORKLOADS = ("campaign", "churn", "durable", "serve")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once and build; cmake's own tracking makes reruns cheap."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench_driver", "campaign_server"])
    with open(log_path, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                return False
    return True


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def tree_digest(root):
    """Digest of the benchmarked sources: identifies the code without git."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    """HEAD of the checkout, when the checkout itself is a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(root):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def host_stamp(root, build_info):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("build_type", "unknown"),
        "git_commit": git_commit(root),
        "tree_digest": tree_digest(root),
    }


def load_reference():
    try:
        with open(REFERENCE) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def check_reference(digests, record):
    """Compare digests against the recorded ones; returns mismatches."""
    reference = load_reference()
    checked, mismatched, added = 0, [], 0
    for key, value in digests.items():
        if key in reference:
            checked += 1
            if reference[key] != value:
                mismatched.append(key)
        elif record:
            reference[key] = value
            added += 1
    if record and added and not mismatched:
        with open(REFERENCE, "w") as f:
            json.dump(dict(sorted(reference.items())), f, indent=1)
            f.write("\n")
    return checked, mismatched, added


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(BENCH_DIR)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    started = time.monotonic()
    if not build(build_dir):
        log("build failed")
        return 1
    log(f"build ready in {time.monotonic() - started:.1f} s")

    scratch = os.path.join(build_dir, "run", args.workload)
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--server-binary", os.path.join(build_dir, "campaign_server"),
           "--scratch", scratch]
    # Own process group: the driver's server and shard workers are
    # stopped with it, even when the driver has to be killed.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        log("driver timed out")
        return 1
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"driver exited with {proc.returncode}")
        return 1
    run = json.loads(lines[-1])

    checked, mismatched, added = check_reference(run["digests"],
                                                 args.record_reference)
    failed = run["failed"] + len(mismatched)
    errors = run["errors"] + [f"digest {k} differs from the reference"
                              for k in mismatched]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_stamp(root, run["build"]),
        "detail": run["detail"],
        "reference_digests_checked": checked,
        "reference_digests_added": added,
        "campaign_digests": len(run["digests"]),
        "errors": errors,
    }
    print(json.dumps({"perfbench_detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": run["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
