#!/usr/bin/env python3
"""Builds the mat2c benchmark from source and runs it (see README.md).

    python3 perfbench/run.py --workload compile|explore|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR when it
is set, else to .bench_build/. Every run executes all three workloads; the
named one is measured for --seconds. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics; the run fails if the printed set differs from the file.
The exit code is non-zero on any failed output check.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then builds incrementally. Output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"mat2c sources not found under {ROOT}/src")
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "mat2c_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def check_metric_names(metrics, trace):
    """The printed metrics must be exactly those BENCHMARK.json lists, with
    the same units, and metrics.json must give each a module and workloads."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        schema = json.load(f)["metrics"]
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    problems = []
    for name in sorted(set(want) | set(got)):
        if name not in got:
            problems.append(f"{name}: declared but not printed")
        elif name not in want:
            problems.append(f"{name}: printed but not declared")
        elif want[name] != got[name]:
            problems.append(f"{name}: unit {got[name]} != declared {want[name]}")
    for name in want:
        entry = schema.get(name, {})
        if not entry.get("module") or not entry.get("workloads"):
            problems.append(f"{name}: no module or workloads in metrics.json")
    for p in problems:
        log(p)
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["compile", "explore", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        return 2
    cmd = [os.path.join(build_dir, "mat2c_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result line (exit {proc.returncode})")
        return proc.returncode or 3
    if not check_metric_names(result["metrics"], args.trace):
        return 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
