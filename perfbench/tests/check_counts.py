#!/usr/bin/env python3
"""Checks that tracing changes no deterministic count.

    python3 perfbench/tests/check_counts.py [--seed N] [--workload W]

Runs the benchmark untraced and traced with the same seed and compares the
`counts` line each prints: VM ops and ASIP cycles of the table-1 pass, DSE
points, tuner candidates, the opt counters and C bytes of the first compile
requests, and the serve request, error, key and restart-hit counts. Any
difference, or a failed output check in either run, exits non-zero.
"""
import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")


def counts(workload, seed, trace):
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace)],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"run with --trace {trace} failed (exit {proc.returncode})")
    for line in proc.stdout.splitlines():
        if line.startswith("counts "):
            return json.loads(line[len("counts "):])
    sys.exit(f"run with --trace {trace} printed no counts line")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--workload", default="compile", choices=["compile", "explore", "serve"])
    args = ap.parse_args()
    plain = counts(args.workload, args.seed, 0)
    traced = counts(args.workload, args.seed, 1)
    bad = [k for k in sorted(set(plain) | set(traced)) if plain.get(k) != traced.get(k)]
    for k in sorted(plain):
        print(f"{'DIFF' if k in bad else 'same'}  {k}: {plain.get(k)} / {traced.get(k)}")
    for k in bad:
        if k not in plain:
            print(f"DIFF  {k}: missing / {traced.get(k)}")
    return 1 if bad or not plain else 0


if __name__ == "__main__":
    sys.exit(main())
