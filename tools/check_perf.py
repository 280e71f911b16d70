#!/usr/bin/env python3
"""Regression gate for the bench speedup documents (BENCH_*.json).

Compares a freshly generated document against its checked-in baseline and
fails when any kernel's proposed_cycles regresses by more than the
tolerance, when the geometric-mean speedup drops below the baseline's, or
when a max_abs_err exceeds 1e-9. A document with a `reference` block
(BENCH_dse.json) must also stay at or above the reference's geomean and at
or below its hw_cost. The `perf` ctests gate five documents this way:
BENCH_table1.json (bench_table1), BENCH_extended.json (bench_extended),
BENCH_dse.json (bench_retarget), BENCH_tuned.json (bench_tuned) and
BENCH_service.json (bench_service). The first four hold deterministic ASIP
cycle-model counts, so their tolerance only needs to absorb deliberate
cost-model retuning, not measurement noise; BENCH_service.json holds
wall-clock nanoseconds per request and runs with a wide tolerance.
Improvements never fail the gate and are reported so the baseline can be
refreshed.

Usage: check_perf.py <baseline.json> <current.json> [--tolerance PCT]
Exit codes: 0 ok, 1 regression, 2 bad input.
"""
import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_perf: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--tolerance", type=float, default=2.0,
                    help="allowed cycle regression, percent (default 2)")
    args = ap.parse_args()

    # A zero or negative tolerance is never a meaningful gate (0 fails on any
    # cycle-model noise; negative inverts the comparison so improvements fail
    # and regressions pass). Bad invocation, not a perf regression: exit 2.
    # `not (x > 0)` also catches NaN, which compares false against everything.
    if not (args.tolerance > 0):
        print(f"check_perf: --tolerance must be a positive percentage, "
              f"got {args.tolerance}", file=sys.stderr)
        return 2

    base = load(args.baseline)
    cur = load(args.current)
    tol = args.tolerance / 100.0

    failures = []
    improvements = []
    compared = 0
    # A kernel only in the current run has no baseline to gate against — that
    # is exactly how a new benchmark silently escapes the cycle gate, so it
    # is an error until the baseline is refreshed.
    for name in cur.get("kernels", {}):
        if name not in base.get("kernels", {}):
            failures.append(
                f"{name}: kernel not in baseline — refresh {args.baseline} "
                f"(rerun the bench with --json and check the result in)")
    for name, b in base.get("kernels", {}).items():
        c = cur.get("kernels", {}).get(name)
        if c is None:
            failures.append(f"{name}: missing from current results")
            continue
        compared += 1
        b_cycles = float(b["proposed_cycles"])
        c_cycles = float(c["proposed_cycles"])
        if c_cycles > b_cycles * (1.0 + tol):
            failures.append(
                f"{name}: proposed cycles regressed {b_cycles:.0f} -> {c_cycles:.0f} "
                f"(+{100.0 * (c_cycles / b_cycles - 1.0):.2f}%, tolerance {args.tolerance}%)")
        elif c_cycles < b_cycles * (1.0 - tol):
            improvements.append(f"{name}: {b_cycles:.0f} -> {c_cycles:.0f} cycles")
        if float(c.get("max_abs_err", 0.0)) > 1e-9:
            failures.append(f"{name}: correctness drift, max_abs_err={c['max_abs_err']}")

    # A missing geomean would make the geomean check pass vacuously (0 < x),
    # so treat it as malformed input rather than defaulting.
    b_geo = c_geo = 0.0
    geo_missing = False
    for doc, path, which in ((base, args.baseline, "baseline"),
                             (cur, args.current, "current")):
        if "geomean_speedup" not in doc:
            failures.append(f"{which} {path}: missing geomean_speedup")
            geo_missing = True
    if not geo_missing:
        b_geo = float(base["geomean_speedup"])
        c_geo = float(cur["geomean_speedup"])
        if c_geo < b_geo * (1.0 - tol):
            failures.append(f"geomean speedup regressed {b_geo:.4f} -> {c_geo:.4f}")

    # Optional reference block (BENCH_dse.json): the document carries its own
    # quality bar — the auto-designed ISA must stay at least as fast as the
    # named reference design at no more hardware cost. This is how a
    # regression in mined-ISA *quality* (not just cycle counts) fails CI.
    ref = cur.get("reference")
    if ref is not None:
        ref_name = ref.get("name", "reference")
        try:
            ref_geo = float(ref["geomean_speedup"])
            cur_geo = float(cur["geomean_speedup"])
            if cur_geo < ref_geo * (1.0 - tol):
                failures.append(
                    f"auto ISA geomean {cur_geo:.4f} fell below the {ref_name} "
                    f"reference {ref_geo:.4f} (tolerance {args.tolerance}%)")
        except (KeyError, TypeError, ValueError):
            failures.append(f"reference block malformed: {ref!r}")
        # The hardware-cost half of the quality bar gets the same treatment
        # as geomean_speedup: once a reference block is present, a missing
        # hw_cost on either side would let a cost regression pass vacuously,
        # so it is a FAIL, not a silent skip.
        hw_missing = False
        for doc, which in ((ref, f"{ref_name} reference block"),
                           (cur, f"current {args.current}")):
            if "hw_cost" not in doc:
                failures.append(f"{which}: missing hw_cost "
                                f"(required when a reference block is present)")
                hw_missing = True
        if not hw_missing:
            ref_hw = float(ref["hw_cost"])
            cur_hw = float(cur["hw_cost"])
            if cur_hw > ref_hw + 1e-6:
                failures.append(
                    f"auto ISA hardware cost {cur_hw:.1f} exceeds the {ref_name} "
                    f"reference {ref_hw:.1f}")

    for line in improvements:
        print(f"check_perf: improvement: {line} (consider refreshing the baseline)")
    if failures:
        for line in failures:
            print(f"check_perf: FAIL: {line}", file=sys.stderr)
        return 1
    # Report the number of kernels actually compared, not the baseline's
    # size — the two only coincide when the kernel sets match exactly.
    print(f"check_perf: ok ({compared} kernels, "
          f"geomean {c_geo:.2f}x vs baseline {b_geo:.2f}x, tolerance {args.tolerance}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
