#!/bin/sh
# Sanitized sweep of the concurrency- and crash-heavy suites.
#
#   tools/run_sanitized.sh [thread|address] [ctest -L regex]
#
# Configures a separate build tree (build-san-<kind>) with MAT2C_SANITIZE set,
# builds it, and runs the labeled tests under the sanitizer:
#
#   thread  (default) — TSan over the service/chaos/robustness/dse/tune/
#           interp/lower/opt labels: the CompileService worker pool, the shard
#           supervisor's reader/monitor threads, the seeded chaos harness,
#           dse::explore's parallel measurement jobs and tune::autotune's
#           speculative candidate batches. Data races show up here, not in
#           production.
#   address — ASan+UBSan over the same labels (docs/robustness.md sweep);
#           the interp label covers the interpreter's inline 1x1 Matrix
#           storage and its slot frames, the lower label the lowerer's
#           recorded exit envs, which live in a scope vector that an
#           inlined call grows, and the opt label the passes that replace
#           LIR expression slots in place.
#
# The label regex defaults to "chaos|robustness|service|dse|tune|interp|lower|opt";
# pass a second argument to narrow it (e.g. `tools/run_sanitized.sh thread chaos`).
set -eu

kind="${1:-thread}"
labels="${2:-chaos|robustness|service|dse|tune|interp|lower|opt}"
case "$kind" in
  thread|address) ;;
  *) echo "usage: $0 [thread|address] [ctest -L regex]" >&2; exit 2 ;;
esac

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/build-san-$kind"

cmake -B "$build" -S "$root" -DMAT2C_SANITIZE="$kind" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build" -j "$(nproc 2>/dev/null || echo 2)"

# halt_on_error makes a sanitizer report a hard test failure instead of a
# log line scrolling past; second_deadlock_stack improves TSan lock reports.
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}" \
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1 detect_leaks=0}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}" \
  ctest --test-dir "$build" -L "$labels" --output-on-failure
echo "sanitized ($kind) sweep over -L '$labels': ok"
