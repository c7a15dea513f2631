#!/usr/bin/env bash
# Build the benchmark offline and run its workloads, one process each.
#
#   benchmark/run.sh [--seed S] [--seconds T] [--trace] [--aa] [workload...]
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#
# The first form runs the named workloads (default: standard ref server
# campaign), untraced and, with --trace, once more traced, writing each
# result object to benchmark/out/. --aa runs the untraced set twice and
# prints every metric's relative change between the two.
# The second form runs one workload and ends its output with the result
# object on one line.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/benchmark/out"

# Send everything cargo prints to stderr: standard output ends with the result.
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$root/benchmark/target}/release/pythia-benchmark"

rev=unknown
if [ -d "$root/.git" ]; then
    rev="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
echo "# pythia-benchmark rev $rev, $(rustc --version), nproc $(nproc)"

for arg in "$@"; do
    if [ "$arg" = --workload ]; then
        exec "$bin" "$@" --out "$out"
    fi
done

seed=0
seconds=28 # run_seconds in BENCHMARK.json
trace=0
aa=0
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
        --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
        --trace) trace=1; shift ;;
        --aa) aa=1; shift ;;
        -*) echo "run.sh: unknown option $1" >&2; exit 2 ;;
        *) workloads+=("$1"); shift ;;
    esac
done
[ ${#workloads[@]} -gt 0 ] || workloads=(standard ref server campaign)

status=0
run_set() { # run_set DIR TRACE
    for w in "${workloads[@]}"; do
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$2" --out "$1" || {
            rc=$?
            [ "$rc" -eq 2 ] && exit 2
            status=1
        }
    done
}

if [ "$aa" = 1 ]; then
    run_set "$out/aa-1" 0
    run_set "$out/aa-2" 0
    "$bin" --compare "$out/aa-1" "$out/aa-2"
else
    run_set "$out" 0
    [ "$trace" = 0 ] || run_set "$out" 1
fi
exit "$status"
