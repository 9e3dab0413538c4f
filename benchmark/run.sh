#!/usr/bin/env bash
# The one command of the benchmark.
#
#   run.sh                      the whole suite: every workload untraced
#                               (`bench`), then traced (`trace`); prints every
#                               metric by name and writes out/results.jsonl and
#                               out/trace-<workload>.jsonl
#   run.sh --seed N             the suite on another seed (default 83)
#   run.sh --workload W --seed N --seconds S --trace 0|1
#                               one run, as BENCHMARK.json's command makes it;
#                               the last line of stdout is the result object
#   run.sh agree A.jsonl B.jsonl
#                               compare two result files against the bounds
#
# Exits non-zero when a build, a run or a correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Both builds share one target directory, so the harness finds `segugio`
# beside itself. A relative CARGO_TARGET_DIR (the driver sets one) is
# relative to the caller's directory, which this script never leaves.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
bin="$CARGO_TARGET_DIR/release"

cargo build --release --offline --quiet \
    --manifest-path "$here/../Cargo.toml" -p segugio-eval --bin segugio
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

if [[ "${1:-}" == agree ]]; then
    exec "$bin/bench" "$@"
fi

program=bench
workload=""
seed=83
previous=""
for arg in "$@"; do
    case "$previous" in
        --workload) workload="$arg" ;;
        --seed) seed="$arg" ;;
        --trace) [[ "$arg" == 1 ]] && program=trace ;;
    esac
    previous="$arg"
done
if [[ -n "$workload" ]]; then
    exec "$bin/$program" "$@"
fi

seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
rm -f "$here/out/results.jsonl"
status=0
for program in bench trace; do
    for workload in track-churn track-steady stream-1m logs-cron; do
        # The result object on the last line is for the driver; the suite
        # keeps the readable part.
        "$bin/$program" --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace "$([[ $program == trace ]] && echo 1 || echo 0)" | sed '$d' || status=1
    done
done
echo "results: $here/out/results.jsonl, spans: $here/out/trace-<workload>.jsonl"
exit "$status"
