#!/usr/bin/env bash
# Builds the shipped release binaries (`parsweep`, `net`) and the benchmark
# binary, then runs the benchmark.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run of one workload; the last line of stdout is the result as
#       one JSON object (the contract in BENCHMARK.json).
#   benchmark/run.sh [--seed N] [--repeats K] [--trace] [--smoke] [--out FILE]
#       Every workload: the smoke run first, then every metric by name with
#       its unit, and benchmark/out/results.json. `--trace` adds the
#       per-layer pass and benchmark/out/layers.json; `--smoke` stops after
#       the smoke run.
#
# Run from anywhere; builds into $CARGO_TARGET_DIR (default: <repo>/target).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# The programs under test come from the root workspace exactly as it ships
# them; the benchmark is a package of its own next to it.
(cd "$root" && cargo build --release --offline --quiet \
    -p parsweep -p parsweep-net --bin parsweep --bin net) >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export PARSWEEP_BENCHMARK_DIR="$here"
bin="$target/release/benchmark"

case " $* " in
*" --workload "* | *" --smoke "*) exec "$bin" "$@" ;;
esac
# A timed pass only starts on a benchmark that passes its own smoke run.
"$bin" --smoke >&2 || {
    echo "run.sh: smoke run failed, not starting the timed pass" >&2
    exit 1
}
exec "$bin" "$@"
