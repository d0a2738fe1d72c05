#!/usr/bin/env bash
# Smoke benchmark of the device runtime: runs the engine over the
# generator suite — nine sweep cases plus the resim-heavy deep-FRAIG
# rows (multiplier_fraig, log2_fraig) — and emits BENCH_runtime.json
# (wall time, modeled / serialized cost-model times, launch split,
# incremental-resim counters, arena recycling counters). The service and
# network are measured by the benchmark in benchmark/ instead.
#
# Usage: scripts/bench.sh [tiny|small|medium|large] [output.json]
#
# The scale can also come from the PARSWEEP_SCALE environment variable
# (positional argument wins), so CI matrix jobs can select a rung of the
# ladder without editing the invocation.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-${PARSWEEP_SCALE:-tiny}}"
OUT="${2:-BENCH_runtime.json}"

# Keep the previous run around so the delta report below has a baseline.
[ -f "$OUT" ] && cp "$OUT" "$OUT.prev"

cargo run --release -p parsweep-bench --bin runtime -- "$SCALE" "$OUT"
echo "--- $OUT ---"
cat "$OUT"

# The runtime delta gates pool-dispatched launch counts: a regression
# beyond MAX_REGRESS percent (default 50) fails the run.
if [ -f "$OUT.prev" ]; then
    echo "--- delta vs previous $OUT ---"
    python3 scripts/bench_delta.py --max-regress "${MAX_REGRESS:-50}" "$OUT.prev" "$OUT"
    rm -f "$OUT.prev"
fi
