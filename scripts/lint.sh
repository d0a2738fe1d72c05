#!/usr/bin/env bash
# Static + dynamic hardening gate, the same sequence CI runs:
#   1. formatting            cargo fmt --all -- --check
#   2. lints                 cargo clippy --workspace --all-targets -- -D warnings
#                            (workspace lints deny unsafe_op_in_unsafe_fn and
#                             undocumented unsafe blocks), and rustdoc with
#                            -D warnings (no dangling intra-doc link)
#   3. tier-1 build + tests  cargo build --release && cargo test (root package
#                            plus the aig, trace, par, sim, cut, sat, core,
#                            svc and net crates, the workspace's default
#                            members), then the synth suite, which is not
#                            a default member, a tiny ablation run, the
#                            SAT baseline on a 10-bit multiplier pair and on
#                            a sqrt pair and its rare mutant (exit 0 and 1), the
#                            portfolio on four pairs (exhaustive inline, the
#                            random-sim screen, and two races of exhaustive
#                            against SAT, exit 0 and 1), the
#                            default check on a sqrt pair and a multiplier
#                            mutant (exit 0 and 1), a mismatched pair
#                            (exit 65, input error), a
#                            FRAIG soundness smoke (FRAIG a hyp network,
#                            then prove the result equivalent to it by SAT),
#                            and a traced check (built with the trace
#                            feature, PARSWEEP_TRACE set) that must exit 0
#                            and write a trace with an engine.g.windows span
#   4. static effect checks  the adversarial and static-vs-dynamic suites on
#                            raw executors
#   5. kernel sanitizer      PARSWEEP_SANITIZE=1 makes every executor audit:
#                            launches run serialized, every access is checked
#                            against the launch's declared effects and the
#                            access log is race-checked (racecheck analogue);
#                            then an audited release `check` of the sqrt
#                            mutant, whose P and G row kernels run many
#                            rounds, must exit 1, one of the square pair,
#                            whose P windows share table slots, and one of
#                            sqrt_w12_0xd, whose G batch takes four rounds
#                            on shared slots, exit 0
#   6. benchmark             the benchmark package builds against the tree
#                            and passes its smoke run
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy -D warnings (trace feature)"
cargo clippy --workspace --all-targets --features trace -- -D warnings

echo "==> rustdoc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1 build + test"
cargo build --release
cargo test -q

echo "==> synth suite (not a default member)"
cargo test -p parsweep-synth -q

echo "==> ablation run (the only non-test code that varies the engine's passes)"
cargo run --release -p parsweep-bench --bin ablation -- tiny > /dev/null

echo "==> SAT baseline on a 10-bit multiplier pair (must prove it within 10 s)"
target/release/parsweep check benchmark/inputs/multiplier_w10_1xd.L.aig \
    benchmark/inputs/multiplier_w10_1xd.R.aig --engine sat --budget 10

echo "==> SAT baseline: proves sqrt_w10_1xd (12 deferred constants, all dead), disproves its rare mutant (10 s each)"
target/release/parsweep check benchmark/inputs/sqrt_w10_1xd.L.aig \
    benchmark/inputs/sqrt_w10_1xd.R.aig --engine sat --budget 10 >/dev/null
status=0
target/release/parsweep check benchmark/inputs/sqrt_w10_1xd.L.aig \
    benchmark/inputs/sqrt_w10_1xd.rare.R.aig --engine sat --budget 10 >/dev/null || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 (not equivalent), got $status" >&2; exit 1; }

echo "==> portfolio: proves a 4-bit multiplier pair, disproves a flipped sqrt (10 s each)"
target/release/parsweep check benchmark/inputs/multiplier_w4_1xd.L.aig \
    benchmark/inputs/multiplier_w4_1xd.R.aig --engine portfolio --budget 10 >/dev/null
status=0
target/release/parsweep check benchmark/inputs/sqrt_w10_1xd.L.aig \
    benchmark/inputs/sqrt_w10_1xd.flip.R.aig --engine portfolio --budget 10 >/dev/null || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 (not equivalent), got $status" >&2; exit 1; }

echo "==> portfolio race: proves a 10-bit multiplier pair, disproves its rare mutant (10 s each)"
target/release/parsweep check benchmark/inputs/multiplier_w10_1xd.L.aig \
    benchmark/inputs/multiplier_w10_1xd.R.aig --engine portfolio --budget 10 >/dev/null
status=0
target/release/parsweep check benchmark/inputs/multiplier_w10_0xd.L.aig \
    benchmark/inputs/multiplier_w10_0xd.rare.R.aig --engine portfolio --budget 10 >/dev/null || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 (not equivalent), got $status" >&2; exit 1; }

echo "==> default check: P+G then SAT proves sqrt_w12_0xd, disproves a multiplier mutant"
target/release/parsweep check benchmark/inputs/sqrt_w12_0xd.L.aig \
    benchmark/inputs/sqrt_w12_0xd.R.aig --budget 10 >/dev/null
status=0
target/release/parsweep check benchmark/inputs/multiplier_w10_0xd.L.aig \
    benchmark/inputs/multiplier_w10_0xd.rare.R.aig --budget 10 >/dev/null || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 (not equivalent), got $status" >&2; exit 1; }

echo "==> input error: check on pairs with different PO counts exits 65"
status=0
target/release/parsweep check benchmark/inputs/sqrt_w4_1xd.L.aig \
    benchmark/inputs/multiplier_w4_1xd.R.aig 2>/dev/null || status=$?
[ "$status" -eq 65 ] || { echo "expected exit 65 (input error), got $status" >&2; exit 1; }

echo "==> FRAIG soundness smoke (the reduced hyp network must prove equivalent)"
fraig_out=$(mktemp --suffix=.aig)
trap 'rm -f "$fraig_out"' EXIT
target/release/parsweep fraig benchmark/inputs/hyp_w9_1xd.L.aig "$fraig_out"
target/release/parsweep check benchmark/inputs/hyp_w9_1xd.L.aig "$fraig_out" \
    --engine sat --budget 10

echo "==> table decision + job memo acceptance (explicit)"
cargo test -p parsweep-svc --lib -q table
cargo test -p parsweep-svc --lib -q memo

echo "==> trace-enabled tests (feature)"
cargo test -p parsweep-trace --features enabled -q
cargo test -p parsweep-svc --features trace -q
cargo test -p parsweep-net --features trace -q

echo "==> traced CLI check: exit 0 and a Chrome trace with the G-phase window span"
cargo build --release --features trace --bin parsweep
trace_dir=$(mktemp -d)
trap 'rm -f "$fraig_out"; rm -rf "$trace_dir"' EXIT
PARSWEEP_TRACE="$trace_dir/t.json" target/release/parsweep check \
    benchmark/inputs/sqrt_w12_0xd.L.aig benchmark/inputs/sqrt_w12_0xd.R.aig --budget 10 >/dev/null
python3 scripts/check_trace.py "$trace_dir/t.json"
grep -q '"engine.g.windows"' "$trace_dir/t.json"

echo "==> static effect suites (raw executors)"
cargo test -p parsweep-par --test effects_static --test effects_props -q

echo "==> audited tests (PARSWEEP_SANITIZE=1)"
PARSWEEP_SANITIZE=1 cargo test -p parsweep-par -p parsweep-sim -p parsweep-cut -p parsweep-sat -p parsweep-core -p parsweep-svc -p parsweep-net -q
PARSWEEP_SANITIZE=1 cargo test --test sanitizer_engine --test edge_cases -q

echo "==> audited end-to-end check: the sqrt mutant's P and G row kernels, many rounds (exit 1)"
cargo build --release --bin parsweep
status=0
PARSWEEP_SANITIZE=1 target/release/parsweep check benchmark/inputs/sqrt_w10_1xd.L.aig \
    benchmark/inputs/sqrt_w10_1xd.rare.R.aig --budget 60 >/dev/null || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 (not equivalent), got $status" >&2; exit 1; }

echo "==> audited end-to-end check: a P batch of 24 900 entries on 2 652 shared table slots (exit 0)"
PARSWEEP_SANITIZE=1 target/release/parsweep check benchmark/inputs/square_w10_2xd.L.aig \
    benchmark/inputs/square_w10_2xd.R.aig --budget 60 >/dev/null

echo "==> audited end-to-end check: a G batch of 1 024-word tables in four rounds on shared slots (exit 0)"
PARSWEEP_SANITIZE=1 target/release/parsweep check benchmark/inputs/sqrt_w12_0xd.L.aig \
    benchmark/inputs/sqrt_w12_0xd.R.aig --budget 60 >/dev/null

echo "==> benchmark build + smoke run"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke

echo "lint.sh: all green"
