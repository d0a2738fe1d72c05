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
#                            members)
#   4. static effect checks  the adversarial and static-vs-dynamic suites on
#                            raw executors
#   5. kernel sanitizer      PARSWEEP_SANITIZE=1 makes every executor audit:
#                            launches run serialized, every access is checked
#                            against the launch's declared effects and the
#                            access log is race-checked (racecheck analogue)
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

echo "==> table decision + job memo acceptance (explicit)"
cargo test -p parsweep-svc --lib -q table
cargo test -p parsweep-svc --lib -q memo

echo "==> trace-enabled tests (feature)"
cargo test -p parsweep-trace --features enabled -q
cargo test -p parsweep-svc --features trace -q
cargo test -p parsweep-net --features trace -q

echo "==> static effect suites (raw executors)"
cargo test -p parsweep-par --test effects_static --test effects_props -q

echo "==> audited tests (PARSWEEP_SANITIZE=1)"
PARSWEEP_SANITIZE=1 cargo test -p parsweep-par -p parsweep-sim -p parsweep-cut -p parsweep-sat -p parsweep-core -p parsweep-svc -p parsweep-net -q
PARSWEEP_SANITIZE=1 cargo test --test sanitizer_engine --test edge_cases -q

echo "==> benchmark build + smoke run"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke

echo "lint.sh: all green"
