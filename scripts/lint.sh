#!/usr/bin/env bash
# Static + dynamic hardening gate, the same sequence CI runs:
#   1. formatting            cargo fmt --all -- --check
#   2. lints                 cargo clippy --workspace --all-targets -- -D warnings
#                            (workspace lints deny unsafe_op_in_unsafe_fn and
#                             undocumented unsafe blocks)
#   3. tier-1 build + tests  cargo build --release && cargo test (root package
#                            plus the sim and core crates, the workspace's
#                            default members)
#   4. kernel sanitizer      parsweep-par suite with the `sanitize` feature,
#                            then the engine-facing suites with every executor
#                            forced into sanitizing mode (racecheck analogue)
#   5. static effect checks  PARSWEEP_SANITIZE=all cross-checks every declared
#                            launch against the dynamic sanitizer: statically
#                            verified footprints must cover every real access
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy -D warnings (trace feature)"
cargo clippy --workspace --all-targets --features trace -- -D warnings

echo "==> tier-1 build + test"
cargo build --release
cargo test -q

echo "==> semantic cache + persistence acceptance (explicit)"
cargo test -p parsweep-svc --test service_integration -q semantic
cargo test -p parsweep-svc --test service_integration -q persisted
cargo test -p parsweep-svc --lib -q semantic
cargo test -p parsweep-svc --lib -q memo

echo "==> sanitizer-enabled tests (feature)"
cargo test -p parsweep-par --features sanitize -q
cargo test -p parsweep-svc --features sanitize -q
cargo test -p parsweep-net --features sanitize -q

echo "==> trace-enabled tests (feature)"
cargo test -p parsweep-trace --features enabled -q
cargo test -p parsweep-svc --features trace -q
cargo test -p parsweep-net --features trace -q

echo "==> sanitizer-enabled tests (PARSWEEP_SANITIZE=1)"
PARSWEEP_SANITIZE=1 cargo test -p parsweep-par -p parsweep-sim -p parsweep-sat -p parsweep-core -p parsweep-svc -p parsweep-net -q
PARSWEEP_SANITIZE=1 cargo test --test sanitizer_engine --test edge_cases -q

echo "==> static effect cross-check (PARSWEEP_SANITIZE=all)"
cargo test -p parsweep-par --test effects_static --test effects_props -q
PARSWEEP_SANITIZE=all cargo test -p parsweep-par -p parsweep-sim -p parsweep-cut -q
PARSWEEP_SANITIZE=all cargo test -p parsweep-core --test budget_props -q
PARSWEEP_SANITIZE=all cargo test --test sanitizer_engine -q

echo "lint.sh: all green"
