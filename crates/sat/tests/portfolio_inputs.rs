//! The portfolio's dispatch decisions on committed benchmark pairs, at the
//! default configuration (the one `parsweep check --engine portfolio`
//! uses): which engine decides, whether the heavy engines race, and the
//! verdict.

use std::path::PathBuf;

use parsweep_aig::{miter, read_aiger_file, Aig};
use parsweep_par::Executor;
use parsweep_sat::{portfolio_check, AttemptStatus, EngineKind, PortfolioConfig, ProveOutcome};

/// The miter of `benchmark/inputs/<pair>.L.aig` and `<pair>.R.aig`.
fn committed_miter(pair: &str) -> Aig {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmark/inputs");
    let read = |side: &str| read_aiger_file(dir.join(format!("{pair}.{side}.aig"))).unwrap();
    miter(&read("L"), &read("R")).unwrap()
}

fn check(pair: &str) -> ProveOutcome {
    let exec = Executor::with_threads(1);
    portfolio_check(&committed_miter(pair), &exec, &PortfolioConfig::default())
}

fn status_of(out: &ProveOutcome, kind: EngineKind) -> AttemptStatus {
    let attempt = out.attempts.iter().find(|a| a.engine == kind);
    attempt.expect("every engine leaves an attempt").status
}

#[test]
fn small_supports_are_decided_inline_by_the_exhaustive_engine() {
    let out = check("multiplier_w4_1xd");
    assert!(out.verdict.is_equivalent(), "{out:?}");
    assert_eq!(out.engine, Some(EngineKind::ExhaustivePo));
    assert!(!out.raced);
}

#[test]
fn wide_supports_go_to_sat_alone() {
    let out = check("voter_n25_2xd");
    assert!(out.verdict.is_equivalent(), "{out:?}");
    assert_eq!(out.engine, Some(EngineKind::SatSweep));
    assert_eq!(
        status_of(&out, EngineKind::ExhaustivePo),
        AttemptStatus::Skipped
    );
    assert!(!out.raced);
}

#[test]
fn a_hard_miter_within_the_caps_races() {
    let out = check("multiplier_w10_1xd");
    assert!(out.raced, "{:?}", out.attempts);
    assert!(out.verdict.is_equivalent(), "{out:?}");
}
