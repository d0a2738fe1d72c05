//! A multi-engine portfolio checker — the stand-in for the commercial
//! tool (Cadence Conformal LEC) in the paper's evaluation.
//!
//! The paper notes that commercial checkers are believed to combine
//! several engines and stop as soon as one finishes. [`portfolio_check`]
//! hands the miter to [`crate::dispatch`]: structural check and
//! random-simulation disproof as inline screens, then exhaustive
//! truth-table PO proving (effective on small-support control logic) and
//! SAT sweeping, ranked by their cost priors and raced on hard miters.
//! This module holds the configuration the engines run with.

use parsweep_aig::Aig;
use parsweep_par::{CancelToken, Executor};

use crate::prover::{dispatch, ProveOutcome, RACE_THRESHOLD};
use crate::sweep::SweepConfig;

/// Portfolio configuration.
#[derive(Clone, Debug)]
pub struct PortfolioConfig {
    /// PO support-size cap for the exhaustive engine.
    pub po_support_cap: usize,
    /// PO cone-size cap (AND gates) for the exhaustive engine — a proxy
    /// for the BDD blow-up that limits commercial global engines on
    /// multiplier-like structure.
    pub po_cone_cap: usize,
    /// Memory (words) for the exhaustive engine's simulation table.
    pub memory_words: usize,
    /// Random-simulation words for the disproof engine.
    pub sim_words: usize,
    /// SAT sweeping configuration for the fallback engine.
    pub sweep: SweepConfig,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            po_support_cap: 20,
            po_cone_cap: 3000,
            memory_words: parsweep_sim::DEFAULT_MEMORY_WORDS,
            sim_words: 8,
            sweep: SweepConfig::default(),
        }
    }
}

/// Runs the engine portfolio on a whole miter.
pub fn portfolio_check(miter: &Aig, exec: &Executor, cfg: &PortfolioConfig) -> ProveOutcome {
    dispatch(miter, exec, cfg, &CancelToken::never(), RACE_THRESHOLD)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prover::{AttemptStatus, EngineKind};
    use crate::sweep::Verdict;
    use parsweep_aig::{miter, Aig};

    fn exec() -> Executor {
        Executor::with_threads(1)
    }

    #[test]
    fn structural_engine_wins_on_identical() {
        let a = parsweep_aig::random::random_aig(6, 40, 2, 5);
        let m = miter(&a, &a).unwrap();
        let r = portfolio_check(&m, &exec(), &PortfolioConfig::default());
        assert_eq!(r.engine, Some(EngineKind::Structural));
        assert!(r.verdict.is_equivalent());
    }

    #[test]
    fn random_sim_disproves_quickly() {
        let mut a = Aig::new();
        let xs = a.add_inputs(4);
        let f = a.and_all(xs.iter().copied());
        a.add_po(f);
        let mut b = Aig::new();
        let ys = b.add_inputs(4);
        let g = b.or_all(ys.iter().copied());
        b.add_po(g);
        let m = miter(&a, &b).unwrap();
        let r = portfolio_check(&m, &exec(), &PortfolioConfig::default());
        assert_eq!(r.engine, Some(EngineKind::RandomSim));
        match r.verdict {
            Verdict::NotEquivalent(cex) => {
                let out = m.eval(&cex.to_dense(&m));
                assert!(out.iter().any(|&x| x));
            }
            other => panic!("expected disproof, got {other:?}"),
        }
    }

    #[test]
    fn exhaustive_engine_proves_small_supports() {
        // Majority tree, two builds; supports are small per PO.
        let mut a = Aig::new();
        let xs = a.add_inputs(3);
        let f = a.maj3(xs[0], xs[1], xs[2]);
        a.add_po(f);
        let mut b = Aig::new();
        let ys = b.add_inputs(3);
        // Majority via mux: if a then (b|c) else (b&c).
        let or = b.or(ys[1], ys[2]);
        let and = b.and(ys[1], ys[2]);
        let g = b.mux(ys[0], or, and);
        b.add_po(g);
        let m = miter(&a, &b).unwrap();
        let r = portfolio_check(&m, &exec(), &PortfolioConfig::default());
        assert_eq!(r.engine, Some(EngineKind::ExhaustivePo));
        assert!(r.verdict.is_equivalent());
    }

    #[test]
    fn sat_fallback_on_large_supports() {
        // 30-input cones exceed the default cap but random sim cannot
        // disprove (they are equivalent), so SAT sweeping must decide.
        let n = 30;
        let mut a = Aig::new();
        let xs = a.add_inputs(n);
        let f = a.and_all(xs.iter().copied());
        a.add_po(f);
        let mut b = Aig::new();
        let ys = b.add_inputs(n);
        // Right-associated chain: structurally different from the
        // balanced tree, so strash cannot collapse the miter.
        let mut g = ys[n - 1];
        for &y in ys[..n - 1].iter().rev() {
            g = b.and(y, g);
        }
        b.add_po(g);
        let m = miter(&a, &b).unwrap();
        let cfg = PortfolioConfig {
            po_support_cap: 16,
            ..PortfolioConfig::default()
        };
        let r = portfolio_check(&m, &exec(), &cfg);
        assert_eq!(r.engine, Some(EngineKind::SatSweep));
        assert!(r.verdict.is_equivalent());
        // Loser attempts are recorded with their cost; the inadmissible
        // exhaustive engine is marked skipped.
        assert_eq!(r.attempts.len(), 4);
        let status = |kind| {
            let a = r.attempts.iter().find(|a| a.engine == kind);
            a.expect("every engine leaves an attempt").status
        };
        assert_eq!(status(EngineKind::Structural), AttemptStatus::Lost);
        assert_eq!(status(EngineKind::RandomSim), AttemptStatus::Lost);
        assert_eq!(status(EngineKind::ExhaustivePo), AttemptStatus::Skipped);
        assert_eq!(status(EngineKind::SatSweep), AttemptStatus::Won);
    }
}
