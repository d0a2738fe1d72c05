//! The paper's simulation engine as a [`ProofEngine`], plus the standard
//! prover wiring the combined flow and the service use for per-class
//! dispatch.
//!
//! The dispatch layer lives in `parsweep-sat` (below this crate), so the
//! simulation-based engine — the paper's own prover — registers itself
//! *into* that layer from above: [`SimSweepEngine`] wraps
//! [`sim_sweep_cancellable`] behind the trait, and [`build_prover`]
//! assembles a [`Prover`] over the four portfolio stages plus the sim
//! engine.

use parsweep_aig::Aig;
use parsweep_par::{CancelToken, Executor};
use parsweep_sat::prover::MAX_RACE;
use parsweep_sat::{
    standard_engines, Difficulty, EngineKind, EngineReport, PortfolioConfig, ProofEngine, Prover,
    SweepConfig, SweepStats,
};
use parsweep_sim::Cex;

use crate::config::EngineConfig;
use crate::engine::sim_sweep_cancellable;

/// The simulation-based sweeping engine (paper Fig. 1) behind the
/// dispatch layer's [`ProofEngine`] trait.
#[derive(Clone, Debug)]
pub struct SimSweepEngine {
    /// Engine parameters for the per-class runs.
    pub cfg: EngineConfig,
    /// Smallest cone (AND gates) worth the engine's kernel-launch
    /// overhead; smaller classes are left to the lighter engines.
    pub min_ands: usize,
}

impl SimSweepEngine {
    /// The engine with per-class-sized defaults.
    pub fn new(cfg: EngineConfig) -> Self {
        SimSweepEngine { cfg, min_ands: 64 }
    }
}

impl ProofEngine for SimSweepEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::SimSweep
    }

    fn admits(&self, difficulty: &Difficulty) -> bool {
        // When an upstream pass (the combined flow's P+G) already
        // produced this residual, rerunning the engine, L phases
        // included, only pays off if that pass was still refining
        // classes when it stopped.
        difficulty.ands >= self.min_ands && difficulty.refine_velocity.is_none_or(|v| v > 0.0)
    }

    fn prior_cost_micros(&self, difficulty: &Difficulty) -> u64 {
        200 + difficulty.ands as u64 * 120
    }

    fn prove(
        &self,
        cone: &Aig,
        exec: &Executor,
        _seeds: &[Cex],
        token: &CancelToken,
    ) -> EngineReport {
        let result = sim_sweep_cancellable(cone, exec, &self.cfg, token);
        EngineReport {
            verdict: result.verdict,
            stats: SweepStats::default(),
        }
    }
}

/// Builds the standard prover: the four portfolio stages (SAT sweeping
/// under `sat`) plus the simulation engine, with difficulty caps mirroring
/// the exhaustive engine's admission bounds. Up to [`MAX_RACE`] heavy
/// engines hold simulation tables at once, so the one residency control —
/// [`EngineConfig::memory_words`] — is split between them: the finishing
/// stage as a whole stays within the budget the sim stage ran under.
pub fn build_prover(sat: &SweepConfig, engine_cfg: &EngineConfig) -> Prover {
    let memory_words = (engine_cfg.memory_words / MAX_RACE).max(1);
    let portfolio = PortfolioConfig {
        sweep: sat.clone(),
        memory_words,
        ..PortfolioConfig::default()
    };
    let mut engines = standard_engines(&portfolio);
    engines.push(Box::new(SimSweepEngine::new(EngineConfig {
        memory_words,
        ..engine_cfg.clone()
    })));
    Prover::with_engines(engines).with_caps(portfolio.po_support_cap, portfolio.po_cone_cap)
}

/// The sim-refinement velocity feature of [`Difficulty`]: classes refined
/// per pruned simulation round of the pass that produced a residual.
pub fn refine_velocity(stats: &crate::EngineStats) -> f64 {
    stats.classes_refined as f64 / (stats.pruned_sim_rounds.max(1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsweep_aig::miter;
    use parsweep_sat::Verdict;

    #[test]
    fn sim_engine_proves_a_cone() {
        let a = parsweep_aig::random::random_aig(6, 120, 3, 11);
        let b = a.clean();
        let m = miter(&a, &b).unwrap();
        let exec = Executor::with_threads(1);
        let engine = SimSweepEngine {
            cfg: EngineConfig::default(),
            min_ands: 0,
        };
        let report = engine.prove(&m, &exec, &[], &CancelToken::never());
        assert_eq!(report.verdict, Verdict::Equivalent);
    }

    #[test]
    fn sim_engine_respects_cancellation() {
        // Balanced vs right-associated conjunction: equivalent but not
        // structurally collapsible, so a pre-cancelled run cannot fall
        // through to an instant structural proof.
        let n = 16;
        let mut a = Aig::new();
        let xs = a.add_inputs(n);
        let f = a.and_all(xs.iter().copied());
        a.add_po(f);
        let mut b = Aig::new();
        let ys = b.add_inputs(n);
        let mut g = ys[n - 1];
        for &y in ys[..n - 1].iter().rev() {
            g = b.and(y, g);
        }
        b.add_po(g);
        let m = miter(&a, &b).unwrap();
        let exec = Executor::with_threads(1);
        let engine = SimSweepEngine::new(EngineConfig::default());
        let token = CancelToken::new();
        token.cancel();
        let report = engine.prove(&m, &exec, &[], &token);
        assert_eq!(report.verdict, Verdict::Undecided);
    }

    #[test]
    fn standard_prover_includes_the_sim_engine() {
        let p = build_prover(&SweepConfig::default(), &EngineConfig::default());
        assert!(p.engine_kinds().contains(&EngineKind::SimSweep));
    }

    #[test]
    fn zero_velocity_residuals_skip_the_sim_engine() {
        let engine = SimSweepEngine::new(EngineConfig::default());
        let stalled = Difficulty {
            ands: 1000,
            refine_velocity: Some(0.0),
            ..Difficulty::default()
        };
        assert!(!engine.admits(&stalled));
        let cold = Difficulty {
            ands: 1000,
            ..Difficulty::default()
        };
        assert!(engine.admits(&cold));
    }
}
