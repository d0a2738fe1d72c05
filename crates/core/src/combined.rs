//! The combined flow: the simulation engine's P and G phases, then the
//! proving dispatcher on the whole miter they leave undecided — the
//! paper's "Ours (GPU+ABC)" column with the SAT sweeper taking over
//! where the L phases would otherwise run.
//!
//! The L phases (Algorithm 2) are left out on purpose: the SAT sweeper
//! proves candidate pairs bottom-up and keeps each proof as equivalence
//! clauses, so on the P+G-reduced miter it decides what the L phases
//! would, for a fraction of their cost (EXPERIMENTS.md, Fig. 7's PG
//! column). [`crate::sim_sweep`] still runs the paper's full P/G/L flow.

use parsweep_aig::Aig;
use parsweep_par::{CancelToken, Executor};
use parsweep_sat::{ProveOutcome, Prover, SweepConfig, Verdict};
use parsweep_trace as trace;
use parsweep_trace::WallClock;

use crate::config::EngineConfig;
use crate::engine::{sim_sweep_pg, EngineResult};
use crate::prove::{build_prover, refine_velocity};

/// Configuration of the combined flow.
#[derive(Clone, Debug, Default)]
pub struct CombinedConfig {
    /// Simulation-based engine parameters: the flow's own P and G phases
    /// run under them, as does the prover's sim engine (all phases).
    pub engine: EngineConfig,
    /// SAT sweeping parameters for the dispatcher's SAT engine (its
    /// `wall_budget` bounds each SAT attempt).
    pub sat: SweepConfig,
}

/// The outcome of the combined flow.
#[derive(Clone, Debug)]
pub struct CombinedResult {
    /// Final verdict.
    pub verdict: Verdict,
    /// The simulation-based engine's P+G result (always runs first).
    pub engine: EngineResult,
    /// The dispatch of the engine's reduced miter as one class; `None`
    /// when the engine decided alone.
    pub dispatch: Option<ProveOutcome>,
    /// Engine wall-clock seconds (the paper's "GPU (s)").
    pub engine_seconds: f64,
    /// Finishing wall-clock seconds (the paper's "ABC (s)").
    pub sat_seconds: f64,
}

impl CombinedResult {
    /// Total wall-clock seconds of the combined flow.
    pub fn total_seconds(&self) -> f64 {
        self.engine_seconds + self.sat_seconds
    }
}

/// Runs the simulation engine's P and G phases and, if the miter remains
/// undecided, hands the reduced miter to the proving dispatcher.
pub fn combined_check(miter: &Aig, exec: &Executor, cfg: &CombinedConfig) -> CombinedResult {
    combined_check_cancellable(miter, exec, cfg, &CancelToken::never())
}

/// Like [`combined_check`], polling `token` at the engine's phase
/// boundaries and at every finishing engine's checkpoints. On
/// cancellation the flow stops where it is — possibly between the two
/// stages — with an `Undecided` verdict and whatever reduction completed;
/// it never reports a wrong proof or disproof.
pub fn combined_check_cancellable(
    miter: &Aig,
    exec: &Executor,
    cfg: &CombinedConfig,
    token: &CancelToken,
) -> CombinedResult {
    let prover = build_prover(&cfg.sat, &cfg.engine);
    combined_check_with_prover(miter, exec, cfg, &prover, token)
}

/// [`combined_check_cancellable`] with a caller-supplied [`Prover`] — the
/// service shares one prover (and its difficulty model) across workers so
/// routing keeps learning across jobs. `cfg.sat` is then unused: the
/// prover's SAT engine carries its own configuration.
///
/// The sim engine runs P and G; the reduced miter they leave undecided is
/// dispatched as one class, with G's sim-refinement velocity folded into
/// the difficulty features and G's disproof counter-examples as seeds
/// (the paper's §V *EC transfer*: the reduced miter keeps the input's
/// PIs, so they need no projection). The class verdict is the miter's,
/// and a cancelled dispatch stays `Undecided` — partial, never wrong.
pub fn combined_check_with_prover(
    miter: &Aig,
    exec: &Executor,
    cfg: &CombinedConfig,
    prover: &Prover,
    token: &CancelToken,
) -> CombinedResult {
    let engine = sim_sweep_pg(miter, exec, &cfg.engine, token);
    let engine_seconds = engine.stats.seconds;
    let mut verdict = engine.verdict.clone();
    let mut dispatch = None;
    if matches!(verdict, Verdict::Undecided) && !token.is_cancelled() {
        let mut span = trace::span("engine", "engine.sat_fallback");
        span.arg_u64("ands", engine.reduced.num_ands() as u64);
        span.arg_u64("seeds", engine.disproof_cexs.len() as u64);
        // The engine's tables are dead; give them back before finishers
        // of a different shape (and, in a race, two at once) allocate
        // theirs, so the flow peaks at the larger of the two stages
        // rather than their sum.
        exec.arena().trim();
        let mut difficulty = prover.difficulty(&engine.reduced);
        difficulty.refine_velocity = Some(refine_velocity(&engine.stats));
        let out = prover.prove_class(
            &engine.reduced,
            &difficulty,
            &engine.disproof_cexs,
            exec,
            token,
            &WallClock::new(),
        );
        verdict = out.verdict.clone();
        dispatch = Some(out);
    }
    let sat_seconds = dispatch.as_ref().map_or(0.0, |o| o.seconds);
    CombinedResult {
        verdict,
        engine,
        dispatch,
        engine_seconds,
        sat_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsweep_aig::{miter, Lit};
    use parsweep_sim::Cex;

    fn exec() -> Executor {
        Executor::with_threads(1)
    }

    fn wide_multiplier_ish(width: usize, variant: bool) -> Aig {
        // A deep arithmetic-flavoured network: sum of partial products
        // folded with carries; two structural variants.
        let mut aig = Aig::new();
        let a = aig.add_inputs(width);
        let b = aig.add_inputs(width);
        let mut acc: Vec<Lit> = vec![Lit::FALSE; width];
        for (i, &ai) in a.iter().enumerate() {
            let mut carry = Lit::FALSE;
            for j in 0..width - i {
                let pp = aig.and(ai, b[j]);
                let s1 = aig.xor(acc[i + j], pp);
                let sum = aig.xor(s1, carry);
                let c = if variant {
                    let t0 = aig.and(acc[i + j], pp);
                    let t1 = aig.and(s1, carry);
                    aig.or(t0, t1)
                } else {
                    aig.maj3(acc[i + j], pp, carry)
                };
                acc[i + j] = sum;
                carry = c;
            }
        }
        for s in acc {
            aig.add_po(s);
        }
        aig
    }

    #[test]
    fn combined_flow_finishes_what_engine_starts() {
        let m = miter(
            &wide_multiplier_ish(5, false),
            &wide_multiplier_ish(5, true),
        )
        .unwrap();
        // Cripple the engine so the dispatcher must finish the job.
        let mut cfg = CombinedConfig::default();
        cfg.engine.k_po_all = 4;
        cfg.engine.k_po = 4;
        cfg.engine.k_g = 4;
        cfg.engine.max_local_phases = 1;
        cfg.engine.cut = parsweep_cut::CutParams { k_l: 3, c: 2 };
        let r = combined_check(&m, &exec(), &cfg);
        assert_eq!(r.verdict, Verdict::Equivalent);
        assert!(r.dispatch.is_some(), "the residual must be dispatched");
        assert!(r.total_seconds() >= r.engine_seconds);
    }

    #[test]
    fn combined_flow_skips_sat_when_engine_proves() {
        let m = miter(
            &wide_multiplier_ish(4, false),
            &wide_multiplier_ish(4, true),
        )
        .unwrap();
        let r = combined_check(&m, &exec(), &CombinedConfig::default());
        assert_eq!(r.verdict, Verdict::Equivalent);
        if r.engine.verdict.is_equivalent() {
            assert!(r.dispatch.is_none());
            assert_eq!(r.sat_seconds, 0.0);
        }
    }

    #[test]
    fn sat_seconds_is_positive_zero_when_the_engine_decides_alone() {
        let m = miter(
            &wide_multiplier_ish(4, false),
            &wide_multiplier_ish(4, true),
        )
        .unwrap();
        let r = combined_check(&m, &exec(), &CombinedConfig::default());
        assert!(r.engine.verdict.is_equivalent());
        assert!(r.dispatch.is_none());
        assert!(r.sat_seconds == 0.0 && r.sat_seconds.is_sign_positive());
    }

    /// Records how many seeds it is handed, and checks each spans the
    /// class's PIs; never decides.
    struct SeedProbe(std::sync::Arc<std::sync::Mutex<Vec<usize>>>);

    impl parsweep_sat::ProofEngine for SeedProbe {
        fn kind(&self) -> parsweep_sat::EngineKind {
            parsweep_sat::EngineKind::Structural
        }
        fn prefilter(&self) -> bool {
            true
        }
        fn prior_cost_micros(&self, _difficulty: &parsweep_sat::Difficulty) -> u64 {
            0
        }
        fn prove(
            &self,
            cone: &Aig,
            _exec: &Executor,
            seeds: &[Cex],
            _token: &CancelToken,
        ) -> parsweep_sat::EngineReport {
            assert!(seeds.iter().all(|s| s.inputs().len() == cone.num_pis()));
            self.0.lock().unwrap().push(seeds.len());
            parsweep_sat::EngineReport {
                verdict: Verdict::Undecided,
                stats: Default::default(),
            }
        }
    }

    #[test]
    fn every_seed_reaches_the_one_class() {
        let m = miter(
            &wide_multiplier_ish(7, false),
            &wide_multiplier_ish(7, true),
        )
        .unwrap();
        // One pattern word leaves false candidates for the G phase to
        // disprove, and the tight bounds leave a residual to finish.
        let mut cfg = CombinedConfig::default();
        cfg.engine.k_po_all = 4;
        cfg.engine.k_po = 4;
        cfg.engine.k_g = 8;
        cfg.engine.sim_words = 1;
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut engines = parsweep_sat::standard_engines(&parsweep_sat::PortfolioConfig::default());
        engines.insert(0, Box::new(SeedProbe(seen.clone())));
        let prover = Prover::with_engines(engines);
        let r = combined_check_with_prover(&m, &exec(), &cfg, &prover, &CancelToken::never());
        assert_eq!(r.verdict, Verdict::Equivalent);
        assert!(r.dispatch.is_some());
        // The one class gets every disproof of the G phase.
        let seen = seen.lock().unwrap();
        assert!(!r.engine.disproof_cexs.is_empty());
        assert_eq!(*seen, [r.engine.disproof_cexs.len()]);
    }

    #[test]
    fn g_residual_goes_to_sat_as_one_class() {
        // 20 PIs: no PO fits the default P-phase bound (k_po_all = 18),
        // so G leaves a residual and the flow must finish it.
        let m = miter(
            &wide_multiplier_ish(10, false),
            &wide_multiplier_ish(10, true),
        )
        .unwrap();
        let r = combined_check(&m, &exec(), &CombinedConfig::default());
        assert_eq!(r.engine.stats.local_phases, 0);
        assert!(r.engine.verdict == Verdict::Undecided);
        let out = r.dispatch.expect("the G residual is dispatched");
        assert_eq!(out.verdict, Verdict::Equivalent);
        assert_eq!(r.verdict, Verdict::Equivalent);
    }

    #[test]
    fn residual_disproofs_are_lifted_to_the_miter() {
        let a = wide_multiplier_ish(5, false);
        let mut b = wide_multiplier_ish(5, true);
        let po = b.po(3);
        b.set_po(3, !po);
        let m = miter(&a, &b).unwrap();
        let mut cfg = CombinedConfig::default();
        // Cripple the engine so the corruption survives to the dispatcher.
        cfg.engine.k_po_all = 4;
        cfg.engine.k_po = 4;
        cfg.engine.k_g = 4;
        cfg.engine.max_local_phases = 1;
        cfg.engine.cut = parsweep_cut::CutParams { k_l: 3, c: 2 };
        let r = combined_check(&m, &exec(), &cfg);
        match r.verdict {
            Verdict::NotEquivalent(cex) => assert!(cex.fires(&m), "lifted cex must fire the miter"),
            other => panic!("expected disproof, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_stays_partial_never_wrong() {
        let m = miter(
            &wide_multiplier_ish(6, false),
            &wide_multiplier_ish(6, true),
        )
        .unwrap();
        let mut cfg = CombinedConfig::default();
        cfg.engine.k_po_all = 4;
        cfg.engine.k_po = 4;
        cfg.engine.k_g = 4;
        cfg.engine.max_local_phases = 1;
        let token = CancelToken::new();
        token.cancel();
        let r = combined_check_cancellable(&m, &exec(), &cfg, &token);
        assert_eq!(
            r.verdict,
            Verdict::Undecided,
            "pre-cancelled run must stay undecided"
        );
    }

    #[test]
    fn combined_flow_propagates_disproof() {
        let a = wide_multiplier_ish(4, false);
        let mut b = wide_multiplier_ish(4, false);
        let po = b.po(1);
        b.set_po(1, !po);
        let m = miter(&a, &b).unwrap();
        let r = combined_check(&m, &exec(), &CombinedConfig::default());
        match r.verdict {
            Verdict::NotEquivalent(cex) => assert!(cex.fires(&m)),
            other => panic!("expected disproof, got {other:?}"),
        }
    }
}
