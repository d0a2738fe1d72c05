//! The combined flow: simulation-based engine, then the proving
//! dispatcher on whatever it leaves undecided (the paper's "Ours
//! (GPU+ABC)" column).

use parsweep_aig::{Aig, Lit, Var};
use parsweep_par::{CancelToken, Executor};
use parsweep_sat::{ProveOutcome, Prover, SweepConfig, Verdict};
use parsweep_sim::Cex;
use parsweep_trace as trace;
use parsweep_trace::WallClock;

use crate::config::EngineConfig;
use crate::engine::{sim_sweep_cancellable, EngineResult};
use crate::prove::{build_prover, refine_velocity};

/// Configuration of the combined flow.
#[derive(Clone, Debug, Default)]
pub struct CombinedConfig {
    /// Simulation-based engine parameters.
    pub engine: EngineConfig,
    /// SAT sweeping parameters for the dispatcher's SAT engine (its
    /// `wall_budget` bounds each SAT attempt).
    pub sat: SweepConfig,
    /// Hand the engine's disproof counter-examples to the finishing
    /// engines, so pairs already disproved by exhaustive simulation are
    /// never re-checked by SAT — the paper's proposed *EC transfer* (§V).
    /// Off by default to match the paper's evaluated configuration.
    pub ec_transfer: bool,
}

/// The outcome of the combined flow.
#[derive(Clone, Debug)]
pub struct CombinedResult {
    /// Final verdict.
    pub verdict: Verdict,
    /// The simulation-based engine's result (always runs first).
    pub engine: EngineResult,
    /// One dispatch outcome per structurally distinct PO cone the engine
    /// left undecided; empty when the engine decided alone.
    pub dispatch: Vec<ProveOutcome>,
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

/// Runs the simulation-based engine and, if the miter remains undecided,
/// hands the reduced miter's undecided cones to the proving dispatcher.
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
/// The sim engine runs first as always; each PO cone it leaves undecided
/// is extracted ([`Aig::extract_cone`]) and dispatched as its own class,
/// with the pass's sim-refinement velocity folded into the difficulty
/// features and, under [`CombinedConfig::ec_transfer`], the engine's
/// disproof counter-examples projected onto the cone's PIs as seeds.
/// Cones sharing a structure are proved once. Verdicts compose soundly:
/// all cones proved ⇒ `Equivalent`; any cone disproved ⇒ `NotEquivalent`
/// with the counter-example lifted through the cone's PI map; otherwise
/// `Undecided` — cancellation anywhere stays partial, never wrong.
pub fn combined_check_with_prover(
    miter: &Aig,
    exec: &Executor,
    cfg: &CombinedConfig,
    prover: &Prover,
    token: &CancelToken,
) -> CombinedResult {
    let engine = sim_sweep_cancellable(miter, exec, &cfg.engine, token);
    let engine_seconds = engine.stats.seconds;
    let mut verdict = engine.verdict.clone();
    let mut dispatch = Vec::new();
    if matches!(verdict, Verdict::Undecided) {
        let seeds: &[Cex] = if cfg.ec_transfer {
            &engine.disproof_cexs
        } else {
            &[]
        };
        let mut span = trace::span("engine", "engine.sat_fallback");
        span.arg_u64("ands", engine.reduced.num_ands() as u64);
        span.arg_u64("seeds", seeds.len() as u64);
        // The engine's tables are dead; give them back before finishers
        // of a different shape (and, in a race, two at once) allocate
        // theirs, so the flow peaks at the larger of the two stages
        // rather than their sum.
        exec.arena().trim();
        let velocity = refine_velocity(&engine.stats);
        (verdict, dispatch) =
            dispatch_residual_cones(&engine.reduced, seeds, exec, prover, velocity, token);
        span.arg_u64("cones", dispatch.len() as u64);
    }
    // Fold from +0.0: the empty `f64` sum is -0.0, which prints `-0.00`.
    let sat_seconds = dispatch.iter().fold(0.0, |acc, o| acc + o.seconds);
    CombinedResult {
        verdict,
        engine,
        dispatch,
        engine_seconds,
        sat_seconds,
    }
}

/// Dispatches every undecided PO cone of the reduced miter through the
/// prover and composes the verdicts. `seeds` are counter-examples over
/// the reduced miter's PIs.
fn dispatch_residual_cones(
    reduced: &Aig,
    seeds: &[Cex],
    exec: &Executor,
    prover: &Prover,
    velocity: f64,
    token: &CancelToken,
) -> (Verdict, Vec<ProveOutcome>) {
    let clock = WallClock::new();
    let mut outcomes: Vec<ProveOutcome> = Vec::new();
    let mut pi_position = vec![usize::MAX; reduced.num_nodes()];
    for (p, pi) in reduced.pis().iter().enumerate() {
        pi_position[pi.index()] = p;
    }
    // Structure-identical cones (hash then full comparison) are proved
    // once; disproof counter-examples are re-lifted per duplicate through
    // its own PI map.
    let mut seen: Vec<(u64, Aig, Verdict)> = Vec::new();
    let mut verdict = Verdict::Equivalent;
    for (i, po) in reduced.pos().iter().enumerate() {
        if po.var().is_const() {
            if *po != Lit::FALSE {
                // A constant-true PO: any assignment is a counter-example.
                verdict = Verdict::NotEquivalent(Cex::new(vec![false; reduced.num_pis()]));
                break;
            }
            continue;
        }
        if token.is_cancelled() {
            verdict = Verdict::Undecided;
            break;
        }
        let ext = reduced.extract_cone(&[i]);
        let hash = ext.cone.structural_hash();
        let cone_verdict = match seen
            .iter()
            .find(|(h, c, _)| *h == hash && c.same_structure(&ext.cone))
        {
            Some((_, _, v)) => v.clone(),
            None => {
                let mut difficulty = prover.difficulty(&ext.cone);
                difficulty.refine_velocity = Some(velocity);
                let cone_seeds: Vec<Cex> = seeds
                    .iter()
                    .map(|cex| {
                        let bit = |v: &Var| cex.inputs().get(pi_position[v.index()]);
                        Cex::new(ext.pi_map.iter().map(|v| bit(v) == Some(&true)).collect())
                    })
                    .collect();
                let out =
                    prover.prove_class(&ext.cone, &difficulty, &cone_seeds, exec, token, &clock);
                let v = out.verdict.clone();
                seen.push((hash, ext.cone.clone(), v.clone()));
                outcomes.push(out);
                v
            }
        };
        match cone_verdict {
            Verdict::Equivalent => {}
            Verdict::NotEquivalent(cone_cex) => {
                // Lift positionally through the cone's PI map; original
                // PIs outside the cone's support are don't-cares.
                let dense = cone_cex.to_dense(&ext.cone);
                let sparse: Vec<_> = ext.pi_map.iter().copied().zip(dense).collect();
                verdict = Verdict::NotEquivalent(Cex::from_sparse(reduced, &sparse));
                break;
            }
            Verdict::Undecided => {
                // Keep probing the remaining cones: a later disproof still
                // settles the job, but a proof can no longer be claimed.
                verdict = Verdict::Undecided;
            }
        }
    }
    (verdict, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsweep_aig::{miter, Lit};

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
        assert!(!r.dispatch.is_empty(), "residual cones must be dispatched");
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
            assert!(r.dispatch.is_empty());
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
        assert!(r.dispatch.is_empty());
        assert!(r.sat_seconds == 0.0 && r.sat_seconds.is_sign_positive());
    }

    /// Records how many seeds it is handed, and whether each spans the
    /// cone's PIs; never decides.
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
    fn ec_transfer_still_sound() {
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
        cfg.engine.max_local_phases = 1;
        cfg.engine.sim_words = 1;
        for ec_transfer in [false, true] {
            cfg.ec_transfer = ec_transfer;
            let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let mut engines =
                parsweep_sat::standard_engines(&parsweep_sat::PortfolioConfig::default());
            engines.insert(0, Box::new(SeedProbe(seen.clone())));
            let prover = Prover::with_engines(engines);
            let r = combined_check_with_prover(&m, &exec(), &cfg, &prover, &CancelToken::never());
            assert_eq!(r.verdict, Verdict::Equivalent);
            // The engine's disproofs reach every dispatched cone exactly
            // when the transfer is on.
            let seen = seen.lock().unwrap();
            assert_eq!(seen.len(), r.dispatch.len());
            assert!(!seen.is_empty() && !r.engine.disproof_cexs.is_empty());
            let expected = if ec_transfer {
                r.engine.disproof_cexs.len()
            } else {
                0
            };
            assert!(seen.iter().all(|&n| n == expected), "{seen:?}");
        }
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
