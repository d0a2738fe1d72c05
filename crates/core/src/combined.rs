//! The combined flow: the simulation engine's P and G phases, then the
//! seeded SAT sweep on the whole miter they leave undecided — the paper's
//! "Ours (GPU+ABC)" column, with the SAT sweeper in ABC `&cec`'s place.
//!
//! The L phases (Algorithm 2) are left out on purpose: the SAT sweeper
//! proves candidate pairs bottom-up and keeps each proof as equivalence
//! clauses, so on the P+G-reduced miter it decides what the L phases
//! would, for a fraction of their cost (EXPERIMENTS.md, Fig. 7's PG
//! column). [`crate::sim_sweep`] still runs the paper's full P/G/L flow.

use parsweep_aig::Aig;
use parsweep_par::{CancelToken, Executor};
use parsweep_sat::{sat_sweep_seeded_cancellable, SweepConfig, SweepStats, Verdict};
use parsweep_trace as trace;

use crate::config::EngineConfig;
use crate::engine::{sim_sweep_pg, EngineResult};

/// Configuration of the combined flow.
#[derive(Clone, Debug, Default)]
pub struct CombinedConfig {
    /// Simulation-based engine parameters the flow's P and G phases run
    /// under.
    pub engine: EngineConfig,
    /// SAT sweeping parameters of the finishing sweep (its `wall_budget`
    /// bounds the sweep).
    pub sat: SweepConfig,
}

/// The outcome of the combined flow.
#[derive(Clone, Debug)]
pub struct CombinedResult {
    /// Final verdict.
    pub verdict: Verdict,
    /// The simulation-based engine's P+G result (always runs first).
    pub engine: EngineResult,
    /// Statistics of the SAT sweep over the engine's reduced miter;
    /// `None` when the engine decided alone.
    pub dispatch: Option<SweepStats>,
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
/// undecided, finishes the reduced miter with the SAT sweep.
pub fn combined_check(miter: &Aig, exec: &Executor, cfg: &CombinedConfig) -> CombinedResult {
    combined_check_cancellable(miter, exec, cfg, &CancelToken::never())
}

/// Like [`combined_check`], polling `token` at the engine's phase
/// boundaries and at the sweep's checkpoints. On cancellation the flow
/// stops where it is — possibly between the two stages — with an
/// `Undecided` verdict and whatever reduction completed; it never reports
/// a wrong proof or disproof.
///
/// The sweep is seeded with G's disproof counter-examples (the paper's
/// §V *EC transfer*: the reduced miter keeps the input's PIs, so they
/// need no projection), so pairs G already split are never re-checked by
/// SAT. The sweep's verdict is the miter's.
pub fn combined_check_cancellable(
    miter: &Aig,
    exec: &Executor,
    cfg: &CombinedConfig,
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
        // The engine's tables are dead; give them back before the sweep
        // allocates its own, so the flow peaks at the larger of the two
        // stages rather than their sum.
        exec.arena().trim();
        let sweep = sat_sweep_seeded_cancellable(
            &engine.reduced,
            exec,
            &cfg.sat,
            &engine.disproof_cexs,
            token,
        );
        span.arg_u64("conflicts", sweep.stats.conflicts);
        span.arg_u64("dead_constants", sweep.stats.dead_constants);
        verdict = sweep.verdict;
        dispatch = Some(sweep.stats);
    }
    let sat_seconds = dispatch.map_or(0.0, |s| s.seconds);
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
        // Cripple the engine so the sweep must finish the job.
        let mut cfg = CombinedConfig::default();
        cfg.engine.k_po_all = 4;
        cfg.engine.k_po = 4;
        cfg.engine.k_g = 4;
        cfg.engine.max_local_phases = 1;
        cfg.engine.cut = parsweep_cut::CutParams { k_l: 3, c: 2 };
        let r = combined_check(&m, &exec(), &cfg);
        assert_eq!(r.verdict, Verdict::Equivalent);
        assert!(r.dispatch.is_some(), "the residual must be swept");
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

    /// An OR over every run of `k` consecutive inputs being all ones:
    /// each run's AND is rarely one under random patterns. `balanced`
    /// picks balanced trees, otherwise right-associated chains.
    fn rare_runs(n: usize, k: usize, balanced: bool) -> Aig {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(n);
        let runs: Vec<Lit> = xs
            .windows(k)
            .map(|run| {
                if balanced {
                    aig.and_all(run.iter().copied())
                } else {
                    run.iter()
                        .rev()
                        .copied()
                        .reduce(|g, x| aig.and(x, g))
                        .unwrap()
                }
            })
            .collect();
        let f = if balanced {
            aig.or_all(runs)
        } else {
            runs.into_iter().rev().reduce(|g, r| aig.or(r, g)).unwrap()
        };
        aig.add_po(f);
        aig
    }

    #[test]
    fn g_disproofs_seed_the_sweep() {
        let m = miter(&rare_runs(20, 10, true), &rare_runs(20, 10, false)).unwrap();
        // G disproves the rare runs against constant zero by exhaustive
        // simulation; the PO's support of 20 leaves a residual to sweep.
        let mut cfg = CombinedConfig::default();
        cfg.engine.k_po_all = 4;
        cfg.engine.k_po = 4;
        cfg.engine.k_g = 12;
        cfg.engine.sim_words = 1;
        cfg.sat.sim_words = 1;
        let r = combined_check(&m, &exec(), &cfg);
        assert_eq!(r.verdict, Verdict::Equivalent);
        let seeds = &r.engine.disproof_cexs;
        assert!(!seeds.is_empty());
        // The flow's sweep is the seeded one, and on this residual the
        // seeds change its work: dropping them would match `sweep(&[])`.
        let sweep = |seeds: &[Cex]| {
            let s =
                parsweep_sat::sat_sweep_seeded(&r.engine.reduced, &exec(), &cfg.sat, seeds).stats;
            (s.sat_calls, s.proved_pairs, s.disproved_pairs, s.rounds)
        };
        let flow = r.dispatch.expect("the G residual is swept");
        let flow = (
            flow.sat_calls,
            flow.proved_pairs,
            flow.disproved_pairs,
            flow.rounds,
        );
        assert_eq!(flow, sweep(seeds));
        assert_ne!(flow, sweep(&[]), "the seeds must change the sweep here");
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
        assert!(r.dispatch.is_some(), "the G residual is swept");
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
        // Cripple the engine so the corruption survives to the sweep.
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
