//! Property-based tests: cancelling the engine can cost completeness,
//! never soundness.
//!
//! Whatever the token does — already tripped at entry, tripping on a
//! deadline mid-run, or never tripping — a verdict the engine *does*
//! return must be correct against brute-force evaluation, and the
//! submitted miter must come back structurally untouched.

use std::time::Duration;

use proptest::prelude::*;

use parsweep_aig::random::{mutate_gate, random_aig};
use parsweep_aig::{miter, Aig};
use parsweep_core::{
    combined_check_cancellable, sim_sweep_cancellable, CombinedConfig, EngineConfig,
};
use parsweep_par::{CancelToken, Executor};
use parsweep_sat::Verdict;

/// Brute-force miter check: constant-zero on every input assignment.
fn brute_equivalent(m: &Aig) -> bool {
    let pis = m.num_pis();
    assert!(pis < 16, "brute force only for small miters");
    (0..1u32 << pis).all(|mask| {
        let inputs: Vec<bool> = (0..pis).map(|i| mask >> i & 1 == 1).collect();
        m.eval(&inputs).iter().all(|&po| !po)
    })
}

/// A combined-flow configuration whose sim engine proves next to nothing
/// on its own, so the residual reaches the SAT sweep.
fn crippled() -> CombinedConfig {
    let mut cfg = CombinedConfig::default();
    cfg.engine.k_po_all = 2;
    cfg.engine.k_po = 2;
    cfg.engine.k_g = 2;
    cfg.engine.max_local_phases = 0;
    cfg.engine.sim_words = 1;
    cfg
}

/// Soundness of a (possibly partial) verdict, plus miter preservation.
fn assert_sound(m: &Aig, before: &Aig, verdict: &Verdict) {
    match verdict {
        Verdict::Equivalent => {
            prop_assert!(brute_equivalent(m), "cancelled run claimed a wrong proof");
        }
        Verdict::NotEquivalent(cex) => {
            prop_assert!(cex.fires(m), "cancelled run fabricated a counter-example");
        }
        Verdict::Undecided => {}
    }
    prop_assert!(m.same_structure(before), "engine modified the miter");
    prop_assert_eq!(m.pos(), before.pos(), "engine rewired the outputs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A token that is already tripped at entry: the engine must return
    /// promptly with `Undecided` for anything it did not get to prove —
    /// and must never guess.
    #[test]
    fn pre_cancelled_run_is_sound(seed in any::<u64>(), pis in 2usize..7, ands in 2usize..40) {
        let a = random_aig(pis, ands, 2, seed);
        let b = random_aig(pis, ands, 2, seed.wrapping_add(1));
        let m = miter(&a, &b).unwrap();
        let before = m.clone();
        let exec = Executor::new();
        let token = CancelToken::new();
        token.cancel();
        let result = sim_sweep_cancellable(&m, &exec, &EngineConfig::default(), &token);
        prop_assert!(result.stats.cancelled);
        assert_sound(&m, &before, &result.verdict);
    }

    /// A deadline that may trip anywhere inside the run (including not at
    /// all): every outcome must still be sound.
    #[test]
    fn deadline_run_is_sound(
        seed in any::<u64>(),
        pis in 2usize..7,
        ands in 2usize..40,
        deadline_us in 0u64..2000,
    ) {
        let a = random_aig(pis, ands, 2, seed);
        let b = random_aig(pis, ands, 2, seed.wrapping_add(1));
        let m = miter(&a, &b).unwrap();
        let before = m.clone();
        let exec = Executor::new();
        let token = CancelToken::with_deadline(Duration::from_micros(deadline_us));
        let result = sim_sweep_cancellable(&m, &exec, &EngineConfig::default(), &token);
        assert_sound(&m, &before, &result.verdict);
        // An uncancelled run on these tiny miters always decides; an
        // Undecided verdict is only ever the price of the deadline.
        if matches!(result.verdict, Verdict::Undecided) {
            prop_assert!(result.stats.cancelled, "Undecided without a tripped token");
        }
    }

    /// The same miter with a never-tripping token decides exactly like the
    /// deadline-free entry point — cancellation support costs nothing when
    /// unused.
    #[test]
    fn never_cancelled_run_decides(seed in any::<u64>(), pis in 2usize..7, ands in 2usize..40) {
        let a = random_aig(pis, ands, 2, seed);
        let b = random_aig(pis, ands, 2, seed.wrapping_add(1));
        let m = miter(&a, &b).unwrap();
        let before = m.clone();
        let exec = Executor::new();
        let token = CancelToken::never();
        let result = sim_sweep_cancellable(&m, &exec, &EngineConfig::default(), &token);
        prop_assert!(!result.stats.cancelled);
        prop_assert!(
            !matches!(result.verdict, Verdict::Undecided),
            "engine left a tiny miter undecided without cancellation"
        );
        assert_sound(&m, &before, &result.verdict);
    }

    /// The combined flow under a deadline that may trip anywhere — during
    /// simulation, between the stages, or mid-sweep. It must uphold the
    /// same contract as the plain engine: partial, never wrong.
    #[test]
    fn combined_deadline_run_is_sound(
        seed in any::<u64>(),
        pis in 2usize..13,
        ands in 8usize..60,
        equivalent in any::<bool>(),
        deadline_us in 0u64..2000,
    ) {
        let a = random_aig(pis, ands, 2, seed);
        let b = if equivalent {
            parsweep_synth::resyn2(&a)
        } else {
            random_aig(pis, ands, 2, seed.wrapping_add(1))
        };
        let m = miter(&a, &b).unwrap();
        let before = m.clone();
        let exec = Executor::new();
        let token = CancelToken::with_deadline(Duration::from_micros(deadline_us));
        let result = combined_check_cancellable(&m, &exec, &crippled(), &token);
        assert_sound(&m, &before, &result.verdict);
    }

    /// With a never-tripping token the combined flow always decides, and
    /// decides what brute force decides — on resynthesized (equivalent),
    /// unrelated and single-gate-mutated pairs, with the engine crippled
    /// so the residual really reaches the SAT sweep.
    #[test]
    fn combined_flow_agrees_with_brute_force(
        seed in any::<u64>(),
        pis in 2usize..13,
        ands in 8usize..60,
        shape in 0usize..3,
    ) {
        let a = random_aig(pis, ands, 2, seed);
        let b = match shape {
            0 => parsweep_synth::resyn2(&a),
            1 => random_aig(pis, ands, 2, seed.wrapping_add(1)),
            _ => parsweep_synth::resyn2(&mutate_gate(&a, seed as usize)),
        };
        let m = miter(&a, &b).unwrap();
        let before = m.clone();
        let exec = Executor::new();
        let result = combined_check_cancellable(&m, &exec, &crippled(), &CancelToken::never());
        prop_assert_eq!(
            result.verdict.is_equivalent(),
            brute_equivalent(&m),
            "verdict {:?}",
            result.verdict
        );
        prop_assert!(
            !matches!(result.verdict, Verdict::Undecided),
            "combined flow left a tiny miter undecided without cancellation"
        );
        assert_sound(&m, &before, &result.verdict);
    }
}
