//! Property-based tests for the engine-level memory budget and ODC
//! knob: a `memory_words` too small for the partial-simulation tables to
//! fit (so they stream through host staging) or the ODC refinement layer
//! must never change a verdict, and every verdict must stay sound
//! against brute-force evaluation.

use proptest::prelude::*;

use parsweep_aig::{miter, random::random_aig, Aig};
use parsweep_core::{sim_sweep, EngineConfig};
use parsweep_par::Executor;
use parsweep_sat::Verdict;
use parsweep_synth::resyn2;

/// Brute-force miter check: constant-zero on every input assignment.
fn brute_equivalent(m: &Aig) -> bool {
    let pis = m.num_pis();
    assert!(pis <= 12, "brute force only for small miters");
    (0..1u32 << pis).all(|mask| {
        let inputs: Vec<bool> = (0..pis).map(|i| mask >> i & 1 == 1).collect();
        m.eval(&inputs).iter().all(|&po| !po)
    })
}

fn assert_sound(m: &Aig, verdict: &Verdict) {
    match verdict {
        Verdict::Equivalent => assert!(brute_equivalent(m), "false equivalence"),
        Verdict::NotEquivalent(_) => assert!(!brute_equivalent(m), "false inequivalence"),
        Verdict::Undecided => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn over_budget_and_odc_runs_agree_with_the_default_engine(
        pis in 4usize..8,
        ands in 5usize..40,
        seed in any::<u64>(),
        corrupt in any::<bool>(),
    ) {
        let a = random_aig(pis, ands, 2, seed);
        let mut b = resyn2(&a);
        if corrupt {
            let po0 = b.po(0);
            b.set_po(0, !po0);
        }
        let m = miter(&a, &b).expect("same interface");
        let exec = Executor::with_threads(2);
        // Support bounds below the PI count: the P phase cannot settle
        // the miter, so G rounds and L phases (full, live-cone and
        // dirty-cone simulation) actually run.
        let scaled = || EngineConfig::scaled().with_support_bounds(2, 2, 3);
        let base = sim_sweep(&m, &exec, &scaled());
        assert_sound(&m, &base.verdict);
        // One word retires every level as early as its readers allow;
        // 256 words holds a few levels of an 8-word table.
        for memory_words in [1, 1 << 8] {
            let cfg = EngineConfig { memory_words, ..scaled() };
            let r = sim_sweep(&m, &exec, &cfg);
            prop_assert_eq!(
                std::mem::discriminant(&r.verdict),
                std::mem::discriminant(&base.verdict),
                "memory budget {} changed the verdict", memory_words
            );
            assert_sound(&m, &r.verdict);
        }
        let odc = sim_sweep(&m, &exec, &scaled().with_odc());
        prop_assert_eq!(
            std::mem::discriminant(&odc.verdict),
            std::mem::discriminant(&base.verdict),
            "the ODC layer changed the verdict"
        );
        assert_sound(&m, &odc.verdict);
    }
}
