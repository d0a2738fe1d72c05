//! Property test: sharding is verdict-preserving.
//!
//! The service splits a miter per output cone, proves the shards in any
//! order across workers, and composes the shard verdicts. None of that may change
//! *what* is decided: on the same miter, a sharded service run and an
//! unsharded engine run must land in the same verdict class whenever both
//! decide, and every reported counter-example must fire on the submitted
//! miter.

use parsweep_aig::{miter, random::random_aig, Aig};
use parsweep_core::{sim_sweep, EngineConfig};
use parsweep_par::Executor;
use parsweep_sat::Verdict;
use parsweep_svc::{CecService, SvcConfig};
use proptest::prelude::*;

/// Runs `m` through the service and returns the verdict.
fn service_verdict(m: &Aig) -> Verdict {
    let svc = CecService::new(SvcConfig {
        workers: 2,
        ..SvcConfig::default()
    });
    let id = svc.submit(m.clone());
    svc.wait(id).expect("job exists").verdict
}

/// Both verdicts decided and disagreeing is the one outcome sharding must
/// never produce; `Undecided` on either side proves nothing either way.
fn check_agreement(m: &Aig, unsharded: &Verdict, sharded: &Verdict) {
    match (unsharded, sharded) {
        (Verdict::Equivalent, Verdict::NotEquivalent(_))
        | (Verdict::NotEquivalent(_), Verdict::Equivalent) => {
            panic!("sharding flipped the verdict: {unsharded:?} vs {sharded:?}");
        }
        _ => {}
    }
    if let Verdict::NotEquivalent(cex) = sharded {
        assert!(cex.fires(m), "the service returned a non-firing cex");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random multi-PO networks treated as miters: usually disproved,
    /// occasionally proved (constant cones) — both paths must agree with
    /// the unsharded engine.
    #[test]
    fn sharding_preserves_random_miter_verdicts(
        num_pis in 3usize..7,
        num_ands in 8usize..48,
        num_pos in 2usize..5,
        seed in 0u64..1_000_000,
    ) {
        let m = random_aig(num_pis, num_ands, num_pos, seed);
        let exec = Executor::with_threads(1);
        let unsharded = sim_sweep(&m, &exec, &EngineConfig::default()).verdict;
        if let Verdict::NotEquivalent(cex) = &unsharded {
            prop_assert!(cex.fires(&m), "unsharded cex must fire");
        }
        check_agreement(&m, &unsharded, &service_verdict(&m));
    }

    /// Equivalent multi-PO miters (same function, different structure per
    /// output): the service must prove them whenever the unsharded
    /// engine does.
    #[test]
    fn sharding_preserves_equivalent_miter_verdicts(
        width in 1usize..5,
        corrupt in any::<bool>(),
    ) {
        let a = xor_net(width, false, false);
        let b = xor_net(width, true, corrupt);
        let m = miter(&a, &b).expect("same interface");
        let exec = Executor::with_threads(1);
        let unsharded = sim_sweep(&m, &exec, &EngineConfig::default()).verdict;
        prop_assert_eq!(
            matches!(unsharded, Verdict::Equivalent),
            !corrupt,
            "engine baseline on width {} corrupt {}", width, corrupt
        );
        let sharded = service_verdict(&m);
        check_agreement(&m, &unsharded, &sharded);
        if corrupt {
            prop_assert!(
                matches!(sharded, Verdict::NotEquivalent(_)),
                "the service must disprove the corrupted miter"
            );
        }
    }
}

/// `width` independent XOR bits over disjoint PI pairs, built differently
/// per variant; `corrupt` flips the last PO so the miter is satisfiable.
fn xor_net(width: usize, variant: bool, corrupt: bool) -> Aig {
    let mut aig = Aig::new();
    let xs = aig.add_inputs(width * 2);
    for i in 0..width {
        let (a, b) = (xs[2 * i], xs[2 * i + 1]);
        let f = if variant {
            let o = aig.or(a, b);
            let n = aig.and(a, b);
            aig.and(o, !n)
        } else {
            aig.xor(a, b)
        };
        aig.add_po(if corrupt && i == width - 1 { !f } else { f });
    }
    aig
}
