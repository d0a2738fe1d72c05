//! Property-based tests of the AIG substrate: structural hashing laws,
//! AIGER round-trips and damaged files, rebuild equivalence.

use proptest::prelude::*;

use parsweep_aig::random::random_aig;
use parsweep_aig::{read_aiger, Aig};

fn eval_all(aig: &Aig, cases: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = parsweep_aig::random::SplitMix64::new(seed);
    (0..cases)
        .map(|_| {
            let bits: Vec<bool> = (0..aig.num_pis()).map(|_| rng.bool()).collect();
            aig.eval(&bits)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_aigs_satisfy_invariants(
        pis in 1usize..10, ands in 0usize..120, pos in 1usize..6, seed in any::<u64>()
    ) {
        let aig = random_aig(pis, ands, pos, seed);
        prop_assert!(aig.check_invariants().is_ok());
        prop_assert_eq!(aig.num_pis(), pis);
        prop_assert_eq!(aig.num_pos(), pos);
    }

    #[test]
    fn clean_preserves_function(
        pis in 1usize..8, ands in 0usize..100, pos in 1usize..5, seed in any::<u64>()
    ) {
        let aig = random_aig(pis, ands, pos, seed);
        let cleaned = aig.clean();
        prop_assert!(cleaned.num_ands() <= aig.num_ands());
        prop_assert_eq!(eval_all(&aig, 32, seed ^ 1), eval_all(&cleaned, 32, seed ^ 1));
    }

    #[test]
    fn double_contains_two_copies(
        pis in 1usize..6, ands in 0usize..60, pos in 1usize..4, seed in any::<u64>()
    ) {
        let aig = random_aig(pis, ands, pos, seed);
        let d = aig.double();
        prop_assert_eq!(d.num_pis(), 2 * pis);
        prop_assert_eq!(d.num_pos(), 2 * pos);
        let mut rng = parsweep_aig::random::SplitMix64::new(seed ^ 2);
        for _ in 0..16 {
            let half: Vec<bool> = (0..pis).map(|_| rng.bool()).collect();
            let mut both = half.clone();
            both.extend(half.iter().copied());
            let out = d.eval(&both);
            let single = aig.eval(&half);
            prop_assert_eq!(&out[..pos], &single[..]);
            prop_assert_eq!(&out[pos..], &single[..]);
        }
    }

    #[test]
    fn ascii_aiger_roundtrip_preserves_function(
        pis in 1usize..8, ands in 0usize..80, pos in 1usize..4, seed in any::<u64>()
    ) {
        let aig = random_aig(pis, ands, pos, seed);
        let mut buf = Vec::new();
        parsweep_aig::aiger::write_ascii(&aig, &mut buf).unwrap();
        let back = read_aiger(&buf[..]).unwrap();
        prop_assert_eq!(eval_all(&aig, 32, seed ^ 3), eval_all(&back, 32, seed ^ 3));
    }

    #[test]
    fn binary_aiger_roundtrip_preserves_structure(
        pis in 1usize..8, ands in 0usize..80, pos in 1usize..4, seed in any::<u64>()
    ) {
        let aig = random_aig(pis, ands, pos, seed);
        let mut buf = Vec::new();
        parsweep_aig::aiger::write_binary(&aig, &mut buf).unwrap();
        let back = read_aiger(&buf[..]).unwrap();
        prop_assert_eq!(back.num_pis(), aig.num_pis());
        prop_assert_eq!(back.num_ands(), aig.num_ands());
        prop_assert_eq!(eval_all(&aig, 32, seed ^ 4), eval_all(&back, 32, seed ^ 4));
    }

    #[test]
    fn damaged_aiger_is_an_error_never_a_panic(
        pis in 1usize..6, ands in 0usize..40, pos in 1usize..4, seed in any::<u64>()
    ) {
        let aig = random_aig(pis, ands, pos, seed);
        let mut rng = parsweep_aig::random::SplitMix64::new(seed ^ 5);
        let mut files = [Vec::new(), Vec::new()];
        parsweep_aig::aiger::write_ascii(&aig, &mut files[0]).unwrap();
        parsweep_aig::aiger::write_binary(&aig, &mut files[1]).unwrap();
        for file in &files {
            let parses = |bytes: &[u8]| std::panic::catch_unwind(|| read_aiger(bytes)).is_ok();
            for len in 0..file.len() {
                prop_assert!(parses(&file[..len]), "panicked on a {len}-byte prefix");
            }
            for _ in 0..32 {
                let mut damaged = file.clone();
                let at = rng.below(damaged.len());
                damaged[at] = rng.next_u64() as u8;
                prop_assert!(parses(&damaged), "panicked on byte {at} set to {}", damaged[at]);
            }
        }
    }

    #[test]
    fn strash_and_is_commutative_and_idempotent(seed in any::<u64>()) {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(4);
        let mut rng = parsweep_aig::random::SplitMix64::new(seed);
        let a = xs[rng.below(4)].xor(rng.bool());
        let b = xs[rng.below(4)].xor(rng.bool());
        let ab = aig.and(a, b);
        let ba = aig.and(b, a);
        prop_assert_eq!(ab, ba);
        let count = aig.num_ands();
        let again = aig.and(a, b);
        prop_assert_eq!(ab, again);
        prop_assert_eq!(aig.num_ands(), count);
    }

    #[test]
    fn bench_roundtrip_preserves_function(
        pis in 1usize..7, ands in 1usize..60, pos in 1usize..4, seed in any::<u64>()
    ) {
        let aig = random_aig(pis, ands, pos, seed);
        let mut buf = Vec::new();
        parsweep_aig::bench_fmt::write_bench(&aig, &mut buf).unwrap();
        let back = parsweep_aig::bench_fmt::read_bench(&buf[..]).unwrap();
        prop_assert_eq!(back.num_pis(), aig.num_pis());
        prop_assert_eq!(back.num_pos(), aig.num_pos());
        prop_assert_eq!(eval_all(&aig, 32, seed ^ 5), eval_all(&back, 32, seed ^ 5));
    }

    #[test]
    fn verilog_export_is_well_formed(
        pis in 1usize..7, ands in 1usize..60, pos in 1usize..4, seed in any::<u64>()
    ) {
        let aig = random_aig(pis, ands, pos, seed);
        let v = parsweep_aig::verilog::to_verilog_string(&aig, "dut");
        prop_assert!(v.starts_with("// generated by parsweep"));
        prop_assert!(v.contains("module dut ("));
        prop_assert!(v.trim_end().ends_with("endmodule"));
        // One gate instance per AND node of the *reachable* network.
        prop_assert_eq!(v.matches("  and u_and").count(), aig.num_ands());
        // One buf per PO.
        prop_assert_eq!(v.matches("  buf u_po").count(), aig.num_pos());
    }

    #[test]
    fn cofactor_shannon_expansion(
        pis in 2usize..7, ands in 1usize..60, pos in 1usize..4, seed in any::<u64>()
    ) {
        let aig = random_aig(pis, ands, pos, seed);
        let c0 = aig.cofactor_pi(0, false);
        let c1 = aig.cofactor_pi(0, true);
        prop_assert_eq!(c0.num_pis(), pis - 1);
        let mut rng = parsweep_aig::random::SplitMix64::new(seed ^ 6);
        for _ in 0..16 {
            let rest: Vec<bool> = (0..pis - 1).map(|_| rng.bool()).collect();
            let mut full0 = vec![false];
            full0.extend(rest.iter().copied());
            let mut full1 = vec![true];
            full1.extend(rest.iter().copied());
            prop_assert_eq!(c0.eval(&rest), aig.eval(&full0));
            prop_assert_eq!(c1.eval(&rest), aig.eval(&full1));
        }
    }

    #[test]
    fn miter_of_identical_networks_is_proved(
        pis in 1usize..8, ands in 0usize..80, pos in 1usize..4, seed in any::<u64>()
    ) {
        let aig = random_aig(pis, ands, pos, seed);
        let m = parsweep_aig::miter(&aig, &aig).unwrap();
        prop_assert!(parsweep_aig::is_proved(&m));
    }
}
