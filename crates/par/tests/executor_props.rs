//! Property tests: the parallel executor must be indistinguishable from
//! sequential execution for deterministic kernels.

mod common;

use common::OWN;
use proptest::prelude::*;

use parsweep_par::{Effect, EffectTable, Executor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn disjoint_writes_equal_sequential(n in 0usize..1500, threads in 1usize..6, salt in any::<u64>()) {
        let exec = Executor::with_threads(threads);
        let f = |i: usize| (i as u64).wrapping_mul(salt).rotate_left(7);
        let table = EffectTable::new();
        let id = table.buffer("out", n);
        let mut par = vec![0u64; n];
        {
            let cells = exec.bind_table(&table, id, &mut par);
            // SAFETY: each tid writes only its own slot, as declared.
            exec.launch_declared(&table, "hash", n, &[Effect::write(id, OWN)], |i| unsafe {
                cells.write(i, i, f(i))
            });
        }
        let seq: Vec<u64> = (0..n).map(f).collect();
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn stats_track_work(widths in proptest::collection::vec(0usize..100, 0..10)) {
        let exec = Executor::with_threads(2);
        let table = EffectTable::new();
        for &w in &widths {
            exec.launch_declared(&table, "noop", w, &[], |_| {});
        }
        let s = exec.stats();
        let nonzero: Vec<usize> = widths.iter().copied().filter(|&w| w > 0).collect();
        prop_assert_eq!(s.total_launches(), nonzero.len() as u64);
        prop_assert_eq!(s.total_threads, nonzero.iter().sum::<usize>() as u64);
        prop_assert_eq!(s.widest, nonzero.iter().max().copied().unwrap_or(0) as u64);
        // Every launch is a barrier: the modeled critical path is the
        // serialized cost on any machine width.
        for cores in [1, 7, 64, 4096] {
            prop_assert_eq!(s.modeled_time(cores), s.serialized_time(cores));
        }
        // Every launch of a raw executor ran on the parallel path; an
        // audited one (ambient PARSWEEP_SANITIZE) ran none there.
        let verified = if exec.sanitizing() { 0 } else { s.total_launches() };
        prop_assert_eq!(s.static_verified_launches, verified);
    }
}
