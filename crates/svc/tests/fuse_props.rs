//! Property test: shard fusing is verdict-preserving.
//!
//! Fusing ([`parsweep_svc::SvcConfig::fuse_threshold`]) only changes
//! *scheduling* — tiny cones are proved sequentially inside one pooled
//! dispatch instead of one dispatch each. Each cone still proves and
//! settles individually, so on the same miter a fused run and an unfused
//! run must land in the same verdict class whenever both decide, every
//! reported counter-example must fire, and the per-job shard count must
//! not change.

use parsweep_aig::{miter, random::random_aig};
use parsweep_sat::Verdict;
use parsweep_svc::{CecService, JobResult, SvcConfig};
use proptest::prelude::*;

fn run(m: &parsweep_aig::Aig, fuse_threshold: usize, workers: usize) -> JobResult {
    let svc = CecService::new(SvcConfig {
        workers,
        fuse_threshold,
        ..SvcConfig::default()
    });
    let id = svc.submit(m.clone());
    svc.wait(id).expect("job exists")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random multi-PO networks: fused and unfused runs agree whenever
    /// both decide, fused counter-examples fire on the submitted miter,
    /// and fusing never changes how many shards a job reports.
    #[test]
    fn fused_verdicts_equal_unfused(
        num_pis in 3usize..7,
        num_ands in 8usize..48,
        num_pos in 2usize..6,
        seed in 0u64..1_000_000,
        threshold_pick in 0usize..3,
        workers in 1usize..3,
    ) {
        let fuse_threshold = [8usize, 64, 1 << 20][threshold_pick];
        let m = random_aig(num_pis, num_ands, num_pos, seed);
        let unfused = run(&m, 0, workers);
        let fused = run(&m, fuse_threshold, workers);
        prop_assert_eq!(fused.stats.shards, unfused.stats.shards,
            "fusing must not change shard count");
        prop_assert_eq!(unfused.stats.fused_shards, 0);
        match (&unfused.verdict, &fused.verdict) {
            (Verdict::Equivalent, Verdict::NotEquivalent(_))
            | (Verdict::NotEquivalent(_), Verdict::Equivalent) => {
                prop_assert!(false, "fusing flipped the verdict");
            }
            _ => {}
        }
        if let Verdict::NotEquivalent(cex) = &fused.verdict {
            prop_assert!(cex.fires(&m), "fused cex must fire on the miter");
        }
    }

    /// Equivalent miters of tiny XOR cones — the exact traffic fusing
    /// targets. With a generous threshold every shard fuses, and the
    /// verdict must still be Equivalent with full per-shard accounting.
    #[test]
    fn fully_fused_equivalent_miters_prove(width in 2usize..7) {
        let mut a = parsweep_aig::Aig::new();
        let xs = a.add_inputs(width * 2);
        for i in 0..width {
            let f = a.xor(xs[2 * i], xs[2 * i + 1]);
            a.add_po(f);
        }
        let mut b = parsweep_aig::Aig::new();
        let ys = b.add_inputs(width * 2);
        for i in 0..width {
            let o = b.or(ys[2 * i], ys[2 * i + 1]);
            let n = b.and(ys[2 * i], ys[2 * i + 1]);
            let f = b.and(o, !n);
            b.add_po(f);
        }
        let m = miter(&a, &b).expect("same interface");
        let fused = run(&m, 1 << 20, 1);
        prop_assert_eq!(&fused.verdict, &Verdict::Equivalent);
        prop_assert_eq!(fused.stats.shards, width);
        prop_assert_eq!(fused.stats.fused_shards, width,
            "every tiny cone must ride the fused dispatch");
        prop_assert_eq!(
            fused.stats.cache_hits + fused.stats.cache_misses + fused.stats.table_decided,
            width as u64,
            "per-shard accounting must survive fusing"
        );
    }
}
