//! Sharding a miter into independently provable output-cone sub-jobs.
//!
//! A miter is equivalent iff *every* PO is proved constant zero, and a
//! PO's verdict depends only on its transitive-fanin cone — so a job
//! splits along output cones into sub-jobs that workers prove in any
//! order, on any worker, with verdicts composing soundly: one disproof
//! (lifted back through the extraction's PI map) disproves the whole
//! miter; all cones proved means the miter is proved; anything left
//! undecided leaves the job undecided.

use parsweep_aig::{Aig, ConeExtraction, Lit};

/// How a submitted miter splits into sub-jobs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardPolicy {
    /// One shard per PO cone. Maximal parallelism and maximal result-cache
    /// reuse (structurally repeated cones each become their own cacheable
    /// unit), at the price of re-simulating logic shared between cones.
    #[default]
    PerOutput,
}

/// One independently provable sub-job of a miter.
#[derive(Clone, Debug)]
pub struct Shard {
    /// The extracted standalone cone plus the maps that translate
    /// counter-examples back to the original miter.
    pub extraction: ConeExtraction,
    /// Canonical structural hash of the cone — the result-cache key.
    pub hash: u64,
}

/// Shards a miter into output-cone sub-jobs under the given policy.
///
/// Constant-`false` POs are already proved and produce no shard; every
/// other PO (including constant-`true` POs, which are trivial disproofs)
/// lands in exactly one shard. An empty result therefore means the miter
/// is proved as submitted.
pub fn shard_miter(miter: &Aig, policy: ShardPolicy) -> Vec<Shard> {
    let ShardPolicy::PerOutput = policy;
    (0..miter.num_pos())
        .filter(|&i| miter.po(i) != Lit::FALSE)
        .map(|i| {
            let extraction = miter.extract_cone(&[i]);
            let hash = extraction.cone.structural_hash();
            Shard { extraction, hash }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two disjoint cones plus one PO spanning both.
    fn bridged() -> Aig {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(4);
        let f = aig.and(xs[0], xs[1]);
        let g = aig.and(xs[2], xs[3]);
        let h = aig.xor(f, g);
        aig.add_po(f);
        aig.add_po(g);
        aig.add_po(h);
        aig
    }

    #[test]
    fn per_output_shards_each_live_po() {
        let mut aig = bridged();
        aig.add_po(Lit::FALSE); // already proved, no shard
        let shards = shard_miter(&aig, ShardPolicy::PerOutput);
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0].extraction.po_map, vec![0]);
        assert_eq!(shards[2].extraction.cone.num_pis(), 4);
    }

    #[test]
    fn constant_true_po_is_its_own_shard() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let f = aig.and(xs[0], xs[1]);
        aig.add_po(f);
        aig.add_po(Lit::TRUE);
        let shards = shard_miter(&aig, ShardPolicy::PerOutput);
        assert_eq!(shards.len(), 2);
        let trivial = shards
            .iter()
            .find(|s| s.extraction.cone.num_pis() == 0)
            .expect("constant-true shard");
        assert_eq!(trivial.extraction.cone.pos(), &[Lit::TRUE]);
    }

    #[test]
    fn identical_cones_share_a_hash() {
        // The same function twice on disjoint PIs: per-output shards must
        // collide in the cache key.
        let mut aig = Aig::new();
        let xs = aig.add_inputs(4);
        let f = aig.and(xs[0], xs[1]);
        let g = aig.and(xs[2], xs[3]);
        aig.add_po(f);
        aig.add_po(g);
        let shards = shard_miter(&aig, ShardPolicy::PerOutput);
        assert_eq!(shards[0].hash, shards[1].hash);
        assert!(shards[0]
            .extraction
            .cone
            .same_structure(&shards[1].extraction.cone));
    }
}
