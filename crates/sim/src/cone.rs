//! Exact truth tables of small single-output cones.
//!
//! A cone over at most [`MAX_CONE_VARS`] inputs has its whole function in
//! one 64-bit word, so one bit-parallel pass over the cone in topological
//! order, seeding each input with its projection pattern, computes it
//! exactly. Complementation XORs full words, so for `k < 6` the result
//! carries dirty don't-care upper bits — it is returned through
//! [`TruthTable::from_sim_words`] and must be read through
//! [`TruthTable::value`] or [`TruthTable::masked`] before any word-level
//! test.

use parsweep_aig::{Aig, Node};

use crate::tt::{TruthTable, PROJECTIONS};

/// Largest input count [`cone_truth_table`] handles: the table of a cone
/// over at most this many inputs fits in one machine word.
pub const MAX_CONE_VARS: usize = 6;

/// Computes the exact truth table of a single-output cone.
///
/// Returns `None` when the AIG is not such a cone: more than one primary
/// output, or more than [`MAX_CONE_VARS`] primary inputs.
pub fn cone_truth_table(aig: &Aig) -> Option<TruthTable> {
    let k = aig.num_pis();
    if aig.num_pos() != 1 || k > MAX_CONE_VARS {
        return None;
    }
    let mut words = vec![0u64; aig.num_nodes()];
    for (idx, node) in aig.nodes().iter().enumerate() {
        words[idx] = match *node {
            Node::Const => 0,
            Node::Input(pi) => PROJECTIONS[pi as usize],
            Node::And(a, b) => {
                let ma = if a.is_complemented() { u64::MAX } else { 0 };
                let mb = if b.is_complemented() { u64::MAX } else { 0 };
                (words[a.var().index()] ^ ma) & (words[b.var().index()] ^ mb)
            }
        };
    }
    let po = aig.po(0);
    let mpo = if po.is_complemented() { u64::MAX } else { 0 };
    Some(TruthTable::from_sim_words(
        k,
        vec![words[po.var().index()] ^ mpo],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_pointwise_eval() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(4);
        let f = aig.and(xs[0], xs[1]);
        let g = aig.or(!xs[2], xs[3]);
        let h = aig.xor(f, g);
        aig.add_po(!h);
        let tt = cone_truth_table(&aig).expect("cone qualifies");
        let want = TruthTable::from_fn(4, |i| {
            let bits: Vec<bool> = (0..4).map(|j| i >> j & 1 == 1).collect();
            aig.eval(&bits)[0]
        });
        assert_eq!(tt.masked(), want);
    }

    #[test]
    fn complemented_po_leaves_dirty_upper_bits() {
        // k = 2 with a complemented PO: the XOR with !0 dirties bits 4..64,
        // which masked() must clear.
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let f = aig.and(xs[0], xs[1]);
        aig.add_po(!f); // NAND
        let tt = cone_truth_table(&aig).expect("cone qualifies");
        assert!(tt.words()[0] >> 4 != 0, "raw sim words keep don't-cares");
        assert_eq!(tt.masked(), TruthTable::from_fn(2, |i| i != 3));
    }

    #[test]
    fn rejects_multi_po_and_wide_cones() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(MAX_CONE_VARS + 1);
        let f = aig.and_all(xs.iter().copied());
        aig.add_po(f);
        assert!(cone_truth_table(&aig).is_none(), "7 PIs");
        let mut two = Aig::new();
        let ys = two.add_inputs(2);
        two.add_po(ys[0]);
        two.add_po(ys[1]);
        assert!(cone_truth_table(&two).is_none(), "2 POs");
        let mut none = Aig::new();
        none.add_inputs(2);
        assert!(cone_truth_table(&none).is_none(), "0 POs");
    }

    #[test]
    fn wide_tables_use_projection_words() {
        // k = 6 fills the whole word: no don't-care bits at all.
        let mut aig = Aig::new();
        let xs = aig.add_inputs(6);
        let f = aig.xor(xs[0], xs[5]);
        aig.add_po(f);
        let tt = cone_truth_table(&aig).expect("cone qualifies");
        let want = TruthTable::from_fn(6, |i| (i & 1 == 1) != (i >> 5 & 1 == 1));
        assert_eq!(tt.masked(), want);
    }
}
