//! The semantic tier of the settle path: small cones decided by what
//! they compute, not looked up by how they are built.
//!
//! A structural key only recognizes cones it has seen before. A
//! single-output cone over at most
//! [`MAX_CONE_VARS`](parsweep_sim::MAX_CONE_VARS) inputs needs no key
//! at all: its whole function is one 64-bit word ([`cone_truth_table`]),
//! and a miter cone is equivalent exactly when that function is constant
//! false. Computing the table is therefore the proof — no cache probe,
//! no engine — so a structurally new cone settles as fast as a repeat,
//! and its counter-example is read off its own table.

use parsweep_aig::Aig;
use parsweep_sat::Verdict;
use parsweep_sim::{cone_truth_table, Cex, TruthTable};

/// Decides a miter cone from its truth table, or `None` when the cone
/// does not qualify (more than one PO, or more than
/// [`MAX_CONE_VARS`](parsweep_sim::MAX_CONE_VARS) PIs). The verdict is
/// over the cone's own PIs.
pub(crate) fn table_decision(cone: &Aig) -> Option<Verdict> {
    cone_truth_table(cone).map(|table| table_verdict(&table))
}

/// The verdict of a miter cone with the one-word truth table `table`:
/// all zero proves the cone, and otherwise the lowest firing assignment
/// is the counter-example (the empty one for a constant-true cone
/// without inputs). Only the `2^k` valid bits are read: the word's upper
/// bits are don't-cares for `k < 6`.
pub(crate) fn table_verdict(table: &TruthTable) -> Verdict {
    let word = table.masked().words()[0];
    if word == 0 {
        return Verdict::Equivalent;
    }
    let fires = word.trailing_zeros() as usize;
    Verdict::NotEquivalent(index_to_cex(table.num_vars(), fires))
}

/// Decodes an assignment index over `k` PIs (bit `i` is PI `i`'s value)
/// into a counter-example.
fn index_to_cex(k: usize, index: usize) -> Cex {
    Cex::new((0..k).map(|i| index >> i & 1 == 1).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsweep_sim::MAX_CONE_VARS;

    fn and_cone(k: usize) -> Aig {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(k);
        let f = aig.and_all(xs.iter().copied());
        aig.add_po(f);
        aig
    }

    #[test]
    fn lifted_index_round_trips_to_a_firing_cex() {
        let mut f = Aig::new();
        let xs = f.add_inputs(3);
        let t = f.xor(xs[0], xs[1]);
        let g = f.and(t, !xs[2]);
        f.add_po(g);
        let table = cone_truth_table(&f).unwrap();
        for i in 0..table.num_bits() {
            let cex = index_to_cex(3, i);
            let back = cex
                .inputs()
                .iter()
                .enumerate()
                .fold(0, |acc, (j, &b)| acc | (b as usize) << j);
            assert_eq!(back, i, "index {i} round trips");
            assert_eq!(cex.fires(&f), table.value(i), "index {i}");
        }
        // The decision serves the lowest firing index: 0b001.
        assert_eq!(
            table_decision(&f),
            Some(Verdict::NotEquivalent(index_to_cex(3, 1)))
        );
    }

    #[test]
    fn oversized_cones_do_not_qualify() {
        assert!(table_decision(&and_cone(MAX_CONE_VARS + 1)).is_none());
        let all_ones = Cex::new(vec![true; MAX_CONE_VARS]);
        assert_eq!(
            table_decision(&and_cone(MAX_CONE_VARS)),
            Some(Verdict::NotEquivalent(all_ones))
        );
        let mut two = Aig::new();
        let ys = two.add_inputs(2);
        two.add_po(ys[0]);
        two.add_po(ys[1]);
        assert!(table_decision(&two).is_none(), "2 POs");
    }

    #[test]
    fn dirty_upper_bits_never_yield_a_table_cex() {
        // Raw simulation words of a cone over k < 6 inputs carry
        // don't-care bits above 2^k: whatever they hold, only the valid
        // bits decide.
        for k in 0..MAX_CONE_VARS {
            let valid = (1u64 << (1 << k)) - 1;
            let dirty = TruthTable::from_sim_words(k, vec![!valid]);
            assert_eq!(table_verdict(&dirty), Verdict::Equivalent, "k={k}");
            let top = 1 << (valid.count_ones() - 1);
            let last = TruthTable::from_sim_words(k, vec![!valid | top]);
            let want = Cex::new(vec![true; k]);
            assert_eq!(table_verdict(&last), Verdict::NotEquivalent(want), "k={k}");
        }
    }
}
