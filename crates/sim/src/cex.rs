//! Counter-examples.

use parsweep_aig::{Aig, Node, Var};

/// A counter-example: an assignment to the primary inputs *by position*
/// (index `i` is the value of the `i`-th PI).
///
/// Positional storage survives miter reductions: rebuilding an AIG changes
/// node ids but preserves PI order, so a counter-example found on a
/// reduced miter remains meaningful on the original.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cex {
    inputs: Vec<bool>,
}

impl Cex {
    /// Creates a counter-example from positional PI values.
    pub fn new(inputs: Vec<bool>) -> Self {
        Cex { inputs }
    }

    /// Creates a counter-example from a sparse variable assignment over
    /// `aig`'s PIs; unmentioned PIs are `false`, non-PI variables ignored.
    ///
    /// Costs `O(|assignment|)` beyond the output: each PI's position is
    /// read from its node, so no per-call position table is built.
    pub fn from_sparse(aig: &Aig, assignment: &[(Var, bool)]) -> Self {
        let mut inputs = vec![false; aig.num_pis()];
        for &(var, value) in assignment {
            if var.index() < aig.num_nodes() {
                if let Node::Input(pos) = aig.node(var) {
                    inputs[pos as usize] = value;
                }
            }
        }
        Cex { inputs }
    }

    /// The positional PI values.
    pub fn inputs(&self) -> &[bool] {
        &self.inputs
    }

    /// Expands to a dense PI-ordered assignment for `aig`, padding with
    /// `false` or truncating if the PI counts differ.
    pub fn to_dense(&self, aig: &Aig) -> Vec<bool> {
        let mut dense = self.inputs.clone();
        dense.resize(aig.num_pis(), false);
        dense
    }

    /// True if the counter-example actually fires some PO of `aig`.
    pub fn fires(&self, aig: &Aig) -> bool {
        aig.eval(&self.to_dense(aig)).iter().any(|&x| x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsweep_aig::Aig;

    #[test]
    fn sparse_construction_defaults_to_false() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(3);
        let cex = Cex::from_sparse(&aig, &[(xs[1].var(), true)]);
        assert_eq!(cex.to_dense(&aig), vec![false, true, false]);
    }

    #[test]
    fn sparse_matches_position_table_definition() {
        // The definition it replaces: a `num_nodes` table of PI positions.
        fn by_table(aig: &Aig, assignment: &[(Var, bool)]) -> Vec<bool> {
            let mut inputs = vec![false; aig.num_pis()];
            let mut position = vec![usize::MAX; aig.num_nodes()];
            for (i, pi) in aig.pis().iter().enumerate() {
                position[pi.index()] = i;
            }
            for &(var, value) in assignment {
                if let Some(&p) = position.get(var.index()) {
                    if p != usize::MAX {
                        inputs[p] = value;
                    }
                }
            }
            inputs
        }
        let mut rng = parsweep_aig::random::SplitMix64::new(7);
        for seed in 0..20 {
            let mut aig = parsweep_aig::random::random_aig(8, 40, 3, seed);
            // PIs added after the logic: a position is not `var - 1`.
            aig.add_inputs(2);
            // Constant, PI, AND and out-of-range variables, some repeated.
            let range = aig.num_nodes() + 5;
            let assignment: Vec<(Var, bool)> = (0..30)
                .map(|_| (Var::new(rng.below(range) as u32), rng.bool()))
                .collect();
            let cex = Cex::from_sparse(&aig, &assignment);
            assert_eq!(cex.inputs(), &by_table(&aig, &assignment)[..]);
        }
    }

    #[test]
    fn positional_is_stable_across_clean() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let f = aig.and(xs[0], xs[1]);
        let _dangling = aig.or(xs[0], xs[1]);
        aig.add_po(f);
        let cex = Cex::new(vec![true, true]);
        let cleaned = aig.clean();
        assert!(cex.fires(&aig));
        assert!(cex.fires(&cleaned));
    }

    #[test]
    fn dense_pads_and_truncates() {
        let mut aig = Aig::new();
        aig.add_inputs(4);
        let cex = Cex::new(vec![true]);
        assert_eq!(cex.to_dense(&aig), vec![true, false, false, false]);
    }
}
