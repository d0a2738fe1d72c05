//! Tseitin encoding of AIG logic cones into a [`Solver`].

use parsweep_aig::{Aig, Lit, Node, Var};

use crate::slit::{SatLit, SatVar};
use crate::solver::Solver;

/// Incremental encoder: maps AIG variables to SAT variables and lazily
/// adds the AND-gate clauses of each requested cone to the solver.
///
/// ```
/// use parsweep_aig::Aig;
/// use parsweep_sat::{CnfEncoder, Solver, SolveResult};
/// let mut aig = Aig::new();
/// let xs = aig.add_inputs(2);
/// let f = aig.and(xs[0], xs[1]);
/// aig.add_po(f);
/// let mut solver = Solver::new();
/// let mut enc = CnfEncoder::new();
/// let sat_f = enc.encode(&aig, f, &mut solver);
/// // f can be 1...
/// assert_eq!(solver.solve(&[sat_f]), SolveResult::Sat);
/// // ...but not together with !a.
/// let sat_a = enc.encode(&aig, xs[0], &mut solver);
/// assert_eq!(solver.solve(&[sat_f, !sat_a]), SolveResult::Unsat);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CnfEncoder {
    /// The SAT variable of each AIG node, by node index.
    map: Vec<Option<SatVar>>,
    /// AIG nodes whose defining clauses are already in the solver.
    defined: Vec<bool>,
}

impl CnfEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        CnfEncoder::default()
    }

    /// Returns the SAT variable for an AIG variable, creating it if new.
    pub fn sat_var(&mut self, v: Var, solver: &mut Solver) -> SatVar {
        if v.index() >= self.map.len() {
            self.map.resize(v.index() + 1, None);
        }
        *self.map[v.index()].get_or_insert_with(|| solver.new_var())
    }

    /// Encodes the logic cone of `lit` and returns the corresponding SAT
    /// literal. Constants are encoded via a pinned variable.
    pub fn encode(&mut self, aig: &Aig, lit: Lit, solver: &mut Solver) -> SatLit {
        if self.defined.len() < aig.num_nodes() {
            self.defined.resize(aig.num_nodes(), false);
        }
        let mut stack = vec![lit.var()];
        while let Some(v) = stack.pop() {
            if std::mem::replace(&mut self.defined[v.index()], true) {
                continue;
            }
            match aig.node(v) {
                Node::Const => {
                    // Pin the constant variable to false.
                    let sv = self.sat_var(v, solver);
                    solver.add_clause(&[sv.neg()]);
                }
                Node::Input(_) => {
                    self.sat_var(v, solver);
                }
                Node::And(a, b) => {
                    stack.push(a.var());
                    stack.push(b.var());
                    let sv = self.sat_var(v, solver);
                    let sa = self.sat_var(a.var(), solver).lit(a.is_complemented());
                    let sb = self.sat_var(b.var(), solver).lit(b.is_complemented());
                    // v <-> a & b
                    solver.add_clause(&[sv.neg(), sa]);
                    solver.add_clause(&[sv.neg(), sb]);
                    solver.add_clause(&[sv.pos(), !sa, !sb]);
                }
            }
        }
        self.sat_var(lit.var(), solver).lit(lit.is_complemented())
    }

    /// Extracts a (sparse) PI counter-example from the solver's model:
    /// values of all mapped PIs.
    pub fn model_to_cex(&self, aig: &Aig, solver: &Solver) -> parsweep_sim::Cex {
        let assignment: Vec<(Var, bool)> = aig
            .pis()
            .iter()
            .filter_map(|&v| {
                let sv = (*self.map.get(v.index())?)?;
                Some((v, solver.model_value(sv)?))
            })
            .collect();
        parsweep_sim::Cex::from_sparse(aig, &assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    #[test]
    fn encode_and_gate_semantics() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let f = aig.and(xs[0], !xs[1]);
        let mut solver = Solver::new();
        let mut enc = CnfEncoder::new();
        let sf = enc.encode(&aig, f, &mut solver);
        let sa = enc.encode(&aig, xs[0], &mut solver);
        let sb = enc.encode(&aig, xs[1], &mut solver);
        // f & b is unsat, f & !a is unsat, f alone is sat.
        assert_eq!(solver.solve(&[sf, sb]), SolveResult::Unsat);
        assert_eq!(solver.solve(&[sf, !sa]), SolveResult::Unsat);
        assert_eq!(solver.solve(&[sf]), SolveResult::Sat);
    }

    #[test]
    fn encode_constant() {
        let mut aig = Aig::new();
        aig.add_inputs(1);
        let mut solver = Solver::new();
        let mut enc = CnfEncoder::new();
        let t = enc.encode(&aig, Lit::TRUE, &mut solver);
        assert_eq!(solver.solve(&[t]), SolveResult::Sat);
        assert_eq!(solver.solve(&[!t]), SolveResult::Unsat);
    }

    #[test]
    fn equivalence_check_via_xor_assumptions() {
        // f = a^b as XOR, g = a^b via MUX; prove f != g unsat.
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let f = aig.xor(xs[0], xs[1]);
        let g = aig.mux(xs[0], !xs[1], xs[1]);
        let mut solver = Solver::new();
        let mut enc = CnfEncoder::new();
        let sf = enc.encode(&aig, f, &mut solver);
        let sg = enc.encode(&aig, g, &mut solver);
        // XOR via two assumption probes: (f & !g) and (!f & g).
        assert_eq!(solver.solve(&[sf, !sg]), SolveResult::Unsat);
        assert_eq!(solver.solve(&[!sf, sg]), SolveResult::Unsat);
    }

    #[test]
    fn cex_extraction_matches_model() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let f = aig.and(xs[0], xs[1]);
        let mut solver = Solver::new();
        let mut enc = CnfEncoder::new();
        let sf = enc.encode(&aig, f, &mut solver);
        assert_eq!(solver.solve(&[sf]), SolveResult::Sat);
        let cex = enc.model_to_cex(&aig, &solver);
        let dense = cex.to_dense(&aig);
        assert_eq!(dense, vec![true, true]);
        assert_eq!(aig.eval(&dense), Vec::<bool>::new());
    }

    #[test]
    fn shared_structure_encoded_once() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let f = aig.and(xs[0], xs[1]);
        let g = aig.or(f, xs[0]);
        let mut solver = Solver::new();
        let mut enc = CnfEncoder::new();
        enc.encode(&aig, g, &mut solver);
        let vars_after_g = solver.num_vars();
        enc.encode(&aig, f, &mut solver);
        assert_eq!(solver.num_vars(), vars_after_g, "f was already encoded");
    }
}
