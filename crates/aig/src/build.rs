//! Structure-preserving construction helpers: importing one AIG into
//! another, duplication (`double`), cone extraction and substitution-based
//! rebuilding (the mechanism behind miter reduction).

use crate::{Aig, Lit, Node, Var};

impl Aig {
    /// Copies the logic of `other` into `self`, driving `other`'s PIs with
    /// the literals in `pi_map`, and returns `other`'s PO literals expressed
    /// in `self`.
    ///
    /// New gates are structurally hashed into `self`, so shared logic is
    /// deduplicated automatically.
    ///
    /// # Panics
    ///
    /// Panics if `pi_map.len() != other.num_pis()`.
    pub fn append(&mut self, other: &Aig, pi_map: &[Lit]) -> Vec<Lit> {
        assert_eq!(
            pi_map.len(),
            other.num_pis(),
            "pi_map must cover all PIs of the appended AIG"
        );
        let mut map: Vec<Lit> = Vec::with_capacity(other.num_nodes());
        for node in other.nodes() {
            let lit = match node {
                Node::Const => Lit::FALSE,
                Node::Input(pi) => pi_map[*pi as usize],
                Node::And(a, b) => {
                    let fa = map[a.var().index()].xor(a.is_complemented());
                    let fb = map[b.var().index()].xor(b.is_complemented());
                    self.and(fa, fb)
                }
            };
            map.push(lit);
        }
        other
            .pos()
            .iter()
            .map(|po| map[po.var().index()].xor(po.is_complemented()))
            .collect()
    }

    /// Produces a network containing two independent copies of this one,
    /// doubling PIs, POs and gates — the equivalent of the ABC `double`
    /// command used by the paper to enlarge benchmarks.
    pub fn double(&self) -> Aig {
        let mut out = Aig::with_capacity(self.num_nodes() * 2);
        let pis_a: Vec<Lit> = (0..self.num_pis()).map(|_| out.add_input()).collect();
        let pis_b: Vec<Lit> = (0..self.num_pis()).map(|_| out.add_input()).collect();
        let pos_a = out.append(self, &pis_a);
        let pos_b = out.append(self, &pis_b);
        for po in pos_a.into_iter().chain(pos_b) {
            out.add_po(po);
        }
        out
    }

    /// Applies `double` `n` times (the paper's `nxd` benchmark suffix).
    pub fn double_times(&self, n: usize) -> Aig {
        let mut aig = self.clone();
        for _ in 0..n {
            aig = aig.double();
        }
        aig
    }

    /// Rebuilds the network keeping only logic reachable from the POs,
    /// removing dangling nodes and re-hashing all gates.
    ///
    /// All PIs are kept (in order) even if unreferenced, so the PI
    /// interface is stable. Returns the cleaned AIG.
    pub fn clean(&self) -> Aig {
        self.clean_with_pos(self.pos()).0
    }

    /// Like [`Aig::clean`], additionally returning the map from this
    /// network's variables to literals of the cleaned network. Variables
    /// whose logic was unreachable from the POs map to the [`Lit::FALSE`]
    /// sentinel (only the constant variable itself maps there
    /// legitimately).
    pub fn clean_with_map(&self) -> (Aig, Vec<Lit>) {
        self.clean_with_pos(self.pos())
    }

    /// Like [`Aig::clean_with_map`], with `pos` (literals of this network)
    /// as the outputs of the result in place of this network's own: the
    /// result keeps every PI and only the logic `pos` reaches, so a caller
    /// that changes some outputs never copies the whole network first.
    pub fn clean_with_pos(&self, pos: &[Lit]) -> (Aig, Vec<Lit>) {
        let mut reachable = vec![false; self.num_nodes()];
        let mut ands = 0;
        let mut stack: Vec<Var> = pos.iter().map(|po| po.var()).collect();
        while let Some(v) = stack.pop() {
            if reachable[v.index()] {
                continue;
            }
            reachable[v.index()] = true;
            if let Node::And(a, b) = self.node(v) {
                ands += 1;
                stack.push(a.var());
                stack.push(b.var());
            }
        }
        let mut out = Aig::with_capacity(1 + self.num_pis() + ands);
        let mut map: Vec<Lit> = vec![Lit::FALSE; self.num_nodes()];
        for pi in self.pis() {
            map[pi.index()] = out.add_input();
        }
        for (i, node) in self.nodes().iter().enumerate() {
            if !reachable[i] {
                continue;
            }
            if let Node::And(a, b) = node {
                let fa = map[a.var().index()].xor(a.is_complemented());
                let fb = map[b.var().index()].xor(b.is_complemented());
                map[i] = out.and(fa, fb);
            }
        }
        for po in pos {
            let lit = map[po.var().index()].xor(po.is_complemented());
            out.add_po(lit);
        }
        (out, map)
    }

    /// Rebuilds the network while substituting nodes by equivalent
    /// literals: `subst[v]` is the literal (over *this* network's
    /// variables) that must implement variable `v` in the result.
    ///
    /// This is the merge step of sweeping: after a pair `(repr, n)` is
    /// proved equivalent, setting `subst[n] = repr_lit` redirects all of
    /// `n`'s fanouts to the representative. Substitution targets must have
    /// smaller variable indices than the node they replace (guaranteed when
    /// representatives are minimum-id class members).
    ///
    /// Returns the reduced AIG and a map from old variables to literals
    /// *of the returned (cleaned) AIG*: `map[v]` implements old variable
    /// `v` in the result. Old variables whose logic is absent from the
    /// result — substituted to a constant, or left dangling by the
    /// clean-up — map to a constant literal (the [`Lit::FALSE`] sentinel
    /// for dangling nodes).
    ///
    /// # Panics
    ///
    /// Panics if `subst.len() != self.num_nodes()` or if a substitution
    /// target does not precede the substituted node.
    pub fn rebuild_with_substitution(&self, subst: &[Lit]) -> (Aig, Vec<Lit>) {
        assert_eq!(
            subst.len(),
            self.num_nodes(),
            "substitution map size mismatch"
        );
        let mut out = Aig::with_capacity(self.num_nodes());
        let mut map: Vec<Lit> = Vec::with_capacity(self.num_nodes());
        for (i, node) in self.nodes().iter().enumerate() {
            let target = subst[i];
            let lit = if target != Var::new(i as u32).lit() {
                // Redirected to an equivalent literal built earlier.
                assert!(
                    target.var().index() < i,
                    "substitution target must precede node {i}"
                );
                map[target.var().index()].xor(target.is_complemented())
            } else {
                match node {
                    Node::Const => Lit::FALSE,
                    Node::Input(_) => out.add_input(),
                    Node::And(a, b) => {
                        let fa = map[a.var().index()].xor(a.is_complemented());
                        let fb = map[b.var().index()].xor(b.is_complemented());
                        out.and(fa, fb)
                    }
                }
            };
            map.push(lit);
        }
        for po in self.pos() {
            let lit = map[po.var().index()].xor(po.is_complemented());
            out.add_po(lit);
        }
        // Compose the substitution map through the clean-up's renumbering
        // so the returned map is valid over the returned AIG.
        let (cleaned, clean_map) = out.clean_with_map();
        for lit in &mut map {
            *lit = clean_map[lit.var().index()].xor(lit.is_complemented());
        }
        (cleaned, map)
    }
}

impl Aig {
    /// Specializes the network by pinning one primary input to a constant
    /// (the circuit cofactor). The pinned PI is *removed* from the
    /// interface; remaining PIs keep their relative order.
    ///
    /// # Panics
    ///
    /// Panics if `pi_index >= self.num_pis()`.
    pub fn cofactor_pi(&self, pi_index: usize, value: bool) -> Aig {
        assert!(pi_index < self.num_pis(), "PI index out of range");
        let mut out = Aig::with_capacity(self.num_nodes());
        let mut map: Vec<Lit> = vec![Lit::FALSE; self.num_nodes()];
        for (k, pi) in self.pis().iter().enumerate() {
            map[pi.index()] = if k == pi_index {
                if value {
                    Lit::TRUE
                } else {
                    Lit::FALSE
                }
            } else {
                out.add_input()
            };
        }
        for (i, node) in self.nodes().iter().enumerate() {
            if let Node::And(a, b) = node {
                let fa = map[a.var().index()].xor(a.is_complemented());
                let fb = map[b.var().index()].xor(b.is_complemented());
                map[i] = out.and(fa, fb);
            }
        }
        for po in self.pos() {
            let lit = map[po.var().index()].xor(po.is_complemented());
            out.add_po(lit);
        }
        out.clean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Aig {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(3);
        let f = aig.xor(xs[0], xs[1]);
        let g = aig.mux(xs[2], f, xs[0]);
        aig.add_po(g);
        aig
    }

    #[test]
    fn append_preserves_function() {
        let inner = sample();
        let mut outer = Aig::new();
        let pis = outer.add_inputs(3);
        let pos = outer.append(&inner, &pis);
        for po in pos {
            outer.add_po(po);
        }
        for v in 0..8u32 {
            let bits = [(v & 1) != 0, (v & 2) != 0, (v & 4) != 0];
            assert_eq!(outer.eval(&bits), inner.eval(&bits));
        }
    }

    #[test]
    fn double_doubles_interface() {
        let aig = sample();
        let d = aig.double();
        assert_eq!(d.num_pis(), 2 * aig.num_pis());
        assert_eq!(d.num_pos(), 2 * aig.num_pos());
        // Both halves compute the original function.
        for v in 0..8u32 {
            let bits = [(v & 1) != 0, (v & 2) != 0, (v & 4) != 0];
            let mut both = bits.to_vec();
            both.extend_from_slice(&bits);
            let got = d.eval(&both);
            let want = aig.eval(&bits);
            assert_eq!(&got[..1], &want[..]);
            assert_eq!(&got[1..], &want[..]);
        }
    }

    #[test]
    fn double_times_grows_geometrically() {
        let aig = sample();
        let d = aig.double_times(3);
        assert_eq!(d.num_pis(), 8 * aig.num_pis());
        assert_eq!(d.num_pos(), 8 * aig.num_pos());
    }

    #[test]
    fn clean_removes_dangling() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let used = aig.and(xs[0], xs[1]);
        let _dangling = aig.or(xs[0], xs[1]);
        aig.add_po(used);
        let cleaned = aig.clean();
        assert_eq!(cleaned.num_ands(), 1);
        assert_eq!(cleaned.num_pis(), 2);
        for v in 0..4u32 {
            let bits = [(v & 1) != 0, (v & 2) != 0];
            assert_eq!(cleaned.eval(&bits), aig.eval(&bits));
        }
    }

    #[test]
    fn clean_with_pos_matches_cleaning_a_copy_with_those_outputs() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(3);
        let f = aig.xor(xs[0], xs[1]);
        let g = aig.mux(xs[2], f, !xs[0]);
        let h = aig.and(g, xs[1]);
        aig.add_po(g);
        aig.add_po(!h);
        let pos = [Lit::FALSE, !h];
        let mut copy = aig.clone();
        copy.set_po(0, pos[0]);
        let (want, want_map) = copy.clean_with_map();
        let (got, map) = aig.clean_with_pos(&pos);
        assert_eq!(got.nodes(), want.nodes());
        assert_eq!(got.pos(), want.pos());
        assert_eq!(map, want_map);
        assert_eq!(aig.num_pos(), 2, "the source keeps its own outputs");
    }

    #[test]
    fn cofactor_pins_an_input() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(3);
        let f = aig.mux(xs[0], xs[1], xs[2]);
        aig.add_po(f);
        // Pin the select to 1: the mux becomes a wire to xs[1].
        let c1 = aig.cofactor_pi(0, true);
        assert_eq!(c1.num_pis(), 2);
        assert_eq!(c1.num_ands(), 0);
        assert_eq!(c1.eval(&[true, false]), vec![true]);
        assert_eq!(c1.eval(&[false, true]), vec![false]);
        // Pin it to 0: wire to xs[2].
        let c0 = aig.cofactor_pi(0, false);
        assert_eq!(c0.eval(&[false, true]), vec![true]);
        // Shannon check against the original on all patterns.
        for v in 0..4u32 {
            let bits = [(v & 1) != 0, (v & 2) != 0];
            let full1 = aig.eval(&[true, bits[0], bits[1]]);
            assert_eq!(c1.eval(&bits), full1);
            let full0 = aig.eval(&[false, bits[0], bits[1]]);
            assert_eq!(c0.eval(&bits), full0);
        }
    }

    #[test]
    fn substitution_merges_equivalent_nodes() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        // Two structurally different forms of the same function: a XOR b
        // and !(a XNOR b). Build them without letting strash collapse them.
        let x1 = aig.xor(xs[0], xs[1]);
        let t0 = aig.and(xs[0], xs[1]);
        let t1 = aig.and(!xs[0], !xs[1]);
        let xnor = aig.or(t0, t1);
        aig.add_po(x1);
        aig.add_po(!xnor);
        // The literal !xnor computes the same function as x1, hence the
        // underlying variable is equivalent to x1 adjusted by the
        // complement of !xnor.
        let eq = !xnor;
        let mut subst: Vec<Lit> = (0..aig.num_nodes())
            .map(|i| Var::new(i as u32).lit())
            .collect();
        subst[eq.var().index()] = x1.xor(eq.is_complemented());
        let (reduced, _) = aig.rebuild_with_substitution(&subst);
        assert!(reduced.num_ands() < aig.num_ands());
        for v in 0..4u32 {
            let bits = [(v & 1) != 0, (v & 2) != 0];
            assert_eq!(reduced.eval(&bits), aig.eval(&bits));
        }
    }

    #[test]
    fn substitution_map_is_valid_over_the_cleaned_result() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let x1 = aig.xor(xs[0], xs[1]);
        let t0 = aig.and(xs[0], xs[1]);
        let t1 = aig.and(!xs[0], !xs[1]);
        let xnor = aig.or(t0, t1);
        aig.add_po(x1);
        aig.add_po(!xnor);
        let eq = !xnor;
        let mut subst: Vec<Lit> = (0..aig.num_nodes())
            .map(|i| Var::new(i as u32).lit())
            .collect();
        subst[eq.var().index()] = x1.xor(eq.is_complemented());
        let (reduced, map) = aig.rebuild_with_substitution(&subst);
        assert_eq!(map.len(), aig.num_nodes());
        // Every mapped literal indexes the *returned* AIG and implements
        // the old variable's function; nodes the clean-up dropped map to
        // a constant literal instead.
        for v in 0..4u32 {
            let bits = [(v & 1) != 0, (v & 2) != 0];
            let old_vals = aig.eval_nodes(&bits);
            let new_vals = reduced.eval_nodes(&bits);
            for (i, lit) in map.iter().enumerate() {
                assert!(lit.var().index() < reduced.num_nodes());
                if lit.is_const() && i != 0 && subst[i] == Var::new(i as u32).lit() {
                    continue; // dangling node dropped by the clean-up
                }
                let got = lit.eval(new_vals[lit.var().index()]);
                assert_eq!(got, old_vals[i], "map wrong for old var {i}");
            }
        }
    }
}
