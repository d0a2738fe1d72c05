//! The And-Inverter Graph container.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

use crate::{Lit, Node, Var};

/// The strash table's hash: the two fanin codes of a key are packed into
/// one 64-bit word, which one multiply-fold hashes. The key is XORed with
/// a seed drawn once per process from [`RandomState`], so a file built to
/// collide (the service strashes client-named files) cannot be prepared
/// in advance. The table is never iterated, so the hash decides no order.
#[derive(Clone, Copy, Debug)]
struct StrashHash {
    seed: u64,
}

impl Default for StrashHash {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        StrashHash {
            seed: *SEED.get_or_init(|| RandomState::new().hash_one(0x5eed_u64)),
        }
    }
}

impl BuildHasher for StrashHash {
    type Hasher = StrashHasher;

    fn build_hasher(&self) -> StrashHasher {
        StrashHasher {
            seed: self.seed,
            key: 0,
        }
    }
}

/// Packs the `u32` writes of one key (a [`Lit`] pair) and folds them in
/// [`Hasher::finish`].
struct StrashHasher {
    seed: u64,
    key: u64,
}

impl Hasher for StrashHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.key = self.key.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u32(&mut self, code: u32) {
        self.key = self.key << 32 | u64::from(code);
    }

    fn finish(&self) -> u64 {
        let product = u128::from(self.key ^ self.seed) * 0x9e37_79b9_7f4a_7c15;
        (product >> 64) as u64 ^ product as u64
    }
}

/// An And-Inverter Graph: a Boolean network of two-input AND gates with
/// optional inverters on edges, plus primary inputs and outputs.
///
/// Nodes are stored in topological order (fanins always precede a node), and
/// new AND gates are structurally hashed: building the same gate twice
/// returns the same literal, and trivial gates (constants, `x & x`,
/// `x & !x`) are folded away.
///
/// ```
/// use parsweep_aig::Aig;
/// let mut aig = Aig::new();
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let f = aig.and(a, b);
/// aig.add_po(f);
/// assert_eq!(aig.num_ands(), 1);
/// assert_eq!(aig.eval(&[true, true]), vec![true]);
/// assert_eq!(aig.eval(&[true, false]), vec![false]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Aig {
    nodes: Vec<Node>,
    pis: Vec<Var>,
    pos: Vec<Lit>,
    strash: HashMap<(Lit, Lit), Var, StrashHash>,
}

impl Aig {
    /// Creates an empty AIG containing only the constant node.
    pub fn new() -> Self {
        Aig {
            nodes: vec![Node::Const],
            pis: Vec::new(),
            pos: Vec::new(),
            strash: HashMap::default(),
        }
    }

    /// Creates an empty AIG with capacity reserved for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        let mut aig = Aig::new();
        aig.nodes.reserve(n);
        aig.strash.reserve(n);
        aig
    }

    /// Appends a new primary input and returns its (positive) literal.
    pub fn add_input(&mut self) -> Lit {
        let var = Var::new(self.nodes.len() as u32);
        self.nodes.push(Node::Input(self.pis.len() as u32));
        self.pis.push(var);
        var.lit()
    }

    /// Appends `n` new primary inputs and returns their literals.
    pub fn add_inputs(&mut self, n: usize) -> Vec<Lit> {
        (0..n).map(|_| self.add_input()).collect()
    }

    /// Registers `lit` as a primary output and returns its PO index.
    pub fn add_po(&mut self, lit: Lit) -> usize {
        self.pos.push(lit);
        self.pos.len() - 1
    }

    /// Builds (or finds) the AND of two literals.
    ///
    /// Constant folding and trivial rules are applied, and the gate is
    /// structurally hashed, so the result may be an existing literal.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Normalize operand order so the strash key is canonical.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        // Trivial rules.
        if a == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if a == b {
            return a;
        }
        if let Some(&var) = self.strash.get(&(a, b)) {
            return var.lit();
        }
        let var = Var::new(self.nodes.len() as u32);
        self.nodes.push(Node::And(a, b));
        self.strash.insert((a, b), var);
        var.lit()
    }

    /// Builds the OR of two literals.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// Builds the XOR of two literals (three AND gates).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let n0 = self.and(a, !b);
        let n1 = self.and(!a, b);
        self.or(n0, n1)
    }

    /// Builds the XNOR of two literals.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// Builds a 2:1 multiplexer: `if s { t } else { e }`.
    pub fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        let n0 = self.and(s, t);
        let n1 = self.and(!s, e);
        self.or(n0, n1)
    }

    /// Builds the majority of three literals.
    pub fn maj3(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.and(a, b);
        let ac = self.and(a, c);
        let bc = self.and(b, c);
        let o = self.or(ab, ac);
        self.or(o, bc)
    }

    /// Builds the AND over an iterator of literals (balanced tree).
    pub fn and_all<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> Lit {
        let mut layer: Vec<Lit> = lits.into_iter().collect();
        if layer.is_empty() {
            return Lit::TRUE;
        }
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 {
                    self.and(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            layer = next;
        }
        layer[0]
    }

    /// Builds the OR over an iterator of literals (balanced tree).
    pub fn or_all<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> Lit {
        let inv: Vec<Lit> = lits.into_iter().map(|l| !l).collect();
        !self.and_all(inv)
    }

    /// Returns the node stored at `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of bounds.
    #[inline]
    pub fn node(&self, var: Var) -> Node {
        self.nodes[var.index()]
    }

    /// Returns the full node slice, indexed by variable.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Returns the number of nodes including the constant node.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Returns the number of AND gates.
    pub fn num_ands(&self) -> usize {
        self.nodes.len() - 1 - self.pis.len()
    }

    /// Returns the number of primary inputs.
    #[inline]
    pub fn num_pis(&self) -> usize {
        self.pis.len()
    }

    /// Returns the number of primary outputs.
    #[inline]
    pub fn num_pos(&self) -> usize {
        self.pos.len()
    }

    /// Returns the primary input variables in input order.
    #[inline]
    pub fn pis(&self) -> &[Var] {
        &self.pis
    }

    /// Returns the primary output literals in output order.
    #[inline]
    pub fn pos(&self) -> &[Lit] {
        &self.pos
    }

    /// Returns the `i`-th primary output literal.
    #[inline]
    pub fn po(&self, i: usize) -> Lit {
        self.pos[i]
    }

    /// Replaces the `i`-th primary output literal.
    pub fn set_po(&mut self, i: usize, lit: Lit) {
        self.pos[i] = lit;
    }

    /// Iterates over the variables of all AND nodes, in topological order.
    pub fn and_vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.nodes.iter().enumerate().filter_map(|(i, n)| {
            if n.is_and() {
                Some(Var::new(i as u32))
            } else {
                None
            }
        })
    }

    /// Evaluates all POs under one assignment of the PIs.
    ///
    /// This is the reference (slow, one pattern at a time) evaluator used by
    /// tests and counter-example validation.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_pis()`.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.pis.len(), "wrong number of input values");
        let values = self.eval_nodes(inputs);
        self.pos
            .iter()
            .map(|po| po.eval(values[po.var().index()]))
            .collect()
    }

    /// Evaluates every node under one assignment of the PIs and returns the
    /// value of each variable.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_pis()`.
    pub fn eval_nodes(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.pis.len(), "wrong number of input values");
        let mut values = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            values[i] = match node {
                Node::Const => false,
                Node::Input(pi) => inputs[*pi as usize],
                Node::And(a, b) => {
                    a.eval(values[a.var().index()]) && b.eval(values[b.var().index()])
                }
            };
        }
        values
    }

    /// Checks basic structural invariants; used by tests and debug builds.
    ///
    /// Verifies that node 0 is the constant, fanins precede their node, AND
    /// fanins are ordered, and PI bookkeeping is consistent.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.nodes.is_empty() || !self.nodes[0].is_const() {
            return Err("node 0 must be the constant node".into());
        }
        for (i, node) in self.nodes.iter().enumerate() {
            match node {
                Node::Const => {
                    if i != 0 {
                        return Err(format!("constant node at index {i}"));
                    }
                }
                Node::Input(pi) => {
                    if self.pis.get(*pi as usize) != Some(&Var::new(i as u32)) {
                        return Err(format!("PI bookkeeping broken at node {i}"));
                    }
                }
                Node::And(a, b) => {
                    if a > b {
                        return Err(format!("unordered fanins at node {i}"));
                    }
                    if a.var().index() >= i || b.var().index() >= i {
                        return Err(format!("fanin does not precede node {i}"));
                    }
                }
            }
        }
        for po in &self.pos {
            if po.var().index() >= self.nodes.len() {
                return Err("PO literal out of range".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strash_dedups_gates() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.and(a, b);
        let g = aig.and(b, a);
        assert_eq!(f, g);
        assert_eq!(aig.num_ands(), 1);
    }

    #[test]
    fn trivial_rules_fold() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        assert_eq!(aig.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(aig.and(a, Lit::TRUE), a);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, !a), Lit::FALSE);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn xor_truth_table() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.xor(a, b);
        aig.add_po(f);
        assert_eq!(aig.eval(&[false, false]), vec![false]);
        assert_eq!(aig.eval(&[true, false]), vec![true]);
        assert_eq!(aig.eval(&[false, true]), vec![true]);
        assert_eq!(aig.eval(&[true, true]), vec![false]);
    }

    #[test]
    fn mux_truth_table() {
        let mut aig = Aig::new();
        let s = aig.add_input();
        let t = aig.add_input();
        let e = aig.add_input();
        let f = aig.mux(s, t, e);
        aig.add_po(f);
        for s_v in [false, true] {
            for t_v in [false, true] {
                for e_v in [false, true] {
                    let expect = if s_v { t_v } else { e_v };
                    assert_eq!(aig.eval(&[s_v, t_v, e_v]), vec![expect]);
                }
            }
        }
    }

    #[test]
    fn maj3_truth_table() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let f = aig.maj3(a, b, c);
        aig.add_po(f);
        for v in 0..8u32 {
            let bits = [(v & 1) != 0, (v & 2) != 0, (v & 4) != 0];
            let expect = bits.iter().filter(|&&x| x).count() >= 2;
            assert_eq!(aig.eval(&bits), vec![expect]);
        }
    }

    #[test]
    fn and_all_empty_is_true() {
        let mut aig = Aig::new();
        assert_eq!(aig.and_all(std::iter::empty()), Lit::TRUE);
        assert_eq!(aig.or_all(std::iter::empty()), Lit::FALSE);
    }

    #[test]
    fn and_or_all_wide() {
        let mut aig = Aig::new();
        let inputs = aig.add_inputs(7);
        let f = aig.and_all(inputs.iter().copied());
        let g = aig.or_all(inputs.iter().copied());
        aig.add_po(f);
        aig.add_po(g);
        assert_eq!(aig.eval(&[true; 7]), vec![true, true]);
        assert_eq!(aig.eval(&[false; 7]), vec![false, false]);
        let mut mixed = [false; 7];
        mixed[3] = true;
        assert_eq!(aig.eval(&mixed), vec![false, true]);
    }

    #[test]
    fn invariants_hold_after_construction() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(4);
        let f = aig.xor(xs[0], xs[1]);
        let g = aig.mux(xs[2], f, xs[3]);
        aig.add_po(g);
        aig.check_invariants().unwrap();
    }
}
