//! Topological utilities: levels, fanouts, supports, cones.
//!
//! Because [`Aig`] nodes are created fanins-first, the variable order is
//! always a valid topological order; everything here exploits that.

use std::cell::RefCell;

use crate::{Aig, Node, Var};

/// One node's entry in [`Supports`]: its exact structural support, or
/// the mark that it is larger than the bound.
///
/// The simulation-based engine only ever needs supports up to a threshold
/// (`k_P`, `k_p`, `k_g` in the paper); computing exact supports for every
/// node of a large network is quadratic, so supports larger than the bound
/// saturate to "over". The list itself lives in the [`Supports`] pool;
/// read it with [`Supports::vars`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Support {
    start: u32,
    /// The list's length, or [`Support::OVER`].
    len: u32,
}

impl Support {
    /// The entry of a support larger than the bound.
    pub const OVER: Support = Support {
        start: 0,
        len: u32::MAX,
    };

    /// Returns the support size, or `None` if it exceeded the bound.
    pub fn size(&self) -> Option<usize> {
        (self.len != u32::MAX).then_some(self.len as usize)
    }
}

/// The bounded structural supports of every node of an AIG, indexed by
/// variable: every exact list in one pool, each node an offset and a
/// length into it (see [`Aig::bounded_supports`]).
#[derive(Clone, Debug)]
pub struct Supports {
    pool: Vec<Var>,
    entries: Vec<Support>,
}

impl Supports {
    /// Returns the sorted PI list of `v`, or `None` if its support
    /// exceeded the bound.
    pub fn vars(&self, v: Var) -> Option<&[Var]> {
        let s = self.entries[v.index()];
        let len = s.size()?;
        Some(&self.pool[s.start as usize..s.start as usize + len])
    }
}

impl std::ops::Index<usize> for Supports {
    type Output = Support;

    fn index(&self, index: usize) -> &Support {
        &self.entries[index]
    }
}

/// Merges two sorted variable lists into `out`, giving up (returning
/// `false`) when the union exceeds `cap`.
fn merge_bounded_into(a: &[Var], b: &[Var], cap: usize, out: &mut Vec<Var>) -> bool {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = if j >= b.len() || (i < a.len() && a[i] <= b[j]) {
            if j < b.len() && a[i] == b[j] {
                j += 1;
            }
            let v = a[i];
            i += 1;
            v
        } else {
            let v = b[j];
            j += 1;
            v
        };
        if out.len() == cap {
            return false;
        }
        out.push(next);
    }
    true
}

impl Aig {
    /// Computes the level of every node: PIs and the constant have level 0,
    /// an AND has the maximum fanin level plus one.
    pub fn levels(&self) -> Vec<u32> {
        let mut levels = vec![0u32; self.num_nodes()];
        for (i, node) in self.nodes().iter().enumerate() {
            if let Node::And(a, b) = node {
                levels[i] = 1 + levels[a.var().index()].max(levels[b.var().index()]);
            }
        }
        levels
    }

    /// Returns the level of the network: the largest PO level.
    pub fn depth(&self) -> u32 {
        let levels = self.levels();
        self.pos()
            .iter()
            .map(|po| levels[po.var().index()])
            .max()
            .unwrap_or(0)
    }

    /// Counts, for every node, how many AND gates and POs reference it.
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_nodes()];
        for node in self.nodes() {
            if let Node::And(a, b) = node {
                counts[a.var().index()] += 1;
                counts[b.var().index()] += 1;
            }
        }
        for po in self.pos() {
            counts[po.var().index()] += 1;
        }
        counts
    }

    /// Computes the structural support of every node, truncated at `cap`.
    ///
    /// The result is indexed by variable. PIs have themselves as support;
    /// the constant node has empty support; an AND node's support is the
    /// union of its fanins', saturating to [`Support::OVER`] beyond `cap`.
    /// A node whose union equals one fanin's list shares that list, so the
    /// pool holds each distinct list once per chain of such nodes.
    pub fn bounded_supports(&self, cap: usize) -> Supports {
        let mut pool: Vec<Var> = Vec::new();
        let mut entries: Vec<Support> = Vec::with_capacity(self.num_nodes());
        let mut merged: Vec<Var> = Vec::with_capacity(cap + 1);
        let start = |pool: &Vec<Var>| u32::try_from(pool.len()).expect("support pool fits u32");
        for node in self.nodes() {
            let s = match node {
                Node::Const => Support { start: 0, len: 0 },
                Node::Input(_) => {
                    let s = Support {
                        start: start(&pool),
                        len: 1,
                    };
                    pool.push(Var::new(entries.len() as u32));
                    s
                }
                Node::And(a, b) => {
                    let (ea, eb) = (entries[a.var().index()], entries[b.var().index()]);
                    let list = |e: Support| Some(&pool[e.start as usize..][..e.size()?]);
                    match (list(ea), list(eb)) {
                        (Some(sa), Some(sb)) if merge_bounded_into(sa, sb, cap, &mut merged) => {
                            if merged.len() == sa.len() {
                                ea // the union is `a`'s list
                            } else if merged.len() == sb.len() {
                                eb
                            } else {
                                let s = Support {
                                    start: start(&pool),
                                    len: merged.len() as u32,
                                };
                                pool.extend_from_slice(&merged);
                                s
                            }
                        }
                        _ => Support::OVER,
                    }
                }
            };
            entries.push(s);
        }
        Supports { pool, entries }
    }

    /// Computes the exact structural support of a set of root nodes by a
    /// backward traversal.
    ///
    /// **Sorted invariant:** the result is strictly ascending in variable
    /// id (deduplicated); callers may rely on it — e.g. pass it directly
    /// as pre-sorted window inputs — without re-sorting.
    pub fn support(&self, roots: &[Var]) -> Vec<Var> {
        let mut seen = vec![false; self.num_nodes()];
        let mut stack: Vec<Var> = roots.to_vec();
        let mut support = Vec::new();
        while let Some(v) = stack.pop() {
            if seen[v.index()] {
                continue;
            }
            seen[v.index()] = true;
            match self.node(v) {
                Node::Const => {}
                Node::Input(_) => support.push(v),
                Node::And(a, b) => {
                    stack.push(a.var());
                    stack.push(b.var());
                }
            }
        }
        support.sort_unstable();
        support
    }

    /// Collects the transitive fanin cone of a set of roots (roots
    /// included).
    ///
    /// **Sorted invariant:** the result is strictly ascending in variable
    /// id (deduplicated), which is also a valid topological order because
    /// nodes are created fanins-first. Callers may iterate it as a
    /// fanins-before-users schedule or binary-search it without
    /// re-sorting.
    pub fn tfi_cone(&self, roots: &[Var]) -> Vec<Var> {
        let mut seen = vec![false; self.num_nodes()];
        let mut stack: Vec<Var> = roots.to_vec();
        let mut cone = Vec::new();
        while let Some(v) = stack.pop() {
            if seen[v.index()] {
                continue;
            }
            seen[v.index()] = true;
            cone.push(v);
            if let Node::And(a, b) = self.node(v) {
                stack.push(a.var());
                stack.push(b.var());
            }
        }
        cone.sort_unstable();
        cone
    }

    /// Collects the logic cone between `roots` and a cut `inputs`: the
    /// intersection of the roots' TFIs with the inputs' TFOs, plus the roots
    /// themselves (the paper's *simulation window* contents).
    ///
    /// The backward traversal stops at the cut nodes. Returns `None` if a
    /// path from a root escapes the cut (reaches a PI or the constant node
    /// that is not itself in `inputs`), i.e. `inputs` is not a valid cut of
    /// the roots.
    ///
    /// **Sorted invariant:** the returned interior nodes exclude the
    /// inputs and are strictly ascending in variable id (deduplicated) —
    /// a valid topological order, since nodes are created fanins-first.
    /// Callers (e.g. simulation windows, which evaluate the list in
    /// order) may rely on this without re-sorting.
    ///
    /// A call costs the cone it visits plus the cut, not the network: the
    /// node marks live in a per-thread scratch reused across calls.
    pub fn cone_between(&self, roots: &[Var], inputs: &[Var]) -> Option<Vec<Var>> {
        CONE_SCRATCH.with_borrow_mut(|scratch| scratch.cone_between(self, roots, inputs))
    }
}

thread_local! {
    /// The marks behind [`Aig::cone_between`], one table per thread, reused
    /// by every call (on any network) made on that thread.
    static CONE_SCRATCH: RefCell<ConeScratch> = RefCell::new(ConeScratch::default());
}

/// Epoch-stamped node marks: a call claims two fresh stamps, one for the
/// cut's inputs and one for visited nodes, so no mark has to be cleared
/// between calls. The table only grows (to the largest network seen, two
/// bytes a node); it is wiped when the stamps run out, once every 32767
/// calls.
#[derive(Default)]
struct ConeScratch {
    marks: Vec<u16>,
    epoch: u16,
    stack: Vec<Var>,
    cone: Vec<Var>,
}

impl ConeScratch {
    /// Claims this call's `(input, seen)` stamps over `num_nodes` marks.
    fn begin(&mut self, num_nodes: usize) -> (u16, u16) {
        if self.marks.len() < num_nodes {
            self.marks.resize(num_nodes, 0);
        }
        if self.epoch > u16::MAX - 2 {
            // Stale marks would read as this call's stamps.
            self.marks.fill(0);
            self.epoch = 0;
        }
        self.epoch += 2;
        (self.epoch - 1, self.epoch)
    }

    fn cone_between(&mut self, aig: &Aig, roots: &[Var], inputs: &[Var]) -> Option<Vec<Var>> {
        let (input, seen) = self.begin(aig.num_nodes());
        let marks = &mut self.marks;
        for v in inputs {
            marks[v.index()] = input;
        }
        // Stamps only grow, so a mark below `input` is from an earlier call:
        // the node is neither a cut input nor visited yet. Marking on push
        // keeps every node on the stack at most once.
        let stack = &mut self.stack;
        stack.clear();
        for r in roots {
            if marks[r.index()] < input {
                marks[r.index()] = seen;
                stack.push(*r);
            }
        }
        let cone = &mut self.cone;
        cone.clear();
        while let Some(v) = stack.pop() {
            match aig.node(v) {
                // A non-input PI or constant on the path: the cut is invalid
                // for these roots.
                Node::Const | Node::Input(_) => return None,
                Node::And(a, b) => {
                    cone.push(v);
                    for f in [a.var(), b.var()] {
                        if marks[f.index()] < input {
                            marks[f.index()] = seen;
                            stack.push(f);
                        }
                    }
                }
            }
        }
        cone.sort_unstable();
        // The cone grew in the scratch; the result is one exact-size copy.
        Some(cone.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Aig;

    fn chain4() -> (Aig, Vec<crate::Lit>) {
        // f = ((a & b) & c) & d
        let mut aig = Aig::new();
        let xs = aig.add_inputs(4);
        let ab = aig.and(xs[0], xs[1]);
        let abc = aig.and(ab, xs[2]);
        let abcd = aig.and(abc, xs[3]);
        aig.add_po(abcd);
        (aig, xs)
    }

    #[test]
    fn levels_of_chain() {
        let (aig, _) = chain4();
        assert_eq!(aig.depth(), 3);
        let levels = aig.levels();
        assert_eq!(levels[0], 0); // const
        assert_eq!(levels[1], 0); // PI
        assert_eq!(*levels.last().unwrap(), 3);
    }

    #[test]
    fn fanout_counts_include_pos() {
        let (aig, _) = chain4();
        let counts = aig.fanout_counts();
        // Last node feeds only the PO.
        assert_eq!(counts[aig.num_nodes() - 1], 1);
        // Each PI feeds exactly one AND.
        for pi in aig.pis() {
            assert_eq!(counts[pi.index()], 1);
        }
    }

    #[test]
    fn bounded_supports_exact_and_over() {
        let (aig, _) = chain4();
        let root = aig.num_nodes() - 1;
        let sup = aig.bounded_supports(4);
        assert_eq!(sup[root].size(), Some(4));
        assert_eq!(sup.vars(Var::new(root as u32)), Some(aig.pis()));
        let sup2 = aig.bounded_supports(3);
        assert_eq!(sup2[root], Support::OVER);
        assert_eq!(sup2.vars(Var::new(root as u32)), None);
    }

    #[test]
    fn support_matches_bounded() {
        let (aig, _) = chain4();
        let root = Var::new(aig.num_nodes() as u32 - 1);
        let s = aig.support(&[root]);
        assert_eq!(s.len(), 4);
        assert_eq!(s, aig.pis());
    }

    #[test]
    fn tfi_cone_of_root_contains_everything() {
        let (aig, _) = chain4();
        let root = Var::new(aig.num_nodes() as u32 - 1);
        let cone = aig.tfi_cone(&[root]);
        // Everything except the constant node drives the root.
        assert_eq!(cone.len(), aig.num_nodes() - 1);
    }

    #[test]
    fn cone_between_respects_cut() {
        let (aig, _) = chain4();
        let root = Var::new(aig.num_nodes() as u32 - 1);
        // Cut = {abc, d}: interior should be only the root.
        let abc = Var::new(aig.num_nodes() as u32 - 2);
        let d = aig.pis()[3];
        let cone = aig.cone_between(&[root], &[abc, d]).unwrap();
        assert_eq!(cone, vec![root]);
        // Cut that misses input d is invalid.
        assert!(aig.cone_between(&[root], &[abc]).is_none());
    }

    #[test]
    fn cone_between_with_pi_cut_is_whole_cone() {
        let (aig, _) = chain4();
        let root = Var::new(aig.num_nodes() as u32 - 1);
        let pis: Vec<Var> = aig.pis().to_vec();
        let cone = aig.cone_between(&[root], &pis).unwrap();
        assert_eq!(cone.len(), 3); // the three AND gates
    }

    #[test]
    fn cone_between_clears_marks_when_stamps_run_out() {
        // A fresh thread, so the scratch starts at epoch 0.
        std::thread::spawn(|| {
            let (aig, _) = chain4();
            let root = Var::new(aig.num_nodes() as u32 - 1);
            let pis: Vec<Var> = aig.pis().to_vec();
            // Stamps 1 and 2: every node of the chain is marked.
            let whole = aig.cone_between(&[root], &pis).unwrap();
            assert_eq!(whole.len(), 3);
            // The last stamps before the wrap touch only the bottom gate,
            // so the first call's marks survive elsewhere.
            let ab = Var::new(aig.num_nodes() as u32 - 3);
            let bottom = [pis[0], pis[1]];
            CONE_SCRATCH.with_borrow_mut(|s| s.epoch = u16::MAX - 4);
            for _ in 0..2 {
                assert_eq!(aig.cone_between(&[ab], &bottom), Some(vec![ab]));
            }
            assert_eq!(CONE_SCRATCH.with_borrow(|s| s.epoch), u16::MAX);
            // Out of stamps: the table is wiped and stamps 1 and 2 come
            // back; the root's stale "seen" mark must not hide the cone.
            assert_eq!(aig.cone_between(&[root], &pis), Some(whole));
            assert_eq!(CONE_SCRATCH.with_borrow(|s| s.epoch), 2);
        })
        .join()
        .unwrap();
    }
}
