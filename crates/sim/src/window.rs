//! Simulation windows (§III-B1).
//!
//! A window is the set of intermediate nodes that drive the roots of one or
//! more candidate pairs, together with the window's input nodes. Global
//! function checking uses the union of the pair's structural supports as
//! inputs; local function checking uses a common cut.

use parsweep_aig::{Aig, Var};

use crate::cex::Cex;
use crate::tt::word_len;

/// One candidate equivalence to check inside a window: `a ≡ b ⊕ complement`.
///
/// By convention `a` is the representative (smaller id); a check against
/// the constant node (`a == Var::FALSE`) proves that `b` is constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairCheck {
    /// Representative (or constant) root.
    pub a: Var,
    /// The other root.
    pub b: Var,
    /// True if `b` is expected to be the complement of `a`.
    pub complement: bool,
}

/// A simulation window: input nodes, interior nodes (topologically sorted)
/// and the candidate pairs whose roots lie inside it.
#[derive(Clone, Debug)]
pub struct Window {
    /// Input nodes in increasing id order (the truth-table variables).
    pub inputs: Vec<Var>,
    /// Interior nodes (including roots), topologically sorted, excluding
    /// inputs.
    pub nodes: Vec<Var>,
    /// The candidate pairs checked with this window.
    pub pairs: Vec<PairCheck>,
}

impl Window {
    /// Builds a window for checking one pair over an explicit input set
    /// (either the support union for global checking, or a common cut for
    /// local checking).
    ///
    /// Returns `None` if `inputs` is not a valid cut of both roots.
    pub fn for_pair(aig: &Aig, pair: PairCheck, mut inputs: Vec<Var>) -> Option<Window> {
        inputs.sort_unstable();
        inputs.dedup();
        Self::for_sorted_inputs(aig, pair, inputs)
    }

    /// Like [`Window::for_pair`] for inputs that are already sorted and
    /// deduplicated — the invariant every in-tree producer upholds
    /// ([`Aig::support`], `Aig::tfi_cone`, support unions, and cut leaf
    /// lists are all ascending) — skipping the defensive re-sort on the
    /// per-candidate hot path.
    ///
    /// # Panics
    ///
    /// Debug builds assert the sorted invariant; release builds trust it
    /// (an unsorted list would only make `cone_between` reject the cut or
    /// misorder truth-table variables, both caught by the assert in
    /// tests).
    pub fn for_sorted_inputs(aig: &Aig, pair: PairCheck, inputs: Vec<Var>) -> Option<Window> {
        debug_assert!(
            inputs.windows(2).all(|w| w[0] < w[1]),
            "window inputs must be strictly ascending"
        );
        let mut roots = Vec::with_capacity(2);
        if !pair.a.is_const() {
            roots.push(pair.a);
        }
        roots.push(pair.b);
        let nodes = aig.cone_between(&roots, &inputs)?;
        Some(Window {
            inputs,
            nodes,
            pairs: vec![pair],
        })
    }

    /// Builds a global-checking window: inputs are the union of the two
    /// roots' structural supports.
    pub fn global(aig: &Aig, pair: PairCheck) -> Window {
        let mut roots = Vec::with_capacity(2);
        if !pair.a.is_const() {
            roots.push(pair.a);
        }
        roots.push(pair.b);
        // `Aig::support` documents the ascending sorted invariant.
        let inputs = aig.support(&roots);
        Self::for_sorted_inputs(aig, pair, inputs).expect("support union is always a valid cut")
    }

    /// Number of truth-table variables (window inputs).
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Length of the full truth table in 64-bit words.
    pub fn tt_words(&self) -> usize {
        word_len(self.inputs.len())
    }

    /// Number of simulation-table entries this window occupies
    /// (inputs + interior nodes), the paper's `|w| + |inputs(w)|`.
    pub fn num_entries(&self) -> usize {
        self.inputs.len() + self.nodes.len()
    }

    /// The counter-example over `aig`'s PIs that a mismatch's
    /// `assignment` (window-input values, in window-input order) names:
    /// values of window inputs that are not PIs are dropped, and PIs
    /// outside the window are `false`.
    pub fn cex(&self, aig: &Aig, assignment: &[bool]) -> Cex {
        let sparse: Vec<(Var, bool)> = self
            .inputs
            .iter()
            .copied()
            .zip(assignment.iter().copied())
            .collect();
        Cex::from_sparse(aig, &sparse)
    }
}

/// Merges a sorted batch of global-checking windows (§III-B3): windows are
/// sorted lexicographically by input list, then consecutive windows are
/// merged greedily while the merged input count stays within `k_s`.
///
/// Only valid for global-checking windows (inputs are PIs), where an input
/// of one window can never be an interior node of another. The engine
/// groups its pairs with [`windows_from_supports`] instead, which applies
/// the same rule before any cone is built.
pub fn merge_windows(mut windows: Vec<Window>, k_s: usize) -> Vec<Window> {
    if windows.len() <= 1 {
        return windows;
    }
    windows.sort_by(|a, b| a.inputs.cmp(&b.inputs));
    let mut out: Vec<Window> = Vec::with_capacity(windows.len());
    let mut it = windows.into_iter();
    let mut current = it.next().expect("nonempty");
    for w in it {
        match try_union(&current, &w, k_s) {
            Some(merged) => current = merged,
            None => {
                out.push(std::mem::replace(&mut current, w));
            }
        }
    }
    out.push(current);
    out
}

/// Builds merged global-checking windows from each pair's input list: the
/// windows [`merge_windows`] makes of the pairs' per-pair windows, with one
/// cone per merged window instead of one per pair.
///
/// The pairs are stable-sorted by input list and consecutive lists are
/// greedily unioned while the union stays within `k_s` (input-disjoint
/// lists are never merged); then each group's nodes are one
/// [`Aig::cone_between`] of all its roots over the union. Every list must
/// be ascending PIs that include the support of its pair's roots, so the
/// cone of the union is the union of the per-pair cones.
pub fn windows_from_supports(
    aig: &Aig,
    mut pairs: Vec<(Vec<Var>, PairCheck)>,
    k_s: usize,
) -> Vec<Window> {
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = Vec::new();
    let mut it = pairs.into_iter();
    let Some((mut inputs, first)) = it.next() else {
        return out;
    };
    let mut group = vec![first];
    for (next, pair) in it {
        match merged_inputs(&inputs, &next, k_s) {
            Some(union) => {
                inputs = union;
                group.push(pair);
            }
            None => {
                let done = std::mem::replace(&mut group, vec![pair]);
                out.push(window_over(aig, std::mem::replace(&mut inputs, next), done));
            }
        }
    }
    out.push(window_over(aig, inputs, group));
    out
}

/// One window over PI `inputs` holding `pairs`: the cone of every root.
fn window_over(aig: &Aig, inputs: Vec<Var>, pairs: Vec<PairCheck>) -> Window {
    debug_assert!(
        inputs.windows(2).all(|w| w[0] < w[1]),
        "window inputs must be strictly ascending"
    );
    let roots: Vec<Var> = pairs
        .iter()
        .flat_map(|p| [p.a, p.b])
        .filter(|v| !v.is_const())
        .collect();
    let nodes = aig
        .cone_between(&roots, &inputs)
        .expect("the PI supports of every root are a valid cut");
    Window {
        inputs,
        nodes,
        pairs,
    }
}

fn union_sorted(a: &[Var], b: &[Var]) -> Vec<Var> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        if j >= b.len() || (i < a.len() && a[i] < b[j]) {
            out.push(a[i]);
            i += 1;
        } else if i >= a.len() || b[j] < a[i] {
            out.push(b[j]);
            j += 1;
        } else {
            out.push(a[i]);
            i += 1;
            j += 1;
        }
    }
    out
}

fn try_union(a: &Window, b: &Window, k_s: usize) -> Option<Window> {
    let inputs = union_sorted(&a.inputs, &b.inputs);
    if inputs.len() > k_s {
        return None;
    }
    // Never merge input-disjoint windows: the merged truth table costs
    // 2^(|A|+|B|) patterns where the separate windows cost 2^|A| + 2^|B|.
    // (All of the paper's §III-B3 examples share inputs.)
    if inputs.len() == a.inputs.len() + b.inputs.len() {
        return None;
    }
    let nodes = union_sorted(&a.nodes, &b.nodes);
    let mut pairs = a.pairs.clone();
    pairs.extend_from_slice(&b.pairs);
    Some(Window {
        inputs,
        nodes,
        pairs,
    })
}

/// The union of two input lists if their windows may merge under
/// `try_union`'s rule: within `k_s`, and not input-disjoint.
fn merged_inputs(a: &[Var], b: &[Var], k_s: usize) -> Option<Vec<Var>> {
    let inputs = union_sorted(a, b);
    (inputs.len() <= k_s && inputs.len() < a.len() + b.len()).then_some(inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsweep_aig::Aig;

    fn pair(a: Var, b: Var) -> PairCheck {
        PairCheck {
            a,
            b,
            complement: false,
        }
    }

    #[test]
    fn global_window_covers_cone() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(3);
        let f = aig.xor(xs[0], xs[1]);
        let g = aig.and(f, xs[2]);
        let w = Window::global(&aig, pair(f.var(), g.var()));
        assert_eq!(w.num_inputs(), 3);
        assert!(w.nodes.contains(&f.var()));
        assert!(w.nodes.contains(&g.var()));
        assert_eq!(w.tt_words(), 1);
    }

    #[test]
    fn window_against_constant() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let f = aig.and(xs[0], xs[1]);
        let w = Window::global(&aig, pair(Var::FALSE, f.var()));
        assert_eq!(w.num_inputs(), 2);
        assert_eq!(w.nodes, vec![f.var()]);
    }

    #[test]
    fn invalid_cut_rejected() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let f = aig.and(xs[0], xs[1]);
        // Cut missing xs[1].
        let w = Window::for_pair(&aig, pair(Var::FALSE, f.var()), vec![xs[0].var()]);
        assert!(w.is_none());
    }

    #[test]
    fn merge_respects_threshold() {
        // Paper example: inputs {a,b}, {a,b,c}, {a,c}... with k_s = 3 the
        // lexicographically consecutive ones merge while small enough.
        let mut aig = Aig::new();
        let xs = aig.add_inputs(6);
        let vars: Vec<Var> = xs.iter().map(|l| l.var()).collect();
        let mk = |inputs: &[usize], aig: &mut Aig| {
            // Build a tiny node over the inputs so cones are valid.
            let lits: Vec<_> = inputs.iter().map(|&i| xs[i]).collect();
            let f = aig.and_all(lits);
            Window::for_pair(
                aig,
                pair(Var::FALSE, f.var()),
                inputs.iter().map(|&i| vars[i]).collect(),
            )
            .unwrap()
        };
        let w1 = mk(&[0, 1], &mut aig);
        let w2 = mk(&[0, 1, 2], &mut aig);
        let w3 = mk(&[0, 4], &mut aig);
        let w4 = mk(&[0, 5], &mut aig);
        let merged = merge_windows(vec![w1, w2, w3, w4], 3);
        assert_eq!(merged.len(), 2);
        let sizes: Vec<usize> = merged.iter().map(|w| w.num_inputs()).collect();
        assert!(sizes.iter().all(|&s| s <= 3));
        let total_pairs: usize = merged.iter().map(|w| w.pairs.len()).sum();
        assert_eq!(total_pairs, 4);
    }

    #[test]
    fn merge_keeps_singletons_when_threshold_tight() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(4);
        let f = aig.and(xs[0], xs[1]);
        let g = aig.and(xs[2], xs[3]);
        let w1 = Window::global(&aig, pair(Var::FALSE, f.var()));
        let w2 = Window::global(&aig, pair(Var::FALSE, g.var()));
        let merged = merge_windows(vec![w1, w2], 2);
        assert_eq!(merged.len(), 2);
    }
}
