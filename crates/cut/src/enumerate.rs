//! Priority-cut enumeration (paper Eq. 1) and common-cut generation.

use parsweep_aig::{Lit, Var};

use crate::criteria::CutKey;
use crate::{Cut, CutScorer, Pass};

/// Parameters of cut enumeration: `k_l` bounds cut size, `c` bounds the
/// number of priority cuts kept per node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CutParams {
    /// Maximum cut size (the paper's `k_l`, default 8).
    pub k_l: usize,
    /// Number of priority cuts per node (the paper's `C`, default 8).
    pub c: usize,
}

impl Default for CutParams {
    fn default() -> Self {
        CutParams { k_l: 8, c: 8 }
    }
}

/// Enumerates the candidate cuts of a node per Eq. (1):
/// `E(n) = { u ∪ v : u ∈ P(n0) ∪ {{n0}}, v ∈ P(n1) ∪ {{n1}}, |u ∪ v| ≤ k_l }`,
/// where `p0`/`p1` are the fanin priority-cut sets.
///
/// The result is deduplicated and in merge order: for each `u` (the
/// trivial cut last), each `v` (likewise), the first occurrence of `u ∪ v`.
pub fn enumerate_cuts(
    fanin0: Lit,
    fanin1: Lit,
    p0: &[Cut],
    p1: &[Cut],
    params: CutParams,
) -> Vec<Cut> {
    let t0 = Cut::trivial(fanin0.var());
    let t1 = Cut::trivial(fanin1.var());
    merge_all(
        p0.iter().chain(std::iter::once(&t0)),
        p1.iter().chain(std::iter::once(&t1)),
        (p0.len() + 1) * (p1.len() + 1),
        params.k_l,
    )
}

/// Merges every cut of `us` with every cut of `vs` (`us` outer, both in
/// order), keeping the first occurrence of each union of at most `k`
/// leaves. `pairs` is the number of pairs, a capacity hint.
fn merge_all<'a>(
    us: impl Iterator<Item = &'a Cut>,
    vs: impl Iterator<Item = &'a Cut> + Clone,
    pairs: usize,
    k: usize,
) -> Vec<Cut> {
    let mut out: Vec<Cut> = Vec::with_capacity(pairs);
    for u in us {
        for v in vs.clone() {
            let Some(m) = u.merge(v, k) else { continue };
            // Equal cuts have equal signatures and sizes: most duplicate
            // checks end there, without comparing leaves.
            let (sig, len) = (m.signature(), m.len());
            let dup = out
                .iter()
                .any(|c| c.signature() == sig && c.len() == len && c.leaves() == m.leaves());
            if !dup {
                out.push(m);
            }
        }
    }
    out
}

/// Selects the best `params.c` priority cuts from candidates using the
/// pass criteria; if `repr_cuts` is given (the node is a
/// non-representative), similarity to the representative's priority cuts
/// takes precedence (paper §III-C1).
///
/// Returns exactly what a full sort by [`CutScorer::compare`] (or
/// [`crate::compare_with_similarity`] with `repr_cuts`) followed by
/// truncation to `params.c` returns, but scores each candidate once: the
/// key (similarity, then the pass metrics) is computed up front, only the
/// top `params.c` are selected and only they are sorted. Leaves break
/// every tie, so the order is total over distinct cuts and the selection
/// does not depend on the sort algorithm.
pub fn select_priority_cuts(
    candidates: Vec<Cut>,
    scorer: &CutScorer<'_>,
    pass: Pass,
    params: CutParams,
    repr_cuts: Option<&[Cut]>,
) -> Vec<Cut> {
    let c = params.c.min(candidates.len());
    if c == 0 {
        return Vec::new();
    }
    let mut keyed: Vec<(CutKey, usize)> = candidates
        .iter()
        .enumerate()
        .map(|(i, cut)| (scorer.key(cut, repr_cuts), i))
        .collect();
    let order = |a: &(CutKey, usize), b: &(CutKey, usize)| {
        a.0.order(&b.0, pass)
            .then_with(|| candidates[a.1].leaves().cmp(candidates[b.1].leaves()))
    };
    if c < keyed.len() {
        keyed.select_nth_unstable_by(c - 1, order);
        keyed.truncate(c);
    }
    keyed.sort_unstable_by(order);
    keyed.iter().map(|&(_, i)| candidates[i]).collect()
}

/// Removes dominated cuts: a cut that is a strict superset of another
/// candidate is redundant for *mapping-style* uses (anything computable
/// from the superset is computable from the subset). Note that local
/// function *checking* deliberately keeps dominated cuts — a deeper cut
/// sees different satisfiability don't-cares — so the engine does not
/// call this; the rewriting optimizer does.
pub fn filter_dominated(cuts: Vec<Cut>) -> Vec<Cut> {
    let mut keep: Vec<Cut> = Vec::with_capacity(cuts.len());
    for c in &cuts {
        let dominated = cuts.iter().any(|d| d != c && d.subset_of(c));
        if !dominated && !keep.contains(c) {
            keep.push(*c);
        }
    }
    keep
}

/// Computes the usable common cuts of a candidate pair: Eq. (1) applied to
/// the pair's priority-cut sets, *without* the trivial cuts, bounded by
/// `k_l`, deduplicated.
pub fn common_cuts(pa: &[Cut], pb: &[Cut], params: CutParams) -> Vec<Cut> {
    merge_all(pa.iter(), pb.iter(), pa.len() * pb.len(), params.k_l)
}

/// Computes the enumeration level of every node (paper Eq. 2): like the
/// topological level, but a non-representative additionally depends on its
/// class representative, so that `P(repr)` exists before similarity-driven
/// selection runs for the class members.
///
/// `repr[v]` is `Some(r)` iff node `v` is a non-representative whose class
/// representative is `r`.
pub fn enumeration_levels(aig: &parsweep_aig::Aig, repr: &[Option<Var>]) -> Vec<u32> {
    let mut el = vec![0u32; aig.num_nodes()];
    for (i, node) in aig.nodes().iter().enumerate() {
        if let parsweep_aig::Node::And(a, b) = node {
            let mut l = 1 + el[a.var().index()].max(el[b.var().index()]);
            if let Some(r) = repr[i] {
                // Representatives have smaller ids, hence el[r] is final.
                l = l.max(1 + el[r.index()]);
            }
            el[i] = l;
        }
    }
    el
}

/// Groups the AND nodes to enumerate by enumeration level, optionally
/// restricted to a *live cone* (a TFI-closed, ascending node set — e.g.
/// `Aig::tfi_cone` of the undecided class members).
///
/// Cut sets are only ever read for a candidate pair's window cone, so
/// nodes outside the live cone need no cuts at all; a TFI-closed set
/// guarantees every grouped node's fanins are grouped at a lower level
/// (or are PIs), preserving the bottom-up enumeration contract.
pub fn enumeration_groups(
    aig: &parsweep_aig::Aig,
    el: &[u32],
    live_cone: Option<&[Var]>,
) -> Vec<Vec<Var>> {
    let max_el = el.iter().copied().max().unwrap_or(0) as usize;
    let mut groups: Vec<Vec<Var>> = vec![Vec::new(); max_el + 1];
    match live_cone {
        Some(cone) => {
            for &v in cone {
                if aig.node(v).is_and() {
                    groups[el[v.index()] as usize].push(v);
                }
            }
        }
        None => {
            for v in aig.and_vars() {
                groups[el[v.index()] as usize].push(v);
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsweep_aig::Aig;

    fn cut(ids: &[u32]) -> Cut {
        Cut::new(&ids.iter().map(|&i| Var::new(i)).collect::<Vec<_>>())
    }

    #[test]
    fn enumerate_includes_trivial_combination() {
        let f0 = Lit::new(4, false);
        let f1 = Lit::new(5, true);
        let cuts = enumerate_cuts(f0, f1, &[], &[], CutParams::default());
        assert_eq!(cuts, vec![cut(&[4, 5])]);
    }

    #[test]
    fn enumerate_bounds_size() {
        let f0 = Lit::new(10, false);
        let f1 = Lit::new(11, false);
        let p0 = vec![cut(&[1, 2, 3])];
        let p1 = vec![cut(&[4, 5, 6])];
        let small = enumerate_cuts(f0, f1, &p0, &p1, CutParams { k_l: 4, c: 8 });
        // {1,2,3}∪{4,5,6} (6 leaves) is dropped; {1,2,3}∪{11}, {10}∪{4,5,6}
        // and {10,11} survive.
        assert_eq!(small.len(), 3);
        assert!(small.contains(&cut(&[1, 2, 3, 11])));
        assert!(small.contains(&cut(&[4, 5, 6, 10])));
        assert!(small.contains(&cut(&[10, 11])));
    }

    #[test]
    fn enumerate_dedups() {
        let f0 = Lit::new(10, false);
        let f1 = Lit::new(11, false);
        let shared = cut(&[1, 2]);
        let p0 = vec![shared];
        let p1 = vec![shared];
        let cuts = enumerate_cuts(f0, f1, &p0, &p1, CutParams::default());
        let n = cuts.iter().filter(|c| **c == shared).count();
        assert_eq!(n, 1);
    }

    #[test]
    fn selection_truncates_to_c() {
        let fanouts = vec![1u32; 20];
        let levels = vec![1u32; 20];
        let scorer = CutScorer::new(&fanouts, &levels);
        let candidates: Vec<Cut> = (1..10u32).map(|i| cut(&[i, i + 1])).collect();
        let picked = select_priority_cuts(
            candidates,
            &scorer,
            Pass::Fanout,
            CutParams { k_l: 8, c: 3 },
            None,
        );
        assert_eq!(picked.len(), 3);
    }

    #[test]
    fn selection_with_similarity_prefers_overlap() {
        let fanouts = vec![1u32; 20];
        let levels = vec![1u32; 20];
        let scorer = CutScorer::new(&fanouts, &levels);
        let repr_cuts = vec![cut(&[7, 8])];
        let picked = select_priority_cuts(
            vec![cut(&[1, 2]), cut(&[7, 8]), cut(&[8, 9])],
            &scorer,
            Pass::Fanout,
            CutParams { k_l: 8, c: 2 },
            Some(&repr_cuts),
        );
        assert_eq!(picked[0], cut(&[7, 8]));
        assert_eq!(picked[1], cut(&[8, 9]));
    }

    #[test]
    fn common_cuts_exclude_oversize() {
        let pa = vec![cut(&[1, 2, 3, 4])];
        let pb = vec![cut(&[5, 6, 7, 8])];
        assert!(common_cuts(&pa, &pb, CutParams { k_l: 6, c: 8 }).is_empty());
        let both = common_cuts(&pa, &pa, CutParams { k_l: 6, c: 8 });
        assert_eq!(both, vec![cut(&[1, 2, 3, 4])]);
    }

    #[test]
    fn filter_dominated_removes_supersets() {
        let cuts = vec![cut(&[1, 2]), cut(&[1, 2, 3]), cut(&[4, 5]), cut(&[4, 5])];
        let kept = filter_dominated(cuts);
        assert_eq!(kept, vec![cut(&[1, 2]), cut(&[4, 5])]);
    }

    #[test]
    fn filter_dominated_keeps_incomparable_cuts() {
        let cuts = vec![cut(&[1, 2]), cut(&[2, 3]), cut(&[3, 4])];
        assert_eq!(filter_dominated(cuts.clone()), cuts);
    }

    #[test]
    fn enumeration_levels_account_for_representatives() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let f = aig.and(xs[0], xs[1]); // plain level 1
        let g = aig.and(f, xs[0]); // level 2
        let mut repr = vec![None; aig.num_nodes()];
        // Pretend g's representative is f.
        repr[g.var().index()] = Some(f.var());
        let el = enumeration_levels(&aig, &repr);
        assert_eq!(el[f.var().index()], 1);
        // Without repr, el(g) = 2; repr dependency 1 + el(f) = 2; max = 2.
        assert_eq!(el[g.var().index()], 2);
        // Now pretend f's representative is a PI (el 0): unchanged.
        let mut repr2 = vec![None; aig.num_nodes()];
        repr2[f.var().index()] = Some(xs[0].var());
        let el2 = enumeration_levels(&aig, &repr2);
        assert_eq!(el2[f.var().index()], 1);
    }
}
