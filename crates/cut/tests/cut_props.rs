//! Property-based tests of cuts and cut enumeration.

use std::collections::{BTreeSet, HashSet};

use proptest::prelude::*;

use parsweep_aig::{Lit, Var};
use parsweep_cut::{
    compare_with_similarity, enumerate_cuts, select_priority_cuts, similarity, Cut, CutParams,
    CutScorer, Pass, MAX_CUT_SIZE,
};

fn arb_cut() -> impl Strategy<Value = Cut> {
    proptest::collection::btree_set(0u32..40, 1..=MAX_CUT_SIZE)
        .prop_map(|s| Cut::new(&s.into_iter().map(Var::new).collect::<Vec<_>>()))
}

/// Cuts over `{0..6} ∪ {64..70}`: leaves `v` and `v + 64` share a
/// signature bit, so distinct cuts of equal size often share a signature.
fn arb_colliding_cut() -> impl Strategy<Value = Cut> {
    proptest::collection::btree_set(0u32..12, 1..=6).prop_map(|s| {
        Cut::new(
            &s.into_iter()
                .map(|x| Var::new(x % 6 + 64 * (x / 6)))
                .collect::<Vec<_>>(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn merge_is_commutative(a in arb_cut(), b in arb_cut()) {
        prop_assert_eq!(a.merge(&b, MAX_CUT_SIZE), b.merge(&a, MAX_CUT_SIZE));
    }

    #[test]
    fn merge_result_is_superset(a in arb_cut(), b in arb_cut()) {
        if let Some(m) = a.merge(&b, MAX_CUT_SIZE) {
            prop_assert!(a.subset_of(&m));
            prop_assert!(b.subset_of(&m));
            prop_assert_eq!(m.len(), a.len() + b.len() - a.intersection_len(&b));
        } else {
            // Merge only fails when the true union is too large.
            prop_assert!(a.len() + b.len() - a.intersection_len(&b) > MAX_CUT_SIZE);
        }
    }

    #[test]
    fn merge_respects_bound(a in arb_cut(), b in arb_cut(), k in 1usize..=MAX_CUT_SIZE) {
        match a.merge(&b, k) {
            Some(m) => prop_assert!(m.len() <= k),
            None => {
                let union = a.len() + b.len() - a.intersection_len(&b);
                prop_assert!(union > k);
            }
        }
    }

    #[test]
    fn jaccard_is_symmetric_and_bounded(a in arb_cut(), b in arb_cut()) {
        let j = a.jaccard(&b);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert!((j - b.jaccard(&a)).abs() < 1e-12);
        prop_assert!((a.jaccard(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similarity_is_monotone_in_set(a in arb_cut(), p in proptest::collection::vec(arb_cut(), 0..6)) {
        let mut bigger = p.clone();
        bigger.push(a);
        // Adding the cut itself adds exactly 1.0.
        prop_assert!((similarity(&a, &bigger) - similarity(&a, &p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn enumeration_respects_k_and_contains_fanin_pair(
        p0 in proptest::collection::vec(arb_cut(), 0..5),
        p1 in proptest::collection::vec(arb_cut(), 0..5),
        k in 2usize..=MAX_CUT_SIZE,
    ) {
        let f0 = Lit::new(100, false);
        let f1 = Lit::new(101, true);
        let cuts = enumerate_cuts(f0, f1, &p0, &p1, CutParams { k_l: k, c: 8 });
        prop_assert!(cuts.iter().all(|c| c.len() <= k));
        // The pair of trivial fanin cuts always fits (k >= 2).
        let base = Cut::new(&[Var::new(100), Var::new(101)]);
        prop_assert!(cuts.contains(&base));
        // No duplicates.
        for (i, c) in cuts.iter().enumerate() {
            prop_assert!(!cuts[i + 1..].contains(c));
        }
    }

    #[test]
    fn selection_returns_best_prefix(
        cands in proptest::collection::vec(arb_cut(), 1..20),
        c in 1usize..8,
    ) {
        let fanouts = vec![1u32; 64];
        let levels = vec![1u32; 64];
        let scorer = CutScorer::new(&fanouts, &levels);
        let picked = select_priority_cuts(
            cands.clone(), &scorer, Pass::Fanout, CutParams { k_l: MAX_CUT_SIZE, c }, None,
        );
        prop_assert!(picked.len() <= c.min(cands.len()));
        // Sorted best-first under the pass ordering.
        for w in picked.windows(2) {
            prop_assert_ne!(
                scorer.compare(&w[0], &w[1], Pass::Fanout),
                std::cmp::Ordering::Greater
            );
        }
    }

    #[test]
    fn merged_signature_is_the_leaves_signature(a in arb_cut(), b in arb_cut()) {
        if let Some(m) = a.merge(&b, MAX_CUT_SIZE) {
            let rebuilt = Cut::new(&m.to_vars());
            prop_assert_eq!(m.signature(), rebuilt.signature());
            prop_assert_eq!(m, rebuilt);
        }
    }

    #[test]
    fn keyed_selection_equals_full_sort(
        cands in proptest::collection::vec(arb_cut(), 0..30),
        fanouts in proptest::collection::vec(0u32..4, 40),
        levels in proptest::collection::vec(0u32..4, 40),
        with_repr in any::<bool>(),
        repr in proptest::collection::vec(arb_cut(), 0..8),
    ) {
        // Narrow fanout and level ranges make metric ties common, so the
        // leaf tie-breaker is exercised too.
        let scorer = CutScorer::new(&fanouts, &levels);
        let repr_cuts = with_repr.then_some(repr.as_slice());
        for pass in Pass::ALL {
            for c in [1, 8, cands.len() + 1] {
                let params = CutParams { k_l: MAX_CUT_SIZE, c };
                let mut reference = cands.clone();
                match repr_cuts {
                    Some(rc) => reference
                        .sort_by(|a, b| compare_with_similarity(&scorer, a, b, pass, rc)),
                    None => reference.sort_by(|a, b| scorer.compare(a, b, pass)),
                }
                reference.truncate(c);
                let picked = select_priority_cuts(cands.clone(), &scorer, pass, params, repr_cuts);
                prop_assert_eq!(picked, reference, "pass {:?}, c {}", pass, c);
            }
        }
    }

    #[test]
    fn enumeration_equals_reference_double_loop(
        p0 in proptest::collection::vec(arb_colliding_cut(), 0..9),
        p1 in proptest::collection::vec(arb_colliding_cut(), 0..9),
        v0 in 0u32..70,
        v1 in 0u32..70,
        k in 1usize..=MAX_CUT_SIZE,
    ) {
        let (f0, f1) = (Lit::new(v0, false), Lit::new(v1, true));
        let cuts = enumerate_cuts(f0, f1, &p0, &p1, CutParams { k_l: k, c: 8 });
        // Reference: every pair of Eq. (1) as leaf-set unions, each built
        // by `Cut::new` (no `merge`, no `trivial`).
        let leaf_sets = |p: &[Cut], fanin: Lit| -> Vec<Vec<Var>> {
            p.iter().map(Cut::to_vars).chain([vec![fanin.var()]]).collect()
        };
        let mut reference = HashSet::new();
        for u in leaf_sets(&p0, f0) {
            for v in leaf_sets(&p1, f1) {
                let union: BTreeSet<Var> = u.iter().chain(&v).copied().collect();
                if union.len() <= k {
                    reference.insert(Cut::new(&union.into_iter().collect::<Vec<_>>()));
                }
            }
        }
        let got: HashSet<Cut> = cuts.iter().copied().collect();
        prop_assert_eq!(got.len(), cuts.len(), "duplicates in {:?}", cuts);
        prop_assert_eq!(got, reference);
        for m in &cuts {
            prop_assert_eq!(m.signature(), Cut::new(&m.to_vars()).signature());
        }
    }
}
