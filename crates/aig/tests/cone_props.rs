//! Property tests of `Aig::cone_between` against a brute-force reference,
//! on networks on both sides of 4096 nodes and with calls alternating
//! between networks on one thread (the traversal reuses per-thread marks).

use proptest::prelude::*;

use parsweep_aig::random::{random_aig, SplitMix64};
use parsweep_aig::{Aig, Node, Var};

/// The cone by a reverse topological sweep: a non-input node is inside if
/// a root is it or an inside AND reads it; any inside PI or constant
/// makes the cut invalid.
fn reference(aig: &Aig, roots: &[Var], inputs: &[Var]) -> Option<Vec<Var>> {
    let n = aig.num_nodes();
    let mut is_input = vec![false; n];
    for v in inputs {
        is_input[v.index()] = true;
    }
    let mut inside = vec![false; n];
    for r in roots {
        inside[r.index()] = !is_input[r.index()];
    }
    for i in (0..n).rev() {
        if !inside[i] {
            continue;
        }
        match aig.node(Var::new(i as u32)) {
            Node::And(a, b) => {
                for f in [a.var(), b.var()] {
                    if !is_input[f.index()] {
                        inside[f.index()] = true;
                    }
                }
            }
            Node::Const | Node::Input(_) => return None,
        }
    }
    Some(
        (0..n)
            .filter(|&i| inside[i])
            .map(|i| Var::new(i as u32))
            .collect(),
    )
}

/// One to three roots anywhere in the network (constant and PIs
/// included) and a cut around them: the frontier below a random id
/// (valid), then perturbed by dropping an input, adding any node, or
/// adding a root.
fn query(aig: &Aig, rng: &mut SplitMix64) -> (Vec<Var>, Vec<Var>) {
    let n = aig.num_nodes();
    let roots: Vec<Var> = (0..1 + rng.below(3))
        .map(|_| Var::new(rng.below(n) as u32))
        .collect();
    let top = roots.iter().map(|r| r.index()).max().unwrap_or(0);
    let floor = rng.below(top + 1);
    let mut inputs = Vec::new();
    let mut seen = vec![false; aig.num_nodes()];
    let mut stack = roots.clone();
    while let Some(v) = stack.pop() {
        if std::mem::replace(&mut seen[v.index()], true) {
            continue;
        }
        match aig.node(v) {
            Node::And(a, b) if v.index() >= floor => stack.extend([a.var(), b.var()]),
            _ => inputs.push(v),
        }
    }
    match rng.below(4) {
        0 if !inputs.is_empty() => {
            inputs.swap_remove(rng.below(inputs.len()));
        }
        1 => inputs.push(Var::new(rng.below(n) as u32)),
        2 => inputs.push(roots[0]),
        _ => {}
    }
    (roots, inputs)
}

fn check_queries(aig: &Aig, rng: &mut SplitMix64, count: usize) -> Result<(), String> {
    for _ in 0..count {
        let (roots, inputs) = query(aig, rng);
        prop_assert_eq!(
            aig.cone_between(&roots, &inputs),
            reference(aig, &roots, &inputs),
            "roots {:?}, inputs {:?}",
            roots,
            inputs
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cone_between_matches_reference_small_and_large(
        ands in 1usize..300, seed in any::<u64>()
    ) {
        let mut rng = SplitMix64::new(seed);
        let small = random_aig(8, ands, 4, seed);
        let large = random_aig(24, 4200 + ands, 8, seed ^ 1);
        prop_assert!(small.num_nodes() < 4096 && large.num_nodes() > 4096);
        check_queries(&small, &mut rng, 40)?;
        check_queries(&large, &mut rng, 40)?;
    }

    /// Every node's bounded support, shared pool and all, is its exact
    /// support when that fits the bound, and marked over otherwise.
    #[test]
    fn bounded_supports_match_exact_supports(
        pis in 1usize..14, ands in 1usize..300, cap in 1usize..16, seed in any::<u64>()
    ) {
        let aig = random_aig(pis, ands, 3, seed);
        let supports = aig.bounded_supports(cap);
        for i in 0..aig.num_nodes() {
            let v = Var::new(i as u32);
            let exact = aig.support(&[v]);
            let expected = (exact.len() <= cap).then_some(&exact[..]);
            prop_assert_eq!(supports.vars(v), expected, "node {}", i);
            prop_assert_eq!(supports[i].size(), expected.map(<[Var]>::len));
        }
    }

    #[test]
    fn cone_between_alternates_between_networks_on_one_thread(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let small = random_aig(6, 120, 3, seed);
        let large = random_aig(20, 4500, 6, seed ^ 2);
        for _ in 0..30 {
            check_queries(&large, &mut rng, 1)?;
            check_queries(&small, &mut rng, 1)?;
        }
    }
}
