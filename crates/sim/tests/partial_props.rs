//! Property tests for the partial simulator: full simulation, live-cone
//! simulation and dirty-cone resimulation must match the slow reference
//! evaluator (`Aig::eval_nodes`) bit for bit — words, cached canonical
//! hashes, then classes — at every table budget: one word (every level
//! retires to host staging as early as its readers allow), half the
//! table, and a budget the table fits (no spill at all). In-place class
//! refinement must equal reclustering from scratch.
//!
//! The whole suite is also run under `PARSWEEP_SANITIZE=1` and
//! `PARSWEEP_SANITIZE=all` in CI (see `scripts/lint.sh`): every level and
//! spill launch must stay racecheck-clean and inside its declaration.

use proptest::prelude::*;

use parsweep_aig::random::SplitMix64;
use parsweep_aig::{Aig, Lit, Var};
use parsweep_par::Executor;
use parsweep_sim::partial::hash_canonical_words;
use parsweep_sim::{
    refine_classes, signature_classes, signature_classes_among, simulate, simulate_cone, Patterns,
    ResimPlan, Signatures,
};

fn exec() -> Executor {
    Executor::with_threads(2)
}

/// The budget ladder every property sweeps for a `table_words`-word
/// table: maximal retirement, about half resident, everything resident.
fn budget_ladder(table_words: usize) -> [usize; 3] {
    [1, table_words / 2, table_words]
}

/// The reference table: every node's value words under `patterns`, one
/// `eval_nodes` call per pattern bit.
fn reference_words(aig: &Aig, patterns: &Patterns) -> Vec<Vec<u64>> {
    let w = patterns.num_words();
    let mut words = vec![vec![0u64; w]; aig.num_nodes()];
    for p in 0..w * 64 {
        let bits: Vec<bool> = (0..aig.num_pis())
            .map(|i| patterns.word(i, p / 64) >> (p % 64) & 1 == 1)
            .collect();
        for (v, &value) in aig.eval_nodes(&bits).iter().enumerate() {
            words[v][p / 64] |= (value as u64) << (p % 64);
        }
    }
    words
}

/// Phase-canonical form of one reference column.
fn canonical(words: &[u64]) -> Vec<u64> {
    let mask = if words[0] & 1 == 1 { u64::MAX } else { 0 };
    words.iter().map(|&w| w ^ mask).collect()
}

/// The reference classes among `nodes`: groups of two or more nodes with
/// equal canonical columns, members sorted, ordered by representative.
fn reference_classes(words: &[Vec<u64>], nodes: &[Var]) -> Vec<Vec<Var>> {
    let mut groups: std::collections::BTreeMap<Vec<u64>, Vec<Var>> = Default::default();
    for &v in nodes {
        groups
            .entry(canonical(&words[v.index()]))
            .or_default()
            .push(v);
    }
    let mut classes: Vec<Vec<Var>> = groups
        .into_values()
        .filter(|g| g.len() >= 2)
        .map(|mut g| {
            g.sort_unstable();
            g.dedup();
            g
        })
        .collect();
    classes.sort_by_key(|c| c[0]);
    classes
}

/// Asserts `sigs` agrees with the reference on `nodes`: value words and
/// the cached canonical hash.
fn assert_matches_reference(sigs: &Signatures, words: &[Vec<u64>], nodes: &[Var], context: &str) {
    for &v in nodes {
        let expect = &words[v.index()];
        prop_assert_eq!(sigs.sig(v), &expect[..], "{:?} {}", v, context);
        prop_assert_eq!(
            sigs.canonical_hash(v),
            hash_canonical_words(canonical(expect).into_iter()),
            "hash of {:?} {}",
            v,
            context
        );
    }
}

fn all_vars(aig: &Aig) -> Vec<Var> {
    (0..aig.num_nodes()).map(|i| Var::new(i as u32)).collect()
}

/// A random live set: each var kept with probability ~1/4, at least one.
fn random_live(aig: &Aig, seed: u64) -> Vec<Var> {
    let mut rng = SplitMix64::new(seed);
    let mut live: Vec<Var> = all_vars(aig)
        .into_iter()
        .filter(|_| rng.below(4) == 0)
        .collect();
    if live.is_empty() {
        live.push(Var::new((aig.num_nodes() - 1) as u32));
    }
    live
}

/// A random (generally unsound) substitution in engine shape: some AND
/// nodes replaced by a smaller-id literal. PIs are never substituted.
fn random_merges(aig: &Aig, seed: u64) -> Vec<Lit> {
    let mut rng = SplitMix64::new(seed);
    let mut subst: Vec<Lit> = (0..aig.num_nodes())
        .map(|i| Var::new(i as u32).lit())
        .collect();
    for v in aig.and_vars() {
        if rng.below(5) != 0 {
            continue;
        }
        let target = rng.below(v.index());
        subst[v.index()] = Var::new(target as u32).lit_with(rng.bool());
    }
    subst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn full_simulation_matches_the_reference_at_every_budget(
        pis in 2usize..7,
        ands in 5usize..60,
        words in 1usize..4,
        seed in any::<u64>(),
    ) {
        let aig = parsweep_aig::random::random_aig(pis, ands, 2, seed);
        let patterns = Patterns::random(pis, words, seed ^ 0x5157);
        let reference = reference_words(&aig, &patterns);
        let nodes = all_vars(&aig);
        let classes = reference_classes(&reference, &nodes);
        let table_words = aig.num_nodes() * words;
        for budget in budget_ladder(table_words) {
            let e = exec();
            let (sigs, covered) = simulate_cone(&aig, &e, &patterns, None, budget);
            prop_assert_eq!(covered, aig.num_nodes());
            prop_assert_eq!(e.stats().window_spills > 0, budget < table_words);
            assert_matches_reference(&sigs, &reference, &nodes, &format!("at budget {budget}"));
            prop_assert_eq!(signature_classes(&aig, &sigs), classes.clone());
        }
        // The pinned convenience entry point is the same run.
        assert_matches_reference(&simulate(&aig, &exec(), &patterns), &reference, &nodes, "");
    }

    #[test]
    fn cone_simulation_matches_the_reference_on_the_cone_at_every_budget(
        pis in 2usize..7,
        ands in 5usize..60,
        words in 1usize..4,
        seed in any::<u64>(),
    ) {
        let aig = parsweep_aig::random::random_aig(pis, ands, 2, seed);
        let patterns = Patterns::random(pis, words, seed ^ 0xc0de);
        let live = random_live(&aig, seed ^ 0x31);
        let cone = aig.tfi_cone(&live);
        let reference = reference_words(&aig, &patterns);
        let classes = reference_classes(&reference, &live);
        for budget in budget_ladder(cone.len() * words) {
            let (sigs, covered) = simulate_cone(&aig, &exec(), &patterns, Some(&live), budget);
            prop_assert_eq!(covered, cone.len());
            assert_matches_reference(&sigs, &reference, &cone, &format!("at budget {budget}"));
            // Clustering the live members agrees with the reference.
            prop_assert_eq!(signature_classes_among(&sigs, &live), classes.clone());
            // Dead nodes read as zero words and the zero-hash sentinel.
            for v in all_vars(&aig) {
                if cone.binary_search(&v).is_err() {
                    prop_assert!(sigs.sig(v).iter().all(|&w| w == 0), "dead {:?}", v);
                    if !v.is_const() {
                        prop_assert_eq!(sigs.canonical_hash(v), 0, "dead {:?}", v);
                    }
                }
            }
        }
    }

    #[test]
    fn dirty_cone_resim_round_trips_donors_after_unsound_merges_at_every_budget(
        pis in 2usize..7,
        ands in 5usize..60,
        words in 1usize..4,
        seed in any::<u64>(),
    ) {
        let aig = parsweep_aig::random::random_aig(pis, ands, 2, seed);
        let patterns = Patterns::random(pis, words, seed ^ 0x99);
        // Unsound random merges: the clean/dirty split must still be
        // exact, because clean nodes are untainted by construction.
        let subst = random_merges(&aig, seed ^ 0x1234);
        let (new, map) = aig.rebuild_with_substitution(&subst);
        let plan = ResimPlan::new(&aig, &new, &map, &subst);
        prop_assert_eq!(plan.num_clean() + plan.num_dirty() + 1, new.num_nodes());
        let reference = reference_words(&new, &patterns);
        let nodes = all_vars(&new);
        for budget in budget_ladder(new.num_nodes() * words) {
            // Over budget the donor table itself lives in host staging:
            // copies must read retired donor levels back bit-exactly.
            let (old, _) = simulate_cone(&aig, &exec(), &patterns, None, budget);
            let resimmed = plan.resimulate(&new, &exec(), &patterns, &old, budget);
            assert_matches_reference(&resimmed, &reference, &nodes, &format!("at budget {budget}"));
        }
    }

    #[test]
    fn in_place_refinement_equals_reclustering_the_extended_patterns(
        pis in 2usize..7,
        ands in 5usize..60,
        seed in any::<u64>(),
    ) {
        let aig = parsweep_aig::random::random_aig(pis, ands, 2, seed);
        let base_patterns = Patterns::random(pis, 2, seed ^ 0x1111);
        let fresh_patterns = Patterns::random(pis, 2, seed ^ 0x2222);
        let base = simulate(&aig, &exec(), &base_patterns);
        // The ground truth: a class relation survives iff it holds over
        // the concatenated pattern set.
        let mut extended = base_patterns.clone();
        extended.extend(&fresh_patterns);
        let truth = reference_classes(&reference_words(&aig, &extended), &all_vars(&aig));
        for budget in budget_ladder(aig.num_nodes() * 2) {
            let mut classes = signature_classes(&aig, &base);
            // Refine in place against a fresh live-cone table.
            let live: Vec<Var> = classes.iter().flatten().copied().collect();
            let (fresh, _) = simulate_cone(&aig, &exec(), &fresh_patterns, Some(&live), budget);
            refine_classes(&mut classes, &base, &fresh);
            prop_assert_eq!(&classes, &truth);
        }
    }
}
