//! Property tests of lexicographic window merging (§III-B3): it must
//! preserve the pair population, respect the input bound, and never
//! change any verdict; and grouping pairs by support first
//! (`windows_from_supports`) must build exactly the windows that per-pair
//! windows plus `merge_windows` build.

use proptest::prelude::*;

use parsweep_aig::{Aig, Var};
use parsweep_par::Executor;
use parsweep_sim::{
    check_windows, merge_windows, windows_from_supports, PairCheck, PairOutcome, Window,
};

/// Builds a batch of constant-check windows over random small input sets.
fn random_windows(seed: u64, count: usize, num_pis: usize) -> (Aig, Vec<Window>) {
    let mut rng = parsweep_aig::random::SplitMix64::new(seed);
    let mut aig = Aig::new();
    let xs = aig.add_inputs(num_pis);
    let mut windows = Vec::new();
    for _ in 0..count {
        let k = 2 + rng.below(3);
        let mut picks: Vec<usize> = (0..k).map(|_| rng.below(num_pis)).collect();
        picks.sort_unstable();
        picks.dedup();
        let lits: Vec<_> = picks.iter().map(|&i| xs[i]).collect();
        let f = aig.and_all(lits.clone());
        if f.is_const() || !aig.node(f.var()).is_and() {
            continue;
        }
        let pair = PairCheck {
            a: Var::FALSE,
            b: f.var(),
            complement: f.is_complemented(),
        };
        if let Some(w) = Window::for_pair(&aig, pair, picks.iter().map(|&i| xs[i].var()).collect())
        {
            windows.push(w);
        }
    }
    (aig, windows)
}

/// Random candidate pairs on a random AIG, each with the PI support of its
/// roots (the G phase's input lists): constant candidates, PI roots, and
/// pairs whose supports are disjoint from one another.
fn random_checks(seed: u64, count: usize) -> (Aig, Vec<(Vec<Var>, PairCheck)>) {
    let mut aig = parsweep_aig::random::random_aig(10, 40, 4, seed);
    // Late PIs: singleton supports disjoint from most of the logic.
    aig.add_inputs(3);
    let mut rng = parsweep_aig::random::SplitMix64::new(seed ^ 0x5eed);
    let n = aig.num_nodes();
    let checks = (0..count)
        .map(|_| {
            let b = Var::new(1 + rng.below(n - 1) as u32);
            let a = if rng.below(3) == 0 {
                Var::FALSE
            } else {
                Var::new(rng.below(b.index()) as u32)
            };
            let roots: Vec<Var> = [a, b].into_iter().filter(|v| !v.is_const()).collect();
            let pair = PairCheck {
                a,
                b,
                complement: rng.bool(),
            };
            (aig.support(&roots), pair)
        })
        .collect();
    (aig, checks)
}

fn verdict_map(windows: &[Window], outcomes: &[Vec<PairOutcome>]) -> Vec<(Var, bool)> {
    let mut v: Vec<(Var, bool)> = Vec::new();
    for (w, win) in windows.iter().enumerate() {
        for (k, o) in outcomes[w].iter().enumerate() {
            v.push((win.pairs[k].b, matches!(o, PairOutcome::Equal)));
        }
    }
    v.sort();
    v.dedup();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn both_strategies_preserve_pairs_and_bound(
        seed in any::<u64>(), count in 1usize..12, k_s in 3usize..8
    ) {
        let (_aig, windows) = random_windows(seed, count, 10);
        let total: usize = windows.iter().map(|w| w.pairs.len()).sum();
        let merged = merge_windows(windows.clone(), k_s);
        let after: usize = merged.iter().map(|w| w.pairs.len()).sum();
        prop_assert_eq!(after, total, "merging lost pairs");
        prop_assert!(
            merged.iter().all(|w| w.num_inputs() <= k_s.max(
                windows.iter().map(|x| x.num_inputs()).max().unwrap_or(0)
            )),
            "merging exceeded k_s"
        );
        prop_assert!(merged.len() <= windows.len());
    }

    #[test]
    fn merging_never_changes_verdicts(seed in any::<u64>(), count in 1usize..10) {
        let (aig, windows) = random_windows(seed, count, 9);
        if windows.is_empty() {
            return Ok(());
        }
        let exec = Executor::with_threads(1);
        let (base_out, _) = check_windows(&aig, &exec, &windows, 1 << 14);
        let base = verdict_map(&windows, &base_out);
        let merged = merge_windows(windows.clone(), 7);
        let (out, _) = check_windows(&aig, &exec, &merged, 1 << 14);
        prop_assert_eq!(verdict_map(&merged, &out), base);
    }

    #[test]
    fn merging_reduces_total_entries_on_overlap(seed in any::<u64>()) {
        // Heavily overlapping windows (all over the same few PIs) must
        // shrink: that is the whole point of §III-B3.
        let (_aig, windows) = random_windows(seed, 12, 4);
        if windows.len() < 4 {
            return Ok(());
        }
        let before: usize = windows.iter().map(|w| w.num_entries()).sum();
        let merged = merge_windows(windows, 4);
        let after: usize = merged.iter().map(|w| w.num_entries()).sum();
        prop_assert!(after <= before);
    }

    #[test]
    fn grouping_by_support_equals_per_pair_merge(
        seed in any::<u64>(), count in 1usize..40
    ) {
        let (aig, checks) = random_checks(seed, count);
        for k_s in [1usize, 2, 3, 5, 8, 13] {
            let per_pair: Vec<Window> = checks
                .iter()
                .map(|(inputs, pair)| {
                    Window::for_sorted_inputs(&aig, *pair, inputs.clone())
                        .expect("a PI support is a valid cut")
                })
                .collect();
            let want = merge_windows(per_pair, k_s);
            let got = windows_from_supports(&aig, checks.clone(), k_s);
            prop_assert_eq!(got.len(), want.len(), "window count at k_s {}", k_s);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(&g.inputs, &w.inputs);
                prop_assert_eq!(&g.nodes, &w.nodes);
                prop_assert_eq!(&g.pairs, &w.pairs);
            }
        }
    }
}
