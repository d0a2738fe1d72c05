//! Property tests of lexicographic window merging (§III-B3): it must
//! preserve the pair population, respect the input bound, and never
//! change any verdict.

use proptest::prelude::*;

use parsweep_aig::{Aig, Var};
use parsweep_par::Executor;
use parsweep_sim::{check_windows, merge_windows, PairCheck, PairOutcome, Window};

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
}
