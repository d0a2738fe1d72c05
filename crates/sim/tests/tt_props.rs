//! Property-based tests of truth tables and the exhaustive simulator.

use proptest::prelude::*;

use parsweep_aig::{Aig, Lit, Var};
use parsweep_par::{CancelToken, Executor};
use parsweep_sim::{
    check_windows, check_windows_cancellable, check_windows_in_batches, merge_windows, PairCheck,
    PairOutcome, SimEffort, TruthTable, Window, DEFAULT_MEMORY_WORDS,
};

fn arb_tt(num_vars: usize) -> impl Strategy<Value = TruthTable> {
    proptest::collection::vec(any::<u64>(), parsweep_sim::word_len(num_vars))
        .prop_map(move |words| TruthTable::from_words(num_vars, words))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn de_morgan_holds(a in arb_tt(7), b in arb_tt(7)) {
        prop_assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
        prop_assert_eq!(a.or(&b).not(), a.not().and(&b.not()));
    }

    #[test]
    fn xor_is_its_own_inverse(a in arb_tt(6), b in arb_tt(6)) {
        prop_assert_eq!(a.xor(&b).xor(&b), a.clone());
        prop_assert!(a.xor(&a).is_zero());
    }

    #[test]
    fn double_complement_is_identity(a in arb_tt(5)) {
        prop_assert_eq!(a.not().not(), a.clone());
        prop_assert_eq!(a.count_ones() + a.not().count_ones(), a.num_bits());
    }

    #[test]
    fn cofactors_reconstruct_by_shannon(a in arb_tt(5), var in 0usize..5) {
        let c1 = a.cofactor(var, true);
        let c0 = a.cofactor(var, false);
        let x = TruthTable::projection(5, var);
        let rebuilt = x.and(&c1).or(&x.not().and(&c0));
        prop_assert_eq!(rebuilt, a.clone());
        // Cofactors never depend on the cofactored variable.
        prop_assert!(!c1.depends_on(var));
        prop_assert!(!c0.depends_on(var));
    }

    #[test]
    fn depends_on_matches_cofactor_difference(a in arb_tt(6), var in 0usize..6) {
        let differs = a.cofactor(var, true) != a.cofactor(var, false);
        prop_assert_eq!(a.depends_on(var), differs);
    }

    #[test]
    fn exhaustive_checker_agrees_with_reference_eval(
        seed in any::<u64>(), pis in 2usize..7, ands in 4usize..60
    ) {
        // Build one random network; pick the two newest nodes as a pair
        // and compare the checker's verdict with brute-force evaluation.
        let aig = parsweep_aig::random::random_aig(pis, ands, 2, seed);
        let v1 = aig.po(0).var();
        let v2 = aig.po(1).var();
        if v1 == v2 || v1.is_const() || v2.is_const() {
            return Ok(());
        }
        let (a, b) = if v1 < v2 { (v1, v2) } else { (v2, v1) };
        for complement in [false, true] {
            let pair = PairCheck { a, b, complement };
            let w = Window::global(&aig, pair);
            let exec = Executor::with_threads(1);
            let (out, _) = check_windows(&aig, &exec, &[w], 1 << 14);
            // Reference: brute force over all assignments.
            let mut equal = true;
            for i in 0..1usize << pis {
                let bits: Vec<bool> = (0..pis).map(|k| i >> k & 1 == 1).collect();
                let values = aig.eval_nodes(&bits);
                if values[a.index()] != (values[b.index()] != complement) {
                    equal = false;
                    break;
                }
            }
            match &out[0][0] {
                PairOutcome::Equal => prop_assert!(equal, "checker said equal, reference disagrees"),
                PairOutcome::Mismatch { .. } => prop_assert!(!equal, "checker mismatch, reference says equal"),
            }
        }
    }

    #[test]
    fn mismatch_assignment_is_a_witness(
        seed in any::<u64>(), pis in 2usize..7, ands in 4usize..60
    ) {
        let aig = parsweep_aig::random::random_aig(pis, ands, 2, seed);
        let v1 = aig.po(0).var();
        let v2 = aig.po(1).var();
        if v1 == v2 || v1.is_const() || v2.is_const() {
            return Ok(());
        }
        let (a, b) = if v1 < v2 { (v1, v2) } else { (v2, v1) };
        let pair = PairCheck { a, b, complement: false };
        let w = Window::global(&aig, pair);
        let inputs = w.inputs.clone();
        let exec = Executor::with_threads(1);
        let (out, _) = check_windows(&aig, &exec, &[w], 1 << 14);
        if let PairOutcome::Mismatch { assignment, .. } = &out[0][0] {
            // Evaluate the witness: expand window-input assignment to PIs.
            let mut dense = vec![false; aig.num_pis()];
            let mut pi_pos = std::collections::HashMap::new();
            for (i, &pi) in aig.pis().iter().enumerate() {
                pi_pos.insert(pi, i);
            }
            for (v, &val) in inputs.iter().zip(assignment.iter()) {
                dense[pi_pos[v]] = val;
            }
            let values = aig.eval_nodes(&dense);
            prop_assert_ne!(values[a.index()], values[b.index()]);
        }
        let _ = Var::FALSE;
    }

    #[test]
    fn batched_windows_match_brute_force_across_rounds(
        seed in any::<u64>(),
        pis in 2usize..11,
        ands in 8usize..80,
        picks in proptest::collection::vec(any::<u64>(), 0..4),
        scale in 0u32..3,
    ) {
        let mut aig = parsweep_aig::random::random_aig(pis, ands, 1, seed);
        let gates: Vec<Var> = aig.and_vars().collect();
        if gates.len() < 2 {
            return Ok(());
        }
        // A full-support AND, and an equivalent pair by construction over
        // it: XOR with the newest gate, built two ways.
        let all = aig.and_all(aig.pis().to_vec().into_iter().map(Var::lit));
        let p = gates[gates.len() - 1].lit();
        let f = aig.xor(p, all);
        let g = {
            let t0 = aig.and(p, !all);
            let t1 = aig.and(!p, all);
            aig.or(t0, t1)
        };
        let global = |a: Var, b: Var, complement: bool| {
            Window::global(&aig, PairCheck { a: a.min(b), b: a.max(b), complement })
        };
        let equal = f.is_complemented() != g.is_complemented();
        let mut windows = vec![
            // A constant root (differing only at the last assignment when
            // not complemented), a one-word table over the first two
            // gates, and an equal pair that stays active to the end.
            global(Var::FALSE, all.var(), all.is_complemented() == (seed & 1 == 1)),
            global(gates[0], gates[1], seed & 2 == 2),
            global(f.var(), g.var(), equal),
        ];
        for pick in &picks {
            let a = gates[(*pick as usize) % gates.len()];
            let b = gates[(*pick >> 20) as usize % gates.len()];
            let complement = pick >> 40 & 1 == 1;
            windows.push(if a == b {
                global(f.var(), g.var(), !equal)
            } else {
                global(a, b, complement)
            });
        }
        // A budget of 1-4 words per entry forces several rounds on every
        // table of more than four words.
        let entries: usize = windows.iter().map(Window::num_entries).sum();
        let memory_words = entries << scale;
        let exec = Executor::with_threads(2);
        let (out, effort) = check_windows(&aig, &exec, &windows, memory_words);
        prop_assert!(effort.entry_words <= 1 << scale);
        prop_assert_eq!(out, brute_force(&aig, &windows));
        // Cancelled before the first round: no window reports anything.
        let token = CancelToken::new();
        token.cancel();
        let (out, _) = check_windows_cancellable(&aig, &exec, &windows, memory_words, &token);
        prop_assert!(out.iter().all(Vec::is_empty));
    }
}

/// Every window's outcomes by brute force, for windows whose inputs are
/// PIs: each pair's lowest window-input assignment where its roots
/// disagree.
fn brute_force(aig: &Aig, windows: &[Window]) -> Vec<Vec<PairOutcome>> {
    let n = aig.num_pis();
    let values: Vec<Vec<bool>> = (0..1u64 << n)
        .map(|m| aig.eval_nodes(&(0..n).map(|j| m >> j & 1 == 1).collect::<Vec<_>>()))
        .collect();
    let pi_pos: std::collections::HashMap<Var, usize> =
        aig.pis().iter().enumerate().map(|(i, &v)| (v, i)).collect();
    windows
        .iter()
        .map(|w| {
            let k = w.inputs.len();
            let at = |i: u64| {
                let m = w.inputs.iter().enumerate();
                &values[m.map(|(j, v)| (i >> j & 1) << pi_pos[v]).sum::<u64>() as usize]
            };
            w.pairs
                .iter()
                .map(|pair| {
                    (0..1u64 << k)
                        .find(|&i| {
                            let values = at(i);
                            let va = !pair.a.is_const() && values[pair.a.index()];
                            va != (values[pair.b.index()] != pair.complement)
                        })
                        .map_or(PairOutcome::Equal, |i| PairOutcome::Mismatch {
                            pattern_index: i,
                            assignment: (0..k).map(|j| i >> j & 1 == 1).collect(),
                        })
                })
                .collect()
        })
        .collect()
}

/// `len` XORs cycling through `xs`, each two levels deeper than the last,
/// taken forwards or backwards.
fn xor_chain(aig: &mut Aig, xs: &[Lit], len: usize, backwards: bool) -> Lit {
    let mut seq: Vec<Lit> = (0..=len).map(|s| xs[s % xs.len()]).collect();
    if backwards {
        seq.reverse();
    }
    seq[1..].iter().fold(seq[0], |acc, &x| aig.xor(acc, x))
}

/// A batch whose windows finish in different rounds: per pick, deep XOR
/// chains (depth 40-58) over 2-12 inputs — an equal pair, a pair that
/// differs only at the last assignment, one that differs early — next
/// to shallow windows of 1-12 inputs (a constant against an input, and
/// two random gates). The first pick's chains take all 12 inputs, so a
/// window stays active to the last round.
fn deep_and_shallow_windows(seed: u64, ands: usize, picks: &[u64]) -> (Aig, Vec<Window>) {
    let mut aig = parsweep_aig::random::random_aig(12, ands, 1, seed);
    let gates: Vec<Var> = aig.and_vars().collect();
    let pis: Vec<Lit> = aig.pis().iter().map(|v| v.lit()).collect();
    let mut windows = Vec::new();
    let mut global = |aig: &Aig, a: Var, b: Var, complement: bool| {
        if a != b {
            let pair = PairCheck {
                a: a.min(b),
                b: a.max(b),
                complement,
            };
            windows.push(Window::global(aig, pair));
        }
    };
    for (n, &pick) in picks.iter().enumerate() {
        let k = if n == 0 { 12 } else { 2 + (pick % 11) as usize };
        let len = 20 + (pick >> 8) as usize % 10;
        let f = xor_chain(&mut aig, &pis[..k], len, false);
        let g = xor_chain(&mut aig, &pis[..k], len, true);
        let h = xor_chain(&mut aig, &pis[..k], len + 1, false);
        let cube = aig.and_all(pis[..k].iter().copied());
        let rare = aig.xor(g, cube);
        let complement = |a: Lit, b: Lit| a.is_complemented() != b.is_complemented();
        global(&aig, f.var(), g.var(), complement(f, g));
        global(&aig, f.var(), rare.var(), complement(f, rare));
        global(&aig, f.var(), h.var(), complement(f, h));
        let pi = pis[(pick >> 16) as usize % 12].var();
        global(&aig, Var::FALSE, pi, pick >> 20 & 1 == 1);
        let a = gates[(pick >> 24) as usize % gates.len()];
        let b = gates[(pick >> 40) as usize % gates.len()];
        global(&aig, a, b, pick >> 60 & 1 == 1);
    }
    (aig, windows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Slots shared across windows that finish in different rounds: at a
    /// one-word budget, so one word per slot, deep chains next to shallow windows
    /// give the brute-force outcomes on raw one- and two-thread executors
    /// and audited. Windows of up to 6 inputs finish in round 1, one of
    /// `k > 6` inputs in round `2^(k - 6)`, the 12-input ones in round 64.
    #[test]
    fn deep_and_shallow_windows_share_slots_across_rounds(
        seed in any::<u64>(),
        ands in 8usize..40,
        picks in proptest::collection::vec(any::<u64>(), 1..4),
    ) {
        let (aig, windows) = deep_and_shallow_windows(seed, ands, &picks);
        let expected = brute_force(&aig, &windows);
        for exec in [
            Executor::with_threads(1),
            Executor::with_threads(2),
            Executor::with_sanitizer(2),
        ] {
            let (out, effort) = check_windows(&aig, &exec, &windows, 1);
            prop_assert_eq!(effort.entry_words, 1);
            prop_assert_eq!(effort.rounds, 64);
            prop_assert_eq!(&out, &expected);
        }
    }
}

/// A batch of windows over 7-12 inputs each (tables of 2-64 words). Each
/// pick adds three pairs: one equal by construction, one of two random
/// gates under a shared cube (equal or differing anywhere), and a
/// constant candidate (the cube) that differs at the first assignment or
/// only at the cube's one assignment, deep in the table. A pick's pairs
/// get a window each, or share one merged window.
fn wide_windows(seed: u64, ands: usize, picks: &[u64]) -> (Aig, Vec<Window>) {
    let mut aig = parsweep_aig::random::random_aig(12, ands, 1, seed);
    let gates: Vec<Var> = aig.and_vars().collect();
    let pis: Vec<Var> = aig.pis().to_vec();
    let mut windows = Vec::new();
    for &pick in picks {
        let k = 7 + (pick % 6) as usize;
        let cube = aig.and_all(pis[..k].iter().map(|v| v.lit()));
        let p = gates[(pick >> 8) as usize % gates.len()].lit();
        let q = gates[(pick >> 24) as usize % gates.len()].lit();
        // p ^ cube, built two ways: an equal pair.
        let f = aig.xor(p, cube);
        let g = {
            let t0 = aig.and(p, !cube);
            let t1 = aig.and(!p, cube);
            aig.or(t0, t1)
        };
        // (p ^ cube) against (q ^ cube): equal iff p == q.
        let h = aig.xor(q, cube);
        let pair = |a: Lit, b: Lit, complement: bool| PairCheck {
            a: a.var().min(b.var()),
            b: a.var().max(b.var()),
            complement: complement != (a.is_complemented() != b.is_complemented()),
        };
        let pairs = [
            pair(f, g, false),
            pair(f, h, pick >> 40 & 1 == 1),
            PairCheck {
                a: Var::FALSE,
                b: cube.var(),
                complement: cube.is_complemented() == (pick >> 41 & 1 == 1),
            },
        ];
        let own: Vec<Window> = pairs
            .into_iter()
            .filter(|p| p.a != p.b)
            .map(|pair| Window::global(&aig, pair))
            .collect();
        if pick >> 42 & 1 == 1 {
            windows.extend(merge_windows(own, 12));
        } else {
            windows.extend(own);
        }
    }
    (aig, windows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Algorithm 1's outcomes do not depend on how the table is cut into
    /// rounds, how the batch is split, how many threads run it or whether
    /// a sanitizer audits it: every budget from one word per entry up to
    /// the default, one and two threads, raw and audited, give the same
    /// outcomes, pattern indices and assignments — and, at one budget,
    /// the same effort.
    #[test]
    fn check_windows_is_invariant_under_budget_threads_and_audit(
        seed in any::<u64>(),
        ands in 20usize..80,
        picks in proptest::collection::vec(any::<u64>(), 2..4),
    ) {
        let (aig, windows) = wide_windows(seed, ands, &picks);
        prop_assert!(windows.iter().all(|w| (7..=12).contains(&w.num_inputs())));
        // The audited run takes the batch as it is; the raw runs take it
        // 40 times over: with at least 7 inputs a window, the inputs
        // launch is then wide enough for the two-thread executor to
        // dispatch it to its pool.
        let copies = 40;
        let wide: Vec<Window> = (0..copies).flat_map(|_| windows.iter().cloned()).collect();
        let entries: usize = windows.iter().map(Window::num_entries).sum();
        // Every budget for the batch as it is; the least and the default
        // for the copies. Split runs: one window a batch, or half the
        // copies a batch.
        let budgets = [1, entries, 3 * entries, 16 * entries, DEFAULT_MEMORY_WORDS];
        let runs = [
            (&windows, &budgets[..], 1, [Executor::with_threads(1), Executor::with_sanitizer(2)]),
            (
                &wide,
                &[1, DEFAULT_MEMORY_WORDS][..],
                entries * copies / 2,
                [Executor::with_threads(1), Executor::with_threads(2)],
            ),
        ];
        let (reference, _) = check_windows(&aig, &runs[0].3[0], &windows, DEFAULT_MEMORY_WORDS);
        for (batch, budgets, split_entries, executors) in &runs {
            for &memory_words in *budgets {
                let expected: Vec<Vec<PairOutcome>> =
                    (0..batch.len() / windows.len()).flat_map(|_| reference.clone()).collect();
                let mut efforts: Vec<SimEffort> = Vec::new();
                for exec in executors {
                    let (out, effort) = check_windows(&aig, exec, batch, memory_words);
                    prop_assert_eq!(&out, &expected, "budget {}", memory_words);
                    efforts.push(effort);
                    // Every batch reuses the table and the outcome slots
                    // the one before it left behind.
                    let token = CancelToken::never();
                    let (split, _) = check_windows_in_batches(
                        &aig, exec, batch, memory_words, *split_entries, &token,
                    );
                    prop_assert_eq!(&split, &expected, "split at budget {}", memory_words);
                }
                prop_assert_eq!(efforts[0], efforts[1], "budget {}", memory_words);
                if memory_words == 1 {
                    prop_assert_eq!(efforts[0].entry_words, 1);
                }
            }
        }
        prop_assert!(runs[1].3[1].stats().launches > 0, "no launch reached the pool");
    }
}

#[test]
fn window_merging_preserves_outcomes() {
    // Merged and unmerged batches must agree on every pair verdict.
    let mut aig = Aig::new();
    let xs = aig.add_inputs(6);
    let f1 = aig.xor(xs[0], xs[1]);
    let f2 = {
        let t0 = aig.and(xs[0], !xs[1]);
        let t1 = aig.and(!xs[0], xs[1]);
        aig.or(t0, t1)
    };
    let g1 = aig.and(xs[2], xs[3]);
    let g2 = aig.or(xs[2], xs[3]);
    let h1 = aig.maj3(xs[3], xs[4], xs[5]);
    let h2 = {
        let or = aig.or(xs[4], xs[5]);
        let and = aig.and(xs[4], xs[5]);
        aig.mux(xs[3], or, and)
    };
    let pairs = [(f1, f2), (g1, g2), (h1, h2)];
    let exec = Executor::with_threads(1);
    let windows: Vec<Window> = pairs
        .iter()
        .map(|(x, y)| {
            Window::global(
                &aig,
                PairCheck {
                    a: x.var().min(y.var()),
                    b: x.var().max(y.var()),
                    complement: x.is_complemented() != y.is_complemented(),
                },
            )
        })
        .collect();
    let (plain, _) = check_windows(&aig, &exec, &windows, 1 << 14);
    let merged = parsweep_sim::merge_windows(windows.clone(), 6);
    let (merged_out, _) = check_windows(&aig, &exec, &merged, 1 << 14);
    // Collect verdicts per pair (b-var identifies the pair).
    let collect = |wins: &[Window], outs: &[Vec<PairOutcome>]| {
        let mut v: Vec<(Var, bool)> = Vec::new();
        for (w, win) in wins.iter().enumerate() {
            for (k, o) in outs[w].iter().enumerate() {
                v.push((win.pairs[k].b, matches!(o, PairOutcome::Equal)));
            }
        }
        v.sort();
        v
    };
    assert_eq!(collect(&windows, &plain), collect(&merged, &merged_out));
}
