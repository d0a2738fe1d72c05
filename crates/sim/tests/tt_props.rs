//! Property-based tests of truth tables and the exhaustive simulator.

use proptest::prelude::*;

use parsweep_aig::{Aig, Var};
use parsweep_par::{CancelToken, Executor};
use parsweep_sim::{
    check_windows, check_windows_cancellable, PairCheck, PairOutcome, TruthTable, Window,
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
        let pi_pos: std::collections::HashMap<Var, usize> =
            aig.pis().iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for (w, outcomes) in windows.iter().zip(&out) {
            prop_assert_eq!(outcomes.len(), w.pairs.len());
            let k = w.inputs.len();
            for (pair, outcome) in w.pairs.iter().zip(outcomes) {
                // Brute force: the lowest window-input assignment where the
                // roots disagree (window inputs are PIs here).
                let expected = (0..1u64 << k)
                    .find(|&i| {
                        let mut dense = vec![false; aig.num_pis()];
                        for (j, v) in w.inputs.iter().enumerate() {
                            dense[pi_pos[v]] = i >> j & 1 == 1;
                        }
                        let values = aig.eval_nodes(&dense);
                        let va = !pair.a.is_const() && values[pair.a.index()];
                        va != (values[pair.b.index()] != pair.complement)
                    })
                    .map_or(PairOutcome::Equal, |i| PairOutcome::Mismatch {
                        pattern_index: i,
                        assignment: (0..k).map(|j| i >> j & 1 == 1).collect(),
                    });
                prop_assert_eq!(outcome, &expected);
            }
        }
        // Cancelled before the first round: no window reports anything.
        let token = CancelToken::new();
        token.cancel();
        let (out, _) = check_windows_cancellable(&aig, &exec, &windows, memory_words, &token);
        prop_assert!(out.iter().all(Vec::is_empty));
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
