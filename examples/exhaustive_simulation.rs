//! A tour of the exhaustive simulator: build windows by hand, merge them,
//! and run bounded-memory multi-round simulation — the machinery of the
//! paper's Algorithm 1 without the surrounding engine.
//!
//! Run with: `cargo run --release --example exhaustive_simulation`

use parsweep::aig::{Aig, Var};
use parsweep::par::Executor;
use parsweep::sim::{check_windows, merge_windows, PairCheck, PairOutcome, Window};

fn main() {
    // A register file slice: eight 4-input majority/mux cells over
    // overlapping input windows, built twice with different structure.
    let mut aig = Aig::new();
    let xs = aig.add_inputs(12);
    let mut pairs = Vec::new();
    for k in 0..8 {
        let a = xs[k % 12];
        let b = xs[(k + 1) % 12];
        let c = xs[(k + 2) % 12];
        let v1 = aig.maj3(a, b, c);
        let or = aig.or(b, c);
        let and = aig.and(b, c);
        let v2 = aig.mux(a, or, and);
        pairs.push(PairCheck {
            a: v1.var().min(v2.var()),
            b: v1.var().max(v2.var()),
            complement: v1.is_complemented() != v2.is_complemented(),
        });
    }

    // One global-checking window per pair (inputs = support union).
    let windows: Vec<Window> = pairs.iter().map(|&p| Window::global(&aig, p)).collect();
    let entries: usize = windows.iter().map(|w| w.num_entries()).sum();
    println!(
        "{} windows, {} total simulation-table entries before merging",
        windows.len(),
        entries
    );

    // Window merging (§III-B3): overlapping supports collapse.
    let merged = merge_windows(windows.clone(), 6);
    let merged_entries: usize = merged.iter().map(|w| w.num_entries()).sum();
    println!(
        "{} windows, {} entries after merging with k_s = 6",
        merged.len(),
        merged_entries
    );

    let exec = Executor::new();

    // Plenty of memory: one round.
    let (outcomes, effort) = check_windows(&aig, &exec, &merged, 1 << 16);
    let proved = outcomes
        .iter()
        .flatten()
        .filter(|o| matches!(o, PairOutcome::Equal))
        .count();
    println!(
        "roomy run:  {proved}/{} pairs proved, E = {} words, {} rounds, {} node-words",
        pairs.len(),
        effort.entry_words,
        effort.rounds,
        effort.words
    );

    // Starved memory: a one-word budget leaves `E` at one word per table
    // slot, so a window over more than six inputs takes a round per word
    // (Algorithm 1's segment loop); the verdicts do not change.
    let (outcomes2, effort2) = check_windows(&aig, &exec, &merged, 1);
    assert_eq!(outcomes, outcomes2, "verdicts are memory-independent");
    println!(
        "tight run:  E = {} words, {} rounds — identical verdicts",
        effort2.entry_words, effort2.rounds
    );

    // The simulator also *disproves*: check a pair that is wrong.
    let bogus = PairCheck {
        a: pairs[0].a,
        b: pairs[1].b,
        complement: false,
    };
    let w = Window::global(&aig, bogus);
    let (out, _) = check_windows(&aig, &exec, std::slice::from_ref(&w), 1 << 16);
    if let PairOutcome::Mismatch {
        pattern_index,
        assignment,
    } = &out[0][0]
    {
        println!(
            "disproof: pattern #{pattern_index} over inputs {:?} -> {:?}",
            w.inputs.iter().map(|v: &Var| v.index()).collect::<Vec<_>>(),
            assignment
        );
    }
}
