//! The parallel exhaustive simulator (paper §III-B, Algorithm 1).
//!
//! Checks batches of candidate pairs by computing and comparing their
//! *entire* truth tables over the window inputs. A bounded simulation
//! table holds `E`-word segments of every node's truth table; simulation
//! proceeds in rounds over segments, with three dimensions of parallelism:
//! words within a node, nodes within a level, and windows within a batch.
//!
//! The multi-round loop is recorded as a [`KernelGraphBuilder`] launch DAG
//! once per batch — one `inputs → levels → compare` chain per window — and
//! replayed with fresh round bindings, CUDA-graph style. Chains of
//! different windows are independent, so their launches overlap at replay;
//! the simulation table and outcome slots come from the executor's
//! [`BufferArena`](parsweep_par::BufferArena) and are recycled across
//! rounds and batches.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use parsweep_aig::{Aig, Node, Var};
use parsweep_par::{CancelToken, Effect, EffectTable, Executor, KernelGraphBuilder, Pattern};

use crate::tt::projection_word;
use crate::window::Window;

/// Default simulation-table budget: 2^22 words (32 MiB).
pub const DEFAULT_MEMORY_WORDS: usize = 1 << 22;

/// The verdict of exhaustively simulating one candidate pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PairOutcome {
    /// The two truth tables agree everywhere: the pair is proved
    /// equivalent over the window inputs (for global checking this proves
    /// functional equivalence; for local checking it proves the pair).
    Equal,
    /// The truth tables differ. For global checking this is a disproof and
    /// the assignment is a counter-example over the window inputs; for
    /// local checking the pair is merely *inconclusive* (the differing
    /// pattern may be a satisfiability don't-care).
    Mismatch {
        /// Index of the first differing assignment.
        pattern_index: u64,
        /// Values of the window inputs (in window-input order) at the
        /// differing assignment.
        assignment: Vec<bool>,
    },
}

/// Aggregate effort statistics of one exhaustive-simulation batch, used by
/// the window-merging ablation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimEffort {
    /// Total node-words simulated.
    pub words: u64,
    /// Number of rounds executed.
    pub rounds: u32,
    /// Entry size `E` (words per node segment) chosen for the batch.
    pub entry_words: usize,
}

struct WindowPlan<'w> {
    window: &'w Window,
    /// First entry slot of this window in the simulation table.
    base: usize,
    /// Window-node -> local entry slot.
    index: std::collections::HashMap<Var, u32>,
    /// Interior nodes grouped by window-local level.
    levels: Vec<Vec<Var>>,
    /// Truth-table length in words.
    tt_words: usize,
}

/// Runs Algorithm 1 on a batch of windows.
///
/// Returns, for every window, the outcome of every one of its pairs, plus
/// the effort spent. `memory_words` bounds the simulation table (the
/// paper's `M`); the entry size `E` is chosen as the largest power of two
/// that fits.
///
/// # Panics
///
/// Panics if `memory_words == 0`.
pub fn check_windows(
    aig: &Aig,
    exec: &Executor,
    windows: &[Window],
    memory_words: usize,
) -> (Vec<Vec<PairOutcome>>, SimEffort) {
    check_windows_cancellable(aig, exec, windows, memory_words, &CancelToken::never())
}

/// [`check_windows`] with a cancellation point between simulation rounds.
///
/// When the token trips mid-batch the round loop stops and every window
/// whose truth table was not fully simulated (and whose pairs were not
/// all resolved) returns an *empty* outcome vector — no outcome, rather
/// than a wrong `Equal` for pairs whose remaining segments were never
/// compared. Mismatches found in completed rounds of such windows are
/// dropped with them, keeping each window's outcomes index-aligned with
/// its pairs.
///
/// # Panics
///
/// Panics if `memory_words == 0`.
pub fn check_windows_cancellable(
    aig: &Aig,
    exec: &Executor,
    windows: &[Window],
    memory_words: usize,
    token: &CancelToken,
) -> (Vec<Vec<PairOutcome>>, SimEffort) {
    assert!(memory_words > 0, "simulation table needs some memory");
    if windows.is_empty() {
        return (Vec::new(), SimEffort::default());
    }

    // Plan entry layout: entries of all windows are consecutive.
    let mut plans: Vec<WindowPlan> = Vec::with_capacity(windows.len());
    let mut total_entries = 0usize;
    for w in windows {
        plans.push(WindowPlan {
            window: w,
            base: total_entries,
            index: w.entry_index(),
            levels: w.level_groups(aig),
            tt_words: w.tt_words(),
        });
        total_entries += w.num_entries();
    }

    // Entry size E: the largest power of two with E * N <= M (at least 1),
    // capped at the longest truth table in the batch.
    let max_tt = plans.iter().map(|p| p.tt_words).max().unwrap_or(1);
    let mut entry_words = 1usize;
    while entry_words < max_tt && entry_words * 2 * total_entries <= memory_words {
        entry_words *= 2;
    }
    let rounds = max_tt.div_ceil(entry_words);

    let mut simt = exec.arena().take::<u64>(entry_words * total_entries);
    let resolved: Vec<Vec<AtomicBool>> = windows
        .iter()
        .map(|w| (0..w.pairs.len()).map(|_| AtomicBool::new(false)).collect())
        .collect();
    let unresolved: Vec<AtomicUsize> = windows
        .iter()
        .map(|w| AtomicUsize::new(w.pairs.len()))
        .collect();
    // Flat outcome slots: one per (window, pair), disjointly written.
    let pair_base: Vec<usize> = {
        let mut acc = 0usize;
        windows
            .iter()
            .map(|w| {
                let b = acc;
                acc += w.pairs.len();
                b
            })
            .collect()
    };
    let total_pairs: usize = windows.iter().map(|w| w.pairs.len()).sum();
    let mut outcomes = exec.arena().take::<Option<PairOutcome>>(total_pairs);
    let mut words_simulated = 0u64;
    let mut rounds_run = 0u32;
    let mut completed_rounds = 0usize;

    /// Bindings one graph replay runs against: the round index and the
    /// per-window activity mask (a window goes inactive when its truth
    /// table is exhausted or all its pairs resolved).
    struct Round {
        r: usize,
        active: Vec<bool>,
    }

    {
        // Declare the device buffers and every kernel's footprint over
        // them, so the whole round graph is *statically verified* at
        // build time and replays skip dynamic sanitization (the
        // verified-replay fast path).
        let table = EffectTable::new();
        let tbl_buf = table.buffer("sim.exhaustive.table", entry_words * total_entries);
        let out_buf = table.buffer("sim.exhaustive.outcomes", total_pairs);
        let cells = exec.bind_table(&table, tbl_buf, &mut simt);
        let out_cells = exec.bind_table(&table, out_buf, &mut outcomes);
        let cells = &cells;
        let out_cells = &out_cells;
        let resolved = &resolved;
        let unresolved = &unresolved;
        let pair_base = &pair_base;

        // Record the launch DAG once: per window a chain
        // `inputs → level 0 → … → compare`. Chains of different windows
        // carry no edges between them, so at replay each wave runs their
        // launches on separate streams (windows touch disjoint table
        // ranges) and only the deepest chain paces the critical path.
        let mut builder = KernelGraphBuilder::<Round>::new(&table);
        for (i, p) in plans.iter().enumerate() {
            let active_words =
                move |r: usize| -> usize { (p.tt_words - r * entry_words).min(entry_words) };
            // This window's slice of the simulation table, in words.
            let win_lo = p.base * entry_words;
            let win_hi = (p.base + p.window.num_entries()) * entry_words;
            let inputs = builder.kernel_declared(
                "sim.exhaustive.inputs",
                &[],
                move |b: &Round| {
                    if b.active[i] {
                        p.window.inputs.len()
                    } else {
                        0
                    }
                },
                p.window.inputs.len(),
                // Input j owns entry (base + j): stride == span, so the
                // checker proves thread disjointness in closed form.
                vec![Effect::write(
                    tbl_buf,
                    Pattern::Affine {
                        base: win_lo,
                        stride: entry_words,
                        span: entry_words,
                    },
                )],
                move |j, b: &Round| {
                    let aw = active_words(b.r);
                    let entry = (p.base + j) * entry_words;
                    for w in 0..aw {
                        // SAFETY: each (window, input) kernel owns a
                        // distinct entry.
                        unsafe {
                            cells.write(j, entry + w, projection_word(j, b.r * entry_words + w))
                        };
                    }
                },
            );
            let mut prev = inputs;
            for nodes in &p.levels {
                prev = builder.kernel_declared(
                    "sim.exhaustive.level",
                    &[prev],
                    move |b: &Round| if b.active[i] { nodes.len() } else { 0 },
                    nodes.len(),
                    // Node k reads its fanins' entries (strictly lower
                    // levels) and writes its own — data-dependent
                    // disjoint chunks inside this window's table slice.
                    vec![
                        Effect::read(
                            tbl_buf,
                            Pattern::Indexed {
                                lo: win_lo,
                                hi: win_hi,
                            },
                        ),
                        Effect::write(
                            tbl_buf,
                            Pattern::Indexed {
                                lo: win_lo,
                                hi: win_hi,
                            },
                        ),
                    ],
                    move |k, b: &Round| {
                        let aw = active_words(b.r);
                        let v = nodes[k];
                        let Node::And(fa, fb) = aig.node(v) else {
                            unreachable!("interior window nodes are AND gates");
                        };
                        let ea = p.index[&fa.var()] as usize;
                        let eb = p.index[&fb.var()] as usize;
                        let ev = p.index[&v] as usize;
                        let ma = if fa.is_complemented() { u64::MAX } else { 0 };
                        let mb = if fb.is_complemented() { u64::MAX } else { 0 };
                        let (ba, bb, bv) = (
                            (p.base + ea) * entry_words,
                            (p.base + eb) * entry_words,
                            (p.base + ev) * entry_words,
                        );
                        for w in 0..aw {
                            // SAFETY: fanin entries were written by earlier
                            // levels (graph-ordered launches); each node
                            // writes only its own entry.
                            unsafe {
                                let wa = cells.read(k, ba + w) ^ ma;
                                let wb = cells.read(k, bb + w) ^ mb;
                                cells.write(k, bv + w, wa & wb);
                            }
                        }
                    },
                );
            }
            builder.kernel_declared(
                "sim.exhaustive.compare",
                &[prev],
                move |b: &Round| if b.active[i] { p.window.pairs.len() } else { 0 },
                p.window.pairs.len(),
                // Pair k reads its roots' entries and writes its own
                // outcome slot (one slot per pair, stride 1).
                vec![
                    Effect::read(
                        tbl_buf,
                        Pattern::Indexed {
                            lo: win_lo,
                            hi: win_hi,
                        },
                    ),
                    Effect::write(
                        out_buf,
                        Pattern::Affine {
                            base: pair_base[i],
                            stride: 1,
                            span: 1,
                        },
                    ),
                ],
                move |k, b: &Round| {
                    if resolved[i][k].load(Ordering::Relaxed) {
                        return;
                    }
                    let aw = active_words(b.r);
                    let pair = p.window.pairs[k];
                    let cmask = if pair.complement { u64::MAX } else { 0 };
                    let entry_of = |v: Var| -> Option<usize> {
                        if v.is_const() {
                            None
                        } else {
                            Some((p.base + p.index[&v] as usize) * entry_words)
                        }
                    };
                    let (ea, eb) = (entry_of(pair.a), entry_of(pair.b));
                    let k_in = p.window.inputs.len();
                    let valid = if k_in < 6 {
                        (1u64 << (1usize << k_in)) - 1
                    } else {
                        u64::MAX
                    };
                    for w in 0..aw {
                        // SAFETY: root entries were written by the level
                        // launches this chain depends on.
                        let wa = ea.map_or(0, |e| unsafe { cells.read(k, e + w) });
                        // SAFETY: as above.
                        let wb = eb.map_or(0, |e| unsafe { cells.read(k, e + w) });
                        let diff = (wa ^ wb ^ cmask) & valid;
                        if diff != 0 {
                            let bit = diff.trailing_zeros() as u64;
                            let pattern_index = ((b.r * entry_words + w) as u64) << 6 | bit;
                            let assignment =
                                (0..k_in).map(|j| pattern_index >> j & 1 == 1).collect();
                            resolved[i][k].store(true, Ordering::Relaxed);
                            unresolved[i].fetch_sub(1, Ordering::Relaxed);
                            // SAFETY: exactly one kernel thread exists per
                            // (window, pair), so the flat slot is written
                            // by at most one thread.
                            unsafe {
                                out_cells.write(
                                    k,
                                    pair_base[i] + k,
                                    Some(PairOutcome::Mismatch {
                                        pattern_index,
                                        assignment,
                                    }),
                                );
                            }
                            return;
                        }
                    }
                },
            );
        }
        let graph = builder.build();

        for r in 0..rounds {
            if token.is_cancelled() {
                break;
            }
            // Windows still needing simulation this round.
            let active: Vec<bool> = (0..plans.len())
                .map(|i| {
                    plans[i].tt_words > r * entry_words && unresolved[i].load(Ordering::Relaxed) > 0
                })
                .collect();
            if !active.iter().any(|&a| a) {
                break;
            }
            rounds_run += 1;
            for (i, p) in plans.iter().enumerate() {
                if active[i] {
                    let aw = (p.tt_words - r * entry_words).min(entry_words) as u64;
                    words_simulated += aw * p.levels.iter().map(|l| l.len() as u64).sum::<u64>();
                }
            }
            graph.replay(exec, &Round { r, active });
            completed_rounds = r + 1;
        }
    }

    let mut slot = 0usize;
    let results = windows
        .iter()
        .enumerate()
        .map(|(i, w)| {
            // A window's absent outcomes default to `Equal` only once its
            // entire truth table was simulated (or every pair already
            // resolved); a cancellation-truncated window reports nothing.
            let complete = plans[i].tt_words <= completed_rounds * entry_words
                || unresolved[i].load(Ordering::Relaxed) == 0;
            let collected: Vec<PairOutcome> = (0..w.pairs.len())
                .map(|_| {
                    let outcome = outcomes[slot].take();
                    slot += 1;
                    outcome.unwrap_or(PairOutcome::Equal)
                })
                .collect();
            if complete {
                collected
            } else {
                Vec::new()
            }
        })
        .collect();
    let effort = SimEffort {
        words: words_simulated,
        rounds: rounds_run,
        entry_words,
    };
    (results, effort)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{PairCheck, Window};
    use parsweep_aig::Aig;

    fn exec() -> Executor {
        Executor::with_threads(2)
    }

    fn pc(a: Var, b: Var, complement: bool) -> PairCheck {
        PairCheck { a, b, complement }
    }

    #[test]
    fn proves_equivalent_pair() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        // XOR vs complement of XNOR.
        let f = aig.xor(xs[0], xs[1]);
        let t0 = aig.and(xs[0], xs[1]);
        let t1 = aig.and(!xs[0], !xs[1]);
        let g = aig.or(t0, t1); // XNOR
                                // var(f) and var(g): possibly complemented nodes; figure out the
                                // complement relation from the literals: f == !g.
        let complement = f.is_complemented() == g.is_complemented();
        let w = Window::global(&aig, pc(f.var(), g.var(), complement));
        let (res, _) = check_windows(&aig, &exec(), &[w], 1 << 16);
        assert_eq!(res[0][0], PairOutcome::Equal);
    }

    #[test]
    fn disproves_with_counterexample() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let f = aig.and(xs[0], xs[1]);
        let g = aig.or(xs[0], xs[1]);
        let w = Window::global(
            &aig,
            pc(f.var(), g.var(), f.is_complemented() != g.is_complemented()),
        );
        let (res, _) = check_windows(&aig, &exec(), std::slice::from_ref(&w), 1 << 16);
        match &res[0][0] {
            PairOutcome::Mismatch { assignment, .. } => {
                // Validate against the reference evaluator: the functions
                // AND and OR must differ under the assignment.
                let bits: Vec<bool> = assignment.clone();
                let dense: Vec<bool> = bits;
                let values = aig.eval_nodes(&dense);
                let vf = f.eval(values[f.var().index()]);
                let vg = g.eval(values[g.var().index()]);
                assert_ne!(vf, vg);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn proves_constant_po() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        // x & !x is folded by strash, so build (a & b) & !(a & b) through
        // two separate gates to keep a real node.
        let f = aig.and(xs[0], xs[1]);
        let g = aig.and(f, !xs[0]); // a & b & !a == 0 semantically
        let w = Window::global(&aig, pc(Var::FALSE, g.var(), g.is_complemented()));
        let (res, _) = check_windows(&aig, &exec(), &[w], 1 << 16);
        assert_eq!(res[0][0], PairOutcome::Equal);
    }

    #[test]
    fn multi_round_simulation_with_tiny_memory() {
        // 8 inputs => tt of 4 words; squeeze memory so E = 1 and the
        // simulation takes 4 rounds.
        let mut aig = Aig::new();
        let xs = aig.add_inputs(8);
        let f = aig.and_all(xs.iter().copied());
        let g = {
            // Same function, built right-associated.
            let mut acc = xs[7];
            for &x in xs[..7].iter().rev() {
                acc = aig.and(x, acc);
            }
            acc
        };
        let w = Window::global(
            &aig,
            pc(f.var(), g.var(), f.is_complemented() != g.is_complemented()),
        );
        let entries = w.num_entries();
        let (res, effort) = check_windows(&aig, &exec(), &[w], entries * 2);
        assert_eq!(res[0][0], PairOutcome::Equal);
        assert_eq!(effort.entry_words, 2);
        assert_eq!(effort.rounds, 2);
    }

    #[test]
    fn mismatch_found_in_late_round() {
        // Functions that agree except when all 8 inputs are 1: AND8 vs 0.
        let mut aig = Aig::new();
        let xs = aig.add_inputs(8);
        let f = aig.and_all(xs.iter().copied());
        let w = Window::global(&aig, pc(Var::FALSE, f.var(), f.is_complemented()));
        let entries = w.num_entries();
        let (res, _) = check_windows(&aig, &exec(), &[w], entries);
        match &res[0][0] {
            PairOutcome::Mismatch {
                pattern_index,
                assignment,
            } => {
                assert_eq!(*pattern_index, 255);
                assert!(assignment.iter().all(|&b| b));
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn local_window_respects_cut_semantics() {
        // g = (a&b) & c, h = c & (a&b): local functions over cut {ab, c}
        // are both AND2 and thus equal.
        let mut aig = Aig::new();
        let xs = aig.add_inputs(3);
        let ab = aig.and(xs[0], xs[1]);
        let g = aig.and(ab, xs[2]);
        // Force a distinct second node with same local function by using
        // a redundant wrapper: h = (ab & c) & (ab | c) — semantically
        // equal to g but structurally different.
        let o = aig.or(ab, xs[2]);
        let h = aig.and(g, o);
        let w = Window::for_pair(
            &aig,
            pc(g.var(), h.var(), g.is_complemented() != h.is_complemented()),
            vec![ab.var(), xs[2].var()],
        )
        .unwrap();
        let (res, _) = check_windows(&aig, &exec(), &[w], 1 << 12);
        assert_eq!(res[0][0], PairOutcome::Equal);
    }

    #[test]
    fn batch_of_windows_mixed_outcomes() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(4);
        let f1 = aig.xor(xs[0], xs[1]);
        let p0 = aig.and(xs[0], !xs[1]);
        let p1 = aig.and(!xs[0], xs[1]);
        let f2 = aig.or(p0, p1);
        let g1 = aig.and(xs[2], xs[3]);
        let g2 = aig.or(xs[2], xs[3]);
        let w1 = Window::global(
            &aig,
            pc(
                f1.var(),
                f2.var(),
                f1.is_complemented() != f2.is_complemented(),
            ),
        );
        let w2 = Window::global(
            &aig,
            pc(
                g1.var(),
                g2.var(),
                g1.is_complemented() != g2.is_complemented(),
            ),
        );
        let (res, _) = check_windows(&aig, &exec(), &[w1, w2], 1 << 16);
        assert_eq!(res[0][0], PairOutcome::Equal);
        assert!(matches!(res[1][0], PairOutcome::Mismatch { .. }));
    }
}
