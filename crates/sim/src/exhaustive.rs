//! The parallel exhaustive simulator (paper §III-B, Algorithm 1).
//!
//! Checks batches of candidate pairs by computing and comparing their
//! *entire* truth tables over the window inputs. A bounded simulation
//! table holds `E`-word segments of every live node's truth table;
//! simulation proceeds in rounds over segments, with three dimensions of
//! parallelism: words within a node, nodes within a level, and windows
//! within a batch.
//!
//! A batch is compiled once into flat arrays: one flat gate list per
//! window-local depth, and a table of *slots*. Every window's input
//! entries hold slots `0..I`; a gate's entry takes a slot that is free at
//! its depth and gives it back once the last launch reading it has run,
//! so the table holds the live frontier of the level-major schedule, not
//! every node of the batch. Each round is then `depth + 2` eager launches —
//! one `sim.exhaustive.inputs` launch over every input entry, one
//! `sim.exhaustive.level` launch per depth covering that depth's gates of
//! *every* window (level-major, so windows are the launch's third
//! dimension of parallelism rather than separate launch chains), and one
//! `sim.exhaustive.compare` launch over every pair. Threads of windows
//! that finished early return at once.
//!
//! The kernels move rows, not words. A row is one slot's `E`-word
//! segment of the table, taken with
//! [`DeviceSlice::row`](parsweep_par::DeviceSlice::row) or `row_mut`:
//! a level thread zips its two fanin rows into its own, an input thread
//! fills its row with projection words, a compare thread scans its two
//! root rows for the first differing word. On a raw executor a row is a
//! plain slice, so those loops compile like any slice loop; a sanitizing
//! executor logs every slot of every row as a read or a write by the
//! thread and audits it against the launch's declared effects, exactly as
//! per-slot accesses would be.
//!
//! [`check_windows_in_batches`] splits a long window list into batches
//! that fit the table budget. The batches share one node → entry map,
//! one gate staging list and one simulation table, so compiling a batch
//! costs its windows, not the AIG. The table and the outcome slots come
//! from the executor's [`BufferArena`](parsweep_par::BufferArena).

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use parsweep_aig::{Aig, Lit, Node, Var};
use parsweep_par::{CancelToken, Effect, EffectTable, Executor, Pattern, PooledBuf};
use parsweep_trace as trace;

use crate::tt::projection_word;
use crate::window::Window;

/// Default simulation-table budget: 2^22 words (32 MiB).
pub const DEFAULT_MEMORY_WORDS: usize = 1 << 22;

/// The most words a batch's entry size `E` lets its simulation table
/// take, whatever the budget: 2^19 words (4 MiB). A table is leased
/// zero-filled, so a check pays a page fault per table page before any
/// kernel runs; past this size that first touch costs more than the
/// rounds a larger `E` saves (DESIGN.md, "`E` is chosen from the live
/// slots, under a 4 MiB cap").
const TABLE_WORDS: usize = 1 << 19;

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
    /// Entry size `E` (words per table row) chosen for the batch: the
    /// largest power of two, at most the longest truth table, with `E`
    /// times the batch's live slots within the table budget (1 when one
    /// word per slot already exceeds it).
    pub entry_words: usize,
}

/// One AND gate of a compiled batch.
#[derive(Clone, Copy, Default)]
struct Gate {
    window: u32,
    /// The gate's own entry while staged, its slot once compiled.
    out: u32,
    /// Fanin entries, then slots (of lower depths), each with
    /// [`COMPLEMENTED`] set when the gate reads the fanin inverted.
    fanins: [u32; 2],
}

/// The flag of a complemented fanin in [`Gate::fanins`].
const COMPLEMENTED: u32 = 1 << 31;

/// One candidate pair of a compiled batch.
struct Compare {
    window: u32,
    /// Root slots; `None` for a constant root.
    roots: [Option<u32>; 2],
    /// All-ones when the pair is expected complemented.
    cmask: u64,
    num_inputs: usize,
}

/// A batch compiled into flat arrays over one slot table: every
/// window's input entries in slots `0..I`, then the gates' shared slots.
#[derive(Default)]
struct Batch {
    /// Window owning input entry (and slot) `t`.
    input_window: Vec<u32>,
    /// Slot of each window's first input.
    input_base: Vec<usize>,
    /// Gates of every window, depth-major: window-local depth `d + 1`
    /// spans `gates[depth_start[d]..depth_start[d + 1]]`.
    gates: Vec<Gate>,
    depth_start: Vec<usize>,
    /// Pairs, window-major: pair `t` owns outcome slot `t`.
    compares: Vec<Compare>,
    /// Per window: its gate count and its deepest depth.
    window_gates: Vec<u64>,
    window_depth: Vec<usize>,
    /// Table rows the batch uses: its input entries plus the most gate
    /// entries live at once.
    slots: usize,
}

/// Host state shared by every batch one call compiles: the node → entry
/// map, sized to the AIG once, and the staging list of gates, so that
/// compiling a batch costs its windows, not the AIG.
struct Compiler {
    /// `at[v]` = (window-local depth + 1, entry) of a node of the window
    /// being compiled; depth + 1 == 0 marks nodes outside it.
    at: Vec<(u32, u32)>,
    /// The batch's gates in window order, each with its depth.
    staged: Vec<(u32, Gate)>,
}

impl Compiler {
    fn new(aig: &Aig) -> Self {
        Compiler {
            at: vec![(0, 0); aig.num_nodes()],
            staged: Vec::new(),
        }
    }

    /// Compiles `windows` into `batch`, reusing its buffers.
    fn compile(&mut self, aig: &Aig, windows: &[Window], batch: &mut Batch) {
        let mut span = trace::span("sim", "sim.exhaustive.compile");
        let Compiler { at, staged } = self;
        let mut next = windows.iter().map(|w| w.inputs.len()).sum::<usize>() as u32;
        batch.input_window.clear();
        batch.input_base.clear();
        batch.compares.clear();
        batch.window_gates.clear();
        batch.window_depth.clear();
        staged.clear();
        staged.reserve(windows.iter().map(|w| w.nodes.len()).sum());
        let mask = |complemented: bool| if complemented { u64::MAX } else { 0 };
        let fanin = |entry: u32, lit: Lit| {
            if lit.is_complemented() {
                entry | COMPLEMENTED
            } else {
                entry
            }
        };
        for (i, w) in windows.iter().enumerate() {
            batch.input_base.push(batch.input_window.len());
            for v in &w.inputs {
                at[v.index()] = (1, batch.input_window.len() as u32);
                batch.input_window.push(i as u32);
            }
            let (mut gates, mut deepest) = (0u64, 0usize);
            for &v in &w.nodes {
                if at[v.index()].0 != 0 {
                    continue; // a root that is also an input
                }
                let Node::And(a, b) = aig.node(v) else {
                    unreachable!("interior window nodes are AND gates");
                };
                let (fa, fb) = (at[a.var().index()], at[b.var().index()]);
                assert!(fa.0 != 0 && fb.0 != 0, "window is topologically closed");
                let d = fa.0.max(fb.0);
                staged.push((
                    d - 1,
                    Gate {
                        window: i as u32,
                        out: next,
                        fanins: [fanin(fa.1, a), fanin(fb.1, b)],
                    },
                ));
                at[v.index()] = (d + 1, next);
                next += 1;
                assert!(next < COMPLEMENTED, "batch entries fit the fanin encoding");
                gates += 1;
                deepest = deepest.max(d as usize);
            }
            let entry = |v: Var| {
                (!v.is_const()).then(|| {
                    assert!(at[v.index()].0 != 0, "pair roots lie in their window");
                    at[v.index()].1
                })
            };
            for pair in &w.pairs {
                batch.compares.push(Compare {
                    window: i as u32,
                    roots: [entry(pair.a), entry(pair.b)],
                    cmask: mask(pair.complement),
                    num_inputs: w.inputs.len(),
                });
            }
            for v in w.inputs.iter().chain(&w.nodes) {
                at[v.index()].0 = 0;
            }
            batch.window_gates.push(gates);
            batch.window_depth.push(deepest);
        }
        // A stable counting sort by depth: depth-major, window order
        // within a depth.
        let depth = batch.window_depth.iter().copied().max().unwrap_or(0);
        batch.depth_start.clear();
        batch.depth_start.resize(depth + 1, 0);
        for &(d, _) in staged.iter() {
            batch.depth_start[d as usize + 1] += 1;
        }
        for d in 0..depth {
            batch.depth_start[d + 1] += batch.depth_start[d];
        }
        let mut cursor = batch.depth_start.clone();
        batch.gates.clear();
        batch.gates.resize(staged.len(), Gate::default());
        for &(d, gate) in staged.iter() {
            batch.gates[cursor[d as usize]] = gate;
            cursor[d as usize] += 1;
        }
        batch.slots = assign_slots(batch, next as usize);
        span.arg_u64("entries", u64::from(next));
        span.arg_u64("slots", batch.slots as u64);
    }
}

/// Moves a compiled `batch` of `entries` entries from one slot per entry
/// onto live slots and returns their count. Input entries keep their
/// slots. Depth by depth, a gate takes a free slot or a new one, and its
/// slot is free again only after the launch of its last reader, so no
/// launch reads and writes the same slot.
fn assign_slots(batch: &mut Batch, entries: usize) -> usize {
    let num_inputs = batch.input_window.len();
    let depth = batch.depth_start.len() - 1;
    // Per entry: the last launch reading it (`u32::MAX` for pair
    // roots, which the compare launch reads); once the entry has a
    // slot, the next entry of that launch's release list.
    let mut last_read = vec![0; entries];
    for d in 0..depth {
        for g in &batch.gates[batch.depth_start[d]..batch.depth_start[d + 1]] {
            for e in [g.out, g.fanins[0], g.fanins[1]] {
                last_read[(e & !COMPLEMENTED) as usize] = d as u32;
            }
        }
    }
    for c in &batch.compares {
        for e in c.roots.into_iter().flatten() {
            last_read[e as usize] = u32::MAX;
        }
    }
    let mut slot_of: Vec<u32> = (0..num_inputs as u32).collect();
    slot_of.resize(entries, 0);
    // Per level launch: the head of the list of entries it reads last.
    let mut release = vec![u32::MAX; depth];
    let (mut free, mut slots) = (Vec::new(), num_inputs as u32);
    let slot = |slot_of: &[u32], f: u32| slot_of[(f & !COMPLEMENTED) as usize] | f & COMPLEMENTED;
    for d in 0..depth {
        for g in &mut batch.gates[batch.depth_start[d]..batch.depth_start[d + 1]] {
            g.fanins = g.fanins.map(|f| slot(&slot_of, f));
            let s = free.pop().unwrap_or_else(|| {
                slots += 1;
                slots - 1
            });
            let (e, last) = (g.out as usize, last_read[g.out as usize]);
            slot_of[e] = s;
            g.out = s;
            if last != u32::MAX {
                last_read[e] = release[last as usize];
                release[last as usize] = e as u32;
            }
        }
        let mut e = release[d];
        while e != u32::MAX {
            free.push(slot_of[e as usize]);
            e = last_read[e as usize];
        }
    }
    for c in &mut batch.compares {
        c.roots = c.roots.map(|e| e.map(|e| slot(&slot_of, e)));
    }
    slots as usize
}

/// Entry size `E` of a compiled batch: the largest power of two with
/// `E * slots <= min(memory_words, TABLE_WORDS)` (at least 1), capped at
/// the batch's longest truth table `max_tt`. Algorithm 1 bounds the
/// table by `E * N <= M` with `N` every entry; the table holds only the
/// live slots, so the same bound is taken over them, and under
/// [`TABLE_WORDS`] however large `M` is.
fn entry_words(slots: usize, max_tt: usize, memory_words: usize) -> usize {
    let budget = memory_words.min(TABLE_WORDS);
    let mut entry_words = 1usize;
    while entry_words < max_tt && entry_words * 2 * slots <= budget {
        entry_words *= 2;
    }
    entry_words
}

/// Runs Algorithm 1 on a batch of windows.
///
/// Returns, for every window, the outcome of every one of its pairs, plus
/// the effort spent. `memory_words` bounds the simulation table (the
/// paper's `M`). The batch is compiled first; its entry size `E` is then
/// the largest power of two, at most the longest truth table, whose
/// table of `E` words per live slot fits both `memory_words` and a fixed
/// 2^19-word (4 MiB) cap. With one word per slot past that, `E` is 1.
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
    check_windows_in_batches(aig, exec, windows, memory_words, usize::MAX, token)
}

/// [`check_windows_cancellable`] over consecutive batches of `windows`,
/// each holding at most `batch_entries` simulation-table entries (a
/// window larger than that is a batch of its own), so that each batch's
/// table fits `memory_words`.
///
/// Every batch gets its own entry size `E`, chosen from its live slot
/// count once it is compiled, exactly as if it were checked alone (see
/// [`check_windows`]), but one node map, one gate staging list and one
/// simulation table serve them all: host setup costs each batch its
/// windows. The table holds `E` words per slot of the first batch and
/// grows only when a later batch needs more; each lease is a
/// `sim.exhaustive.lease` trace span with `entry_words`, `slots` and
/// `table_words` args. The token is also polled between batches;
/// windows of batches never started get empty outcome vectors. The
/// effort sums words and rounds over the batches; its `entry_words` is
/// the largest `E` chosen.
///
/// # Panics
///
/// Panics if `memory_words == 0`.
pub fn check_windows_in_batches(
    aig: &Aig,
    exec: &Executor,
    windows: &[Window],
    memory_words: usize,
    batch_entries: usize,
    token: &CancelToken,
) -> (Vec<Vec<PairOutcome>>, SimEffort) {
    assert!(memory_words > 0, "simulation table needs some memory");
    if windows.is_empty() {
        return (Vec::new(), SimEffort::default());
    }
    // Each batch's windows; its entry size is chosen once it is compiled.
    let mut batches: Vec<Range<usize>> = Vec::new();
    let mut start = 0;
    while start < windows.len() {
        let (mut entries, mut end) = (0usize, start);
        while end < windows.len() {
            let e = windows[end].num_entries();
            if end > start && entries + e > batch_entries {
                break;
            }
            entries += e;
            end += 1;
        }
        batches.push(start..end);
        start = end;
    }
    let max_pairs = batches
        .iter()
        .map(|r| windows[r.clone()].iter().map(|w| w.pairs.len()).sum())
        .max()
        .unwrap_or(0);
    // Every batch overwrites the table rows it reads before reading them,
    // and leaves every outcome slot it used taken (`None`) again.
    let mut simt: Option<PooledBuf<u64>> = None;
    let mut outcomes = exec.arena().take::<Option<PairOutcome>>(max_pairs);
    let mut compiler = Compiler::new(aig);
    let mut batch = Batch::default();
    let mut results = Vec::with_capacity(windows.len());
    let mut effort = SimEffort::default();
    for range in batches {
        if token.is_cancelled() {
            break;
        }
        let windows = &windows[range];
        compiler.compile(aig, windows, &mut batch);
        let max_tt = windows.iter().map(Window::tt_words).max().unwrap_or(1);
        let entry_words = entry_words(batch.slots, max_tt, memory_words);
        let table_len = entry_words * batch.slots;
        if simt.as_ref().is_none_or(|t| t.len() < table_len) {
            let mut span = trace::span("sim", "sim.exhaustive.lease");
            span.arg_u64("entry_words", entry_words as u64);
            span.arg_u64("slots", batch.slots as u64);
            span.arg_u64("table_words", table_len as u64);
            drop(simt.take()); // back to the pool before the larger lease
            simt = Some(exec.arena().take(table_len));
        }
        let (res, e) = run_batch(
            exec,
            &batch,
            windows,
            entry_words,
            simt.as_mut().expect("leased above"),
            &mut outcomes,
            token,
        );
        results.extend(res);
        effort.words += e.words;
        effort.rounds += e.rounds;
        effort.entry_words = effort.entry_words.max(entry_words);
    }
    // Pad cancelled-away windows with empty outcomes so indexing by
    // window position stays valid.
    results.resize_with(windows.len(), Vec::new);
    (results, effort)
}

/// Simulates one compiled batch in rounds of `entry_words`-word segments
/// over the front of `simt` and `outcomes`.
fn run_batch(
    exec: &Executor,
    batch: &Batch,
    windows: &[Window],
    entry_words: usize,
    simt: &mut [u64],
    outcomes: &mut [Option<PairOutcome>],
    token: &CancelToken,
) -> (Vec<Vec<PairOutcome>>, SimEffort) {
    let tt_words: Vec<usize> = windows.iter().map(Window::tt_words).collect();
    let max_tt = tt_words.iter().copied().max().unwrap_or(1);
    let rounds = max_tt.div_ceil(entry_words);

    let total_pairs = batch.compares.len();
    let simt = &mut simt[..entry_words * batch.slots];
    let outcomes = &mut outcomes[..total_pairs];
    let resolved: Vec<AtomicBool> = (0..total_pairs).map(|_| AtomicBool::new(false)).collect();
    let unresolved: Vec<AtomicUsize> = windows
        .iter()
        .map(|w| AtomicUsize::new(w.pairs.len()))
        .collect();
    let mut words_simulated = 0u64;
    let mut rounds_run = 0u32;
    let mut completed_rounds = 0usize;

    {
        // Every launch declares its footprint over the two device
        // buffers; the static checker proves each one before it runs.
        let table = EffectTable::new();
        let tbl_buf = table.buffer("sim.exhaustive.table", entry_words * batch.slots);
        let out_buf = table.buffer("sim.exhaustive.outcomes", total_pairs);
        let cells = exec.bind_table(&table, tbl_buf, simt);
        let out_cells = exec.bind_table(&table, out_buf, outcomes);
        let gate_base = batch.input_window.len();
        let (lo, hi) = (gate_base * entry_words, batch.slots * entry_words);
        // Thread t owns input entry t: stride == span, so the checker
        // proves thread disjointness in closed form.
        let (stride, span) = (entry_words, entry_words);
        let inputs = [Effect::write(
            tbl_buf,
            Pattern::Affine {
                base: 0,
                stride,
                span,
            },
        )];
        // Gate t reads its fanins' slots (written by earlier launches)
        // and writes its own: data-dependent disjoint slots.
        let reads = Effect::read(tbl_buf, Pattern::Indexed { lo: 0, hi });
        let level = [reads, Effect::write(tbl_buf, Pattern::Indexed { lo, hi })];
        // Pair t reads its roots' slots and writes outcome slot t.
        let (base, stride, span) = (0, 1, 1);
        let compare = [
            reads,
            Effect::write(out_buf, Pattern::Affine { base, stride, span }),
        ];
        let (cells, out_cells) = (&cells, &out_cells);

        for r in 0..rounds {
            if token.is_cancelled() {
                break;
            }
            // Windows still needing simulation this round.
            let active: Vec<bool> = (0..windows.len())
                .map(|i| tt_words[i] > r * entry_words && unresolved[i].load(Ordering::Relaxed) > 0)
                .collect();
            if !active.iter().any(|&a| a) {
                break;
            }
            rounds_run += 1;
            // Words of active window `i`'s table simulated this round.
            let active_words = |i: usize| (tt_words[i] - r * entry_words).min(entry_words);
            let mut depths = 0;
            for i in (0..windows.len()).filter(|&i| active[i]) {
                words_simulated += active_words(i) as u64 * batch.window_gates[i];
                depths = depths.max(batch.window_depth[i]);
            }
            let active = &active;

            exec.launch_declared(&table, "sim.exhaustive.inputs", gate_base, &inputs, |t| {
                let i = batch.input_window[t] as usize;
                if !active[i] {
                    return;
                }
                let j = t - batch.input_base[i];
                // SAFETY: input entry t belongs to thread t alone.
                let row = unsafe { cells.row_mut(t, t * entry_words, active_words(i)) };
                for (w, o) in row.iter_mut().enumerate() {
                    *o = projection_word(j, r * entry_words + w);
                }
            });
            for d in 0..depths {
                let gates = &batch.gates[batch.depth_start[d]..batch.depth_start[d + 1]];
                exec.launch_declared(&table, "sim.exhaustive.level", gates.len(), &level, |t| {
                    let g = &gates[t];
                    let i = g.window as usize;
                    if !active[i] {
                        return;
                    }
                    let n = active_words(i);
                    let [ma, mb] = g
                        .fanins
                        .map(|f| if f & COMPLEMENTED != 0 { u64::MAX } else { 0 });
                    let [ea, eb] = g.fanins.map(|f| (f & !COMPLEMENTED) as usize * entry_words);
                    // SAFETY: fanin slots were written by earlier launches
                    // and stay live through this one, which reads no slot
                    // it writes; gate t alone writes its own slot.
                    let (ra, rb, out) = unsafe {
                        (
                            cells.row(t, ea, n),
                            cells.row(t, eb, n),
                            cells.row_mut(t, g.out as usize * entry_words, n),
                        )
                    };
                    for ((o, &a), &b) in out.iter_mut().zip(ra).zip(rb) {
                        *o = (a ^ ma) & (b ^ mb);
                    }
                });
            }
            exec.launch_declared(
                &table,
                "sim.exhaustive.compare",
                total_pairs,
                &compare,
                |t| {
                    let c = &batch.compares[t];
                    let i = c.window as usize;
                    if resolved[t].load(Ordering::Relaxed) || !active[i] {
                        return;
                    }
                    let valid = if c.num_inputs < 6 {
                        (1u64 << (1usize << c.num_inputs)) - 1
                    } else {
                        u64::MAX
                    };
                    let n = active_words(i);
                    // SAFETY: root slots were written by earlier
                    // launches of this round and are never reused.
                    let [ra, rb] = c
                        .roots
                        .map(|e| e.map(|e| unsafe { cells.row(t, e as usize * entry_words, n) }));
                    let word = |row: Option<&[u64]>, w: usize| row.map_or(0, |row| row[w]);
                    let diff = |w: usize| (word(ra, w) ^ word(rb, w) ^ c.cmask) & valid;
                    if let Some(w) = (0..n).find(|&w| diff(w) != 0) {
                        let bit = diff(w).trailing_zeros() as u64;
                        let pattern_index = ((r * entry_words + w) as u64) << 6 | bit;
                        let assignment = (0..c.num_inputs)
                            .map(|j| pattern_index >> j & 1 == 1)
                            .collect();
                        resolved[t].store(true, Ordering::Relaxed);
                        unresolved[i].fetch_sub(1, Ordering::Relaxed);
                        let mismatch = PairOutcome::Mismatch {
                            pattern_index,
                            assignment,
                        };
                        // SAFETY: outcome slot t belongs to thread t alone.
                        unsafe { out_cells.write(t, t, Some(mismatch)) };
                    }
                },
            );
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
            let complete = tt_words[i] <= completed_rounds * entry_words
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
    use std::collections::{HashMap, HashSet};

    use super::*;
    use crate::window::{PairCheck, Window};
    use parsweep_aig::Aig;

    fn exec() -> Executor {
        Executor::with_threads(2)
    }

    fn pc(a: Var, b: Var, complement: bool) -> PairCheck {
        PairCheck { a, b, complement }
    }

    /// Replays `batch` (compiled from `windows`) launch by launch with a
    /// slot → owner map, an owner being a (window, node): every slot a
    /// gate or a compare reads holds the entry it expects, no launch reads
    /// a slot it writes, the inputs hold slots `0..I` and the batch needs
    /// no more slots than entries.
    fn replay_schedule(aig: &Aig, windows: &[Window], batch: &Batch) {
        let num_inputs: usize = windows.iter().map(|w| w.inputs.len()).sum();
        let entries: usize = windows.iter().map(Window::num_entries).sum();
        assert!(num_inputs <= batch.slots && batch.slots <= entries);
        // The gates in launch order: by window-local depth, then window,
        // then topological order.
        let mut order = Vec::new();
        for (i, w) in windows.iter().enumerate() {
            let mut depth: HashMap<Var, usize> = w.inputs.iter().map(|&v| (v, 0)).collect();
            for &v in &w.nodes {
                if !depth.contains_key(&v) {
                    let Node::And(a, b) = aig.node(v) else {
                        unreachable!("interior window nodes are AND gates");
                    };
                    let d = 1 + depth[&a.var()].max(depth[&b.var()]);
                    depth.insert(v, d);
                    order.push((d, i, v));
                }
            }
        }
        order.sort_by_key(|&(d, i, _)| (d, i));
        let mut owner: Vec<Option<(usize, Var)>> = vec![None; batch.slots];
        for (i, w) in windows.iter().enumerate() {
            for (j, &v) in w.inputs.iter().enumerate() {
                let t = batch.input_base[i] + j;
                assert!(owner[t].is_none() && batch.input_window[t] as usize == i);
                owner[t] = Some((i, v));
            }
        }
        assert!(owner[..num_inputs].iter().all(Option::is_some));
        let mut order = order.into_iter();
        for (d, span) in batch.depth_start.windows(2).enumerate() {
            let depth = d + 1;
            let mut reads = HashSet::new();
            let mut writes = Vec::new();
            for g in &batch.gates[span[0]..span[1]] {
                let (gate_depth, i, v) = order.next().expect("a gate per node");
                assert_eq!((gate_depth, i), (depth, g.window as usize));
                let Node::And(a, b) = aig.node(v) else {
                    unreachable!("interior window nodes are AND gates");
                };
                for (f, lit) in g.fanins.into_iter().zip([a, b]) {
                    let s = (f & !COMPLEMENTED) as usize;
                    assert_eq!(owner[s], Some((i, lit.var())), "slot {s} at depth {depth}");
                    assert_eq!(f & COMPLEMENTED != 0, lit.is_complemented());
                    reads.insert(s);
                }
                writes.push((g.out as usize, (i, v)));
            }
            for &(s, entry) in &writes {
                assert!(s >= num_inputs, "depth {depth} overwrites input slot {s}");
                assert!(
                    !reads.contains(&s),
                    "slot {s} read and written at depth {depth}"
                );
                owner[s] = Some(entry);
            }
            let written: HashSet<usize> = writes.iter().map(|&(s, _)| s).collect();
            assert_eq!(written.len(), writes.len(), "two gates write one slot");
        }
        assert!(order.next().is_none(), "every gate is scheduled");
        let pairs = windows
            .iter()
            .enumerate()
            .flat_map(|(i, w)| w.pairs.iter().map(move |p| (i, p)));
        assert_eq!(pairs.clone().count(), batch.compares.len());
        for ((i, pair), c) in pairs.zip(&batch.compares) {
            assert_eq!(c.window as usize, i);
            for (root, v) in c.roots.into_iter().zip([pair.a, pair.b]) {
                let expected = (!v.is_const()).then_some(Some((i, v)));
                assert_eq!(root.map(|s| owner[s as usize]), expected, "root {v:?}");
            }
        }
    }

    /// `len` XORs cycling through `xs`, each two levels deeper than the
    /// last, taken forwards or backwards.
    fn xor_chain(aig: &mut Aig, xs: &[Lit], len: usize, backwards: bool) -> Lit {
        let mut seq: Vec<Lit> = (0..=len).map(|s| xs[s % xs.len()]).collect();
        if backwards {
            seq.reverse();
        }
        seq[1..].iter().fold(seq[0], |acc, &x| aig.xor(acc, x))
    }

    #[test]
    fn compiled_slots_follow_the_schedule() {
        let mut aig = parsweep_aig::random::random_aig(10, 120, 4, 7);
        let pis: Vec<Lit> = aig.pis().iter().map(|v| v.lit()).collect();
        let global = |aig: &Aig, a: Lit, b: Lit| {
            let (a, b) = (a.var().min(b.var()), a.var().max(b.var()));
            Window::global(aig, pc(a, b, false))
        };
        // Deep narrow cones: XOR chains of depth 40-60 over 2-6 inputs, an
        // equal pair (forwards vs backwards) and a differing one.
        let mut deep = Vec::new();
        for (k, len) in [(2, 20), (3, 30), (6, 25)] {
            let f = xor_chain(&mut aig, &pis[..k], len, false);
            let g = xor_chain(&mut aig, &pis[..k], len, true);
            let h = xor_chain(&mut aig, &pis[..k], len + 1, false);
            deep.push(global(&aig, f, g));
            deep.push(global(&aig, f, h));
        }
        // Shallow windows of different depths and input counts: random
        // pairs, a constant root, a root that is an input and a local
        // window over a cut.
        let pos: Vec<Lit> = (0..4).map(|o| aig.po(o)).collect();
        let mut mixed = vec![
            global(&aig, pos[0], pos[1]),
            global(&aig, pos[2], pos[3]),
            Window::global(&aig, pc(Var::FALSE, pos[2].var(), false)),
            global(&aig, pis[3], pos[1]),
        ];
        let ab = aig.and(pis[7], pis[8]);
        let g = aig.and(ab, pis[9]);
        let o = aig.or(ab, pis[9]);
        let h = aig.and(g, o);
        let cut = vec![ab.var(), pis[9].var()];
        mixed.push(Window::for_pair(&aig, pc(g.var(), h.var(), false), cut).unwrap());
        mixed.extend(deep.iter().cloned());
        mixed.push(mixed[0].clone());
        // One compiler over every batch, as `check_windows_in_batches`
        // shares it.
        let mut compiler = Compiler::new(&aig);
        let mut batch = Batch::default();
        for windows in [&deep[..], &mixed[..], &deep[..2], &mixed[..5]] {
            compiler.compile(&aig, windows, &mut batch);
            replay_schedule(&aig, windows, &batch);
        }
        compiler.compile(&aig, &deep, &mut batch);
        let entries: usize = deep.iter().map(Window::num_entries).sum();
        assert!(
            batch.slots * 4 < entries,
            "{} slots of {entries} entries",
            batch.slots
        );
    }

    /// Every pair's outcome by brute force, for windows over all of
    /// `aig`'s PIs in PI order: its lowest differing assignment, else
    /// `Equal`.
    fn brute_force(aig: &Aig, windows: &[Window]) -> Vec<Vec<PairOutcome>> {
        assert!(windows.iter().all(|w| w.inputs == aig.pis()));
        let n = aig.num_pis();
        let mut out: Vec<Vec<PairOutcome>> = windows
            .iter()
            .map(|w| vec![PairOutcome::Equal; w.pairs.len()])
            .collect();
        // Downwards, so the last mismatch written is the lowest.
        for m in (0..1u64 << n).rev() {
            let assignment: Vec<bool> = (0..n).map(|j| m >> j & 1 == 1).collect();
            let values = aig.eval_nodes(&assignment);
            for (w, outcomes) in windows.iter().zip(&mut out) {
                for (p, o) in w.pairs.iter().zip(outcomes) {
                    if values[p.a.index()] != (values[p.b.index()] != p.complement) {
                        *o = PairOutcome::Mismatch {
                            pattern_index: m,
                            assignment: assignment.clone(),
                        };
                    }
                }
            }
        }
        out
    }

    #[test]
    fn entry_size_fits_live_slots_under_the_table_budget() {
        let global = |aig: &Aig, a: Lit, b: Lit, complement: bool| {
            let (a, b) = (a.var().min(b.var()), a.var().max(b.var()));
            Window::global(aig, pc(a, b, complement))
        };
        let live_slots = |aig: &Aig, windows: &[Window]| {
            let mut batch = Batch::default();
            Compiler::new(aig).compile(aig, windows, &mut batch);
            batch.slots
        };
        // Full 16-input tables (1 024 words) on more slots than 2^9: the
        // whole table would overrun `TABLE_WORDS`. Per rotation of the
        // inputs, AND chains taken both ways: equal, complemented
        // (differing at once) and against 0 (differing only at the last
        // assignment, in the last round).
        let mut aig = Aig::new();
        let xs = aig.add_inputs(16);
        let mut windows = Vec::new();
        for r in 0..16 {
            let mut seq = xs.clone();
            seq.rotate_left(r);
            let f = seq.iter().fold(Lit::TRUE, |acc, &x| aig.and(acc, x));
            let g = seq.iter().rev().fold(Lit::TRUE, |acc, &x| aig.and(acc, x));
            windows.push(global(&aig, f, g, false));
            windows.push(global(&aig, f, g, true));
            windows.push(Window::global(&aig, pc(Var::FALSE, f.var(), false)));
        }
        let (max_tt, slots) = (1024, live_slots(&aig, &windows));
        assert!(max_tt * slots > TABLE_WORDS, "{slots} slots");
        let (out, effort) = check_windows(&aig, &exec(), &windows, DEFAULT_MEMORY_WORDS);
        let e = effort.entry_words;
        assert!(e.is_power_of_two() && e * slots <= TABLE_WORDS && 2 * e * slots > TABLE_WORDS);
        assert_eq!(effort.rounds as usize, max_tt / e);
        assert_eq!(out, brute_force(&aig, &windows));

        // Deep XOR chains over 8 inputs (4-word tables): many entries on
        // few live slots. A budget of the full table on the slots, short
        // of it on the entries, takes one round.
        let mut aig = Aig::new();
        let xs = aig.add_inputs(8);
        let mut windows = Vec::new();
        for len in [40, 60] {
            let f = xor_chain(&mut aig, &xs, len, false);
            let g = xor_chain(&mut aig, &xs, len, true);
            let h = xor_chain(&mut aig, &xs, len + 1, false);
            windows.push(global(&aig, f, g, false));
            windows.push(global(&aig, f, h, false));
        }
        let entries: usize = windows.iter().map(Window::num_entries).sum();
        let (max_tt, slots) = (4, live_slots(&aig, &windows));
        let memory_words = max_tt * slots;
        assert!(entries * max_tt > memory_words && memory_words <= TABLE_WORDS);
        let (out, effort) = check_windows(&aig, &exec(), &windows, memory_words);
        assert_eq!((effort.entry_words, effort.rounds), (max_tt, 1));
        assert_eq!(out, brute_force(&aig, &windows));
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
