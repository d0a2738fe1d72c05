//! Partial (sampled) bit-parallel simulation.
//!
//! The sweeping flow starts by simulating a few hundred random patterns on
//! every node of the miter; nodes with equal signatures form the initial
//! equivalence classes. Counter-example patterns from disproved pairs are
//! later resimulated to refine the classes (§III-A "partial simulator").

use std::sync::Arc;

use parsweep_aig::{Aig, Lit, Node, Var};
use parsweep_par::{DeviceSlice, Effect, EffectTable, Executor, Pattern, PooledBuf};
use parsweep_trace::{self as trace, metrics::SimCounters};

use crate::exhaustive::DEFAULT_MEMORY_WORDS;
use crate::sigwin::Window;
use crate::Cex;

/// A packed set of input patterns: `num_words * 64` assignments, stored
/// PI-major (pattern bit `p` of PI `i` is bit `p % 64` of word
/// `i * num_words + p / 64`).
#[derive(Clone, Debug)]
pub struct Patterns {
    num_pis: usize,
    num_words: usize,
    data: Vec<u64>,
}

impl Patterns {
    /// Generates uniformly random patterns from a seed (deterministic).
    pub fn random(num_pis: usize, num_words: usize, seed: u64) -> Self {
        let mut rng = parsweep_aig::random::SplitMix64::new(seed);
        let data = (0..num_pis * num_words).map(|_| rng.next_u64()).collect();
        Patterns {
            num_pis,
            num_words,
            data,
        }
    }

    /// Packs counter-examples (one per bit position) into patterns,
    /// padding the rest of the final word by repeating the last CEX.
    ///
    /// Returns `None` if `cexs` is empty.
    pub fn from_cexs(aig: &Aig, cexs: &[Cex]) -> Option<Self> {
        if cexs.is_empty() {
            return None;
        }
        let num_pis = aig.num_pis();
        let num_words = cexs.len().div_ceil(64);
        let mut data = vec![0u64; num_pis * num_words];
        let denses: Vec<Vec<bool>> = cexs.iter().map(|c| c.to_dense(aig)).collect();
        for p in 0..num_words * 64 {
            let dense = &denses[p.min(denses.len() - 1)];
            for (i, &v) in dense.iter().enumerate() {
                if v {
                    data[i * num_words + p / 64] |= 1u64 << (p % 64);
                }
            }
        }
        Some(Patterns {
            num_pis,
            num_words,
            data,
        })
    }

    /// Packs counter-examples together with their *distance-1 neighbours*
    /// (one input bit flipped), the CEX-amplification technique of
    /// Mishchenko et al. (ICCAD'06) cited in the paper's Discussion:
    /// every CEX yields a full 64-pattern word — the CEX itself plus 63
    /// single-bit flips (deterministically chosen from `seed` when the
    /// network has more than 63 PIs).
    ///
    /// Returns `None` if `cexs` is empty.
    pub fn from_cexs_distance1(aig: &Aig, cexs: &[Cex], seed: u64) -> Option<Self> {
        if cexs.is_empty() {
            return None;
        }
        let num_pis = aig.num_pis();
        let num_words = cexs.len();
        let mut rng = parsweep_aig::random::SplitMix64::new(seed);
        let mut data = vec![0u64; num_pis * num_words];
        for (w, cex) in cexs.iter().enumerate() {
            let dense = cex.to_dense(aig);
            // Choose the flip position for each of the 63 neighbour slots.
            let flip_at: Vec<usize> = (0..63)
                .map(|k| {
                    if num_pis <= 63 {
                        k % num_pis.max(1)
                    } else {
                        rng.below(num_pis)
                    }
                })
                .collect();
            for (i, &v) in dense.iter().enumerate() {
                let mut word = if v { u64::MAX } else { 0 };
                for (k, &pos) in flip_at.iter().enumerate() {
                    if pos == i {
                        word ^= 1u64 << (k + 1);
                    }
                }
                data[i * num_words + w] = word;
            }
        }
        Some(Patterns {
            num_pis,
            num_words,
            data,
        })
    }

    /// Builds patterns from raw PI-major words.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != num_pis * num_words`.
    pub fn from_raw(num_pis: usize, num_words: usize, data: Vec<u64>) -> Self {
        assert_eq!(data.len(), num_pis * num_words, "raw pattern size mismatch");
        Patterns {
            num_pis,
            num_words,
            data,
        }
    }

    /// Appends another pattern set in place — the refinement loop's
    /// per-round CEX injection.
    ///
    /// The storage is PI-major, so each PI's word run is moved to its new
    /// offset (back to front, sources still intact) and `other`'s words
    /// are spliced in behind it.
    ///
    /// # Panics
    ///
    /// Panics if the PI counts differ.
    pub fn extend(&mut self, other: &Patterns) {
        assert_eq!(self.num_pis, other.num_pis, "PI counts differ");
        let (w1, w2) = (self.num_words, other.num_words);
        if w2 == 0 {
            return;
        }
        let total = w1 + w2;
        self.data.resize(self.num_pis * total, 0);
        for pi in (0..self.num_pis).rev() {
            self.data.copy_within(pi * w1..pi * w1 + w1, pi * total);
            self.data[pi * total + w1..(pi + 1) * total]
                .copy_from_slice(&other.data[pi * w2..(pi + 1) * w2]);
        }
        self.num_words = total;
    }

    /// Number of PIs covered.
    pub fn num_pis(&self) -> usize {
        self.num_pis
    }

    /// Number of 64-bit words per PI.
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// Word `w` of PI index `pi`.
    #[inline]
    pub fn word(&self, pi: usize, w: usize) -> u64 {
        self.data[pi * self.num_words + w]
    }
}

/// Per-node simulation signatures: `num_words` words per covered node in
/// one column layout (level-major, in schedule order), plus a cached
/// canonical-hash column (one word per node) filled by the simulation
/// kernel so class bucketing never rehashes signatures on the host.
///
/// Column 0 of the value buffer is never written: every var the run did
/// not cover (dead nodes of a live-cone run) maps to it and reads as
/// zero words. The buffers are leased from the executor's pools
/// (`parsweep_par::BufferArena`), so dropping a `Signatures` recycles
/// them: a table that fit its budget keeps the device lease it was
/// simulated in, one that did not lives in host staging (see
/// [`simulate_cone`]). Accessors cannot tell the two apart.
#[derive(Clone, Debug)]
pub struct Signatures {
    num_words: usize,
    /// Column of each var in `data`, shared with the schedule that
    /// produced the table (0 = uncovered).
    cols: Arc<Vec<u32>>,
    data: PooledBuf<u64>,
    hashes: PooledBuf<u64>,
}

/// FNV-1a over phase-canonicalized signature words — the shared hash used
/// by the simulation kernel (cache fill), [`Signatures::canonical_hash`]
/// and the class refiner, so every path buckets identically.
pub fn hash_canonical_words(words: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The cached hash of an all-zero signature (canonical form all-zero):
/// the constant node's hash, host-seeded so proved-constant candidates
/// bucket against it even when no task covers var 0.
fn hash_zero_signature(num_words: usize) -> u64 {
    hash_canonical_words((0..num_words).map(|_| 0u64))
}

impl Signatures {
    /// Number of words per node.
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// The signature (non-complemented value words) of a variable; zero
    /// words for a variable the run did not cover.
    #[inline]
    pub fn sig(&self, var: Var) -> &[u64] {
        let off = self.cols[var.index()] as usize * self.num_words;
        &self.data[off..off + self.num_words]
    }

    /// The phase of a variable: the value of its first simulated bit.
    ///
    /// Signatures canonicalized by phase cluster a node and its complement
    /// into the same equivalence class, ABC-style.
    #[inline]
    pub fn phase(&self, var: Var) -> bool {
        self.sig(var)[0] & 1 == 1
    }

    /// Returns an iterator over the phase-canonicalized signature words of
    /// a variable (complemented so the first bit is zero).
    pub fn canonical(&self, var: Var) -> impl Iterator<Item = u64> + '_ {
        let mask = if self.phase(var) { u64::MAX } else { 0 };
        self.sig(var).iter().map(move |&w| w ^ mask)
    }

    /// A 64-bit hash of the canonical signature, for fast class bucketing.
    ///
    /// Served from the cached column the simulation kernel filled — no
    /// per-call rehash. The cache is valid for the constant node and
    /// every node the run covered; uncovered nodes carry the zeroed-buffer
    /// sentinel.
    #[inline]
    pub fn canonical_hash(&self, var: Var) -> u64 {
        self.hashes[var.index()]
    }
}

/// One unit of per-level work in the simulation driver.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Task {
    /// Evaluate the node from its fanins (or pattern words).
    Eval(Var),
    /// Copy the donor table's words for `Lit` (complement folded in) into
    /// the node's column — the dirty-cone resimulator's clean path.
    Copy(Var, Lit),
}

impl Task {
    pub(crate) fn var(self) -> Var {
        match self {
            Task::Eval(v) | Task::Copy(v, _) => v,
        }
    }
}

/// A level-ordered task list: the one shape full simulation, live-cone
/// simulation and dirty-cone resimulation all hand to [`run_schedule`].
/// Every fanin of an `Eval` task must be scheduled on a lower level.
#[derive(Debug)]
pub(crate) struct Schedule {
    tasks: Vec<Task>,
    /// `tasks[starts[l]..starts[l + 1]]` is level `l`.
    starts: Vec<usize>,
    /// Table column of each var: one past its position in `tasks`
    /// (0 = not scheduled).
    cols: Arc<Vec<u32>>,
}

impl Schedule {
    /// Counting-sorts `tasks` by the topological level of their target
    /// (`levels` covers every node of the network).
    pub(crate) fn by_level(levels: &[u32], tasks: impl Iterator<Item = Task> + Clone) -> Self {
        let level = |t: Task| levels[t.var().index()] as usize;
        let mut starts = vec![0usize];
        for t in tasks.clone() {
            let l = level(t);
            if starts.len() < l + 2 {
                starts.resize(l + 2, 0);
            }
            starts[l + 1] += 1;
        }
        for l in 1..starts.len() {
            starts[l] += starts[l - 1];
        }
        let mut cursor = starts.clone();
        let mut sorted = vec![Task::Eval(Var::FALSE); starts[starts.len() - 1]];
        let mut cols = vec![0u32; levels.len()];
        for t in tasks {
            let at = &mut cursor[level(t)];
            sorted[*at] = t;
            *at += 1;
            cols[t.var().index()] = *at as u32;
        }
        Schedule {
            tasks: sorted,
            starts,
            cols: Arc::new(cols),
        }
    }

    /// Every node of `aig`, evaluated.
    pub(crate) fn full(aig: &Aig) -> Self {
        let nodes = (0..aig.num_nodes() as u32).map(|i| Task::Eval(Var::new(i)));
        Schedule::by_level(&aig.levels(), nodes)
    }

    pub(crate) fn num_levels(&self) -> usize {
        self.starts.len() - 1
    }

    pub(crate) fn level(&self, l: usize) -> &[Task] {
        &self.tasks[self.starts[l]..self.starts[l + 1]]
    }
}

/// Simulates all nodes of `aig` on the given patterns, level-parallel,
/// under the default table budget ([`DEFAULT_MEMORY_WORDS`]).
///
/// The kernel structure mirrors the paper's partial simulator: nodes of
/// one topological level are one kernel launch. All level launches are
/// queued on one [`parsweep_par::Stream`] (program order on a stream is
/// an ordering edge, so each level sees its fanin levels' words).
pub fn simulate(aig: &Aig, exec: &Executor, patterns: &Patterns) -> Signatures {
    simulate_cone(aig, exec, patterns, None, DEFAULT_MEMORY_WORDS).0
}

/// The general partial simulator: simulates the TFI cone of `live` (all
/// of `aig` when `None`) with at most `budget_words` table words
/// device-resident, and returns the table with the number of nodes it
/// covered.
///
/// After the first refinement round most of a miter is dead weight: only
/// nodes feeding a still-undecided candidate can influence a class split,
/// so each level launch is restricted to cone members and levels whose
/// cone slice is empty launch nothing at all. Nodes outside the cone read
/// as zero words **and** a zero hash sentinel: the table is only
/// meaningful for cone members and the constant node. Derive classes with
/// [`crate::signature_classes_among`] over (a subset of) `live`, never
/// with the full [`crate::signature_classes`].
///
/// `budget_words` is the paper's simulation-memory budget `M`. A table of
/// `covered × num_words` words that fits is simulated in place; a larger
/// one streams through a window of levels, each retired to host staging
/// once its last reader has run and the next level would overshoot the
/// budget, and ends up in host staging. The budget is a target there: a
/// level is always resident together with the levels it still reads.
pub fn simulate_cone(
    aig: &Aig,
    exec: &Executor,
    patterns: &Patterns,
    live: Option<&[Var]>,
    budget_words: usize,
) -> (Signatures, usize) {
    let schedule = match live {
        None => Schedule::full(aig),
        Some(live) => {
            let cone = aig.tfi_cone(live);
            Schedule::by_level(&aig.levels(), cone.iter().map(|&v| Task::Eval(v)))
        }
    };
    let sigs = run_schedule(aig, exec, patterns, &schedule, None, budget_words);
    (sigs, schedule.tasks.len())
}

/// Executes a level schedule — the only partial-simulation driver.
/// [`Task::Copy`] entries read their donor columns from `donor`, which
/// must cover them.
///
/// If the table fits `budget_words` the slot buffer is the table: columns
/// sit in schedule order, nothing retires and no spill launch is issued.
/// Otherwise [`Window::plan`] bounds residency and every level is spilled
/// to host staging exactly once.
pub(crate) fn run_schedule(
    aig: &Aig,
    exec: &Executor,
    patterns: &Patterns,
    schedule: &Schedule,
    donor: Option<&Signatures>,
    budget_words: usize,
) -> Signatures {
    assert_eq!(
        patterns.num_pis(),
        aig.num_pis(),
        "pattern/PI count mismatch"
    );
    let w = patterns.num_words();
    let covered = schedule.tasks.len();
    let table_words = (covered + 1) * w;
    let window =
        (covered * w > budget_words).then(|| Window::plan(aig, schedule, budget_words / w));
    let slot_words = window.as_ref().map_or(table_words, |p| p.slot_cols * w);
    let slot_of: &[u32] = window.as_ref().map_or(&schedule.cols, |p| &p.slot_of);
    let mut slots = exec.arena().take::<u64>(slot_words);
    let mut staging = window
        .as_ref()
        .map(|_| exec.spill_pool().take::<u64>(table_words));
    let mut hashes = exec.arena().take::<u64>(aig.num_nodes());
    hashes[0] = hash_zero_signature(w);
    {
        // Effects per level launch: task t reads its fanins' columns
        // (earlier levels, ordered by the stream) and writes its own
        // column plus hash slot — data-dependent disjoint chunks,
        // declared so the whole level chain is statically verified and
        // skips dynamic sanitization.
        let table = EffectTable::new();
        let slot_buf = table.buffer("sim.partial.slots", slot_words);
        let hash_buf = table.buffer("sim.partial.hashes", aig.num_nodes());
        let cells = &exec.bind_table(&table, slot_buf, &mut slots);
        let hcells = &exec.bind_table(&table, hash_buf, &mut hashes);
        let staged = staging.as_mut().map(|s| {
            let buf = table.buffer("sim.partial.staging", table_words);
            (buf, exec.bind_table(&table, buf, s))
        });
        let spill = window.as_ref().zip(staged.as_ref());
        let all_slots = Pattern::Indexed {
            lo: 0,
            hi: slot_words,
        };
        let eval_effects = [
            Effect::read(slot_buf, all_slots),
            Effect::write(slot_buf, all_slots),
            Effect::write(
                hash_buf,
                Pattern::Indexed {
                    lo: 0,
                    hi: aig.num_nodes(),
                },
            ),
        ];
        let mut stream = exec.stream();
        for g in 0..schedule.num_levels() {
            let group = schedule.level(g);
            stream.launch_declared(
                &table,
                "sim.partial.level",
                group.len(),
                &eval_effects,
                move |t| eval_task(aig, group[t], t, w, patterns, donor, slot_of, cells, hcells),
            );
            // Retire the levels the plan frees here: one spill launch
            // each, per-thread strided columns declared exactly. The
            // freed slot interval may be reused by a later level — sound
            // because launches on one stream are ordered.
            let Some((plan, (stage_buf, scells))) = spill else {
                continue;
            };
            for &l in &plan.retire_after[g] {
                let Some(first) = schedule.level(l).first() else {
                    continue;
                };
                let n = schedule.level(l).len();
                let slot_lo = slot_of[first.var().index()] as usize * w;
                let stage_lo = schedule.cols[first.var().index()] as usize * w;
                let column = |base| Pattern::Affine {
                    base,
                    stride: w,
                    span: w,
                };
                let spill_effects = [
                    Effect::read(slot_buf, column(slot_lo)),
                    Effect::write(*stage_buf, column(stage_lo)),
                ];
                stream.launch_declared(&table, "sim.window.spill", n, &spill_effects, move |t| {
                    for k in 0..w {
                        // SAFETY: the slot words were written by earlier
                        // launches on this stream; each tid copies its
                        // own column into its own staging column.
                        unsafe {
                            let word = cells.read(t, slot_lo + t * w + k);
                            scells.write(t, stage_lo + t * w + k, word);
                        }
                    }
                });
                exec.note_window_spill((n * w * 8) as u64);
                let c = trace::metrics::sim_counters();
                SimCounters::add(&c.window_spills, 1);
                SimCounters::add(&c.window_spilled_words, (n * w) as u64);
            }
        }
        stream.sync();
    }
    Signatures {
        num_words: w,
        cols: Arc::clone(&schedule.cols),
        data: staging.unwrap_or(slots),
        hashes,
    }
}

/// One task of a level launch: computes the node's `w` signature words
/// from its fanins' columns (or the pattern words for a PI, or the donor
/// table for a copy), writes them to the node's own column and fills its
/// canonical-hash cache slot.
///
/// Launch-ordering contract (the caller's obligation): every fanin of an
/// evaluated node was written by an *earlier launch on the same stream*
/// and is still resident at `slot_of`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn eval_task(
    aig: &Aig,
    task: Task,
    t: usize,
    w: usize,
    patterns: &Patterns,
    donor: Option<&Signatures>,
    slot_of: &[u32],
    cells: &DeviceSlice<'_, u64>,
    hcells: &DeviceSlice<'_, u64>,
) {
    let v = task.var();
    let slot = |v: Var| slot_of[v.index()] as usize * w;
    let base = slot(v);
    let mut mask = 0;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    // The FNV step over the phase-canonicalized word, phase taken from
    // the first word's first bit (must match `hash_canonical_words`).
    let mut emit = |k: usize, word: u64| {
        if k == 0 {
            mask = if word & 1 == 1 { u64::MAX } else { 0 };
        }
        h ^= word ^ mask;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        // SAFETY: each task writes only its own column.
        unsafe { cells.write(t, base + k, word) };
    };
    match task {
        Task::Copy(_, old_lit) => {
            let old = donor.expect("Copy tasks need a donor table");
            let flip = if old_lit.is_complemented() {
                u64::MAX
            } else {
                0
            };
            // The donor table is a read-only host buffer.
            for (k, &word) in old.sig(old_lit.var()).iter().enumerate() {
                emit(k, word ^ flip);
            }
        }
        Task::Eval(_) => match aig.node(v) {
            // Slots are recycled across levels, so zeroing is explicit.
            Node::Const => (0..w).for_each(|k| emit(k, 0)),
            Node::Input(pi) => (0..w).for_each(|k| emit(k, patterns.word(pi as usize, k))),
            Node::And(a, b) => {
                let ma = if a.is_complemented() { u64::MAX } else { 0 };
                let mb = if b.is_complemented() { u64::MAX } else { 0 };
                let (sa, sb) = (slot(a.var()), slot(b.var()));
                for k in 0..w {
                    // SAFETY: fanin columns were written by earlier
                    // launches on this stream and stay resident until
                    // their last reader (this launch at the latest) ran.
                    let (wa, wb) = unsafe { (cells.read(t, sa + k), cells.read(t, sb + k)) };
                    emit(k, (wa ^ ma) & (wb ^ mb));
                }
            }
        },
    }
    // SAFETY: each task writes only its own hash slot.
    unsafe { hcells.write(t, v.index(), h) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsweep_aig::Aig;

    fn exec() -> Executor {
        Executor::with_threads(2)
    }

    #[test]
    fn simulation_matches_reference_eval() {
        let aig = parsweep_aig::random::random_aig(6, 40, 3, 11);
        let patterns = Patterns::random(6, 2, 5);
        let sigs = simulate(&aig, &exec(), &patterns);
        // Check 128 patterns against the slow evaluator.
        for p in 0..128usize {
            let bits: Vec<bool> = (0..6)
                .map(|i| patterns.word(i, p / 64) >> (p % 64) & 1 == 1)
                .collect();
            let values = aig.eval_nodes(&bits);
            for (v, &expect) in values.iter().enumerate() {
                let var = Var::new(v as u32);
                let got = sigs.sig(var)[p / 64] >> (p % 64) & 1 == 1;
                assert_eq!(got, expect, "node {v} pattern {p}");
            }
        }
    }

    #[test]
    fn canonical_signature_merges_complements() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let f = aig.and(xs[0], xs[1]);
        aig.add_po(f);
        let patterns = Patterns::random(2, 1, 3);
        let sigs = simulate(&aig, &exec(), &patterns);
        // x and !x canonicalize identically.
        let v = f.var();
        let canon: Vec<u64> = sigs.canonical(v).collect();
        assert_eq!(canon[0] & 1, 0, "canonical signature starts with 0");
        let _ = sigs.canonical_hash(v);
    }

    #[test]
    fn cex_patterns_contain_the_cex() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(3);
        aig.add_po(xs[0]);
        let cex = Cex::from_sparse(&aig, &[(xs[0].var(), true), (xs[2].var(), true)]);
        let p = Patterns::from_cexs(&aig, &[cex]).unwrap();
        assert_eq!(p.num_words(), 1);
        // Bit 0 of PI 0 and PI 2 set; PI 1 zero.
        assert_eq!(p.word(0, 0) & 1, 1);
        assert_eq!(p.word(1, 0) & 1, 0);
        assert_eq!(p.word(2, 0) & 1, 1);
    }

    #[test]
    fn distance1_patterns_contain_cex_and_neighbours() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(4);
        aig.add_po(xs[0]);
        let cex = Cex::new(vec![true, false, true, false]);
        let p = Patterns::from_cexs_distance1(&aig, std::slice::from_ref(&cex), 1).unwrap();
        assert_eq!(p.num_words(), 1);
        // Bit 0 is the CEX itself.
        for i in 0..4 {
            assert_eq!(p.word(i, 0) & 1 == 1, cex.to_dense(&aig)[i]);
        }
        // Every other bit position differs from the CEX in exactly one PI.
        for bit in 1..64 {
            let diff: usize = (0..4)
                .filter(|&i| (p.word(i, 0) >> bit & 1 == 1) != cex.to_dense(&aig)[i])
                .count();
            assert_eq!(diff, 1, "bit {bit}");
        }
    }

    #[test]
    fn extend_appends_words_pi_major() {
        let a = Patterns::from_raw(2, 2, vec![1, 2, 3, 4]);
        let b = Patterns::from_raw(2, 1, vec![9, 8]);
        let mut ext = a;
        ext.extend(&b);
        assert_eq!(ext.num_words(), 3);
        // PI 0: [1, 2] ++ [9]; PI 1: [3, 4] ++ [8].
        assert_eq!(
            (0..3).map(|w| ext.word(0, w)).collect::<Vec<_>>(),
            vec![1, 2, 9]
        );
        assert_eq!(
            (0..3).map(|w| ext.word(1, w)).collect::<Vec<_>>(),
            vec![3, 4, 8]
        );
    }

    #[test]
    fn cone_simulation_covers_only_the_live_cone() {
        // Two independent cones; keep only one alive.
        let mut aig = Aig::new();
        let xs = aig.add_inputs(4);
        let f = aig.and(xs[0], xs[1]);
        let g = aig.and(xs[2], xs[3]);
        aig.add_po(f);
        aig.add_po(g);
        let patterns = Patterns::random(4, 2, 5);
        let full = simulate(&aig, &exec(), &patterns);
        // Same table whether it fits the budget or streams through it.
        for budget in [DEFAULT_MEMORY_WORDS, 1] {
            let (cone, covered) = simulate_cone(&aig, &exec(), &patterns, Some(&[f.var()]), budget);
            // Cone of f: x0, x1, f.
            assert_eq!(covered, 3);
            assert_eq!(cone.sig(f.var()), full.sig(f.var()));
            assert_eq!(cone.canonical_hash(f.var()), full.canonical_hash(f.var()));
            // The dead cone was never launched: zero words, zero-hash
            // sentinel; the constant node's hash is seeded regardless.
            assert!(cone.sig(g.var()).iter().all(|&w| w == 0));
            assert_eq!(cone.canonical_hash(g.var()), 0);
            assert_eq!(
                cone.canonical_hash(Var::FALSE),
                full.canonical_hash(Var::FALSE)
            );
        }
    }

    /// `depth` layers of `width` ANDs, each reading only the layer below.
    fn ladder(width: usize, depth: usize) -> Aig {
        let mut aig = Aig::new();
        let mut layer = aig.add_inputs(width);
        for _ in 0..depth {
            layer = (0..width)
                .map(|j| aig.and(layer[j], !layer[(j + 1) % width]))
                .collect();
        }
        for f in layer {
            aig.add_po(f);
        }
        aig
    }

    #[test]
    fn a_table_that_fits_never_spills_and_one_that_does_not_spills_every_level_once() {
        let aig = ladder(8, 30);
        let patterns = Patterns::random(8, 2, 9);
        let fits = exec();
        let a = simulate(&aig, &fits, &patterns);
        assert_eq!(fits.stats().window_spills, 0);
        assert_eq!(fits.stats().spill_peak_bytes, 0);
        let tight = exec();
        let (b, covered) = simulate_cone(&aig, &tight, &patterns, None, 8 * 2 * 2);
        assert_eq!(covered, aig.num_nodes());
        assert_eq!(tight.stats().window_spills, 31, "31 levels, one spill each");
        assert_eq!(
            tight.stats().window_spill_bytes,
            (aig.num_nodes() * 2 * 8) as u64
        );
        assert!(
            tight.stats().arena_peak_live_bytes < fits.stats().arena_peak_live_bytes,
            "the window must hold less than the whole table"
        );
        for v in (0..aig.num_nodes()).map(|i| Var::new(i as u32)) {
            assert_eq!(a.sig(v), b.sig(v));
            assert_eq!(a.canonical_hash(v), b.canonical_hash(v));
        }
    }

    #[test]
    fn no_cexs_gives_none() {
        let mut aig = Aig::new();
        aig.add_inputs(1);
        assert!(Patterns::from_cexs(&aig, &[]).is_none());
        assert!(Patterns::from_cexs_distance1(&aig, &[], 0).is_none());
    }

    #[test]
    fn equal_functions_have_equal_signatures() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let f = aig.xor(xs[0], xs[1]);
        // XNOR: complement of XOR.
        let t0 = aig.and(xs[0], xs[1]);
        let t1 = aig.and(!xs[0], !xs[1]);
        let g = aig.or(t0, t1);
        aig.add_po(f);
        aig.add_po(g);
        let patterns = Patterns::random(2, 4, 17);
        let sigs = simulate(&aig, &exec(), &patterns);
        // XOR node and XNOR node have complementary signatures, hence
        // identical canonical forms.
        let cf: Vec<u64> = sigs.canonical(f.var()).collect();
        let cg: Vec<u64> = sigs.canonical(g.var()).collect();
        // f = or(...) is stored complemented relative to its var; compare
        // canonical forms of the actual functions instead of raw vars.
        assert_eq!(cf, cg);
        assert_eq!(sigs.canonical_hash(f.var()), sigs.canonical_hash(g.var()));
    }
}
