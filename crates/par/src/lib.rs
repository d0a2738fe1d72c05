//! # parsweep-par — data-parallel kernel-launch executor
//!
//! The paper implements its CEC engine as CUDA kernels on an NVIDIA GPU.
//! This crate is the substitution substrate: it exposes the same
//! *kernel-launch* programming model — "run this closure for thread ids
//! `0..n`" — backed by an OS thread pool (std scoped threads), so all
//! engine algorithms are written exactly as their GPU formulation
//! prescribes (word-parallel truth-table computation, level-wise node
//! batches, window batches).
//!
//! There is one way to run a kernel: declare what it touches, then launch
//! it. Buffers are named in an [`EffectTable`], storage is bound to a
//! declaration with [`Executor::bind_table`], and every launch
//! ([`Executor::launch_declared`]) carries its read/write footprints as
//! [`Effect`]s. The static checker proves the footprints in bounds and
//! race-free before anything runs and panics otherwise; a launch runs in
//! parallel only with that proof. Every launch is eager and a barrier:
//! it returns when all its threads finished, so each launch sees the
//! writes of every earlier one.
//!
//! Every launch is recorded, so the *parallel work profile* of a run — how
//! many kernels were launched and how wide they were — can be inspected
//! and used to model speedups on wider machines than the host (see
//! [`LaunchStats::modeled_time`]).
//!
//! ```
//! use parsweep_par::{Effect, EffectTable, Executor, Pattern};
//! let exec = Executor::with_threads(2);
//! let table = EffectTable::new();
//! let out = table.buffer("squares", 8);
//! let mut squares = vec![0u64; 8];
//! {
//!     let cells = exec.bind_table(&table, out, &mut squares);
//!     let own = Pattern::Affine { base: 0, stride: 1, span: 1 };
//!     exec.launch_declared(&table, "square", 8, &[Effect::write(out, own)], |tid| {
//!         // SAFETY: each tid writes its own slot, as declared.
//!         unsafe { cells.write(tid, tid, (tid * tid) as u64) }
//!     });
//! }
//! assert_eq!(squares[3], 9);
//! let stats = exec.stats();
//! // Width 8 is below the inline threshold: the launch ran on the
//! // calling thread instead of being dispatched to the pool, and is
//! // counted in `inline_launches` rather than `launches`.
//! assert_eq!(stats.launches, 0);
//! assert_eq!(stats.inline_launches, 1);
//! assert_eq!(stats.total_launches(), 1);
//! assert_eq!(stats.total_threads, 8);
//! ```
//!
//! ## Small-launch fast path
//!
//! Dispatching a launch to the worker pool costs a `thread::scope`
//! spawn/join — hundreds of microseconds of fixed overhead, which for
//! the narrow per-level launches of a sweeping round dwarfs the work
//! itself (the launch-bound cases of `BENCH_runtime.json`). Launches
//! narrower than [`DEFAULT_INLINE_THRESHOLD`] therefore run *inline* on
//! the issuing thread. They are counted separately in
//! [`LaunchStats::inline_launches`] — `launches` counts pool dispatches —
//! but remain full launches everywhere else: the sanitizer audits them,
//! and they are charged to the width histograms and the modeled critical
//! path exactly like dispatched launches (inlining changes where a kernel
//! runs on the *host*, not the modeled device cost).
//!
//! ## Kernel sanitizer
//!
//! Kernels access shared buffers through [`DeviceSlice`] under an
//! unchecked "each tid owns its slot" discipline — the executor-model
//! analogue of the raw device pointers CUDA kernels receive, and the same
//! class of bug `compute-sanitizer --tool racecheck` exists for. The
//! static proof covers the *declaration*; whether the kernel keeps to it
//! is what a sanitizing executor ([`Executor::with_sanitizer`], or any
//! executor when the `PARSWEEP_SANITIZE` environment variable is set)
//! audits. It runs every launch serialized, logs every access, and
//! reports accesses outside the declared footprints, write–write and
//! read–write hazards between distinct tids and out-of-bounds accesses —
//! with the kernel label, launch ordinal and conflicting tids. The same
//! analysis is the reference the static checker is tested against: a
//! kernel declared as loosely as the grammar allows
//! (`Effect::atomic(buf, Pattern::All)` is statically clean and covers
//! every access) is judged by the access log alone:
//!
//! ```
//! use parsweep_par::{
//!     ConflictKind, Effect, EffectTable, Executor, Pattern, SanitizerConfig,
//! };
//! let exec = Executor::with_sanitizer_config(
//!     2,
//!     SanitizerConfig { fail_fast: false, ..SanitizerConfig::default() },
//! );
//! let table = EffectTable::new();
//! let id = table.buffer("buf", 4);
//! let mut buf = vec![0u32; 4];
//! {
//!     let cells = exec.bind_table(&table, id, &mut buf);
//!     // Every tid writes slot 0: a write-write race on a real GPU.
//!     exec.launch_declared(&table, "racy", 4, &[Effect::atomic(id, Pattern::All)], |tid| {
//!         // SAFETY: intentionally violates the disjoint-slot discipline
//!         // to demonstrate detection; the sanitizer serializes execution
//!         // so the race is logged, not physically exercised.
//!         unsafe { cells.write(tid, 0, tid as u32) }
//!     });
//! }
//! let reports = exec.take_reports();
//! assert_eq!(reports.len(), 1);
//! assert_eq!(reports[0].kernel, "racy");
//! assert!(matches!(reports[0].kind, ConflictKind::WriteWrite { .. }));
//! ```

#![warn(missing_docs)]

mod arena;
mod cancel;
mod effects;
mod sanitizer;

pub use arena::{ArenaStats, BufferArena, PooledBuf};
pub use cancel::CancelToken;
pub use effects::{BufId, Effect, EffectKind, EffectTable, Pattern, StaticHazard};
pub use sanitizer::{AccessKind, ConflictKind, RaceReport, SanitizerConfig};

use parsweep_trace as trace;
use sanitizer::Sanitizer;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Number of log2-width buckets retained in [`LaunchStats`]'s launch-width
/// histogram (bucket `b` counts launches of width `w` with
/// `floor(log2(w)) == b`).
pub const WIDTH_BUCKETS: usize = 64;

/// Aggregate statistics over all kernel launches of an [`Executor`].
///
/// `launches` counts launches dispatched to the worker pool and
/// `inline_launches` those run inline on the issuing thread (the
/// small-launch fast path); their sum [`LaunchStats::total_launches`] is
/// the sequential dependency chain length (every launch is a barrier).
/// `total_threads` is the total data-parallel work; `widest` is the
/// largest single launch. The per-launch widths are additionally retained
/// in a bounded log2 histogram so [`LaunchStats::modeled_time`] can cost non-uniform launch
/// profiles accurately; inline launches land in the same histograms (the
/// fast path changes host dispatch, not modeled device cost).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchStats {
    /// Kernel launches dispatched to the worker pool (widths at or above
    /// [`DEFAULT_INLINE_THRESHOLD`]).
    pub launches: u64,
    /// Kernel launches below the inline threshold, run on the issuing
    /// thread instead of the pool. Same modeled cost, no dispatch
    /// overhead.
    pub inline_launches: u64,
    /// Sum of the widths of all launches (total parallel work items).
    pub total_threads: u64,
    /// Width of the widest launch.
    pub widest: u64,
    /// Launch counts bucketed by `floor(log2(width))`.
    pub width_counts: [u64; WIDTH_BUCKETS],
    /// Sum of launch widths per bucket.
    pub width_sums: [u64; WIDTH_BUCKETS],
    /// Launches that ran on the parallel path on the strength of their
    /// static effect proof: every launch of a raw executor, none of a
    /// sanitizing one (which serializes and audits them instead).
    pub static_verified_launches: u64,
    /// [`BufferArena`] takes served from a pool (no allocation).
    pub arena_hits: u64,
    /// [`BufferArena`] takes that allocated a fresh buffer.
    pub arena_misses: u64,
    /// High-water mark of the arena footprint in bytes.
    pub arena_peak_bytes: u64,
    /// High-water mark of *live* (checked-out) arena bytes. Unlike
    /// `arena_peak_bytes` this is not floored at the pooled footprint of
    /// earlier workloads in the same process, so it is the honest
    /// per-workload device-memory demand after [`Executor::reset_stats`].
    pub arena_peak_live_bytes: u64,
    /// High-water mark of live bytes in the executor's *spill* pool —
    /// the host-staging tier windowed signature streaming retires
    /// columns to. Deliberately a separate pool from the device arena:
    /// on the modeled GPU these bytes live in pinned host memory, not
    /// device memory.
    pub spill_peak_bytes: u64,
    /// Signature-column spill events (level retirements) recorded by
    /// windowed streaming.
    pub window_spills: u64,
    /// Total bytes moved device→spill tier by those retirements.
    pub window_spill_bytes: u64,
}

impl Default for LaunchStats {
    fn default() -> Self {
        LaunchStats {
            launches: 0,
            inline_launches: 0,
            total_threads: 0,
            widest: 0,
            width_counts: [0; WIDTH_BUCKETS],
            width_sums: [0; WIDTH_BUCKETS],
            static_verified_launches: 0,
            arena_hits: 0,
            arena_misses: 0,
            arena_peak_bytes: 0,
            arena_peak_live_bytes: 0,
            spill_peak_bytes: 0,
            window_spills: 0,
            window_spill_bytes: 0,
        }
    }
}

impl LaunchStats {
    /// Models the execution time, in abstract work units, of this launch
    /// profile on a machine with `cores` parallel lanes: each launch of
    /// width `w` costs `ceil(w / cores)` units, mirroring how a GPU
    /// schedules thread blocks over SMs. Every launch is a barrier, so
    /// the launches add up: this is the critical path and the serialized
    /// cost at once, and [`LaunchStats::serialized_time`] is the same
    /// figure.
    ///
    /// Per-launch widths are costed from the log2 width histogram, so the
    /// result is exact whenever the launches that share a bucket share a
    /// width (the common case: level batches of equal size), and never
    /// below the uniform lower bound `max(ceil(total/cores), launches)`
    /// otherwise. Stats assembled by hand without histogram entries fall
    /// back to that lower bound.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn modeled_time(&self, cores: u64) -> u64 {
        assert!(cores > 0, "modeled machine needs at least one core");
        let histogrammed: u64 = self.width_counts.iter().sum();
        if histogrammed < self.total_launches() {
            // Histogram not populated: the pre-histogram lower bound.
            return (self.total_threads.div_ceil(cores)).max(self.total_launches());
        }
        self.width_counts
            .iter()
            .zip(&self.width_sums)
            .map(|(&count, &sum)| {
                if count == 0 {
                    0
                } else if sum % count == 0 {
                    // Uniform bucket: every launch has width sum/count.
                    count * (sum / count).div_ceil(cores)
                } else {
                    (sum.div_ceil(cores)).max(count)
                }
            })
            .sum()
    }

    /// The cost of this profile with every launch serialized — equal to
    /// [`LaunchStats::modeled_time`], since every launch is a barrier.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn serialized_time(&self, cores: u64) -> u64 {
        self.modeled_time(cores)
    }

    /// Total launches regardless of dispatch path: pool-dispatched
    /// (`launches`) plus inline (`inline_launches`).
    pub fn total_launches(&self) -> u64 {
        self.launches + self.inline_launches
    }

    /// The maximum speedup this profile admits (Amdahl-style): total work
    /// divided by the launch-count critical path.
    pub fn max_speedup(&self) -> f64 {
        if self.total_launches() == 0 {
            1.0
        } else {
            self.total_threads as f64 / self.total_launches() as f64
        }
    }

    /// Accumulates another profile into this one — used to aggregate the
    /// per-worker executors of a service fleet into one metrics source.
    /// Counters and histograms add; `widest` and the arena high-water
    /// mark take the max (the arenas are independent pools).
    pub fn merge(&mut self, other: &LaunchStats) {
        self.launches += other.launches;
        self.inline_launches += other.inline_launches;
        self.total_threads += other.total_threads;
        self.widest = self.widest.max(other.widest);
        for b in 0..WIDTH_BUCKETS {
            self.width_counts[b] += other.width_counts[b];
            self.width_sums[b] += other.width_sums[b];
        }
        self.static_verified_launches += other.static_verified_launches;
        self.arena_hits += other.arena_hits;
        self.arena_misses += other.arena_misses;
        self.arena_peak_bytes = self.arena_peak_bytes.max(other.arena_peak_bytes);
        self.arena_peak_live_bytes = self.arena_peak_live_bytes.max(other.arena_peak_live_bytes);
        self.spill_peak_bytes = self.spill_peak_bytes.max(other.spill_peak_bytes);
        self.window_spills += other.window_spills;
        self.window_spill_bytes += other.window_spill_bytes;
    }
}

/// A data-parallel executor with the GPU kernel-launch programming model.
///
/// [`Executor::launch_declared`] runs `kernel(tid)` for every
/// `tid in 0..n`, in parallel over a pool of OS threads, and returns when
/// all work items finished: a launch is a synchronization barrier, so it
/// sees every write of the launches before it.
///
/// An executor is either *raw* — launches run in parallel on the strength
/// of their static effect proof — or *sanitizing* (see
/// [`Executor::with_sanitizer`]): every launch is serialized in tid order
/// while all [`DeviceSlice`] accesses are logged, audited against the
/// launch's declared footprints and analyzed for hazards, the
/// executor-model equivalent of running under
/// `compute-sanitizer --tool racecheck`.
///
/// `Executor` is `Send + Sync`: any number of threads may drive launches
/// on one shared executor. Raw launches synchronize only through the
/// stats mutex and the arena pools; audited launches take turns. (The audit
/// matches declared effects to bindings by buffer label, so threads
/// sharing a sanitizing executor must bind under distinct labels.)
#[derive(Debug)]
pub struct Executor {
    num_threads: usize,
    stats: Mutex<LaunchStats>,
    sanitizer: Option<Sanitizer>,
    arena: BufferArena,
    spill: BufferArena,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

/// True when the environment makes every executor sanitize:
/// `PARSWEEP_SANITIZE` set to anything but the empty string or `0`.
fn ambient_sanitize() -> bool {
    std::env::var_os("PARSWEEP_SANITIZE").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Width below which a launch runs inline on the issuing thread instead
/// of being dispatched to the worker pool. At typical pool sizes a
/// dispatch costs a `thread::scope` spawn/join; below a couple hundred
/// work items the per-item work never amortizes it.
pub const DEFAULT_INLINE_THRESHOLD: usize = 256;

impl Executor {
    /// Creates an executor sized to the machine's available parallelism.
    pub fn new() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(n)
    }

    /// Creates an executor with an explicit number of worker threads.
    ///
    /// The executor is raw unless the `PARSWEEP_SANITIZE` environment
    /// variable is set (to anything but `0`), in which case it sanitizes
    /// with the default [`SanitizerConfig`] — so an unmodified test suite
    /// can be run fully audited.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads == 0`.
    pub fn with_threads(num_threads: usize) -> Self {
        Self::build(
            num_threads,
            ambient_sanitize().then(SanitizerConfig::default),
        )
    }

    /// Creates a sanitizing executor with the default
    /// [`SanitizerConfig`] (fail-fast: the first launch with a detected
    /// hazard panics with the report).
    ///
    /// # Panics
    ///
    /// Panics if `num_threads == 0`.
    pub fn with_sanitizer(num_threads: usize) -> Self {
        Self::with_sanitizer_config(num_threads, SanitizerConfig::default())
    }

    /// Creates a sanitizing executor with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads == 0`.
    pub fn with_sanitizer_config(num_threads: usize, config: SanitizerConfig) -> Self {
        Self::build(num_threads, Some(config))
    }

    fn build(num_threads: usize, sanitizer: Option<SanitizerConfig>) -> Self {
        assert!(num_threads > 0, "executor needs at least one thread");
        Executor {
            num_threads,
            stats: Mutex::new(LaunchStats::default()),
            sanitizer: sanitizer.map(Sanitizer::new),
            arena: BufferArena::new(),
            spill: BufferArena::new(),
        }
    }

    /// True when this executor audits its launches under the dynamic
    /// sanitizer instead of running them in parallel.
    pub fn sanitizing(&self) -> bool {
        self.sanitizer.is_some()
    }

    /// Drains all accumulated sanitizer reports (empty when not
    /// sanitizing or when every launch was hazard-free).
    pub fn take_reports(&self) -> Vec<RaceReport> {
        self.sanitizer
            .as_ref()
            .map_or_else(Vec::new, Sanitizer::take_reports)
    }

    /// Returns the accumulated launch statistics, including the buffer
    /// arena's counters.
    pub fn stats(&self) -> LaunchStats {
        let mut s = *self.lock_stats();
        let a = self.arena.stats();
        s.arena_hits = a.hits;
        s.arena_misses = a.misses;
        s.arena_peak_bytes = a.peak_bytes;
        s.arena_peak_live_bytes = a.peak_live_bytes;
        s.spill_peak_bytes = self.spill.stats().peak_live_bytes;
        s
    }

    /// Resets the accumulated launch statistics and arena counters (the
    /// arena's pooled buffers stay pooled).
    pub fn reset_stats(&self) {
        *self.lock_stats() = LaunchStats::default();
        self.arena.reset_counters();
        self.spill.reset_counters();
    }

    /// The executor's pooled buffer arena — allocate round-lived device
    /// buffers through it so they are recycled instead of reallocated.
    pub fn arena(&self) -> &BufferArena {
        &self.arena
    }

    /// The executor's *spill* pool: host-staging buffers that windowed
    /// signature streaming retires columns into. Kept separate from
    /// [`Executor::arena`] so the gated device-memory peak reflects only
    /// the resident window, while spill-tier demand is reported through
    /// [`LaunchStats::spill_peak_bytes`].
    pub fn spill_pool(&self) -> &BufferArena {
        &self.spill
    }

    /// Records `bytes` moved device→spill tier by one window retirement.
    pub fn note_window_spill(&self, bytes: u64) {
        let mut s = self.lock_stats();
        s.window_spills += 1;
        s.window_spill_bytes += bytes;
    }

    fn lock_stats(&self) -> MutexGuard<'_, LaunchStats> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a launch of width `n` and returns its 1-based ordinal.
    /// Widths below the inline threshold count toward `inline_launches`
    /// instead of `launches`; everything else (histograms, widest) is
    /// dispatch-agnostic. On a raw executor the launch runs on the
    /// strength of its static proof and counts as statically verified.
    fn record(&self, n: usize) -> u64 {
        let mut s = self.lock_stats();
        if n < DEFAULT_INLINE_THRESHOLD {
            s.inline_launches += 1;
        } else {
            s.launches += 1;
        }
        s.total_threads += n as u64;
        s.widest = s.widest.max(n as u64);
        let bucket = (n as u64).ilog2() as usize;
        s.width_counts[bucket] += 1;
        s.width_sums[bucket] += n as u64;
        if self.sanitizer.is_none() {
            s.static_verified_launches += 1;
        }
        s.total_launches()
    }

    /// Binds a mutable slice as the storage of a buffer declared in an
    /// [`EffectTable`] — the only way to obtain a [`DeviceSlice`].
    ///
    /// On a raw executor the returned slice is a zero-cost wrapper over
    /// the slice's pointer; on a sanitizing executor it is registered
    /// under its declared label and every access through it is logged.
    /// Kernels must touch *only* buffers bound through this method from
    /// the table they are launched with (labels unique within it), or
    /// the static verdict does not cover all their accesses — which is
    /// exactly what a sanitizing executor audits.
    ///
    /// # Panics
    ///
    /// Panics if `slice.len()` differs from the declared length.
    pub fn bind_table<'a, T>(
        &'a self,
        table: &EffectTable,
        buf: BufId,
        slice: &'a mut [T],
    ) -> DeviceSlice<'a, T> {
        let declared = table.len_of(buf);
        assert_eq!(
            slice.len(),
            declared,
            "bind_table: slice length {} != declared length {declared}",
            slice.len()
        );
        let san = self.sanitizer.as_ref();
        DeviceSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            san,
            id: san.map_or(0, |s| s.register_buffer(&table.label_of(buf), declared)),
            _marker: std::marker::PhantomData,
        }
    }

    /// Launches a kernel over thread ids `0..n` and waits for
    /// completion. Its buffer accesses are declared as static
    /// [`Effect`]s over `table`.
    ///
    /// The static checker verifies the declarations at the exact width
    /// `n` *before* the launch runs — bounds against declared buffer
    /// lengths, write-write and read-write disjointness between threads
    /// — and panics on any hazard (on every executor: static analysis
    /// is always on, it costs nothing per element). On a raw executor
    /// the launch then runs in parallel, counted in
    /// [`LaunchStats::static_verified_launches`]; on a sanitizing one it
    /// runs serialized and every observed access is audited against the
    /// declarations.
    ///
    /// # Panics
    ///
    /// Panics with the [`StaticHazard`] report when the declared
    /// effects conflict or exceed a buffer's declared length.
    pub fn launch_declared<F>(
        &self,
        table: &EffectTable,
        label: &str,
        n: usize,
        effects: &[Effect],
        kernel: F,
    ) where
        F: Fn(usize) + Sync,
    {
        if n == 0 {
            return;
        }
        let buffers = table.snapshot();
        let hazards = effects::check_launch(label, n, effects, &buffers);
        assert!(
            hazards.is_empty(),
            "static effect check failed for `{label}`:\n{}",
            effects::hazard_report(&hazards)
        );
        let ordinal = self.record(n);
        let _span = trace::kernel_span(label, n);
        if let Some(san) = &self.sanitizer {
            san.run(label, ordinal, &buffers, effects, n, &kernel);
            return;
        }
        self.run_chunked(n, &kernel);
    }

    /// Runs `kernel` for tids `0..n` chunked over the worker pool.
    /// Widths below the inline threshold run on the calling thread — the
    /// fixed cost of a `thread::scope` dispatch dwarfs that little work.
    fn run_chunked<F>(&self, n: usize, kernel: &F)
    where
        F: Fn(usize) + Sync,
    {
        let workers = if n < DEFAULT_INLINE_THRESHOLD {
            1
        } else {
            self.num_threads.min(n)
        };
        if workers == 1 {
            for tid in 0..n {
                kernel(tid);
            }
            return;
        }
        let chunk = n.div_ceil(workers);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(n);
                scope.spawn(move || {
                    for tid in lo..hi {
                        kernel(tid);
                    }
                });
            }
        });
    }
}

/// A labeled view of a mutable slice allowing disjoint per-index access
/// from parallel kernels — the moral equivalent of a device buffer handed
/// to a GPU kernel.
///
/// Created with [`Executor::bind_table`]. On a raw executor every access
/// compiles down to a pointer offset; on a sanitizing executor every
/// access is logged as `(buffer, index, virtual tid, kind)`, audited
/// against the launch's declared effects and race-checked after the
/// launch.
///
/// ```
/// use parsweep_par::{Effect, EffectTable, Executor, Pattern};
/// let exec = Executor::with_threads(2);
/// let table = EffectTable::new();
/// let id = table.buffer("buf", 16);
/// let mut buf = vec![0u64; 16];
/// {
///     let cells = exec.bind_table(&table, id, &mut buf);
///     let own = Pattern::Affine { base: 0, stride: 1, span: 1 };
///     // SAFETY: each tid writes its own slot.
///     exec.launch_declared(&table, "triple", 16, &[Effect::write(id, own)], |tid| unsafe {
///         cells.write(tid, tid, tid as u64 * 3)
///     });
/// }
/// assert_eq!(buf[5], 15);
/// ```
pub struct DeviceSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    san: Option<&'a Sanitizer>,
    id: u32,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: access discipline is enforced by callers (each thread id touches
// a distinct index when writing), matching how GPU kernels use buffers;
// the sanitizer reference is behind a mutex.
unsafe impl<T: Send> Sync for DeviceSlice<'_, T> {}
// SAFETY: as above; a DeviceSlice is a (pointer, sanitizer handle) pair
// whose underlying slice is `Send` element-wise.
unsafe impl<T: Send> Send for DeviceSlice<'_, T> {}

impl<T> DeviceSlice<'_, T> {
    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `value` at `index` on behalf of virtual thread `tid`,
    /// dropping the old value.
    ///
    /// # Safety
    ///
    /// `index` must be in bounds, and no other thread may access `index`
    /// concurrently — within one launch, only `tid` may touch `index`.
    /// A sanitizing executor verifies both and reports violations instead
    /// of exhibiting them.
    pub unsafe fn write(&self, tid: usize, index: usize, value: T) {
        if let Some(san) = self.san {
            if !san.record_write(self.id, index, tid) {
                return; // out of bounds: reported, not performed
            }
        } else {
            debug_assert!(index < self.len);
        }
        // SAFETY: index is in bounds (caller contract; checked above when
        // sanitizing) and no concurrent access aliases this slot (caller
        // contract; sanitized launches are serialized).
        unsafe { *self.ptr.add(index) = value };
    }

    /// Reads the value at `index` on behalf of virtual thread `tid`.
    ///
    /// # Safety
    ///
    /// `index` must be in bounds and no concurrent write to `index` may
    /// happen. Reading a value written earlier in the *same* launch is
    /// only safe if the writer ordered before this read (e.g. same
    /// thread), as on a GPU; cross-tid same-launch reads are reported by
    /// the sanitizer as read–write hazards.
    pub unsafe fn read(&self, tid: usize, index: usize) -> T
    where
        T: Copy,
    {
        if let Some(san) = self.san {
            san.record_read(self.id, index, tid);
        } else {
            debug_assert!(index < self.len);
        }
        // SAFETY: index is in bounds (caller contract; the sanitizer
        // panics on OOB reads) and no write aliases this slot during the
        // read (caller contract; sanitized launches are serialized).
        unsafe { *self.ptr.add(index) }
    }

    /// Returns a shared reference to the element at `index` on behalf of
    /// virtual thread `tid`, for non-`Copy` element access.
    ///
    /// # Safety
    ///
    /// Same discipline as [`DeviceSlice::read`]: in bounds, and no
    /// concurrent write to `index` while the reference lives.
    pub unsafe fn get_ref(&self, tid: usize, index: usize) -> &T {
        if let Some(san) = self.san {
            san.record_read(self.id, index, tid);
        } else {
            debug_assert!(index < self.len);
        }
        // SAFETY: index is in bounds and no write aliases this slot while
        // the reference is live (caller contract, sanitizer-verified).
        unsafe { &*self.ptr.add(index) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const OWN: Pattern = Pattern::Affine {
        base: 0,
        stride: 1,
        span: 1,
    };

    /// A launch that touches no device buffer (empty declaration).
    fn launch(exec: &Executor, n: usize, kernel: impl Fn(usize) + Sync) {
        exec.launch_declared(&EffectTable::new(), "kernel", n, &[], kernel);
    }

    #[test]
    fn launch_covers_all_ids_once() {
        let exec = Executor::with_threads(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        launch(&exec, 1000, |tid| {
            hits[tid].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn launch_zero_is_noop() {
        let exec = Executor::with_threads(2);
        launch(&exec, 0, |_| panic!("must not run"));
        assert_eq!(exec.stats().total_launches(), 0);
    }

    #[test]
    fn stats_accumulate() {
        let exec = Executor::with_threads(2);
        launch(&exec, 10, |_| {});
        launch(&exec, 5, |_| {});
        let s = exec.stats();
        // Both launches are below the inline threshold: counted in
        // inline_launches, zero pool dispatches.
        assert_eq!(s.launches, 0);
        assert_eq!(s.inline_launches, 2);
        assert_eq!(s.total_launches(), 2);
        assert_eq!(s.total_threads, 15);
        assert_eq!(s.widest, 10);
        exec.reset_stats();
        assert_eq!(exec.stats(), LaunchStats::default());
    }

    #[test]
    fn inline_threshold_splits_the_launch_counters() {
        let exec = Executor::with_threads(2);
        launch(&exec, DEFAULT_INLINE_THRESHOLD - 1, |_| {});
        launch(&exec, DEFAULT_INLINE_THRESHOLD, |_| {});
        launch(&exec, 5000, |_| {});
        let s = exec.stats();
        assert_eq!(s.inline_launches, 1);
        assert_eq!(s.launches, 2);
        assert_eq!(s.total_launches(), 3);
        // The cost model is dispatch-agnostic: the histograms carry all
        // three launches.
        assert_eq!(s.serialized_time(1), 255 + 256 + 5000);
        assert_eq!(s.modeled_time(10_000), 3);
    }

    #[test]
    fn inline_launches_run_on_the_calling_thread() {
        let exec = Executor::with_threads(4);
        let caller = std::thread::current().id();
        let hits = AtomicUsize::new(0);
        launch(&exec, DEFAULT_INLINE_THRESHOLD - 1, |_| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "sub-threshold launch left the issuing thread"
            );
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), DEFAULT_INLINE_THRESHOLD - 1);
        assert_eq!(exec.stats().inline_launches, 1);
    }

    #[test]
    fn modeled_time_bounds_without_histogram() {
        // Hand-assembled stats (no histogram): the uniform lower bound.
        let s = LaunchStats {
            launches: 4,
            total_threads: 4000,
            widest: 1000,
            ..LaunchStats::default()
        };
        assert_eq!(s.modeled_time(1), 4000);
        assert_eq!(s.modeled_time(1000), 4);
        assert!(s.max_speedup() > 999.0);
    }

    #[test]
    fn modeled_time_exact_for_non_uniform_launches() {
        let exec = Executor::with_threads(2);
        launch(&exec, 1000, |_| {});
        launch(&exec, 8, |_| {});
        let s = exec.stats();
        // True cost on 64 lanes: ceil(1000/64) + ceil(8/64) = 16 + 1;
        // the pre-histogram bound would have said ceil(1008/64) = 16.
        assert_eq!(s.modeled_time(64), 17);
        assert_eq!(s.modeled_time(1), 1008);
        // Eager launches never overlap: modeled equals serialized.
        assert_eq!(s.modeled_time(64), s.serialized_time(64));
        // Same-width launches sharing a bucket stay exact.
        exec.reset_stats();
        launch(&exec, 65, |_| {});
        launch(&exec, 65, |_| {});
        assert_eq!(exec.stats().modeled_time(64), 4);
    }

    #[test]
    #[should_panic(expected = "nested kernel launch")]
    fn sanitizer_rejects_a_launch_from_inside_a_kernel() {
        let exec = Executor::with_sanitizer(2);
        launch(&exec, 1, |_| launch(&exec, 1, |_| {}));
    }

    /// Fills `out[tid] = f(tid)` with one declared launch.
    fn fill(exec: &Executor, label: &str, out: &mut [u64], f: impl Fn(usize) -> u64 + Sync) {
        let table = EffectTable::new();
        let id = table.buffer(label, out.len());
        let n = out.len();
        let cells = exec.bind_table(&table, id, out);
        exec.launch_declared(&table, "fill", n, &[Effect::write(id, OWN)], |tid| {
            // SAFETY: each tid writes its own slot, as declared.
            unsafe { cells.write(tid, tid, f(tid)) };
        });
    }

    #[test]
    fn shared_executor_serves_concurrent_workers() {
        // Two "service workers" drive launches on one shared executor at
        // the same time; stats must aggregate. Audited launches take turns
        // instead of tripping over each other's open launch.
        for exec in [Executor::with_threads(2), Executor::with_sanitizer(2)] {
            std::thread::scope(|scope| {
                for w in 0..2u64 {
                    let exec = &exec;
                    scope.spawn(move || {
                        for _ in 0..64 {
                            let mut v = vec![0u64; 64];
                            fill(exec, &format!("out{w}"), &mut v, |i| i as u64 + w);
                            assert_eq!((v[0], v[63]), (w, 63 + w));
                        }
                    });
                }
            });
            let s = exec.stats();
            assert_eq!(s.total_launches(), 128);
            assert_eq!(s.inline_launches, 128); // width 64 < inline threshold
            assert_eq!(s.total_threads, 128 * 64);
            assert!(exec.take_reports().is_empty());
        }
    }

    #[test]
    fn sanitized_results_match_raw_results() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9e3779b97f4a7c15).rotate_left(9);
        let run = |exec: &Executor| {
            let mut out = vec![0u64; 321];
            fill(exec, "out", &mut out, f);
            out
        };
        // One thread, many threads and the audited run agree.
        let expect: Vec<u64> = (0..321).map(f).collect();
        let san = Executor::with_sanitizer(4);
        assert_eq!(run(&Executor::with_threads(1)), expect);
        assert_eq!(run(&Executor::with_threads(4)), expect);
        assert_eq!(run(&san), expect);
        assert!(san.take_reports().is_empty());
        // The two modes: an audited launch never counts as having run on
        // the parallel path.
        assert_eq!(san.stats().static_verified_launches, 0);
        assert_eq!(san.stats().total_launches(), 1);
    }
}
