//! The CEC job service: submit miters, collect verdicts.
//!
//! Each submitted miter is sharded into output-cone sub-jobs
//! ([`crate::shard`]), which a lane-aware worker pool ([`crate::pool`])
//! drives through the `parsweep-core` engine on per-worker executors.
//! A single-PO shard over at most
//! [`MAX_CONE_VARS`](parsweep_sim::MAX_CONE_VARS) inputs is decided from
//! its one-word truth table ([`crate::semantic`]); every other shard
//! first consults the structural result cache ([`crate::cache`]).
//! Per-job [`CancelToken`]s carry deadlines and client cancellations
//! into the engine's phase boundaries, so a job that runs out of time
//! settles promptly on a *partial* — never wrong — verdict.
//!
//! The service is the shared core of both front-ends: the single-client
//! stdin loop (`svc` binary) and the multi-client TCP server
//! (`parsweep-net`). Jobs carry [`SubmitOpts`] — a priority [`Lane`]
//! and a client id — so the pool can drain lanes fairly. Every shard is
//! one pooled dispatch. A settled job's result is either kept for
//! [`CecService::wait`] or handed to the submitter's settle hook
//! ([`CecService::submit_with_hook`]), so a front-end with many jobs in
//! flight needs no thread blocked per job.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use parsweep_aig::{Aig, Var};
use parsweep_core::{
    combined_check_cancellable, sim_sweep_cancellable, CombinedConfig, EngineConfig,
};
use parsweep_par::{CancelToken, Executor, LaunchStats};
use parsweep_sat::{SweepConfig, Verdict};
use parsweep_sim::Cex;
use parsweep_trace as trace;
use parsweep_trace::metrics::{
    render_counter, render_gauge, render_histogram, render_labeled_counter, Histogram,
};
use parsweep_trace::Clock;

use crate::cache::{ResultCache, VerifiedCache, DEFAULT_CACHE_CAPACITY};
use crate::pool::{Lane, WorkerPool};
use crate::semantic::table_decision;
use crate::shard::{shard_miter, Shard, ShardPolicy};

/// What a job submitted through [`CecService::submit_with_hook`] runs
/// with its result once it settles.
type SettleHook = Box<dyn FnOnce(JobResult) + Send>;

/// Service configuration.
#[derive(Clone, Debug)]
pub struct SvcConfig {
    /// Worker threads proving shards.
    pub workers: usize,
    /// Simulation threads of each worker's executor.
    pub exec_threads: usize,
    /// Engine parameters for every shard.
    pub engine: EngineConfig,
    /// Finish what the sim engine leaves undecided. Off (the default): a
    /// shard gets the sim engine alone and may stay undecided — a service
    /// usually prefers fast partial verdicts over long SAT tails. On: the
    /// shard runs the combined flow
    /// ([`combined_check_cancellable`]) — the engine's P and G phases,
    /// then the seeded SAT sweep on the miter they leave undecided.
    pub sat_fallback: bool,
    /// The finishing SAT sweep's parameters (used only with
    /// `sat_fallback`).
    pub sat: SweepConfig,
    /// Deadline applied to jobs submitted without an explicit one.
    pub default_deadline: Option<Duration>,
    /// Entries each of the service's two bounded stores retains before
    /// evicting least-recently-used ones: cone structures (the result
    /// cache) and settled whole jobs (the job memo). `0` disables both.
    ///
    /// The job memo keys on the submitted miter's structural hash: a
    /// duplicate submission of an already-settled miter settles instantly
    /// with the prior verdict — no re-shard, no dispatch — which is what
    /// keeps a fleet of clients sweeping the *same* suite from re-paying
    /// the per-job decomposition cost per client. Only decided verdicts
    /// are memoized (an undecided one may be a deadline artifact);
    /// concurrent in-flight duplicates each prove fresh (the memo only
    /// serves *settled* results).
    pub cache_capacity: usize,
    /// Time source for every duration the service reports (queue waits,
    /// job totals). Inject a [`parsweep_trace::ManualClock`] for
    /// deterministic timing in tests; defaults to the wall clock.
    pub clock: Arc<dyn Clock>,
}

impl Default for SvcConfig {
    fn default() -> Self {
        SvcConfig {
            workers: 2,
            exec_threads: 1,
            engine: EngineConfig::default(),
            sat_fallback: false,
            sat: SweepConfig::default(),
            default_deadline: None,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            clock: Arc::new(trace::WallClock::new()),
        }
    }
}

/// Per-submission options: deadline, priority lane, submitting client.
///
/// The default is the historical behavior: no deadline beyond the
/// service default, interactive lane, anonymous client `0`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SubmitOpts {
    /// Wall-time bound for this job; `None` falls back to
    /// [`SvcConfig::default_deadline`].
    pub deadline: Option<Duration>,
    /// Priority lane the job's shards are queued on.
    pub lane: Lane,
    /// Submitting client (a connection id in the TCP front-end), carried
    /// on the job's trace instants. `0` means "anonymous / single-client".
    pub client: u64,
}

/// Opaque job identifier returned by [`CecService::submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Per-job effort statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct JobStats {
    /// Output-cone shards the job split into.
    pub shards: usize,
    /// Shards settled from the result cache.
    pub cache_hits: u64,
    /// Shards that had to be proved fresh.
    pub cache_misses: u64,
    /// Shards decided by their own truth table, without touching the
    /// cache. With the two cache counters this accounts for every shard.
    pub table_decided: u64,
    /// Time from submission until a worker first picked up a shard.
    pub queue_wait: Duration,
    /// Time from submission until the last shard settled.
    pub total: Duration,
    /// True if the job's token tripped (deadline or explicit cancel).
    pub cancelled: bool,
    /// True if the job settled instantly from the whole-job result memo
    /// (a duplicate of an already-settled miter): `shards` then reports
    /// the prior run's decomposition, while the cache counters are zero
    /// because nothing was dispatched.
    pub memo_hit: bool,
}

/// The settled outcome of one job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The job this verdict belongs to.
    pub id: JobId,
    /// Composed verdict: `NotEquivalent` (with a counter-example lifted
    /// to the submitted miter's PIs) if any shard disproved, `Equivalent`
    /// if every shard proved, `Undecided` otherwise.
    pub verdict: Verdict,
    /// Effort breakdown.
    pub stats: JobStats,
}

/// Service-wide counters, snapshot by [`CecService::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SvcStats {
    /// Jobs submitted so far.
    pub jobs_submitted: u64,
    /// Jobs fully settled so far.
    pub jobs_completed: u64,
    /// Shards produced across all jobs.
    pub shards_total: u64,
    /// Shards decided by their own truth table (single PO, at most
    /// [`MAX_CONE_VARS`](parsweep_sim::MAX_CONE_VARS)
    /// inputs), never probing or filling the cache.
    pub shards_table_decided: u64,
    /// Result-cache hits across all jobs.
    pub cache_hits: u64,
    /// Result-cache misses across all jobs.
    pub cache_misses: u64,
    /// Distinct cone structures currently cached.
    pub cache_len: usize,
    /// Cache entries dropped by the LRU capacity bound.
    pub cache_evictions: u64,
    /// Jobs that settled with their cancel token tripped (deadline or
    /// explicit cancellation).
    pub cancellations: u64,
    /// Jobs settled instantly by the whole-job result memo (duplicate
    /// submissions of an already-settled miter).
    pub job_memo_hits: u64,
    /// Shards whose proof panicked: caught on the worker, settled
    /// undecided, never cached.
    pub worker_panics: u64,
    /// Worker-pool busy fraction over the pool's active window — first
    /// job dequeue to last settle — not whole-process wall clock
    /// (0.0–1.0).
    pub worker_utilization: f64,
}

impl SvcStats {
    /// Cache hits over total lookups; `0.0` before any lookup.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for SvcStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "jobs {}/{} | shards {} ({} by table) | \
             cache {:.0}% of {} lookups ({} cones, {} evicted) | \
             {} memoized | {} cancelled | workers {:.0}% busy",
            self.jobs_completed,
            self.jobs_submitted,
            self.shards_total,
            self.shards_table_decided,
            100.0 * self.cache_hit_rate(),
            self.cache_hits + self.cache_misses,
            self.cache_len,
            self.cache_evictions,
            self.job_memo_hits,
            self.cancellations,
            100.0 * self.worker_utilization
        )
    }
}

/// Aggregation state of one in-flight job; `done` (paired with the same
/// mutex) wakes waiters when `result` settles. A job with a settle hook
/// hands its result to the hook instead and never fills `result`.
struct JobAgg {
    remaining: usize,
    undecided: usize,
    cex: Option<Cex>,
    cache_hits: u64,
    cache_misses: u64,
    table_decided: u64,
    /// Clock reading when a worker first picked up a shard.
    first_start: Option<Duration>,
    result: Option<JobResult>,
    hook: Option<SettleHook>,
}

/// Service-lifetime counters and latency histograms shared by every
/// job's settle path — the backing store of
/// [`CecService::metrics_text`].
struct SvcShared {
    completed_jobs: AtomicU64,
    cancellations: AtomicU64,
    jobs_by_lane: [AtomicU64; 2],
    queue_wait: Histogram,
    job_latency: Histogram,
    /// Settled whole-job verdicts keyed on the miter's structural hash,
    /// verified by [`MiterFingerprint`] (see [`SvcConfig::cache_capacity`]).
    memo: VerifiedCache<u64, MemoEntry>,
    worker_panics: AtomicU64,
}

impl SvcShared {
    fn new(memo_capacity: usize) -> Self {
        SvcShared {
            completed_jobs: AtomicU64::new(0),
            cancellations: AtomicU64::new(0),
            jobs_by_lane: [AtomicU64::new(0), AtomicU64::new(0)],
            queue_wait: Histogram::latency_default(),
            job_latency: Histogram::latency_default(),
            memo: VerifiedCache::new(memo_capacity),
            worker_panics: AtomicU64::new(0),
        }
    }

    /// The memoized verdict and shard count of a settled miter; a
    /// `structural_hash` collision between different miters fails the
    /// fingerprint check and degrades to a miss, not a wrong verdict.
    fn memo_lookup(&self, key: &MemoKey) -> Option<(Verdict, usize)> {
        self.memo.get(&key.0, |e| {
            (e.fingerprint == key.1).then(|| (e.verdict.clone(), e.shards))
        })
    }

    fn memo_insert(&self, key: &MemoKey, verdict: Verdict, shards: usize) {
        let entry = MemoEntry {
            fingerprint: key.1,
            verdict,
            shards,
        };
        self.memo.insert(key.0, entry, |e| e.fingerprint == key.1);
    }
}

/// A second, independent identity of a memoized miter, checked on every
/// memo hit. The memo does not retain the submitted miter (a whole-job
/// memo holding thousands of full networks would dwarf the results it
/// guards), so it cannot re-check structure exactly the way the shard
/// cache does; instead it stores this fingerprint — an independent
/// 64-bit digest ([`Aig::structural_fingerprint`]) plus the exact
/// PI/PO/node counts — and refuses to serve unless the probing miter
/// matches. A wrong verdict then needs *both* digests to collide at once
/// on same-shaped networks, instead of riding one `structural_hash`
/// collision straight to the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct MiterFingerprint {
    fingerprint: u64,
    pis: usize,
    pos: usize,
    nodes: usize,
}

impl MiterFingerprint {
    fn of(miter: &Aig) -> Self {
        MiterFingerprint {
            fingerprint: miter.structural_fingerprint(),
            pis: miter.num_pis(),
            pos: miter.num_pos(),
            nodes: miter.num_nodes(),
        }
    }
}

/// A whole-miter memo key: the submitted miter's [`Aig::structural_hash`]
/// plus the fingerprint that verifies a hit.
type MemoKey = (u64, MiterFingerprint);

/// What the job memo keeps of a settled miter.
struct MemoEntry {
    fingerprint: MiterFingerprint,
    verdict: Verdict,
    shards: usize,
}

struct JobShared {
    id: JobId,
    token: CancelToken,
    clock: Arc<dyn Clock>,
    /// Clock reading at submission.
    submitted: Duration,
    shards: usize,
    lane: Lane,
    client: u64,
    /// Computed at submission; [`JobShared::finish`] memoizes a decided
    /// verdict under it.
    memo_key: MemoKey,
    agg: Mutex<JobAgg>,
    done: Condvar,
}

impl JobShared {
    /// Records one settled shard under the aggregation lock; the last
    /// shard composes the job verdict and finishes the job.
    fn settle_shard(&self, local: ShardOutcome, svc: &SvcShared) {
        let result = {
            let mut agg = self.agg.lock().unwrap();
            match local.verdict {
                Verdict::Equivalent => {}
                Verdict::NotEquivalent(cex) => {
                    if agg.cex.is_none() {
                        agg.cex = Some(cex);
                    }
                    // One disproof settles the whole job: stop sibling shards.
                    self.token.cancel();
                }
                Verdict::Undecided => agg.undecided += 1,
            }
            match local.source {
                Source::Cache => agg.cache_hits += 1,
                Source::Table => agg.table_decided += 1,
                Source::Engine => agg.cache_misses += 1,
            }
            agg.remaining -= 1;
            if agg.remaining > 0 {
                return;
            }
            let verdict = match agg.cex.take() {
                Some(cex) => Verdict::NotEquivalent(cex),
                None if agg.undecided > 0 => Verdict::Undecided,
                None => Verdict::Equivalent,
            };
            JobResult {
                id: self.id,
                verdict,
                stats: JobStats {
                    shards: self.shards,
                    cache_hits: agg.cache_hits,
                    cache_misses: agg.cache_misses,
                    table_decided: agg.table_decided,
                    queue_wait: agg
                        .first_start
                        .map(|t| t.saturating_sub(self.submitted))
                        .unwrap_or_default(),
                    total: self.clock.since(self.submitted),
                    cancelled: self.token.is_cancelled(),
                    memo_hit: false,
                },
            }
        };
        self.finish(result, svc);
    }

    /// Settles a job that dispatches nothing — a memo hit, or a miter
    /// whose every PO is already constant false — with `verdict`.
    fn finish_undispatched(&self, verdict: Verdict, memo_hit: bool, svc: &SvcShared) {
        let stats = JobStats {
            shards: self.shards,
            total: self.clock.since(self.submitted),
            memo_hit,
            ..JobStats::default()
        };
        let result = JobResult {
            id: self.id,
            verdict,
            stats,
        };
        self.finish(result, svc);
    }

    /// The one way a job settles: memoizes a decided verdict, feeds the
    /// service counters and both histograms, then runs the job's settle
    /// hook or, without one, wakes waiters.
    fn finish(&self, result: JobResult, svc: &SvcShared) {
        let stats = result.stats;
        // Decided verdicts are final either way: Equivalent means every
        // shard proved, NotEquivalent carries a concrete cex (the token
        // trips on disproof only to stop sibling shards). Undecided may
        // be a deadline artifact or an engine give-up a rerun could
        // improve on — never memoize it.
        if !stats.memo_hit && !matches!(result.verdict, Verdict::Undecided) {
            svc.memo_insert(&self.memo_key, result.verdict.clone(), stats.shards);
        }
        svc.completed_jobs.fetch_add(1, Ordering::Relaxed);
        if stats.cancelled {
            svc.cancellations.fetch_add(1, Ordering::Relaxed);
        }
        svc.queue_wait.observe(stats.queue_wait.as_secs_f64());
        svc.job_latency.observe(stats.total.as_secs_f64());
        trace::instant(
            "svc",
            "job.settled",
            vec![
                ("job", trace::ArgValue::U64(self.id.0)),
                ("client", trace::ArgValue::U64(self.client)),
                (
                    "cancelled",
                    trace::ArgValue::U64(u64::from(stats.cancelled)),
                ),
            ],
        );
        let mut agg = self.agg.lock().unwrap();
        match agg.hook.take() {
            Some(hook) => {
                drop(agg);
                hook(result);
            }
            None => {
                agg.result = Some(result);
                self.done.notify_all();
            }
        }
    }
}

struct ShardOutcome {
    verdict: Verdict,
    source: Source,
}

/// Where a shard's verdict came from.
#[derive(Clone, Copy)]
enum Source {
    /// A verified result-cache hit.
    Cache,
    /// The cone's own truth table; the cache was never consulted.
    Table,
    /// Anything else counts as a cache miss: a fresh engine run, a
    /// shard skipped by its tripped token, or one whose proof panicked.
    Engine,
}

impl Source {
    /// The `source` argument of the shard's `job.verdict` trace instant.
    fn name(self) -> &'static str {
        match self {
            Source::Cache => "cache",
            Source::Table => "table",
            Source::Engine => "engine",
        }
    }
}

/// One shard's dispatchable payload: the extracted cone, its cache key,
/// and the PI positions that lift a cone counter-example back to the
/// submitted miter.
struct ShardTask {
    cone: Aig,
    hash: u64,
    lift: Vec<usize>,
}

/// Everything a worker needs to settle one cone, built once at service
/// start and shared by every dispatch.
struct ShardProver {
    /// One executor per worker: kernel launches stay serialized per
    /// executor (the device model the kernel sanitizer checks) while
    /// shards still prove in parallel across workers.
    execs: Vec<Executor>,
    cache: ResultCache,
    /// The per-shard flow: engine and SAT sweep parameters.
    flow: CombinedConfig,
    /// See [`SvcConfig::sat_fallback`].
    sat_fallback: bool,
    /// Shards settled by their truth table ([`crate::semantic`]).
    table_decided: AtomicU64,
    /// Makes the next engine run panic: the seam the worker-survival
    /// test goes through.
    #[cfg(test)]
    panic_next: std::sync::atomic::AtomicBool,
}

/// A multi-client combinational-equivalence-checking job service.
///
/// ```
/// use parsweep_aig::{miter, Aig};
/// use parsweep_sat::Verdict;
/// use parsweep_svc::{CecService, SvcConfig};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Aig::new();
/// let xs = a.add_inputs(2);
/// let f = a.xor(xs[0], xs[1]);
/// a.add_po(f);
/// let m = miter(&a, &a.clone())?;
/// let svc = CecService::new(SvcConfig::default());
/// let id = svc.submit(m);
/// let result = svc.wait(id).expect("job exists");
/// assert_eq!(result.verdict, Verdict::Equivalent);
/// # Ok(())
/// # }
/// ```
pub struct CecService {
    cfg: SvcConfig,
    pool: WorkerPool,
    prove: Arc<ShardProver>,
    next_id: AtomicU64,
    shared: Arc<SvcShared>,
    shards_total: AtomicU64,
    jobs: Mutex<HashMap<u64, Arc<JobShared>>>,
}

impl CecService {
    /// Starts the worker pool, with one executor per worker.
    pub fn new(cfg: SvcConfig) -> Self {
        let pool = WorkerPool::new(cfg.workers);
        let execs = (0..pool.workers())
            .map(|_| Executor::with_threads(cfg.exec_threads.max(1)))
            .collect();
        let prove = Arc::new(ShardProver {
            execs,
            cache: ResultCache::with_capacity(cfg.cache_capacity),
            flow: CombinedConfig {
                engine: cfg.engine.clone(),
                sat: cfg.sat.clone(),
            },
            sat_fallback: cfg.sat_fallback,
            table_decided: AtomicU64::new(0),
            #[cfg(test)]
            panic_next: false.into(),
        });
        let shared = Arc::new(SvcShared::new(cfg.cache_capacity));
        CecService {
            cfg,
            pool,
            prove,
            next_id: AtomicU64::new(1),
            shared,
            shards_total: AtomicU64::new(0),
            jobs: Mutex::new(HashMap::new()),
        }
    }

    /// Submits a miter under the configured default deadline.
    pub fn submit(&self, miter: Aig) -> JobId {
        self.submit_with_opts(miter, SubmitOpts::default())
    }

    /// Submits a miter with explicit lane, client and deadline options.
    pub fn submit_with_opts(&self, miter: Aig, opts: SubmitOpts) -> JobId {
        self.submit_job(miter, opts, None)
    }

    /// Submits a miter whose result goes to `on_settle` instead of the
    /// job table: the job is invisible to [`CecService::wait`],
    /// [`CecService::cancel`] and [`CecService::drain`], and no thread
    /// needs to block on it. The hook runs exactly once, on whichever
    /// thread settles the job — a worker, or the caller itself when the
    /// job settles inside this call (a memo hit, or a miter without a
    /// live PO) — so it should only hand the result on, e.g. over a
    /// channel.
    pub fn submit_with_hook(
        &self,
        miter: Aig,
        opts: SubmitOpts,
        on_settle: impl FnOnce(JobResult) + Send + 'static,
    ) -> JobId {
        self.submit_job(miter, opts, Some(Box::new(on_settle)))
    }

    fn submit_job(&self, miter: Aig, opts: SubmitOpts, hook: Option<SettleHook>) -> JobId {
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.shared.jobs_by_lane[opts.lane.index()].fetch_add(1, Ordering::Relaxed);
        let memo_key = (miter.structural_hash(), MiterFingerprint::of(&miter));
        // Duplicate of an already-settled miter: settle instantly from
        // the job memo, skipping shard extraction and dispatch entirely.
        if let Some((verdict, shards)) = self.shared.memo_lookup(&memo_key) {
            trace::instant(
                "svc",
                "job.memo_hit",
                vec![
                    ("job", trace::ArgValue::U64(id.0)),
                    ("client", trace::ArgValue::U64(opts.client)),
                ],
            );
            let job = self.register(id, &opts, CancelToken::new(), memo_key, shards, hook);
            job.finish_undispatched(verdict, true, &self.shared);
            return id;
        }
        let token = match opts.deadline.or(self.cfg.default_deadline) {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        let shards = shard_miter(&miter, ShardPolicy::PerOutput);
        self.shards_total
            .fetch_add(shards.len() as u64, Ordering::Relaxed);
        trace::instant(
            "svc",
            "job.submitted",
            vec![
                ("job", trace::ArgValue::U64(id.0)),
                ("client", trace::ArgValue::U64(opts.client)),
                ("lane", trace::ArgValue::Str(opts.lane.name().into())),
                ("shards", trace::ArgValue::U64(shards.len() as u64)),
            ],
        );

        // Positions of the parent's PIs, for lifting cone counter-examples.
        let mut pi_position = vec![usize::MAX; miter.num_nodes()];
        for (p, pi) in miter.pis().iter().enumerate() {
            pi_position[pi.index()] = p;
        }
        let parent_pis = miter.num_pis();
        let tasks = shard_tasks(shards, &pi_position);
        let job = self.register(id, &opts, token, memo_key, tasks.len(), hook);
        if tasks.is_empty() {
            // Every PO was already constant false: proved as submitted.
            job.finish_undispatched(Verdict::Equivalent, false, &self.shared);
            return id;
        }

        for task in tasks {
            self.dispatch(task, &job, parent_pis);
        }
        id
    }

    /// Creates a job with `shards` shards to settle; its clock starts
    /// now. A job without a settle hook enters the job table.
    fn register(
        &self,
        id: JobId,
        opts: &SubmitOpts,
        token: CancelToken,
        memo_key: MemoKey,
        shards: usize,
        hook: Option<SettleHook>,
    ) -> Arc<JobShared> {
        let keep = hook.is_none();
        let job = Arc::new(JobShared {
            id,
            token,
            clock: Arc::clone(&self.cfg.clock),
            submitted: self.cfg.clock.now(),
            shards,
            lane: opts.lane,
            client: opts.client,
            memo_key,
            agg: Mutex::new(JobAgg {
                remaining: shards,
                undecided: 0,
                cex: None,
                cache_hits: 0,
                cache_misses: 0,
                table_decided: 0,
                first_start: None,
                result: None,
                hook,
            }),
            done: Condvar::new(),
        });
        if keep {
            self.jobs.lock().unwrap().insert(id.0, Arc::clone(&job));
        }
        job
    }

    /// Queues one pool dispatch that settles one shard task.
    fn dispatch(&self, task: ShardTask, shared: &Arc<JobShared>, parent_pis: usize) {
        let shared = Arc::clone(shared);
        let prove = Arc::clone(&self.prove);
        let svc_shared = Arc::clone(&self.shared);
        self.pool.spawn_in(shared.lane, move |worker| {
            let queue_wait = {
                let now = shared.clock.now();
                let mut agg = shared.agg.lock().unwrap();
                if agg.first_start.is_none() {
                    agg.first_start = Some(now);
                }
                now.saturating_sub(shared.submitted)
            };
            trace::set_thread_label(&format!("svc-worker-{worker}"));
            // The settle can wake a drainer that immediately exports the
            // trace, so the span must close first: an end event recorded
            // after the export would leave the stream unbalanced.
            let lifted = {
                let mut span = trace::span("svc", "job.shard");
                span.arg_u64("job", shared.id.0);
                span.arg_f64("queue_wait", queue_wait.as_secs_f64());
                // A panicking engine must not take the worker — and every
                // job queued behind it — down with it: the shard settles
                // undecided (so nothing is cached or memoized from it) and
                // the worker moves on.
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    prove.prove_shard(&task.cone, task.hash, worker, &shared.token)
                }))
                .unwrap_or_else(|_| {
                    svc_shared.worker_panics.fetch_add(1, Ordering::Relaxed);
                    ShardOutcome {
                        verdict: Verdict::Undecided,
                        source: Source::Engine,
                    }
                });
                ShardOutcome {
                    verdict: lift_verdict(outcome.verdict, &task.cone, &task.lift, parent_pis),
                    source: outcome.source,
                }
            };
            shared.settle_shard(lifted, &svc_shared);
        });
    }

    /// Cancels a job; in-flight shards stop at their next phase boundary.
    /// Returns false for an unknown (or already drained) job.
    pub fn cancel(&self, id: JobId) -> bool {
        match self.jobs.lock().unwrap().get(&id.0) {
            Some(shared) => {
                shared.token.cancel();
                true
            }
            None => false,
        }
    }

    /// Blocks until the job settles; `None` for an unknown (or already
    /// drained) job.
    pub fn wait(&self, id: JobId) -> Option<JobResult> {
        let shared = Arc::clone(self.jobs.lock().unwrap().get(&id.0)?);
        let mut agg = shared.agg.lock().unwrap();
        while agg.result.is_none() {
            agg = shared.done.wait(agg).unwrap();
        }
        agg.result.clone()
    }

    /// Waits for every outstanding job and returns their results in
    /// submission order, removing them from the service.
    pub fn drain(&self) -> Vec<JobResult> {
        let mut ids: Vec<u64> = self.jobs.lock().unwrap().keys().copied().collect();
        ids.sort_unstable();
        let mut results = Vec::with_capacity(ids.len());
        for id in ids {
            if let Some(result) = self.wait(JobId(id)) {
                results.push(result);
            }
            self.jobs.lock().unwrap().remove(&id);
        }
        results
    }

    /// Snapshot of the service-wide counters.
    pub fn stats(&self) -> SvcStats {
        SvcStats {
            jobs_submitted: self.next_id.load(Ordering::Relaxed) - 1,
            jobs_completed: self.shared.completed_jobs.load(Ordering::Relaxed),
            shards_total: self.shards_total.load(Ordering::Relaxed),
            shards_table_decided: self.prove.table_decided.load(Ordering::Relaxed),
            cache_hits: self.prove.cache.hits(),
            cache_misses: self.prove.cache.misses(),
            cache_len: self.prove.cache.len(),
            cache_evictions: self.prove.cache.evictions(),
            cancellations: self.shared.cancellations.load(Ordering::Relaxed),
            job_memo_hits: self.shared.memo.hits(),
            worker_panics: self.shared.worker_panics.load(Ordering::Relaxed),
            worker_utilization: self.pool.utilization(),
        }
    }

    /// The launch profile of the whole worker fleet: every per-worker
    /// executor's [`LaunchStats`] merged into one.
    pub fn launch_stats(&self) -> LaunchStats {
        let mut merged = LaunchStats::default();
        for exec in &self.prove.execs {
            merged.merge(&exec.stats());
        }
        merged
    }

    /// Renders the service's counters and latency histograms in the
    /// Prometheus text exposition format — the payload of the JSON-lines
    /// protocol's `metrics` op.
    pub fn metrics_text(&self) -> String {
        let stats = self.stats();
        let launch = self.launch_stats();
        let mut out = String::new();
        render_counter(
            &mut out,
            "parsweep_jobs_submitted_total",
            "Jobs submitted to the service.",
            stats.jobs_submitted,
        );
        render_counter(
            &mut out,
            "parsweep_jobs_completed_total",
            "Jobs fully settled.",
            stats.jobs_completed,
        );
        render_labeled_counter(
            &mut out,
            "parsweep_jobs_by_lane_total",
            "Jobs submitted per priority lane.",
            "lane",
            &Lane::ALL
                .iter()
                .map(|l| {
                    (
                        l.name(),
                        self.shared.jobs_by_lane[l.index()].load(Ordering::Relaxed),
                    )
                })
                .collect::<Vec<_>>(),
        );
        render_counter(
            &mut out,
            "parsweep_shards_total",
            "Output-cone shards produced across all jobs.",
            stats.shards_total,
        );
        render_counter(
            &mut out,
            "parsweep_shards_table_decided_total",
            "Shards decided by their own truth table, without the result cache.",
            stats.shards_table_decided,
        );
        render_counter(
            &mut out,
            "parsweep_cancellations_total",
            "Jobs settled with a tripped cancel token.",
            stats.cancellations,
        );
        render_counter(
            &mut out,
            "parsweep_job_memo_hits_total",
            "Jobs settled instantly by the whole-job result memo.",
            stats.job_memo_hits,
        );
        render_counter(
            &mut out,
            "parsweep_worker_panics_total",
            "Shards whose proof panicked and settled undecided.",
            stats.worker_panics,
        );
        render_counter(
            &mut out,
            "parsweep_cache_hits_total",
            "Result-cache lookups settled from a verified entry.",
            stats.cache_hits,
        );
        render_counter(
            &mut out,
            "parsweep_cache_misses_total",
            "Result-cache lookups that found nothing.",
            stats.cache_misses,
        );
        render_counter(
            &mut out,
            "parsweep_cache_evictions_total",
            "Result-cache entries dropped by the LRU capacity bound.",
            stats.cache_evictions,
        );
        render_gauge(
            &mut out,
            "parsweep_cache_entries",
            "Distinct cone structures currently cached.",
            stats.cache_len as f64,
        );
        render_gauge(
            &mut out,
            "parsweep_worker_utilization",
            "Worker-pool busy fraction over the pool's active window.",
            stats.worker_utilization,
        );
        render_counter(
            &mut out,
            "parsweep_kernel_launches_total",
            "Kernel launches across the worker fleet's executors (pool-dispatched plus inline).",
            launch.total_launches(),
        );
        render_counter(
            &mut out,
            "parsweep_kernel_inline_launches_total",
            "Kernel launches below the inline threshold, run on the calling thread.",
            launch.inline_launches,
        );
        render_counter(
            &mut out,
            "parsweep_kernel_threads_total",
            "Kernel work items (launch widths summed) across the fleet.",
            launch.total_threads,
        );
        render_counter(
            &mut out,
            "parsweep_arena_hits_total",
            "Buffer-arena takes served from the pool.",
            launch.arena_hits,
        );
        render_counter(
            &mut out,
            "parsweep_arena_misses_total",
            "Buffer-arena takes that allocated fresh.",
            launch.arena_misses,
        );
        render_gauge(
            &mut out,
            "parsweep_arena_peak_bytes",
            "High-water mark of any one worker's arena footprint.",
            launch.arena_peak_bytes as f64,
        );
        render_counter(
            &mut out,
            "parsweep_par_static_verified_launches_total",
            "Kernel launches that ran in parallel on their static effect proof (0 when PARSWEEP_SANITIZE audits them instead).",
            launch.static_verified_launches,
        );
        let sim = trace::metrics::sim_counters();
        render_counter(
            &mut out,
            "parsweep_sim_pruned_rounds_total",
            "Support-pruned partial-simulation rounds (live cones only).",
            trace::metrics::SimCounters::get(&sim.pruned_rounds),
        );
        render_counter(
            &mut out,
            "parsweep_sim_pruned_nodes_skipped_total",
            "Nodes outside live cones that pruned rounds never launched.",
            trace::metrics::SimCounters::get(&sim.pruned_nodes_skipped),
        );
        render_counter(
            &mut out,
            "parsweep_sim_resim_clean_nodes_total",
            "Nodes memoized across miter rewrites by the dirty-cone resimulator.",
            trace::metrics::SimCounters::get(&sim.resim_clean_nodes),
        );
        render_counter(
            &mut out,
            "parsweep_sim_resim_dirty_nodes_total",
            "Nodes re-launched as the dirty frontier of a miter rewrite.",
            trace::metrics::SimCounters::get(&sim.resim_dirty_nodes),
        );
        render_counter(
            &mut out,
            "parsweep_sim_classes_refined_total",
            "Equivalence classes split in place by fresh-pattern refinement.",
            trace::metrics::SimCounters::get(&sim.classes_refined),
        );
        render_counter(
            &mut out,
            "parsweep_sim_window_spills_total",
            "Signature levels retired from device residency to host staging.",
            trace::metrics::SimCounters::get(&sim.window_spills),
        );
        render_counter(
            &mut out,
            "parsweep_sim_window_spilled_words_total",
            "Signature words moved to host staging by spill launches.",
            trace::metrics::SimCounters::get(&sim.window_spilled_words),
        );
        render_histogram(
            &mut out,
            "parsweep_queue_wait_seconds",
            "Time from job submission until a worker first picked up a shard.",
            &self.shared.queue_wait.snapshot(),
        );
        render_histogram(
            &mut out,
            "parsweep_job_latency_seconds",
            "Time from job submission until the last shard settled.",
            &self.shared.job_latency.snapshot(),
        );
        out
    }
}

/// One dispatchable task per shard, in shard order. `lift` maps are
/// computed here so the dispatch path does not need the parent miter.
fn shard_tasks(shards: Vec<Shard>, pi_position: &[usize]) -> Vec<ShardTask> {
    shards
        .into_iter()
        .map(|shard| ShardTask {
            lift: shard
                .extraction
                .pi_map
                .iter()
                .map(|v: &Var| pi_position[v.index()])
                .collect(),
            cone: shard.extraction.cone,
            hash: shard.hash,
        })
        .collect()
}

impl ShardProver {
    /// Settles one cone on `worker`'s executor. A single-PO cone over at
    /// most [`MAX_CONE_VARS`](parsweep_sim::MAX_CONE_VARS) inputs is
    /// decided by its truth table ([`crate::semantic`]) and never touches the
    /// cache or an engine: the table is one pass over the cone, no dearer
    /// than verifying a cache hit, so caching its verdict would only crowd
    /// out cones an engine had to prove. Any other cone probes the
    /// structural cache, then runs the sim engine — or, under
    /// `sat_fallback`, the combined flow — and caches the verdict. A hit
    /// runs no engine.
    /// The returned verdict is over the *cone's* PIs.
    fn prove_shard(
        &self,
        cone: &Aig,
        hash: u64,
        worker: usize,
        token: &CancelToken,
    ) -> ShardOutcome {
        let settled = |verdict, source: Source| {
            trace::instant(
                "svc",
                "job.verdict",
                vec![("source", trace::ArgValue::Str(source.name().into()))],
            );
            ShardOutcome { verdict, source }
        };
        if token.is_cancelled() {
            // Skipped entirely: no cache lookup, no engine run.
            return ShardOutcome {
                verdict: Verdict::Undecided,
                source: Source::Engine,
            };
        }
        if let Some(verdict) = table_decision(cone) {
            self.table_decided.fetch_add(1, Ordering::Relaxed);
            return settled(verdict, Source::Table);
        }
        let cached = {
            let _span = trace::span("svc", "job.cache_probe");
            self.cache.lookup(hash, cone)
        };
        if let Some(verdict) = cached {
            return settled(verdict, Source::Cache);
        }
        #[cfg(test)]
        if self.panic_next.swap(false, Ordering::SeqCst) {
            panic!("injected engine failure");
        }
        let exec = &self.execs[worker];
        let verdict = if self.sat_fallback {
            combined_check_cancellable(cone, exec, &self.flow, token).verdict
        } else {
            sim_sweep_cancellable(cone, exec, &self.flow.engine, token).verdict
        };
        self.cache.insert(hash, cone, &verdict);
        settled(verdict, Source::Engine)
    }
}

/// Lifts a cone-local verdict to the submitted miter: counter-example
/// bits move from cone-PI positions to the parent-PI positions recorded
/// at extraction (unlisted parent PIs are don't-cares, left false).
fn lift_verdict(verdict: Verdict, cone: &Aig, lift: &[usize], parent_pis: usize) -> Verdict {
    match verdict {
        Verdict::NotEquivalent(cex) => {
            let dense = cex.to_dense(cone);
            let mut bits = vec![false; parent_pis];
            for (i, &p) in lift.iter().enumerate() {
                if p != usize::MAX {
                    bits[p] = dense[i];
                }
            }
            Verdict::NotEquivalent(Cex::new(bits))
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsweep_aig::miter;
    use parsweep_sim::MAX_CONE_VARS;
    use proptest::prelude::*;

    /// `width` independent parity bits, each over its own `arity` PIs;
    /// the two variants build XOR differently so a miter of them does not
    /// strash to constants.
    fn parity_net(width: usize, arity: usize, variant: bool) -> Aig {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(width * arity);
        for group in xs.chunks(arity) {
            let f = group[1..].iter().fold(group[0], |a, &b| {
                if variant {
                    let o = aig.or(a, b);
                    let n = aig.and(a, b);
                    aig.and(o, !n)
                } else {
                    aig.xor(a, b)
                }
            });
            aig.add_po(f);
        }
        aig
    }

    /// `width` independent XOR bits over disjoint PI pairs: miter cones
    /// narrow enough to settle from their truth tables.
    fn xor_net(width: usize, variant: bool) -> Aig {
        parity_net(width, 2, variant)
    }

    /// Like [`xor_net`], but every cone is one input past the table bound,
    /// so its shards go through the result cache and the engine.
    fn wide_net(width: usize, variant: bool) -> Aig {
        parity_net(width, MAX_CONE_VARS + 1, variant)
    }

    #[test]
    fn equivalent_miter_is_proved() {
        let m = miter(&xor_net(3, false), &xor_net(3, true)).unwrap();
        let svc = CecService::new(SvcConfig::default());
        let id = svc.submit(m);
        let r = svc.wait(id).unwrap();
        assert_eq!(r.verdict, Verdict::Equivalent);
        assert_eq!(r.stats.shards, 3);
        assert!(!r.stats.cancelled);
    }

    #[test]
    fn disproof_lifts_a_firing_cex() {
        let a = xor_net(3, false);
        let mut b = xor_net(3, true);
        let po1 = b.po(1);
        b.set_po(1, !po1);
        let m = miter(&a, &b).unwrap();
        let svc = CecService::new(SvcConfig::default());
        let id = svc.submit(m.clone());
        match svc.wait(id).unwrap().verdict {
            Verdict::NotEquivalent(cex) => assert!(cex.fires(&m), "lifted cex must fire"),
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn identical_shards_within_one_job_hit_the_cache() {
        // Three identical parity cones on disjoint PIs: the first one
        // proved settles the other two from the cache.
        let m = miter(&wide_net(3, false), &wide_net(3, true)).unwrap();
        let svc = CecService::new(SvcConfig {
            workers: 1, // serialize so later shards see the first's proof
            ..SvcConfig::default()
        });
        let id = svc.submit(m);
        let r = svc.wait(id).unwrap();
        assert_eq!(r.verdict, Verdict::Equivalent);
        assert_eq!(r.stats.cache_hits, 2, "stats: {:?}", r.stats);
        assert_eq!(r.stats.cache_misses, 1);
    }

    #[test]
    fn no_po_job_settles_equivalent_immediately() {
        let mut aig = Aig::new();
        aig.add_inputs(2);
        aig.add_po(parsweep_aig::Lit::FALSE);
        let svc = CecService::new(SvcConfig::default());
        let id = svc.submit(aig);
        let r = svc.wait(id).unwrap();
        assert_eq!(r.verdict, Verdict::Equivalent);
        assert_eq!(r.stats.shards, 0);
    }

    #[test]
    fn every_settle_path_feeds_both_histograms() {
        // A fresh job, a memo hit and a zero-shard job each settle once
        // and each land in both latency histograms.
        let svc = CecService::new(SvcConfig::default());
        let m = miter(&xor_net(2, false), &xor_net(2, true)).unwrap();
        let fresh = svc.wait(svc.submit(m.clone())).unwrap();
        let memo = svc.wait(svc.submit(m)).unwrap();
        let mut none = Aig::new();
        none.add_inputs(2);
        none.add_po(parsweep_aig::Lit::FALSE);
        let empty = svc.wait(svc.submit(none)).unwrap();
        assert!(!fresh.stats.memo_hit && memo.stats.memo_hit);
        assert_eq!(empty.stats.shards, 0);
        let text = svc.metrics_text();
        for line in [
            "parsweep_jobs_completed_total 3",
            "parsweep_job_latency_seconds_count 3",
            "parsweep_queue_wait_seconds_count 3",
        ] {
            assert!(text.contains(line), "missing {line:?} in {text}");
        }
    }

    #[test]
    fn unknown_job_wait_and_cancel() {
        let svc = CecService::new(SvcConfig::default());
        assert!(svc.wait(JobId(999)).is_none());
        assert!(!svc.cancel(JobId(999)));
    }

    #[test]
    fn drain_returns_submission_order_and_clears() {
        let svc = CecService::new(SvcConfig::default());
        let m = miter(&wide_net(2, false), &wide_net(2, true)).unwrap();
        let a = svc.submit(m.clone());
        let b = svc.submit(m);
        let results = svc.drain();
        assert_eq!(results.iter().map(|r| r.id).collect::<Vec<_>>(), vec![a, b]);
        assert!(svc.wait(a).is_none(), "drained jobs are gone");
        let stats = svc.stats();
        assert_eq!(stats.jobs_submitted, 2);
        assert_eq!(stats.jobs_completed, 2);
        assert!(
            stats.cache_hits > 0 || stats.job_memo_hits > 0,
            "a duplicate job must reuse prior work one way or the other: {stats:?}"
        );
    }

    #[test]
    fn duplicate_submission_settles_from_the_job_memo() {
        // Same disproof twice: the duplicate must report the identical
        // (still firing) counter-example without dispatching anything.
        let a = xor_net(3, false);
        let mut b = xor_net(3, true);
        let po1 = b.po(1);
        b.set_po(1, !po1);
        let m = miter(&a, &b).unwrap();
        let svc = CecService::new(SvcConfig::default());
        let first = svc.wait(svc.submit(m.clone())).unwrap();
        let shards_before = svc.stats().shards_total;
        let second = svc.wait(svc.submit(m.clone())).unwrap();
        assert!(second.stats.memo_hit, "stats: {:?}", second.stats);
        assert!(!first.stats.memo_hit);
        assert_eq!(second.stats.shards, first.stats.shards);
        assert_eq!(
            svc.stats().shards_total,
            shards_before,
            "memo hits must not re-shard"
        );
        match (&first.verdict, &second.verdict) {
            (Verdict::NotEquivalent(x), Verdict::NotEquivalent(y)) => {
                assert_eq!(x.inputs(), y.inputs());
                assert!(y.fires(&m));
            }
            other => panic!("expected matching disproofs, got {other:?}"),
        }
        assert_eq!(svc.stats().job_memo_hits, 1);
    }

    #[test]
    fn cache_capacity_zero_disables_memoization() {
        // One capacity bounds every store: 0 turns the memo off too.
        let svc = CecService::new(SvcConfig {
            cache_capacity: 0,
            ..SvcConfig::default()
        });
        let m = miter(&xor_net(2, false), &xor_net(2, true)).unwrap();
        svc.wait(svc.submit(m.clone())).unwrap();
        let r = svc.wait(svc.submit(m)).unwrap();
        assert!(!r.stats.memo_hit);
        assert_eq!(svc.stats().job_memo_hits, 0);
    }

    #[test]
    fn cancelled_jobs_never_poison_the_memo() {
        // A zero deadline settles the first run partial (cancelled); the
        // rerun without a deadline must prove fresh, not replay the
        // partial verdict.
        let svc = CecService::new(SvcConfig {
            workers: 1,
            ..SvcConfig::default()
        });
        let m = miter(&xor_net(3, false), &xor_net(3, true)).unwrap();
        let zero_deadline = SubmitOpts {
            deadline: Some(Duration::ZERO),
            ..SubmitOpts::default()
        };
        let first = svc
            .wait(svc.submit_with_opts(m.clone(), zero_deadline))
            .unwrap();
        assert!(first.stats.cancelled);
        let second = svc.wait(svc.submit(m)).unwrap();
        assert!(!second.stats.memo_hit, "partial results must not memoize");
        assert_eq!(second.verdict, Verdict::Equivalent);
    }

    #[test]
    fn a_hooked_job_settles_through_its_hook_and_leaves_no_entry() {
        // A fresh job settles on a worker, its duplicate inside the
        // submit call (memo hit): both reach their hook exactly once, and
        // neither is left in the job table.
        let svc = CecService::new(SvcConfig::default());
        let m = miter(&xor_net(2, false), &xor_net(2, true)).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let mut ids = Vec::new();
        for _ in 0..2 {
            let tx = tx.clone();
            let id = svc.submit_with_hook(m.clone(), SubmitOpts::default(), move |r| {
                tx.send(r).unwrap();
            });
            let r = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!((r.id, r.verdict), (id, Verdict::Equivalent));
            ids.push((id, r.stats.memo_hit));
        }
        drop(tx);
        assert_eq!(
            ids.iter().map(|&(_, hit)| hit).collect::<Vec<_>>(),
            [false, true]
        );
        assert!(rx.recv().is_err(), "each hook runs once");
        for (id, _) in ids {
            assert!(svc.wait(id).is_none(), "a hooked job has no table entry");
        }
        assert!(svc.drain().is_empty());
        assert_eq!(svc.stats().jobs_completed, 2);
    }

    #[test]
    fn stats_display_is_humane() {
        let s = SvcStats {
            jobs_submitted: 4,
            jobs_completed: 3,
            shards_total: 15,
            shards_table_decided: 3,
            cache_hits: 6,
            cache_misses: 6,
            cache_len: 6,
            cache_evictions: 2,
            cancellations: 1,
            job_memo_hits: 5,
            worker_panics: 0,
            worker_utilization: 0.5,
        };
        let text = s.to_string();
        assert!(text.contains("jobs 3/4"), "{text}");
        assert!(text.contains("3 by table"), "{text}");
        assert!(text.contains("cache 50%"), "{text}");
        assert!(text.contains("2 evicted"), "{text}");
        assert!(text.contains("5 memoized"), "{text}");
        assert!(text.contains("1 cancelled"), "{text}");
    }

    #[test]
    fn manual_clock_makes_job_timing_deterministic() {
        // With an unadvanced manual clock every reported duration is
        // exactly zero — proof that job timing flows through the injected
        // clock and nothing falls back to the wall.
        let clock = Arc::new(parsweep_trace::ManualClock::new());
        let svc = CecService::new(SvcConfig {
            clock: clock.clone(),
            ..SvcConfig::default()
        });
        let m = miter(&xor_net(2, false), &xor_net(2, true)).unwrap();
        let id = svc.submit(m);
        let r = svc.wait(id).unwrap();
        assert_eq!(r.stats.queue_wait, Duration::ZERO);
        assert_eq!(r.stats.total, Duration::ZERO);

        // Advance the clock between submissions: the next job's total
        // reflects only manual time.
        clock.advance(Duration::from_secs(3));
        let m = miter(&xor_net(1, false), &xor_net(1, true)).unwrap();
        let id = svc.submit(m);
        let r = svc.wait(id).unwrap();
        assert_eq!(r.stats.total, Duration::ZERO, "frozen clock, zero total");
    }

    #[test]
    fn evictions_reach_stats_and_metrics() {
        let svc = CecService::new(SvcConfig {
            workers: 1,
            cache_capacity: 1,
            ..SvcConfig::default()
        });
        // Two distinct cone structures through a single-entry cache: the
        // second insert evicts the first.
        let m1 = miter(&wide_net(1, false), &wide_net(1, true)).unwrap();
        let m2 = wide_and_miter(MAX_CONE_VARS + 1);
        svc.submit(m1);
        svc.submit(m2);
        svc.drain();
        let stats = svc.stats();
        assert!(stats.cache_evictions >= 1, "stats: {stats:?}");
        assert_eq!(stats.cache_len, 1);
        let text = svc.metrics_text();
        assert!(text.contains("parsweep_cache_evictions_total 1"), "{text}");
        assert!(text.contains("# TYPE parsweep_job_latency_seconds histogram"));
    }

    /// A balanced AND tree against a right-associated AND chain over `n`
    /// inputs — past the sim engine's PO support bound for `n = 24`, so a
    /// shard of it stays undecided without the SAT sweep.
    fn wide_and_miter(n: usize) -> Aig {
        let mut a = Aig::new();
        let xs = a.add_inputs(n);
        let f = a.and_all(xs.iter().copied());
        a.add_po(f);
        let mut b = Aig::new();
        let ys = b.add_inputs(n);
        let mut g = ys[n - 1];
        for &y in ys[..n - 1].iter().rev() {
            g = b.and(y, g);
        }
        b.add_po(g);
        miter(&a, &b).unwrap()
    }

    /// "Adjacent inputs differ" over all `n` inputs (a balanced AND of
    /// `x_i ^ x_{i+1}`) against the same test over the first `n - 1`
    /// inputs (a chain): the pair differs only when the first `n - 1`
    /// inputs alternate and the last repeats its neighbour, two
    /// assignments that neither random nor distance-1 patterns hit.
    /// Reverse simulation picks a side of each XOR at random, so the
    /// overlapping XORs defeat its justification too.
    fn alternation_miter(n: usize) -> Aig {
        let build = |inputs: usize, balanced: bool| {
            let mut aig = Aig::new();
            let xs = aig.add_inputs(n);
            let diffs: Vec<_> = (0..inputs - 1).map(|i| aig.xor(xs[i], xs[i + 1])).collect();
            let f = if balanced {
                aig.and_all(diffs)
            } else {
                let (&last, rest) = diffs.split_last().unwrap();
                rest.iter().rev().fold(last, |g, &d| aig.and(d, g))
            };
            aig.add_po(f);
            aig
        };
        miter(&build(n, true), &build(n - 1, false)).unwrap()
    }

    #[test]
    fn sat_fallback_finishes_what_the_engine_leaves() {
        let eq = wide_and_miter(24);
        let ne = alternation_miter(24);
        let off = CecService::new(SvcConfig::default());
        assert_eq!(
            off.wait(off.submit(eq.clone())).unwrap().verdict,
            Verdict::Undecided
        );

        let on = CecService::new(SvcConfig {
            sat_fallback: true,
            ..SvcConfig::default()
        });
        assert_eq!(on.wait(on.submit(eq)).unwrap().verdict, Verdict::Equivalent);
        match on.wait(on.submit(ne.clone())).unwrap().verdict {
            Verdict::NotEquivalent(cex) => assert!(cex.fires(&ne), "lifted cex must fire"),
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn repeat_hits_run_no_engine() {
        let svc = CecService::new(SvcConfig {
            workers: 1,
            sat_fallback: true,
            ..SvcConfig::default()
        });
        let m = wide_and_miter(24);
        assert_eq!(
            svc.wait(svc.submit(m.clone())).unwrap().verdict,
            Verdict::Equivalent
        );
        let proved = svc.launch_stats();
        assert!(
            proved.total_launches() > 0,
            "the first submit runs the engine"
        );
        for i in 0..8 {
            // Extra constant-false POs give every repeat a new whole-miter
            // hash over the same single cone: it walks the cache path, not
            // the memo.
            let mut repeat = m.clone();
            for _ in 0..=i {
                repeat.add_po(parsweep_aig::Lit::FALSE);
            }
            let r = svc.wait(svc.submit(repeat)).unwrap();
            assert_eq!(r.verdict, Verdict::Equivalent);
            assert!(!r.stats.memo_hit);
            assert_eq!((r.stats.cache_hits, r.stats.cache_misses), (1, 0));
        }
        // A cache hit launches no kernel: neither the sim engine nor the
        // SAT sweep ran again.
        assert_eq!(svc.launch_stats(), proved);
    }

    #[test]
    fn a_panicking_engine_settles_undecided_and_the_worker_survives() {
        let svc = CecService::new(SvcConfig {
            workers: 1,
            sat_fallback: true,
            ..SvcConfig::default()
        });
        svc.prove.panic_next.store(true, Ordering::SeqCst);
        let m = wide_and_miter(24);
        let first = svc.wait(svc.submit(m.clone())).unwrap();
        assert_eq!(first.verdict, Verdict::Undecided);
        assert_eq!(svc.stats().worker_panics, 1);
        assert_eq!(svc.stats().cache_len, 0, "a panicked shard is never cached");
        // The single worker is still there, and the failed job was
        // neither memoized nor cached: the rerun proves fresh.
        let second = svc.wait(svc.submit(m)).unwrap();
        assert_eq!(second.verdict, Verdict::Equivalent);
        assert!(!second.stats.memo_hit);
        assert_eq!(second.stats.cache_misses, 1);
        assert!(svc
            .metrics_text()
            .contains("parsweep_worker_panics_total 1"));
    }

    #[test]
    fn metrics_text_renders_zero_valued_series() {
        let svc = CecService::new(SvcConfig {
            workers: 1,
            ..SvcConfig::default()
        });
        let m = miter(&xor_net(2, false), &xor_net(2, true)).unwrap();
        svc.submit(m);
        svc.drain();
        let text = svc.metrics_text();
        assert!(
            text.contains("parsweep_jobs_by_lane_total{lane=\"batch\"} 0"),
            "{text}"
        );
        assert!(text.contains("parsweep_worker_panics_total 0"), "{text}");
    }

    #[test]
    fn metrics_text_renders_fleet_counters() {
        let svc = CecService::new(SvcConfig::default());
        let m = miter(&wide_net(2, false), &wide_net(2, true)).unwrap();
        svc.submit(m);
        svc.drain();
        let text = svc.metrics_text();
        assert!(text.contains("parsweep_jobs_completed_total 1"), "{text}");
        assert!(
            !text.contains("parsweep_kernel_launches_total 0"),
            "fleet executors must have recorded launches: {text}"
        );
        assert!(
            text.contains("parsweep_queue_wait_seconds_count 1"),
            "{text}"
        );
        assert!(
            text.contains("parsweep_jobs_by_lane_total{lane=\"interactive\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn colliding_memo_keys_degrade_to_a_miss() {
        // The exact shape of the bug this memo design fixes: two
        // *different* miters whose structural hashes collide (forced
        // here by inserting under the same key). The unfixed memo served
        // whatever the key found — the first miter's verdict for the
        // second miter.
        let a = miter(&xor_net(1, false), &xor_net(1, true)).unwrap();
        let mut bad = xor_net(1, true);
        let po = bad.po(0);
        bad.set_po(0, !po);
        let b = miter(&xor_net(1, false), &bad).unwrap();
        assert!(!a.same_structure(&b));
        let (fa, fb) = (MiterFingerprint::of(&a), MiterFingerprint::of(&b));
        let svc = SvcShared::new(8);
        svc.memo_insert(&(0x42, fa), Verdict::Equivalent, 1);
        assert!(
            svc.memo_lookup(&(0x42, fa)).is_some(),
            "the genuine duplicate still hits"
        );
        assert!(
            svc.memo_lookup(&(0x42, fb)).is_none(),
            "a colliding different miter must miss, not inherit Equivalent"
        );
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any two memo-key-colliding miters either share a fingerprint
        /// because they are the same structure, or the collision degrades
        /// to a miss — never a cross-served verdict.
        #[test]
        fn memo_collisions_never_cross_serve(wa in 1..5usize, wb in 1..5usize) {
            let a = miter(&xor_net(wa, false), &xor_net(wa, true)).unwrap();
            let b = miter(&xor_net(wb, false), &xor_net(wb, true)).unwrap();
            let (fa, fb) = (MiterFingerprint::of(&a), MiterFingerprint::of(&b));
            let svc = SvcShared::new(8);
            svc.memo_insert(&(0x42, fa), Verdict::Equivalent, 1);
            let served = svc.memo_lookup(&(0x42, fb));
            if a.same_structure(&b) {
                prop_assert!(served.is_some(), "true duplicates keep hitting");
            } else {
                prop_assert!(served.is_none(), "colliding non-duplicate was served");
            }
        }
    }

    #[test]
    fn small_cones_settle_from_their_tables_and_leave_the_cache_untouched() {
        // One worker, and every disproof on a job's last shard: no shard
        // is skipped by a sibling's cancellation.
        let svc = CecService::new(SvcConfig {
            workers: 1,
            ..SvcConfig::default()
        });
        // Two 6-input parity cones, proved; the same with the second cone
        // disproved; and a constant-true PO, a cone without inputs whose
        // cex is the empty assignment.
        let eq = miter(
            &parity_net(2, MAX_CONE_VARS, false),
            &parity_net(2, MAX_CONE_VARS, true),
        )
        .unwrap();
        let mut bad = parity_net(2, MAX_CONE_VARS, true);
        let po = bad.po(1);
        bad.set_po(1, !po);
        let ne = miter(&parity_net(2, MAX_CONE_VARS, false), &bad).unwrap();
        let mut always = Aig::new();
        always.add_inputs(3);
        always.add_po(parsweep_aig::Lit::TRUE);

        let r_eq = svc.wait(svc.submit(eq)).unwrap();
        assert_eq!(r_eq.verdict, Verdict::Equivalent);
        let mut results = vec![r_eq];
        for m in [ne, always] {
            let r = svc.wait(svc.submit(m.clone())).unwrap();
            match &r.verdict {
                Verdict::NotEquivalent(cex) => assert!(cex.fires(&m), "lifted cex must fire"),
                other => panic!("expected NotEquivalent, got {other:?}"),
            }
            results.push(r);
        }
        for r in &results {
            let stats = &r.stats;
            assert_eq!(stats.table_decided, stats.shards as u64, "stats: {stats:?}");
            assert_eq!((stats.cache_hits, stats.cache_misses), (0, 0));
        }

        let cache = &svc.prove.cache;
        assert_eq!((cache.len(), cache.hits(), cache.misses()), (0, 0, 0));
        assert_eq!(svc.stats().shards_table_decided, 5);
        assert_eq!(svc.launch_stats().total_launches(), 0, "no engine ran");
        let text = svc.metrics_text();
        assert!(
            text.contains("parsweep_shards_table_decided_total 5"),
            "{text}"
        );
    }

    #[test]
    fn semantic_tier_settles_structurally_new_cones() {
        // Two equivalent pairs whose miter cones compute the same
        // function (constant 0 over 2 PIs) through different structure:
        // the second job's cone was never seen, yet settles from its
        // truth table like the first — no cache, no engine.
        let m1 = miter(&xor_net(1, false), &xor_net(1, true)).unwrap();
        let mut a = Aig::new();
        let xs = a.add_inputs(2);
        let t = a.and(xs[0], xs[1]);
        a.add_po(t);
        let mut b = Aig::new();
        let ys = b.add_inputs(2);
        let u = b.and(ys[0], ys[1]);
        let v = b.and(ys[0], u); // redundant: y0 & (y0 & y1) == y0 & y1
        b.add_po(v);
        let m2 = miter(&a, &b).unwrap();
        let c1 = m1.extract_cone(&[0]).cone;
        let c2 = m2.extract_cone(&[0]).cone;
        assert!(
            !c1.same_structure(&c2),
            "the cones must differ structurally"
        );

        let svc = CecService::new(SvcConfig::default());
        let r1 = svc.wait(svc.submit(m1)).unwrap();
        assert_eq!(r1.verdict, Verdict::Equivalent);
        let r2 = svc.wait(svc.submit(m2)).unwrap();
        assert_eq!(r2.verdict, Verdict::Equivalent);
        assert_eq!(r2.stats.table_decided, 1, "the new cone settled by table");
        assert_eq!((r2.stats.cache_hits, r2.stats.cache_misses), (0, 0));
        assert_eq!(svc.stats().shards_table_decided, 2);
        assert_eq!(svc.launch_stats().total_launches(), 0, "no engine ran");
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every shard over at most `MAX_CONE_VARS` inputs — including a
        /// constant-true PO's input-free cone — gets exactly the verdict
        /// brute force gives (the lowest firing assignment as its cex),
        /// and the cex fires on the cone and, lifted, on the miter.
        #[test]
        fn table_verdicts_match_brute_force(
            num_pis in 1usize..9,
            num_ands in 1usize..40,
            num_pos in 1usize..5,
            seed in 0u64..1_000_000,
            constant_true in 0usize..2,
        ) {
            let mut m = parsweep_aig::random::random_aig(num_pis, num_ands, num_pos, seed);
            if constant_true == 1 {
                m.add_po(parsweep_aig::Lit::TRUE);
            }
            let mut pi_position = vec![usize::MAX; m.num_nodes()];
            for (p, pi) in m.pis().iter().enumerate() {
                pi_position[pi.index()] = p;
            }
            let tasks = shard_tasks(shard_miter(&m, ShardPolicy::PerOutput), &pi_position);
            for task in tasks {
                let k = task.cone.num_pis();
                let Some(verdict) = table_decision(&task.cone) else {
                    prop_assert!(k > MAX_CONE_VARS, "a {k}-input cone must have a table");
                    continue;
                };
                let brute = (0..1usize << k)
                    .map(|i| (0..k).map(|j| i >> j & 1 == 1).collect::<Vec<_>>())
                    .find(|bits| task.cone.eval(bits)[0])
                    .map_or(Verdict::Equivalent, |bits| Verdict::NotEquivalent(Cex::new(bits)));
                prop_assert_eq!(&verdict, &brute);
                if let Verdict::NotEquivalent(cex) = &verdict {
                    prop_assert!(cex.fires(&task.cone), "cex must fire on the cone");
                    match lift_verdict(verdict.clone(), &task.cone, &task.lift, m.num_pis()) {
                        Verdict::NotEquivalent(lifted) => {
                            prop_assert!(lifted.fires(&m), "lifted cex must fire on the miter");
                        }
                        other => prop_assert!(false, "lifting changed the verdict to {other:?}"),
                    }
                }
            }
        }
    }
}
