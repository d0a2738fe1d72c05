//! A lane-aware work-stealing worker pool on std primitives.
//!
//! Each worker owns one deque *per priority lane*; submission round-robins
//! jobs across the deques of the job's lane, a worker pops its own deque
//! from the front and steals from the back of others when idle. A single
//! gate (mutex + condvar over the pending-job count) puts truly idle
//! workers to sleep without a lost wakeup: a worker only waits while the
//! pending count is zero.
//!
//! **Lanes** ([`Lane`]): interactive work is preferred over batch work,
//! but not absolutely — every [`BATCH_SHARE`]'th dequeue checks the batch
//! deques first, so a flood of interactive jobs cannot starve batch work
//! entirely, while batch floods never delay interactive jobs by more than
//! the job currently executing.
//!
//! **Utilization accounting**: busy time is measured against the pool's
//! *active window* — from the first job dequeue to the last job settle
//! (extended to "now" while anything is pending or running) — not against
//! whole-process wall clock. A service that sits idle between bursts
//! therefore reports how busy its workers were *while there was work*,
//! which is the number a saturation bench needs.
//!
//! The pool exists to multiplex many *small* sub-jobs (sharded CEC cones)
//! over a few OS threads; jobs are plain `FnOnce(worker)` closures — the
//! executing worker's index lets callers keep worker-local state such as
//! per-worker executors — and all result routing happens through the
//! closures' own captured state.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce(usize) + Send + 'static>;

/// Priority lane of a submitted job.
///
/// Interactive work is drained preferentially (see `BATCH_SHARE`);
/// batch work fills whatever capacity remains, with an anti-starvation
/// share so heavy interactive traffic cannot park batch jobs forever.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Latency-sensitive traffic: drained first.
    #[default]
    Interactive,
    /// Throughput traffic: drained when no interactive work is queued,
    /// plus a guaranteed share of dequeues under contention.
    Batch,
}

impl Lane {
    /// Both lanes, interactive first.
    pub const ALL: [Lane; 2] = [Lane::Interactive, Lane::Batch];

    /// Dense index (0 = interactive, 1 = batch) for per-lane arrays.
    pub fn index(self) -> usize {
        match self {
            Lane::Interactive => 0,
            Lane::Batch => 1,
        }
    }

    /// Wire name, as used in the JSONL protocol's `"lane"` field.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Interactive => "interactive",
            Lane::Batch => "batch",
        }
    }

    /// Parses a wire name; `None` for anything else.
    pub fn from_name(name: &str) -> Option<Lane> {
        match name {
            "interactive" => Some(Lane::Interactive),
            "batch" => Some(Lane::Batch),
            _ => None,
        }
    }
}

/// Every `BATCH_SHARE`'th dequeue prefers the batch lane, so batch work
/// keeps a guaranteed 1/`BATCH_SHARE` share of worker attention under
/// sustained interactive load.
const BATCH_SHARE: u64 = 4;

/// Sentinel for "no dequeue recorded yet" in the busy-window accounting.
const NEVER: u64 = u64::MAX;

struct Gate {
    pending: usize,
    shutdown: bool,
}

struct Shared {
    /// `lanes[lane][worker]` — one deque per worker per lane.
    lanes: [Vec<Mutex<VecDeque<Job>>>; 2],
    gate: Mutex<Gate>,
    wake: Condvar,
    started: Instant,
    busy_nanos: AtomicU64,
    executed: AtomicU64,
    steals: AtomicU64,
    /// Total dequeues, for the batch anti-starvation rotation.
    dequeues: AtomicU64,
    /// Jobs currently executing.
    running: AtomicUsize,
    /// Nanos (since `started`) of the first job dequeue; [`NEVER`] until
    /// a job runs.
    first_dequeue_nanos: AtomicU64,
    /// Nanos (since `started`) of the most recent job settle.
    last_settle_nanos: AtomicU64,
}

impl Shared {
    /// Pops a job: preferred lane first (own deque front, then steal from
    /// the back of the other deques — oldest work first, minimizing
    /// contention with the owner popping the front), then the other lane.
    fn take_job(&self, me: usize) -> Option<Job> {
        let n = self.dequeues.fetch_add(1, Ordering::Relaxed);
        let order = if n % BATCH_SHARE == BATCH_SHARE - 1 {
            [Lane::Batch, Lane::Interactive]
        } else {
            [Lane::Interactive, Lane::Batch]
        };
        for lane in order {
            let deques = &self.lanes[lane.index()];
            if let Some(job) = deques[me].lock().unwrap().pop_front() {
                return Some(job);
            }
            for offset in 1..deques.len() {
                let victim = (me + offset) % deques.len();
                if let Some(job) = deques[victim].lock().unwrap().pop_back() {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                    return Some(job);
                }
            }
        }
        None
    }
}

/// A fixed-size lane-aware work-stealing thread pool.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    next: AtomicUsize,
}

impl WorkerPool {
    /// Starts `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let mk_deques = || (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        let shared = Arc::new(Shared {
            lanes: [mk_deques(), mk_deques()],
            gate: Mutex::new(Gate {
                pending: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            started: Instant::now(),
            busy_nanos: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            dequeues: AtomicU64::new(0),
            running: AtomicUsize::new(0),
            first_dequeue_nanos: AtomicU64::new(NEVER),
            last_settle_nanos: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("svc-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn svc worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            next: AtomicUsize::new(0),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Enqueues an interactive-lane job (see [`WorkerPool::spawn_in`]).
    pub fn spawn<F: FnOnce(usize) + Send + 'static>(&self, job: F) {
        self.spawn_in(Lane::Interactive, job);
    }

    /// Enqueues a job on the next deque of `lane` (round-robin) and wakes
    /// a worker. The job receives the index of the worker that executes
    /// it (which, with stealing, need not be the deque it was enqueued
    /// on).
    pub fn spawn_in<F: FnOnce(usize) + Send + 'static>(&self, lane: Lane, job: F) {
        // Count the job before any worker can see it: a worker that takes
        // it decrements `pending`, which must never go below zero.
        self.shared.gate.lock().unwrap().pending += 1;
        let deques = &self.shared.lanes[lane.index()];
        let slot = self.next.fetch_add(1, Ordering::Relaxed) % deques.len();
        deques[slot].lock().unwrap().push_back(Box::new(job));
        self.shared.wake.notify_one();
    }

    /// Jobs executed so far.
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Cross-deque steals so far.
    pub fn steals(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Busy time and active-window accounting: total thread-time spent
    /// executing jobs, and the wall span from the first job dequeue to
    /// the last settle (extended to now while work is pending or
    /// running). Both are zero before any job ran.
    pub fn busy_window(&self) -> (Duration, Duration) {
        let busy = Duration::from_nanos(self.shared.busy_nanos.load(Ordering::Relaxed));
        let first = self.shared.first_dequeue_nanos.load(Ordering::Relaxed);
        if first == NEVER {
            return (busy, Duration::ZERO);
        }
        let active = self.shared.running.load(Ordering::Relaxed) > 0 || {
            let gate = self.shared.gate.lock().unwrap();
            gate.pending > 0
        };
        let end = if active {
            self.shared.started.elapsed().as_nanos() as u64
        } else {
            self.shared.last_settle_nanos.load(Ordering::Relaxed)
        };
        (busy, Duration::from_nanos(end.saturating_sub(first)))
    }

    /// Fraction of the pool's thread-time spent executing jobs across the
    /// pool's *active window* — first dequeue to last settle — rather
    /// than whole-process wall clock (0.0–1.0; 0.0 before any job ran).
    pub fn utilization(&self) -> f64 {
        let (busy, window) = self.busy_window();
        let denom = window.as_secs_f64() * self.handles.len() as f64;
        if denom <= 0.0 {
            return 0.0;
        }
        (busy.as_secs_f64() / denom).min(1.0)
    }
}

impl Drop for WorkerPool {
    /// Drains remaining jobs, then stops and joins every worker.
    fn drop(&mut self) {
        {
            let mut gate = self.shared.gate.lock().unwrap();
            gate.shutdown = true;
        }
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    loop {
        match shared.take_job(me) {
            Some(job) => {
                {
                    let mut gate = shared.gate.lock().unwrap();
                    gate.pending -= 1;
                }
                shared.running.fetch_add(1, Ordering::Relaxed);
                let t = Instant::now();
                let since_start = t.duration_since(shared.started).as_nanos() as u64;
                let _ = shared.first_dequeue_nanos.compare_exchange(
                    NEVER,
                    since_start,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                job(me);
                shared
                    .busy_nanos
                    .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                shared.last_settle_nanos.fetch_max(
                    shared.started.elapsed().as_nanos() as u64,
                    Ordering::Relaxed,
                );
                shared.running.fetch_sub(1, Ordering::Relaxed);
                shared.executed.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                let gate = shared.gate.lock().unwrap();
                // A job may have been enqueued between the failed scan and
                // taking the lock; only sleep while nothing is pending.
                if gate.pending == 0 {
                    if gate.shutdown {
                        return;
                    }
                    let _unused = shared.wake.wait(gate).unwrap();
                } else {
                    // Pending but another worker holds it mid-steal: back
                    // off briefly instead of spinning on the deque locks.
                    drop(gate);
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;

    #[test]
    fn executes_every_job() {
        let pool = WorkerPool::new(3);
        let counter = Arc::new(Counter::new(0));
        for i in 0..100u64 {
            let counter = Arc::clone(&counter);
            let lane = if i % 3 == 0 {
                Lane::Batch
            } else {
                Lane::Interactive
            };
            pool.spawn_in(lane, move |_w| {
                counter.fetch_add(i + 1, Ordering::Relaxed);
            });
        }
        drop(pool); // drains and joins
        assert_eq!(counter.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn jobs_spawned_from_jobs_complete() {
        let pool = Arc::new(WorkerPool::new(2));
        let counter = Arc::new(Counter::new(0));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for _ in 0..8 {
            let pool2 = Arc::clone(&pool);
            let counter = Arc::clone(&counter);
            let done = done_tx.clone();
            pool.spawn(move |_w| {
                let counter2 = Arc::clone(&counter);
                let done2 = done.clone();
                pool2.spawn(move |_w| {
                    counter2.fetch_add(1, Ordering::Relaxed);
                    done2.send(()).unwrap();
                });
            });
        }
        for _ in 0..8 {
            done_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 8);
        // Let in-flight closures (each holding a pool Arc) finish dropping
        // so the final Arc — and thus the joining Drop — runs here, not on
        // a worker thread.
        while Arc::strong_count(&pool) > 1 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn stats_track_execution() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.workers(), 2);
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..16 {
            let tx = tx.clone();
            pool.spawn(move |_w| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                tx.send(()).unwrap();
            });
        }
        for _ in 0..16 {
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        }
        // The send happens inside the job; the executed counter bumps just
        // after it returns, so give the last worker a moment to get there.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while pool.executed() < 16 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(pool.executed(), 16);
        assert!(pool.utilization() > 0.0);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let (tx, rx) = std::sync::mpsc::channel();
        pool.spawn(move |w| tx.send(w).unwrap());
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)), Ok(0));
    }

    #[test]
    fn utilization_uses_active_window_not_process_wall() {
        let pool = WorkerPool::new(1);
        // Let process wall clock accumulate while the pool is idle: the
        // old accounting would dilute utilization by this idle time.
        std::thread::sleep(Duration::from_millis(30));
        let (tx, rx) = std::sync::mpsc::channel();
        pool.spawn(move |_w| {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(10)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.executed() < 1 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let (busy, window) = pool.busy_window();
        assert!(busy >= Duration::from_millis(15), "busy: {busy:?}");
        assert!(
            window < Duration::from_millis(200),
            "window must exclude pre-first-job idle: {window:?}"
        );
        assert!(
            pool.utilization() > 0.5,
            "one 20ms job in a ~20ms window: {:.3}",
            pool.utilization()
        );
    }

    #[test]
    fn busy_window_zero_before_any_job() {
        let pool = WorkerPool::new(2);
        std::thread::sleep(Duration::from_millis(5));
        let (busy, window) = pool.busy_window();
        assert_eq!(busy, Duration::ZERO);
        assert_eq!(window, Duration::ZERO);
        assert_eq!(pool.utilization(), 0.0);
    }

    #[test]
    fn batch_lane_shares_dequeues_under_interactive_flood() {
        // One worker, blocked while we enqueue: a batch job plus many
        // interactive jobs. The anti-starvation rotation must run the
        // batch job well before the interactive backlog is exhausted.
        let pool = WorkerPool::new(1);
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        pool.spawn(move |_w| {
            let _ = gate_rx.recv(); // hold the worker
        });
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..12u64 {
            let order = Arc::clone(&order);
            pool.spawn_in(Lane::Interactive, move |_w| {
                order.lock().unwrap().push(format!("i{i}"));
            });
        }
        let order2 = Arc::clone(&order);
        pool.spawn_in(Lane::Batch, move |_w| {
            order2.lock().unwrap().push("batch".into());
        });
        gate_tx.send(()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.executed() < 14 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let order = order.lock().unwrap().clone();
        let pos = order
            .iter()
            .position(|s| s == "batch")
            .expect("batch job ran");
        assert!(
            pos < order.len() - 1,
            "batch job must not be last behind the whole interactive flood: {order:?}"
        );
    }

    #[test]
    fn a_job_taken_as_soon_as_it_is_queued_keeps_the_worker_alive() {
        // Two threads flood one worker with trivial jobs, so it takes
        // many of them the instant they are queued. Every job must run:
        // a worker that miscounted pending jobs would panic and strand
        // everything queued behind it. The race is timing-dependent, so
        // the flood repeats on fresh pools.
        for _ in 0..8 {
            let pool = Arc::new(WorkerPool::new(1));
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            let spawners: Vec<_> = (0..2)
                .map(|_| {
                    let pool = Arc::clone(&pool);
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for _ in 0..20_000 {
                            let tx = tx.clone();
                            pool.spawn(move |_w| tx.send(()).unwrap());
                        }
                    })
                })
                .collect();
            for spawner in spawners {
                spawner.join().unwrap();
            }
            for n in 0..40_000 {
                rx.recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|_| panic!("only {n} of 40000 jobs ran"));
            }
        }
    }
}
