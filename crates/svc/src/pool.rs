//! A lane-aware worker pool on std primitives.
//!
//! One mutex guards one queue per priority lane; workers sleep on a
//! condvar while both are empty. The pool multiplexes many *small*
//! sub-jobs (sharded CEC cones) over a few OS threads; jobs are plain
//! `FnOnce(worker)` closures — the executing worker's index lets callers
//! keep worker-local state such as per-worker executors — and all result
//! routing happens through the closures' own captured state.
//!
//! **Lanes** ([`Lane`]): interactive work is preferred over batch work,
//! but not absolutely — every [`BATCH_SHARE`]'th dequeue checks the batch
//! queue first, so a flood of interactive jobs cannot starve batch work
//! entirely, while batch floods never delay interactive jobs by more than
//! the job currently executing.
//!
//! **Utilization accounting**: busy time is measured against the pool's
//! *active window* — from the first job dequeue to the last job settle
//! (extended to "now" while anything is queued or running) — not against
//! whole-process wall clock. A service that sits idle between bursts
//! therefore reports how busy its workers were *while there was work*.

use std::collections::VecDeque;
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

/// The queues and the accounting, all under one lock.
struct State {
    /// `lanes[lane]`: jobs waiting on that lane, oldest first.
    lanes: [VecDeque<Job>; 2],
    /// Total dequeues, for the batch anti-starvation rotation.
    dequeues: u64,
    /// Jobs currently executing.
    running: usize,
    /// Thread-time spent executing jobs.
    busy: Duration,
    /// When the first job was dequeued; `None` until a job runs.
    first_dequeue: Option<Instant>,
    /// When the most recent job settled.
    last_settle: Option<Instant>,
    shutdown: bool,
}

impl State {
    /// Pops the next job: the preferred lane first, then the other one.
    fn pop(&mut self) -> Option<Job> {
        let order = if self.dequeues % BATCH_SHARE == BATCH_SHARE - 1 {
            [Lane::Batch, Lane::Interactive]
        } else {
            [Lane::Interactive, Lane::Batch]
        };
        let job = order
            .into_iter()
            .find_map(|lane| self.lanes[lane.index()].pop_front())?;
        self.dequeues += 1;
        Some(job)
    }
}

struct Shared {
    state: Mutex<State>,
    wake: Condvar,
}

/// A fixed-size lane-aware thread pool.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Starts `workers` threads (at least one).
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                lanes: [VecDeque::new(), VecDeque::new()],
                dequeues: 0,
                running: 0,
                busy: Duration::ZERO,
                first_dequeue: None,
                last_settle: None,
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        let handles = (0..workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("svc-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn svc worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Enqueues a job on `lane` and wakes a worker. The job receives the
    /// index of the worker that executes it.
    pub(crate) fn spawn_in<F: FnOnce(usize) + Send + 'static>(&self, lane: Lane, job: F) {
        self.shared.state.lock().unwrap().lanes[lane.index()].push_back(Box::new(job));
        self.shared.wake.notify_one();
    }

    /// Busy time and active-window accounting: total thread-time spent
    /// executing jobs, and the wall span from the first job dequeue to
    /// the last settle (extended to now while work is queued or
    /// running). Both are zero before any job ran.
    fn busy_window(&self) -> (Duration, Duration) {
        let st = self.shared.state.lock().unwrap();
        let Some(first) = st.first_dequeue else {
            return (st.busy, Duration::ZERO);
        };
        let active = st.running > 0 || st.lanes.iter().any(|q| !q.is_empty());
        let end = match st.last_settle {
            Some(last) if !active => last,
            _ => Instant::now(),
        };
        (st.busy, end.saturating_duration_since(first))
    }

    /// Fraction of the pool's thread-time spent executing jobs across the
    /// pool's *active window* — first dequeue to last settle — rather
    /// than whole-process wall clock (0.0–1.0; 0.0 before any job ran).
    pub(crate) fn utilization(&self) -> f64 {
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
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    let mut st = shared.state.lock().unwrap();
    loop {
        if let Some(job) = st.pop() {
            st.running += 1;
            let start = Instant::now();
            st.first_dequeue.get_or_insert(start);
            drop(st);
            job(me);
            let end = Instant::now();
            st = shared.state.lock().unwrap();
            st.running -= 1;
            st.busy += end - start;
            st.last_settle = st.last_settle.max(Some(end));
        } else if st.shutdown {
            return;
        } else {
            st = shared.wake.wait(st).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64 as Counter, Ordering};

    /// Waits until every queued job has run and been accounted.
    fn wait_idle(pool: &WorkerPool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            let st = pool.shared.state.lock().unwrap();
            if st.running == 0 && st.lanes.iter().all(VecDeque::is_empty) {
                return;
            }
            drop(st);
            std::thread::yield_now();
        }
        panic!("pool did not go idle");
    }

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
            pool.spawn_in(Lane::Interactive, move |_w| {
                let counter2 = Arc::clone(&counter);
                let done2 = done.clone();
                pool2.spawn_in(Lane::Interactive, move |_w| {
                    counter2.fetch_add(1, Ordering::Relaxed);
                    done2.send(()).unwrap();
                });
            });
        }
        for _ in 0..8 {
            done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
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
            pool.spawn_in(Lane::Interactive, move |_w| {
                std::thread::sleep(Duration::from_millis(1));
                tx.send(()).unwrap();
            });
        }
        for _ in 0..16 {
            rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        // The send happens inside the job; its busy time is booked just
        // after it returns, so give the last worker a moment to get there.
        wait_idle(&pool);
        assert!(pool.utilization() > 0.0);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let (tx, rx) = std::sync::mpsc::channel();
        pool.spawn_in(Lane::Interactive, move |w| tx.send(w).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(0));
    }

    #[test]
    fn utilization_uses_active_window_not_process_wall() {
        let pool = WorkerPool::new(1);
        // Let process wall clock accumulate while the pool is idle: the
        // old accounting would dilute utilization by this idle time.
        std::thread::sleep(Duration::from_millis(30));
        let (tx, rx) = std::sync::mpsc::channel();
        pool.spawn_in(Lane::Interactive, move |_w| {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(10)).unwrap();
        wait_idle(&pool);
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
        pool.spawn_in(Lane::Interactive, move |_w| {
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
        wait_idle(&pool);
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
                            pool.spawn_in(Lane::Interactive, move |_w| tx.send(()).unwrap());
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
