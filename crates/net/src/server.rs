//! The TCP JSONL server: bounded acceptor, per-connection threads,
//! admission-controlled submits, pushed results.
//!
//! Protocol: the same flat-object JSON lines the stdin front-end speaks
//! ([`parsweep_svc::frontend`]), with two differences a multi-client
//! transport forces:
//!
//! * **Submit responses carry an admission verdict.** A submit answers
//!   `{"event":"submitted","admission":"accepted","job":N}` or
//!   `{"admission":"queued","depth":N}`, or
//!   `{"event":"rejected","retry_after_ms":N}` when the lane queue is
//!   full. Queued jobs are granted later — in client round-robin order —
//!   as running jobs settle.
//! * **Results are pushed.** A settled job's `result` event is written
//!   to its connection as soon as it settles (tagged with the submit's
//!   `"id"` so clients can multiplex); `{"op":"drain"}` just blocks
//!   until this connection has nothing outstanding, then emits a `stats`
//!   event.
//!
//! Threading is std-only: one acceptor thread (non-blocking accept
//! polled against the stop flag, connections over `max_connections` get
//! an `error` event and are closed), one thread per connection (reads
//! with a poll timeout so shutdown is prompt; partial lines survive
//! timeouts), and a fixed pool of *waiter* threads — one per admission
//! budget slot, since each in-flight job needs one blocked
//! [`CecService::wait_take`] — that push each settled job's result,
//! release its budget, and submit whatever grants the release
//! unblocked. The pool is spawned once at bind: under saturation no
//! thread is created or destroyed per job.
//! Shutdown ([`NetServer::stop`]) is the same drain-and-report path the
//! stdin binary takes on SIGINT: stop accepting, let in-flight and
//! queued jobs settle, deliver their results, then join every thread.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parsweep_aig::Aig;
use parsweep_svc::frontend::{
    self, error_fields, parse_submit, push_id, result_fields, stats_fields, MiterCache,
};
use parsweep_svc::jsonl::{emit_object, get, parse_object, JsonValue};
use parsweep_svc::{CecService, Lane, SubmitOpts, SvcConfig};
use parsweep_trace as trace;
use parsweep_trace::metrics::{
    render_counter, render_gauge, render_labeled_gauge, render_labeled_histogram, Histogram,
};

use crate::admission::{Admission, AdmissionConfig, Decision, Grant};

/// How long blocking reads and waits poll before re-checking the stop
/// flag: the upper bound on shutdown latency per thread.
const POLL: Duration = Duration::from_millis(50);

/// Server configuration: the service it fronts plus transport bounds.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// The underlying CEC service.
    pub svc: SvcConfig,
    /// Admission control bounds (budget, queues, quotas).
    pub admission: AdmissionConfig,
    /// Concurrent connections accepted; excess connections receive an
    /// `error` event and are closed immediately.
    pub max_connections: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            svc: SvcConfig::default(),
            admission: AdmissionConfig::default(),
            max_connections: 64,
        }
    }
}

/// A job that passed parsing but not yet admission: everything needed to
/// submit it once granted.
struct PendingJob {
    request_id: Option<u64>,
    miter: Aig,
    deadline: Option<Duration>,
    /// When the client offered it — per-lane latency is measured from
    /// here, so queue time counts.
    offered: Instant,
}

/// A granted, submitted job handed to the waiter pool: everything a
/// waiter needs to deliver the result and release the budget slot.
struct WaitJob {
    job: parsweep_svc::JobId,
    conn: Arc<ConnState>,
    lane: Lane,
    request_id: Option<u64>,
    offered: Instant,
    granted: Instant,
}

/// The waiter pool's inbox: a plain queue + condvar so waiters sleep
/// between jobs instead of polling.
struct WaitQueue {
    q: Mutex<std::collections::VecDeque<WaitJob>>,
    ready: Condvar,
}

impl WaitQueue {
    fn new() -> WaitQueue {
        WaitQueue {
            q: Mutex::new(std::collections::VecDeque::new()),
            ready: Condvar::new(),
        }
    }

    fn push(&self, job: WaitJob) {
        self.q.lock().unwrap().push_back(job);
        self.ready.notify_one();
    }

    /// Pops the next assignment, sleeping at most `timeout` — the caller
    /// re-checks its exit condition on `None`.
    fn pop_timeout(&self, timeout: Duration) -> Option<WaitJob> {
        let mut q = self.q.lock().unwrap();
        if let Some(job) = q.pop_front() {
            return Some(job);
        }
        let (mut q, _) = self.ready.wait_timeout(q, timeout).unwrap();
        q.pop_front()
    }
}

/// Per-connection shared state: the writer half (used by waiter threads
/// to push results) and the outstanding-job count `drain` blocks on.
struct ConnState {
    id: u64,
    writer: Mutex<TcpStream>,
    outstanding: Mutex<usize>,
    idle: Condvar,
}

impl ConnState {
    /// Writes one event line; errors are ignored (a dead connection is
    /// detected and cleaned up by its reader thread).
    fn send(&self, line: &str) {
        let mut w = self.writer.lock().unwrap();
        let _ = w.write_all(line.as_bytes());
        let _ = w.write_all(b"\n");
    }

    /// Writes a pre-assembled batch of newline-terminated event lines in
    /// one syscall — the response path for a burst of pipelined requests.
    fn send_batch(&self, lines: &str) {
        if lines.is_empty() {
            return;
        }
        let mut w = self.writer.lock().unwrap();
        let _ = w.write_all(lines.as_bytes());
    }

    fn job_started(&self) {
        *self.outstanding.lock().unwrap() += 1;
    }

    fn job_finished(&self) {
        let mut n = self.outstanding.lock().unwrap();
        *n = n.saturating_sub(1);
        if *n == 0 {
            self.idle.notify_all();
        }
    }
}

struct NetCounters {
    connections: AtomicU64,
    connections_rejected: AtomicU64,
    results_pushed: AtomicU64,
    lane_latency: [Histogram; 2],
}

struct ServerInner {
    cfg: NetConfig,
    svc: CecService,
    admission: Admission<PendingJob>,
    stop: AtomicBool,
    conns: Mutex<HashMap<u64, Arc<ConnState>>>,
    next_conn: AtomicU64,
    active_conns: AtomicUsize,
    /// Granted jobs enqueued for the waiter pool but not yet delivered;
    /// the drain in [`NetServer::stop`] waits this out.
    live_waits: AtomicUsize,
    wait_queue: WaitQueue,
    /// Path → parsed-AIG cache shared by every connection's submit path.
    files: MiterCache,
    counters: NetCounters,
}

impl ServerInner {
    /// True once nothing is admitted, queued, or awaiting delivery — the
    /// drain condition both [`NetServer::stop`] and idle waiters check.
    fn drained(&self) -> bool {
        let st = self.admission.stats();
        st.in_flight == 0 && st.queue_depth == [0, 0] && self.live_waits.load(Ordering::SeqCst) == 0
    }
}

/// The multi-client TCP front-end. Binding spawns the acceptor; dropping
/// the server performs a full [`NetServer::stop`].
pub struct NetServer {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    waiters: Vec<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    stopped: bool,
}

/// Upper bound on waiter threads: each blocked `wait_take` needs one, so
/// the pool matches the admission budget, but an absurd budget must not
/// translate into an absurd thread count (beyond the cap, delivery of a
/// settled job can wait for a free waiter).
const MAX_WAITERS: usize = 64;

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections.
    pub fn bind(addr: impl ToSocketAddrs, cfg: NetConfig) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(ServerInner {
            svc: CecService::new(cfg.svc.clone()),
            admission: Admission::new(cfg.admission.clone()),
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(1),
            active_conns: AtomicUsize::new(0),
            live_waits: AtomicUsize::new(0),
            wait_queue: WaitQueue::new(),
            files: MiterCache::default(),
            counters: NetCounters {
                connections: AtomicU64::new(0),
                connections_rejected: AtomicU64::new(0),
                results_pushed: AtomicU64::new(0),
                lane_latency: [Histogram::latency_default(), Histogram::latency_default()],
            },
            cfg,
        });
        let waiters = (0..inner.cfg.admission.max_in_flight.clamp(1, MAX_WAITERS))
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("net-waiter-{w}"))
                    .spawn(move || waiter_loop(&inner))
                    .expect("spawn net waiter")
            })
            .collect();
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let inner = Arc::clone(&inner);
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::spawn(move || accept_loop(listener, inner, conn_threads))
        };
        Ok(NetServer {
            inner,
            addr,
            acceptor: Some(acceptor),
            waiters,
            conn_threads,
            stopped: false,
        })
    }

    /// The bound address (the actual port when bound ephemeral).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the front-end (stats, busy window, metrics).
    pub fn svc(&self) -> &CecService {
        &self.inner.svc
    }

    /// Admission counters (accepted/queued/rejected, depths).
    pub fn admission_stats(&self) -> crate::admission::AdmissionStats {
        self.inner.admission.stats()
    }

    /// Graceful shutdown: stop accepting, let every in-flight *and
    /// queued* job settle and deliver its result, then join all threads.
    /// Idempotent. This is the same drain semantics the stdin binary
    /// applies on SIGINT — nothing admitted is ever dropped.
    pub fn stop(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Admitted work drains through the settle→grant chain; poll until
        // the controller is empty and the last result has been delivered.
        while !self.inner.drained() {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Waiters exit on their next poll tick once stop is set and the
        // drain condition holds.
        self.inner.wait_queue.ready.notify_all();
        for h in self.waiters.drain(..) {
            let _ = h.join();
        }
        let handles: Vec<_> = self.conn_threads.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Service metrics plus the `parsweep_net_*` transport section.
    pub fn metrics_text(&self) -> String {
        let mut out = self.inner.svc.metrics_text();
        let c = &self.inner.counters;
        let adm = self.inner.admission.stats();
        render_counter(
            &mut out,
            "parsweep_net_connections_total",
            "Connections accepted since startup.",
            c.connections.load(Ordering::Relaxed),
        );
        render_counter(
            &mut out,
            "parsweep_net_connections_rejected_total",
            "Connections turned away by the acceptor bound.",
            c.connections_rejected.load(Ordering::Relaxed),
        );
        render_gauge(
            &mut out,
            "parsweep_net_active_connections",
            "Connections currently open.",
            self.inner.active_conns.load(Ordering::Relaxed) as f64,
        );
        render_counter(
            &mut out,
            "parsweep_net_submits_accepted_total",
            "Submits granted immediately.",
            adm.accepted,
        );
        render_counter(
            &mut out,
            "parsweep_net_submits_queued_total",
            "Submits that waited in a lane queue.",
            adm.queued,
        );
        render_counter(
            &mut out,
            "parsweep_net_submits_rejected_total",
            "Submits rejected with a retry_after_ms hint.",
            adm.rejected,
        );
        render_gauge(
            &mut out,
            "parsweep_net_in_flight_jobs",
            "Jobs currently running under the admission budget.",
            adm.in_flight as f64,
        );
        render_labeled_gauge(
            &mut out,
            "parsweep_net_queue_depth",
            "Jobs waiting for admission, per lane.",
            "lane",
            &Lane::ALL
                .iter()
                .map(|l| (l.name(), adm.queue_depth[l.index()] as f64))
                .collect::<Vec<_>>(),
        );
        render_counter(
            &mut out,
            "parsweep_net_results_pushed_total",
            "Result events pushed to clients.",
            c.results_pushed.load(Ordering::Relaxed),
        );
        render_labeled_histogram(
            &mut out,
            "parsweep_net_job_latency_seconds",
            "Offer-to-settle latency per lane (queue time included).",
            "lane",
            &Lane::ALL
                .iter()
                .map(|l| (l.name(), c.lane_latency[l.index()].snapshot()))
                .collect::<Vec<_>>(),
        );
        out
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    inner: Arc<ServerInner>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !inner.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if inner.active_conns.load(Ordering::SeqCst) >= inner.cfg.max_connections {
                    inner
                        .counters
                        .connections_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    trace::instant("net", "conn.rejected", vec![]);
                    let mut stream = stream;
                    let _ = stream.write_all(
                        emit_object(&error_fields(
                            "server full: connection limit reached".into(),
                        ))
                        .as_bytes(),
                    );
                    let _ = stream.write_all(b"\n");
                    continue;
                }
                let id = inner.next_conn.fetch_add(1, Ordering::Relaxed);
                inner.active_conns.fetch_add(1, Ordering::SeqCst);
                inner.counters.connections.fetch_add(1, Ordering::Relaxed);
                trace::instant(
                    "net",
                    "conn.accepted",
                    vec![("client", trace::ArgValue::U64(id))],
                );
                let inner2 = Arc::clone(&inner);
                let handle = std::thread::spawn(move || connection_loop(stream, id, inner2));
                conn_threads.lock().unwrap().push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// A connection's claim on the server: its `active_conns` count, its
/// `conns` entry and its admission state. Dropping it gives all three
/// back on every exit of the connection thread, a panic unwinding
/// included — except a server stop, which leaves the connection
/// registered so results of still-draining jobs can be delivered
/// (`stop()` joins the thread after the drain and the whole map drops
/// with the server).
struct ConnSlot {
    id: u64,
    inner: Arc<ServerInner>,
    stopping: bool,
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        if self.stopping {
            return;
        }
        // Client hung up: queued jobs are dropped, in-flight ones settle
        // into a closed socket (harmless). Bound the per-client tables.
        // A panic here while the thread unwinds would abort the server, so
        // a table some panicking thread poisoned is skipped instead; the
        // connection slot itself is always given back.
        let (id, inner) = (self.id, &self.inner);
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let (_dropped, grants) = inner.admission.purge_client(id);
            process_grants(inner, grants);
            inner.svc.forget_client(id);
        }));
        inner
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
        inner.active_conns.fetch_sub(1, Ordering::SeqCst);
        trace::instant(
            "net",
            "conn.closed",
            vec![("client", trace::ArgValue::U64(id))],
        );
    }
}

fn connection_loop(stream: TcpStream, conn_id: u64, inner: Arc<ServerInner>) {
    let mut slot = ConnSlot {
        id: conn_id,
        inner: Arc::clone(&inner),
        stopping: false,
    };
    trace::set_thread_label(&format!("net-conn-{conn_id}"));
    let mut span = trace::span("net", "conn");
    span.arg_u64("client", conn_id);
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let state = Arc::new(ConnState {
        id: conn_id,
        writer: Mutex::new(writer),
        outstanding: Mutex::new(0),
        idle: Condvar::new(),
    });
    inner
        .conns
        .lock()
        .unwrap()
        .insert(conn_id, Arc::clone(&state));

    slot.stopping = read_requests(stream, &state, &inner);
}

/// Reads and handles request lines until EOF/error (returns false) or a
/// server stop (returns true). Partial lines survive poll timeouts. All
/// complete lines of one read are handled as a burst and their immediate
/// responses written back in a single syscall, so a pipelining client
/// pays per-batch, not per-request, transport overhead.
fn read_requests(mut stream: TcpStream, state: &Arc<ConnState>, inner: &Arc<ServerInner>) -> bool {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut out = String::new();
    loop {
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line[..line.len() - 1]);
            let line = line.trim();
            if !line.is_empty() {
                handle_line(line, state, inner, &mut out);
            }
        }
        state.send_batch(&out);
        out.clear();
        if inner.stop.load(Ordering::SeqCst) {
            return true;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return false,
        }
    }
}

/// Handles one request line, appending immediate response events to
/// `out` (newline-terminated; the caller writes the whole burst in one
/// syscall). Blocking ops (`drain`) flush `out` before waiting.
fn handle_line(line: &str, state: &Arc<ConnState>, inner: &Arc<ServerInner>, out: &mut String) {
    let fields = match parse_object(line) {
        Ok(f) => f,
        Err(e) => {
            out.push_str(&emit_object(&error_fields(e.to_string())));
            out.push('\n');
            return;
        }
    };
    let id = frontend::request_id(&fields);
    fn append(out: &mut String, id: Option<u64>, mut f: Vec<(&'static str, JsonValue)>) {
        push_id(&mut f, id);
        out.push_str(&emit_object(&f));
        out.push('\n');
    }
    let mut send = |f: Vec<(&'static str, JsonValue)>| append(out, id, f);
    let op = match get(&fields, "op").and_then(JsonValue::as_str) {
        Some(op) => op,
        None => {
            send(error_fields("missing 'op'".into()));
            return;
        }
    };
    match op {
        "submit" => {
            let req = match parse_submit(&fields, &inner.files) {
                Ok(r) => r,
                Err(msg) => {
                    send(error_fields(msg));
                    return;
                }
            };
            let pending = PendingJob {
                request_id: id,
                miter: req.miter,
                deadline: req.deadline,
                offered: Instant::now(),
            };
            // Count the job as outstanding from the *offer*, not the
            // grant: `drain` must wait out queued jobs too. (Before the
            // offer, so a grant's waiter can never decrement first.)
            state.job_started();
            let (decision, grants) = inner.admission.offer(state.id, req.lane, pending);
            let submitted = process_grants(inner, grants);
            match decision {
                Decision::Accepted => {
                    // The offered job itself is the last grant processed
                    // for this client.
                    let job = submitted
                        .iter()
                        .rev()
                        .find(|(c, _)| *c == state.id)
                        .map(|&(_, job)| job);
                    let mut f = vec![
                        ("event", JsonValue::Str("submitted".into())),
                        ("admission", JsonValue::Str("accepted".into())),
                    ];
                    if let Some(job) = job {
                        f.push(("job", JsonValue::Num(job.0 as f64)));
                    }
                    send(f);
                }
                Decision::Queued { depth } => send(vec![
                    ("event", JsonValue::Str("submitted".into())),
                    ("admission", JsonValue::Str("queued".into())),
                    ("depth", JsonValue::Num(depth as f64)),
                ]),
                Decision::Rejected { retry_after_ms } => {
                    state.job_finished();
                    trace::instant(
                        "net",
                        "submit.rejected",
                        vec![("client", trace::ArgValue::U64(state.id))],
                    );
                    send(vec![
                        ("event", JsonValue::Str("rejected".into())),
                        ("retry_after_ms", JsonValue::Num(retry_after_ms as f64)),
                    ]);
                }
            }
        }
        "drain" => {
            // About to block: flush the burst's buffered responses first
            // so the client sees its acks while the drain waits.
            state.send_batch(out);
            out.clear();
            // Block until this connection has nothing outstanding (its
            // results were already pushed), then report stats.
            let mut outstanding = state.outstanding.lock().unwrap();
            while *outstanding > 0 && !inner.stop.load(Ordering::SeqCst) {
                let (guard, _) = state.idle.wait_timeout(outstanding, POLL).unwrap();
                outstanding = guard;
            }
            drop(outstanding);
            append(out, id, stats_fields(&inner.svc));
        }
        "stats" => send(stats_fields(&inner.svc)),
        "metrics" => {
            // Transport metrics need the server handle; the service view
            // is rendered here and the net section appended by the
            // binary's periodic dump instead. Over the wire, serve the
            // full service text.
            send(vec![
                ("event", JsonValue::Str("metrics".into())),
                ("text", JsonValue::Str(inner.svc.metrics_text())),
            ]);
        }
        other => send(error_fields(format!("unknown op '{other}'"))),
    }
}

/// Submits granted jobs and hands them to the waiter pool. Grants whose
/// connection is gone release their budget immediately (which can grant
/// further jobs — handled iteratively, not recursively). Returns the
/// `(client, job)` pairs actually submitted, in grant order.
fn process_grants(
    inner: &Arc<ServerInner>,
    grants: Vec<Grant<PendingJob>>,
) -> Vec<(u64, parsweep_svc::JobId)> {
    let mut worklist: std::collections::VecDeque<Grant<PendingJob>> = grants.into();
    let mut submitted = Vec::new();
    while let Some(grant) = worklist.pop_front() {
        let conn = inner.conns.lock().unwrap().get(&grant.client).cloned();
        let Some(conn) = conn else {
            // Granted to a client that vanished between queue and grant:
            // give the budget back and keep pumping.
            worklist.extend(inner.admission.settle(grant.client, Duration::ZERO));
            continue;
        };
        // Outstanding was already counted at offer time (drain waits out
        // queued jobs too); the waiter balances it at settle.
        let job = inner.svc.submit_with_opts(
            grant.payload.miter.clone(),
            SubmitOpts {
                deadline: grant.payload.deadline,
                lane: grant.lane,
                client: grant.client,
            },
        );
        submitted.push((grant.client, job));
        inner.live_waits.fetch_add(1, Ordering::SeqCst);
        inner.wait_queue.push(WaitJob {
            job,
            conn,
            lane: grant.lane,
            request_id: grant.payload.request_id,
            offered: grant.payload.offered,
            granted: Instant::now(),
        });
    }
    submitted
}

/// One waiter-pool thread: block on the next granted job's settle, push
/// its result, release the budget slot, submit unblocked grants. Exits
/// once the server is stopping and fully drained.
fn waiter_loop(inner: &Arc<ServerInner>) {
    trace::set_thread_label("net-waiter");
    loop {
        let Some(w) = inner.wait_queue.pop_timeout(POLL) else {
            if inner.stop.load(Ordering::SeqCst) && inner.drained() {
                return;
            }
            continue;
        };
        let result = inner.svc.wait_take(w.job);
        let service_time = w.granted.elapsed();
        inner.counters.lane_latency[w.lane.index()].observe(w.offered.elapsed().as_secs_f64());
        if let Some(result) = result {
            let mut f = result_fields(&result);
            push_id(&mut f, w.request_id);
            w.conn.send(&emit_object(&f));
            inner
                .counters
                .results_pushed
                .fetch_add(1, Ordering::Relaxed);
        }
        w.conn.job_finished();
        let grants = inner.admission.settle(w.conn.id, service_time);
        // Decrement only after the settle's grants are enqueued, so the
        // drain condition can't observe a moment where nothing is live
        // while this settle is about to grant more work.
        process_grants(inner, grants);
        inner.live_waits.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::NetClient;

    #[test]
    fn acceptor_bounds_concurrent_connections() {
        let mut server = NetServer::bind(
            "127.0.0.1:0",
            NetConfig {
                max_connections: 1,
                ..NetConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let mut first = NetClient::connect(addr).unwrap();
        // Prove the first connection is fully established server-side.
        let reply = first
            .submit_demo(2, Lane::Interactive, false, None)
            .unwrap();
        assert_eq!(reply.admission.as_deref(), Some("accepted"));
        let mut second = NetClient::connect(addr).unwrap();
        let event = second.read_event().unwrap();
        let msg = get(&event, "message").and_then(JsonValue::as_str).unwrap();
        assert!(msg.contains("connection limit"), "{msg}");
        server.stop();
    }

    #[test]
    fn conn_slot_is_given_back_when_the_connection_thread_panics() {
        let mut server = NetServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
        let inner = Arc::clone(&server.inner);
        let before = inner.active_conns.load(Ordering::SeqCst);
        let peer = TcpListener::bind("127.0.0.1:0").unwrap();
        // Panic once plainly, once while holding (and so poisoning) the
        // `conns` lock the slot must still take to give its entry back.
        for poison in [false, true] {
            let id = inner.next_conn.fetch_add(1, Ordering::Relaxed);
            let writer = TcpStream::connect(peer.local_addr().unwrap()).unwrap();
            let thread_inner = Arc::clone(&inner);
            let joined = std::thread::spawn(move || {
                let inner = thread_inner;
                inner.active_conns.fetch_add(1, Ordering::SeqCst);
                let _slot = ConnSlot {
                    id,
                    inner: Arc::clone(&inner),
                    stopping: false,
                };
                let state = Arc::new(ConnState {
                    id,
                    writer: Mutex::new(writer),
                    outstanding: Mutex::new(0),
                    idle: Condvar::new(),
                });
                let mut conns = inner.conns.lock().unwrap();
                conns.insert(id, state);
                assert_eq!(inner.active_conns.load(Ordering::SeqCst), before + 1);
                if !poison {
                    drop(conns);
                }
                panic!("connection thread fails");
            })
            .join();
            assert!(joined.is_err());
            assert_eq!(inner.conns.is_poisoned(), poison);
            inner.conns.clear_poison();
            assert_eq!(inner.active_conns.load(Ordering::SeqCst), before);
            assert!(!inner.conns.lock().unwrap().contains_key(&id));
        }
        server.stop();
    }

    #[test]
    fn metrics_text_has_net_section() {
        let mut server = NetServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let reply = client.submit_demo(2, Lane::Batch, false, None).unwrap();
        client.wait_result(reply.request_id).unwrap();
        let text = server.metrics_text();
        assert!(text.contains("parsweep_net_connections_total 1"), "{text}");
        assert!(
            text.contains("parsweep_net_submits_accepted_total 1"),
            "{text}"
        );
        assert!(
            text.contains("parsweep_net_queue_depth{lane=\"interactive\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("parsweep_net_job_latency_seconds_count{lane=\"batch\"} 1"),
            "{text}"
        );
        server.stop();
    }

    #[test]
    fn stop_drains_queued_jobs_before_returning() {
        let mut server = NetServer::bind(
            "127.0.0.1:0",
            NetConfig {
                admission: AdmissionConfig {
                    max_in_flight: 1,
                    queue_capacity: 16,
                    per_client_max: 16,
                },
                ..NetConfig::default()
            },
        )
        .unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let mut ids = Vec::new();
        for _ in 0..6 {
            let reply = client
                .submit_demo(4, Lane::Interactive, false, None)
                .unwrap();
            ids.push(reply.request_id);
        }
        server.stop();
        // Every admitted job — queued ones included — delivered a result.
        for id in ids {
            let event = client.wait_result(id).unwrap();
            let verdict = get(&event, "verdict").and_then(JsonValue::as_str).unwrap();
            assert_eq!(verdict, "equivalent");
        }
        assert_eq!(server.svc().stats().jobs_completed, 6);
    }
}
