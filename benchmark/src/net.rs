//! Black-box driver for the shipped `net` server: a child process on an
//! OS-chosen port, driven over real TCP by closed-loop clients (each
//! connection keeps a fixed window of jobs outstanding and sends the next
//! only when a result arrives), stopped with SIGTERM.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::inputs::{Expect, Item};
use crate::json::Json;
use crate::sys;

/// Flags of every server the benchmark starts: one worker on one core, so
/// the second core of a two-core box is left to the clients.
pub const SERVER_FLAGS: &[&str] = &[
    "--workers",
    "1",
    "--exec-threads",
    "1",
    "--sat",
    "--deadline-ms",
    "5000",
];

/// Nothing the server does for these workloads takes this long; a reply
/// that is later counts as lost rather than hanging the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `net` child.
pub struct Server {
    child: Option<Child>,
    pub pid: u32,
    pub addr: SocketAddr,
    stderr: mpsc::Receiver<String>,
    /// Forwards the child's stderr lines; ends when the child closes it.
    stderr_thread: Option<std::thread::JoinHandle<()>>,
}

/// What a stopped server reported about itself.
pub struct ServerExit {
    /// Peak RSS in MB, read just before the SIGTERM.
    pub peak_rss_mb: f64,
    /// `jobs completed/submitted` from the drained stats line.
    pub completed: u64,
    pub submitted: u64,
}

impl Server {
    /// Starts the server and waits for its `net: listening on` line.
    pub fn start(net_bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(net_bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(SERVER_FLAGS)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", net_bin.display()))?;
        let pipe = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let (tx, stderr) = mpsc::channel();
        let stderr_thread = std::thread::spawn(move || {
            for line in pipe.lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let pid = child.id();
        let mut server = Server {
            child: Some(child),
            pid,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr,
            stderr_thread: Some(stderr_thread),
        };
        loop {
            let line = server
                .stderr
                .recv_timeout(Duration::from_secs(10))
                .map_err(|_| "server did not announce its port".to_string())?;
            if let Some(addr) = line.strip_prefix("net: listening on ") {
                server.addr = addr.parse().map_err(|e| format!("{addr}: {e}"))?;
                return Ok(server);
            }
        }
    }

    /// CPU seconds used so far.
    pub fn cpu_s(&self) -> f64 {
        sys::proc_cpu_s(self.pid).unwrap_or(0.0)
    }

    /// SIGTERM, wait for the graceful drain, and read back the final
    /// `net: jobs C/S | ...` stats line.
    pub fn stop(mut self) -> Result<ServerExit, String> {
        let peak_rss_mb = sys::proc_peak_rss_mb(self.pid).map_err(|e| e.to_string())?;
        sys::terminate(self.pid).map_err(|e| e.to_string())?;
        let child = self.child.take().expect("server is stopped once");
        let (code, _) = sys::wait_with_cpu(child).map_err(|e| e.to_string())?;
        if code != Some(0) {
            return Err(format!("server exited with {code:?}"));
        }
        let stats = std::iter::from_fn(|| self.stderr.recv_timeout(Duration::from_secs(5)).ok())
            .find_map(|l| {
                let (done, rest) = l.strip_prefix("net: jobs ")?.split_once('/')?;
                let submitted = rest.split_whitespace().next()?;
                Some((done.parse().ok()?, submitted.parse().ok()?))
            });
        self.join_stderr();
        let (completed, submitted) = stats.ok_or("server printed no final stats")?;
        Ok(ServerExit {
            peak_rss_mb,
            completed,
            submitted,
        })
    }

    /// Only after the child has exited: that is what ends the thread.
    fn join_stderr(&mut self) {
        if let Some(thread) = self.stderr_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Server {
    /// A run that fails half-way must still leave no process behind.
    fn drop(&mut self) {
        if let Some(child) = self.child.take() {
            let _ = sys::terminate(self.pid);
            let _ = sys::wait_with_cpu(child);
        }
        self.join_stderr();
    }
}

/// One TCP connection speaking the server's JSON-lines protocol.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    /// Bytes sent plus bytes received.
    pub bytes: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        writer
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            writer,
            reader,
            next_id: 1,
            bytes: 0,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.bytes += line.len() as u64 + 1;
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn read_event(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(n) => {
                self.bytes += n as u64;
                Json::parse(&line)
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Sends `{"op": op}` and returns the reply named `event`.
    pub fn request(&mut self, op: &str, event: &str) -> Result<Json, String> {
        self.send(&Json::obj([("op", Json::str(op))]).compact())?;
        loop {
            let reply = self.read_event()?;
            if reply.get("event").and_then(Json::as_str) == Some(event) {
                return Ok(reply);
            }
        }
    }
}

/// What one connection saw while running its share of a batch.
#[derive(Default)]
pub struct Batch {
    /// `send` to matching `result`, per job that got one.
    pub latencies_s: Vec<f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub queued: u64,
    pub rejected: u64,
}

impl Batch {
    pub fn merge(&mut self, other: Batch) {
        self.latencies_s.extend(other.latencies_s);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.queued += other.queued;
        self.rejected += other.rejected;
    }
}

/// Submits `jobs` on one connection, at most `window` outstanding, and
/// checks every result against its item's ground truth.
pub fn run_connection(client: &mut Client, jobs: &[&Item], window: usize) -> Batch {
    let mut batch = Batch::default();
    let mut outstanding: HashMap<u64, (Instant, &Item)> = HashMap::new();
    let mut next = 0;
    while next < jobs.len() || !outstanding.is_empty() {
        while outstanding.len() < window && next < jobs.len() {
            let item = jobs[next];
            next += 1;
            batch.attempted += 1;
            let id = client.next_id;
            client.next_id += 1;
            let line = Json::obj([
                ("op", Json::str("submit")),
                ("left", Json::str(item.left.to_string_lossy())),
                ("right", Json::str(item.right.to_string_lossy())),
                ("id", Json::Num(id as f64)),
            ])
            .compact();
            let sent = Instant::now();
            match client.send(&line) {
                Ok(()) => {
                    outstanding.insert(id, (sent, item));
                }
                Err(e) => batch.failures.push(format!("{}: {e}", item.tag)),
            }
        }
        if outstanding.is_empty() {
            continue;
        }
        let event = match client.read_event() {
            Ok(event) => event,
            Err(e) => {
                // The connection is gone: everything outstanding is lost.
                for (_, (_, item)) in outstanding.drain() {
                    batch.failures.push(format!("{}: {e}", item.tag));
                }
                batch.attempted += (jobs.len() - next) as u64;
                batch
                    .failures
                    .extend(jobs[next..].iter().map(|i| format!("{}: not sent", i.tag)));
                return batch;
            }
        };
        let received = Instant::now();
        let id = event.get("id").and_then(Json::as_f64).map(|v| v as u64);
        let text = |k: &str| event.get(k).and_then(Json::as_str);
        match text("event") {
            Some("submitted") if text("admission") == Some("queued") => batch.queued += 1,
            Some("result") => {
                let Some((sent, item)) = id.and_then(|id| outstanding.remove(&id)) else {
                    batch.failures.push("result for an unknown id".into());
                    continue;
                };
                batch.latencies_s.push((received - sent).as_secs_f64());
                if let Some(why) = judge(item, text("verdict"), text("cex")) {
                    batch.failures.push(format!("{}: {why}", item.tag));
                }
            }
            Some(kind @ ("rejected" | "error")) => {
                batch.rejected += u64::from(kind == "rejected");
                let tag = id
                    .and_then(|id| outstanding.remove(&id))
                    .map_or("?", |(_, item)| item.tag.as_str());
                batch
                    .failures
                    .push(format!("{tag}: {kind} {}", text("message").unwrap_or("")));
            }
            _ => {}
        }
    }
    batch
}

fn judge(item: &Item, verdict: Option<&str>, cex: Option<&str>) -> Option<String> {
    if verdict != Some(item.expected_verdict()) {
        return Some(format!(
            "verdict {verdict:?}, expected {}",
            item.expected_verdict()
        ));
    }
    if let Expect::NotEquivalent { .. } = item.expect {
        let bits: Vec<bool> = cex.unwrap_or("").bytes().map(|b| b == b'1').collect();
        if !item.cex_fires(&bits) {
            return Some("counter-example does not fire".into());
        }
    }
    None
}

/// Runs `jobs` over all `clients` at once: connection `c` of `n` takes
/// jobs `c, c + n, ...`. Returns the merged batch and its wall time.
pub fn run_batch(clients: &mut [Client], jobs: &[&Item], window: usize) -> (Batch, f64) {
    let n = clients.len();
    let start = Instant::now();
    let parts: Vec<Batch> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let share: Vec<&Item> = jobs.iter().skip(c).step_by(n).copied().collect();
                scope.spawn(move || run_connection(client, &share, window))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut batch = Batch::default();
    parts.into_iter().for_each(|p| batch.merge(p));
    (batch, wall_s)
}
