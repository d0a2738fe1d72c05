//! Black-box driver for the shipped `parsweep check` CLI: one child
//! process per pair, timed from spawn to exit, verdict taken from the exit
//! code and checked against the item's ground truth.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::inputs::{Expect, Item};
use crate::sys;

/// How often a running child's `VmHWM` is read. Its last reading is at
/// most this long before the exit, when a check is past its peak anyway.
const RSS_SAMPLE: Duration = Duration::from_millis(2);

/// One `parsweep check` invocation.
pub struct Check {
    pub wall_s: f64,
    /// User + system CPU seconds of the child.
    pub cpu_s: f64,
    /// Peak resident set of the child in MB, sampled while it ran.
    pub peak_rss_mb: f64,
    /// `None` when the verdict matched the ground truth (and, for a
    /// disproof, its counter-example fires); otherwise what went wrong.
    pub failure: Option<String>,
}

/// Runs `parsweep check <left> <right> --budget 60` and checks its answer.
pub fn check(parsweep: &Path, item: &Item) -> Check {
    let start = Instant::now();
    let run = || -> std::io::Result<(Option<i32>, f64, f64, f64, String)> {
        let mut child = Command::new(parsweep)
            .arg("check")
            .arg(&item.left)
            .arg(&item.right)
            .args(["--budget", "60"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let pid = child.id();
        let mut stdout = child.stdout.take().expect("stdout was piped");
        let mut out = String::new();
        // The child closes stdout when it exits: reading to the end waits
        // for it, while a second thread watches its memory. The clock
        // stops at the exit, before that thread is joined.
        let exited = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut peak: f64 = 0.0;
                while !exited.load(Ordering::Relaxed) {
                    peak = peak.max(sys::proc_peak_rss_mb(pid).unwrap_or(0.0));
                    std::thread::sleep(RSS_SAMPLE);
                }
                peak
            });
            let read = stdout.read_to_string(&mut out);
            exited.store(true, Ordering::Relaxed);
            let waited = sys::wait_with_cpu(child);
            let wall_s = start.elapsed().as_secs_f64();
            let peak_rss_mb = sampler.join().expect("sampler thread");
            let (code, cpu_s) = waited?;
            read?;
            Ok((code, wall_s, cpu_s, peak_rss_mb, out))
        })
    };
    let (wall_s, cpu_s, peak_rss_mb, failure) = match run() {
        Err(e) => (
            start.elapsed().as_secs_f64(),
            0.0,
            0.0,
            Some(format!("spawn failed: {e}")),
        ),
        Ok((code, wall_s, cpu_s, peak, out)) => (wall_s, cpu_s, peak, judge(item, code, &out)),
    };
    Check {
        wall_s,
        cpu_s,
        peak_rss_mb,
        failure: failure.map(|f| format!("{}: {f}", item.tag)),
    }
}

/// Exit codes of `check`: 0 equivalent, 1 not equivalent, 2 undecided.
fn judge(item: &Item, code: Option<i32>, out: &str) -> Option<String> {
    match (&item.expect, code) {
        (Expect::Equivalent, Some(0)) => None,
        (Expect::NotEquivalent { .. }, Some(1)) => {
            let cex = out
                .lines()
                .find_map(|l| l.strip_prefix("counter-example: "))
                .map(parse_bools);
            match cex {
                Some(bits) if item.cex_fires(&bits) => None,
                Some(_) => Some("counter-example does not fire".into()),
                None => Some("no counter-example line".into()),
            }
        }
        (_, Some(2)) => Some("undecided".into()),
        (_, code) => Some(format!(
            "exit {code:?}, expected {}",
            item.expected_verdict()
        )),
    }
}

/// Parses the CLI's `[true, false, ...]` rendering.
fn parse_bools(text: &str) -> Vec<bool> {
    text.trim_matches(['[', ']', ' '])
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect()
}
