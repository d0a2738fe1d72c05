//! The `net` binary's command-line contract, checked against the built
//! binary: the flag set the repository benchmark (`benchmark/src/net.rs`)
//! starts its server with must keep working, and a removed flag must be
//! refused rather than silently ignored.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use parsweep_net::NetClient;
use parsweep_svc::Lane;

/// What the benchmark passes after `--addr 127.0.0.1:0`.
const BENCHMARK_SERVER_FLAGS: &[&str] = &[
    "--workers",
    "1",
    "--exec-threads",
    "1",
    "--sat",
    "--deadline-ms",
    "5000",
];

/// Kills the server if the test fails before it exits on its own.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn net_serves_with_the_benchmark_flags_and_drains_on_sigterm() {
    let mut server = Reap(
        Command::new(env!("CARGO_BIN_EXE_net"))
            .args(["--addr", "127.0.0.1:0"])
            .args(BENCHMARK_SERVER_FLAGS)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn net"),
    );
    let stderr = server.0.stderr.take().expect("stderr was piped");
    let mut lines = BufReader::new(stderr).lines().map_while(Result::ok);
    let addr = lines
        .by_ref()
        .find_map(|l| l.strip_prefix("net: listening on ").map(str::to_owned))
        .expect("net must announce its address");

    let mut client = NetClient::connect(addr.as_str()).expect("connect");
    let verdict = client.check_demo(4, Lane::Interactive, false).unwrap();
    assert_eq!(verdict.ok().as_deref(), Some("equivalent"));
    drop(client);

    // SIGTERM takes the graceful path: drain, print the stats, exit 0.
    let pid = server.0.id().to_string();
    let sent = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    assert!(sent.success(), "kill -TERM {pid} failed");
    let status = server.0.wait().expect("wait for net");
    assert!(status.success(), "net exited with {status}");
    let rest: Vec<String> = lines.collect();
    assert!(
        rest.iter().any(|l| l.starts_with("net: jobs 1/1 ")),
        "no final stats line in {rest:?}"
    );
}

#[test]
fn net_rejects_the_removed_fuse_threshold_flag() {
    // The trailing `--help` makes a binary that still accepted the flag
    // print its usage and exit 0 instead of starting to serve.
    let out = Command::new(env!("CARGO_BIN_EXE_net"))
        .args(["--fuse-threshold", "64", "--help"])
        .stdin(Stdio::null())
        .output()
        .expect("run net");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "net accepted --fuse-threshold");
    assert!(
        stderr.contains("unknown flag '--fuse-threshold'"),
        "stderr: {stderr}"
    );
}
