//! TCP JSONL server binary for the CEC service.
//!
//! Listens on `--addr` (default `127.0.0.1:7878`), speaks the same
//! protocol as the stdin `svc` binary — see that binary's docs — plus
//! admission-control submit responses and pushed results (see
//! [`parsweep_net::server`]). SIGINT/SIGTERM take the graceful path:
//! stop accepting, drain every admitted job, deliver its result, print
//! final stats to stderr, exit.
//!
//! Flags: the service knobs of `svc` (`--workers`, `--exec-threads`,
//! `--deadline-ms`, `--sat`, `--connected`, `--fuse-threshold`, `--cache-capacity`, `--cache-persist`,
//! `--semantic-vars`, `--trace`) plus the transport
//! bounds `--addr HOST:PORT`, `--max-in-flight N`, `--queue-capacity N`,
//! `--per-client-quota N`, `--max-connections N`.

use std::time::Duration;

use parsweep_net::{NetConfig, NetServer};
use parsweep_svc::{shutdown, ShardPolicy};
use parsweep_trace as trace;

fn main() {
    let mut cfg = NetConfig::default();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut trace_path = trace::env_trace_path();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |name: &str| -> String {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs an argument")))
        };
        let mut num = |name: &str| -> usize {
            next(name)
                .parse()
                .unwrap_or_else(|_| die(&format!("{name} needs a numeric argument")))
        };
        match arg.as_str() {
            "--addr" => addr = next("--addr"),
            "--workers" => cfg.svc.workers = num("--workers").max(1),
            "--exec-threads" => cfg.svc.exec_threads = num("--exec-threads").max(1),
            "--deadline-ms" => {
                cfg.svc.default_deadline = Some(Duration::from_millis(num("--deadline-ms") as u64));
            }
            "--sat" => cfg.svc.sat_fallback = true,
            "--connected" => cfg.svc.shard_policy = ShardPolicy::Connected,
            "--fuse-threshold" => cfg.svc.fuse_threshold = num("--fuse-threshold"),
            "--cache-capacity" => cfg.svc.cache_capacity = num("--cache-capacity"),
            "--cache-persist" => cfg.svc.cache_persist = Some(next("--cache-persist").into()),
            "--semantic-vars" => cfg.svc.semantic_max_vars = num("--semantic-vars"),
            "--max-in-flight" => cfg.admission.max_in_flight = num("--max-in-flight").max(1),
            "--queue-capacity" => cfg.admission.queue_capacity = num("--queue-capacity"),
            "--per-client-quota" => cfg.admission.per_client_max = num("--per-client-quota").max(1),
            "--max-connections" => cfg.max_connections = num("--max-connections").max(1),
            "--trace" => trace_path = Some(next("--trace")),
            "--help" | "-h" => {
                println!(
                    "usage: net [--addr HOST:PORT] [--workers N] [--exec-threads N] \
                     [--deadline-ms N] [--sat] [--connected] [--fuse-threshold N] \
                     [--cache-capacity N] [--cache-persist PATH] [--semantic-vars N] \
                     [--max-in-flight N] [--queue-capacity N] \
                     [--per-client-quota N] [--max-connections N] [--trace PATH]"
                );
                println!("serves JSON-lines requests over TCP; see crate docs");
                return;
            }
            other => die(&format!("unknown flag '{other}'")),
        }
    }
    if trace_path.is_some() {
        if trace::compiled() {
            trace::enable();
        } else {
            eprintln!(
                "net: --trace requested but this build lacks the 'trace' feature; \
                 no spans will be recorded"
            );
        }
    }

    shutdown::install_signal_handlers();
    let mut server =
        NetServer::bind(&addr, cfg).unwrap_or_else(|e| die(&format!("failed to bind {addr}: {e}")));
    eprintln!("net: listening on {}", server.local_addr());

    while !shutdown::requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("net: shutdown requested, draining");
    server.stop();
    eprintln!("net: {}", server.svc().stats());

    if let Some(path) = trace_path.filter(|_| trace::compiled()) {
        trace::disable();
        match trace::write_chrome_trace(&path) {
            Ok(()) => eprintln!("net: wrote Chrome trace to {path}"),
            Err(e) => eprintln!("net: failed to write trace {path}: {e}"),
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("net: {msg}");
    std::process::exit(2);
}
