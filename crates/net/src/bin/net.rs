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
//! `--deadline-ms`, `--sat`, `--cache-capacity`, `--trace`) plus the
//! transport bounds `--addr HOST:PORT`, `--max-in-flight N`,
//! `--queue-capacity N`, `--per-client-quota N`, `--max-connections N`.

use std::time::Duration;

use parsweep_net::{NetConfig, NetServer};
use parsweep_svc::frontend::{finish_trace, start_trace, Flags};
use parsweep_svc::shutdown;
use parsweep_trace as trace;

fn main() {
    let mut cfg = NetConfig::default();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut trace_path = trace::env_trace_path();
    let mut flags = Flags::from_env("net");
    while let Some(arg) = flags.next_flag() {
        if flags.service_flag(&arg, &mut cfg.svc, &mut trace_path) {
            continue;
        }
        match arg.as_str() {
            "--addr" => addr = flags.value("--addr"),
            "--max-in-flight" => cfg.admission.max_in_flight = flags.num("--max-in-flight").max(1),
            "--queue-capacity" => cfg.admission.queue_capacity = flags.num("--queue-capacity"),
            "--per-client-quota" => {
                cfg.admission.per_client_max = flags.num("--per-client-quota").max(1);
            }
            "--max-connections" => cfg.max_connections = flags.num("--max-connections").max(1),
            "--help" | "-h" => {
                println!(
                    "usage: net [--addr HOST:PORT] [--workers N] [--exec-threads N] \
                     [--deadline-ms N] [--sat] [--cache-capacity N] \
                     [--max-in-flight N] [--queue-capacity N] \
                     [--per-client-quota N] [--max-connections N] [--trace PATH]"
                );
                println!("serves JSON-lines requests over TCP; see crate docs");
                return;
            }
            other => flags.die(&format!("unknown flag '{other}'")),
        }
    }
    let trace_path = start_trace("net", trace_path);

    shutdown::install_signal_handlers();
    let mut server = NetServer::bind(&addr, cfg)
        .unwrap_or_else(|e| flags.die(&format!("failed to bind {addr}: {e}")));
    eprintln!("net: listening on {}", server.local_addr());

    while !shutdown::requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("net: shutdown requested, draining");
    server.stop();
    eprintln!("net: {}", server.svc().stats());

    finish_trace("net", trace_path);
}
