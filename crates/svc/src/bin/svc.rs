//! JSON-lines front-end for the CEC job service.
//!
//! Reads one flat JSON request per stdin line, writes one flat JSON event
//! per stdout line. Requests:
//!
//! * `{"op":"submit","miter":"m.aag"}` — check one AIGER miter file;
//! * `{"op":"submit","left":"a.aag","right":"b.aag"}` — miter two files;
//! * `{"op":"submit","demo":"adder","width":8}` — built-in demo miter
//!   (two structurally different `width`-bit adders), handy offline;
//! * any submit may add `"deadline_ms":N`, `"lane":"interactive"|"batch"`
//!   (scheduling priority), `"id":N` (echoed on the response) and
//!   `"corrupt":true` (demo only: flips a PO so the miter is disproved);
//! * `{"op":"drain"}` — settle all outstanding jobs, emit their results;
//! * `{"op":"stats"}` — emit the service counters;
//! * `{"op":"metrics"}` — emit a Prometheus-style text snapshot of the
//!   service counters and latency histograms (as the `text` field of the
//!   response event).
//!
//! EOF, SIGINT, SIGTERM, and a broken stdout pipe all take the same
//! graceful exit: stop reading requests, drain every job still in
//! flight, emit their results and a final stats event. This is the thin
//! single-client wrapper over the shared front-end core
//! ([`parsweep_svc::frontend`]); the multi-client TCP server
//! (`parsweep-net`) layers admission control and fairness over the same
//! core. Flags: `--workers N`, `--exec-threads N`, `--deadline-ms N`
//! (default for submits without one), `--sat` (hand what the sim engine
//! leaves undecided to the shared prover instead of settling it
//! undecided), `--connected` (shard by connected components instead of
//! per output), `--cache-capacity N` (LRU bound of each of the cone
//! result cache and the whole-job memo; 0 disables both), `--trace PATH`
//! (write a Chrome-trace JSON of the whole run at exit; also honoured from the
//! `PARSWEEP_TRACE` environment variable; needs a build with the `trace`
//! feature to record anything).

use std::io::{BufRead, Write};
use std::time::Duration;

use parsweep_svc::frontend::{handle_request, result_fields, stats_fields, MiterCache};
use parsweep_svc::jsonl::{emit_object, JsonValue};
use parsweep_svc::{shutdown, CecService, ShardPolicy, SvcConfig};
use parsweep_trace as trace;

fn main() {
    let mut cfg = SvcConfig::default();
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
            "--workers" => cfg.workers = num("--workers").max(1),
            "--exec-threads" => cfg.exec_threads = num("--exec-threads").max(1),
            "--deadline-ms" => {
                cfg.default_deadline = Some(Duration::from_millis(num("--deadline-ms") as u64));
            }
            "--sat" => cfg.sat_fallback = true,
            "--connected" => cfg.shard_policy = ShardPolicy::Connected,
            "--cache-capacity" => cfg.cache_capacity = num("--cache-capacity"),
            "--trace" => trace_path = Some(next("--trace")),
            "--help" | "-h" => {
                println!(
                    "usage: svc [--workers N] [--exec-threads N] [--deadline-ms N] [--sat] \
                     [--connected] [--cache-capacity N] [--trace PATH]"
                );
                println!("reads JSON-lines requests on stdin; see module docs");
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
                "svc: --trace requested but this build lacks the 'trace' feature; \
                 no spans will be recorded"
            );
        }
    }

    shutdown::install_signal_handlers();
    let svc = CecService::new(cfg);
    let files = MiterCache::default();
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();

    for line in stdin.lock().lines() {
        if shutdown::requested() {
            break;
        }
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let events = match handle_request(&svc, &files, &line) {
            Ok(events) => events,
            Err(msg) => vec![emit_object(&[
                ("event", JsonValue::Str("error".into())),
                ("message", JsonValue::Str(msg)),
            ])],
        };
        let mut broken = false;
        for event in events {
            // Rust ignores SIGPIPE, so a consumer hanging up surfaces
            // here as a write error: treat it like a shutdown request.
            broken |= writeln!(out, "{event}").is_err();
        }
        broken |= out.flush().is_err();
        if broken {
            shutdown::request();
            break;
        }
    }

    // EOF, signal, or broken pipe: settle everything still in flight and
    // report. Writes may fail if the pipe is gone; draining still runs so
    // in-flight work finishes (and a trace, if any, is complete).
    for result in svc.drain() {
        let _ = writeln!(out, "{}", emit_object(&result_fields(&result)));
    }
    let _ = writeln!(out, "{}", emit_object(&stats_fields(&svc)));
    let _ = out.flush();

    if let Some(path) = trace_path.filter(|_| trace::compiled()) {
        trace::disable();
        match trace::write_chrome_trace(&path) {
            Ok(()) => eprintln!("svc: wrote Chrome trace to {path}"),
            Err(e) => eprintln!("svc: failed to write trace {path}: {e}"),
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("svc: {msg}");
    std::process::exit(2);
}
