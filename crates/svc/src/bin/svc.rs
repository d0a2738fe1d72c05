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
//! (default for submits without one), `--sat` (finish what the sim
//! engine's P and G phases leave undecided with the seeded SAT sweep
//! instead of settling it undecided), `--cache-capacity N` (LRU bound of
//! each of the cone result cache and the whole-job memo; 0 disables
//! both), `--trace PATH`
//! (write a Chrome-trace JSON of the whole run at exit; also honoured from the
//! `PARSWEEP_TRACE` environment variable; needs a build with the `trace`
//! feature to record anything).

use std::io::{BufRead, Write};

use parsweep_svc::frontend::{
    finish_trace, handle_request, result_fields, start_trace, stats_fields, Flags, MiterCache,
};
use parsweep_svc::jsonl::{emit_object, JsonValue};
use parsweep_svc::{shutdown, CecService, SvcConfig};
use parsweep_trace as trace;

fn main() {
    let mut cfg = SvcConfig::default();
    let mut trace_path = trace::env_trace_path();
    let mut flags = Flags::from_env("svc");
    while let Some(arg) = flags.next_flag() {
        if flags.service_flag(&arg, &mut cfg, &mut trace_path) {
            continue;
        }
        match arg.as_str() {
            "--help" | "-h" => {
                println!(
                    "usage: svc [--workers N] [--exec-threads N] [--deadline-ms N] [--sat] \
                     [--cache-capacity N] [--trace PATH]"
                );
                println!("reads JSON-lines requests on stdin; see module docs");
                return;
            }
            other => flags.die(&format!("unknown flag '{other}'")),
        }
    }
    let trace_path = start_trace("svc", trace_path);

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

    finish_trace("svc", trace_path);
}
