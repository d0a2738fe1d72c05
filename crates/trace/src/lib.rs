//! # parsweep-trace — structured tracing and metrics for the stack
//!
//! The paper's evaluation (Fig. 6/7) attributes runtime to the engine's
//! P/G/L phases and to simulation effort. This crate is the observability
//! layer that makes that attribution reproducible from one run: *spans*
//! instrument the engine (phases, FRAIG rounds, SAT fallback), the device
//! runtime (kernel launches, stream epochs) and the job
//! service (submit → shard → worker → cache probe → verdict), and two
//! exporters surface them:
//!
//! * a **Chrome-trace JSON** writer ([`write_chrome_trace`]) producing a
//!   `chrome://tracing` / Perfetto-loadable event array with per-thread
//!   nested spans;
//! * **Prometheus-style text** helpers ([`metrics`]) used by the service's
//!   `metrics` op for counters and latency histograms.
//!
//! Spans carry two kinds of time: **wall time** (the `B`/`E` timestamps)
//! and the executor cost model's deterministic **modeled time** (attached
//! as a span argument by the instrumented crates), so a trace can be
//! compared across machines.
//!
//! ## Zero cost when disabled
//!
//! The span layer is compiled in only under the `enabled` cargo feature
//! (downstream crates forward it as `trace`). Without the feature, every
//! [`span`]/[`instant`] call is an inline empty function returning a
//! zero-sized guard — static dispatch, no atomics, no branches — so tier-1
//! timings are unchanged. With the feature compiled in, recording still
//! only happens after [`enable`] (or the `PARSWEEP_TRACE` environment
//! variable) flips the runtime switch; an inactive compiled-in tracer
//! costs one relaxed atomic load per span.
//!
//! The [`clock`] and [`metrics`] modules are *not* feature-gated: they sit
//! on cold paths (per-job accounting, report formatting) and are the
//! single source of time for reports that must distinguish wall from
//! modeled time — and for tests that inject a deterministic clock.

#![warn(missing_docs)]

pub mod clock;
pub mod metrics;

mod chrome;
mod span;

pub use chrome::{chrome_trace_json, events_to_json, validate_events, write_chrome_trace};
pub use clock::{Clock, ManualClock, WallClock};
pub use span::{
    active, disable, enable, instant, kernel_span, set_thread_label, snapshot_events, span,
    take_events, ArgValue, Phase, SpanGuard, TraceEvent,
};

/// The modeled GPU width used whenever a span or report converts a launch
/// profile into deterministic modeled time — one value shared by the
/// engine's phase spans and the benchmark harness so the numbers compare.
pub const MODEL_CORES: u64 = 4096;

/// True when the span collector is compiled in (the `enabled` feature).
#[inline(always)]
pub const fn compiled() -> bool {
    cfg!(feature = "enabled")
}

/// Reads `PARSWEEP_TRACE`: a non-empty value other than `0` names the
/// Chrome-trace output path. This only reports the request — callers
/// decide whether to [`enable`] (and warn when the collector is not
/// [`compiled`] in).
pub fn env_trace_path() -> Option<String> {
    match std::env::var("PARSWEEP_TRACE") {
        Ok(v) if !v.is_empty() && v != "0" => Some(v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_path_rules() {
        // Can't mutate the environment safely in tests that run in
        // parallel; just exercise the accessor.
        let _ = env_trace_path();
        assert_eq!(compiled(), cfg!(feature = "enabled"));
    }
}
