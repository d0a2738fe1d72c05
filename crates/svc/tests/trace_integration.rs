#![cfg(feature = "trace")]
//! End-to-end tracing acceptance: one traced service run must produce a
//! well-formed Chrome trace containing spans from all three tiers
//! (service job lifecycle, engine phases, kernel launches) and a metrics
//! snapshot with non-zero cache and launch counters.
//!
//! One test function on purpose: the span collector is process-global, so
//! concurrent tests would interleave their events.

use parsweep_aig::{miter, Aig};
use parsweep_sat::Verdict;
use parsweep_sim::MAX_CONE_VARS;
use parsweep_svc::{CecService, SvcConfig};
use parsweep_trace as trace;

/// `width` independent parity bits, each over one input more than a
/// truth table settles, so every shard goes through the cache and the
/// engine. The variants build XOR differently.
fn parity_net(width: usize, variant: bool) -> Aig {
    let mut aig = Aig::new();
    let xs = aig.add_inputs(width * (MAX_CONE_VARS + 1));
    for group in xs.chunks(MAX_CONE_VARS + 1) {
        let f = group[1..].iter().fold(group[0], |a, &b| {
            if variant {
                let o = aig.or(a, b);
                let n = aig.and(a, b);
                aig.and(o, !n)
            } else {
                aig.xor(a, b)
            }
        });
        aig.add_po(f);
    }
    aig
}

#[test]
fn traced_service_run_spans_all_tiers() {
    assert!(trace::compiled(), "test requires the trace feature");
    trace::enable();

    let svc = CecService::new(SvcConfig::default());
    let m = miter(&parity_net(3, false), &parity_net(3, true)).unwrap();
    let id = svc.submit(m.clone());
    assert_eq!(svc.wait(id).unwrap().verdict, Verdict::Equivalent);
    // Duplicate submission: exercises the cache-probe hit path too.
    let id = svc.submit(m);
    assert_eq!(svc.wait(id).unwrap().verdict, Verdict::Equivalent);
    svc.drain();

    trace::disable();
    let events = trace::snapshot_events();
    trace::take_events(); // leave the global collector clean

    trace::validate_events(&events).expect("trace must be well-formed");
    let names: std::collections::HashSet<&str> = events.iter().map(|e| e.name.as_str()).collect();
    for required in [
        "job.shard",       // svc tier
        "job.cache_probe", // svc tier, cache path
        "job.settled",     // svc tier, instant
        "engine.run",      // engine tier
        "engine.phase.P",  // engine tier, phase span
    ] {
        assert!(
            names.contains(required),
            "missing span '{required}': {names:?}"
        );
    }
    assert!(
        names.iter().any(|n| n.starts_with("sim.")
            || n.starts_with("par.")
            || events.iter().any(|e| e.cat == "kernel")),
        "kernel-tier spans missing: {names:?}"
    );

    // The JSON export is non-trivial and shaped like a chrome://tracing
    // event array.
    let json = trace::events_to_json(&events);
    assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""));

    // Metrics snapshot: cache and launch counters are non-zero.
    let text = svc.metrics_text();
    assert!(
        text.contains("parsweep_cache_hits_total") && !text.contains("parsweep_cache_hits_total 0"),
        "cache hits must be non-zero:\n{text}"
    );
    assert!(
        !text.contains("parsweep_kernel_launches_total 0"),
        "kernel launches must be non-zero:\n{text}"
    );
    // The sim engines declare their effects, so the fleet must report
    // statically verified launches (and expose the replay counter).
    assert!(
        text.contains("parsweep_par_static_verified_launches_total")
            && !text.contains("parsweep_par_static_verified_launches_total 0"),
        "verified launches must be non-zero:\n{text}"
    );
    assert!(
        text.contains("parsweep_par_static_verified_replays"),
        "verified-replay counter must be exposed:\n{text}"
    );
}
