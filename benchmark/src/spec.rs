//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics. `BENCHMARK.json`
//! at the repository root is this table rendered (`benchmark spec`); the
//! smoke run fails when the two disagree, and checks that every name here
//! is emitted exactly once per run.

use crate::json::Json;

/// The longest one driver run measures: a run ends after its workload's
/// fixed number of passes, which this commit gets through in about five
/// sixths of this, or at this limit if that comes first.
pub const RUN_SECONDS: u64 = 14;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Passes of a full run, the same on every commit: what the server's
    /// caches hold and how many samples a percentile stands on must not
    /// depend on how fast the commit under test is.
    pub passes: usize,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "eng_po",
        why: "CLI on wide P-phase pairs: exhaustive PO simulation and AIGER parsing dominate; launch count must not matter",
        passes: 16,
    },
    Workload {
        name: "eng_local",
        why: "CLI on multiplier/voter: over 90% L phase, cut enumeration and millions of small inline launches",
        passes: 9,
    },
    Workload {
        name: "eng_global",
        why: "CLI on sqrt pairs past the P-phase support bound: G rounds, refinement, resimulation and SAT fallback all weigh",
        passes: 9,
    },
    Workload {
        name: "eng_cex",
        why: "CLI on inequivalent mutants: time to a firing counter-example, found at once (flip) or only by SAT fallback (rare)",
        passes: 9,
    },
    Workload {
        name: "net_cold",
        why: "TCP service, every job structurally new: parse, shard, prove and cache inserts dominate, memo and transport do not",
        passes: 10,
    },
    Workload {
        name: "net_warm",
        why: "TCP service, repeats of a settled suite: socket, admission, JSON, memo and cache probes dominate, no engine work",
        passes: 13,
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the CLI or the service sees. An *operation* is one
/// `parsweep check` process or one TCP job; a *pass* is the workload's
/// fixed list of operations (its pairs, or one batch of jobs).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("verdict_s", "s", "lower", 0.25),
    e2e("jobs_per_s", "1/s", "higher", 0.25),
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("latency_p99_ms", "ms", "lower", 0.25),
    e2e("cpu_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.1),
];

pub const PER_LAYER: &[Metric] = &[
    layer("aig.parse_s", "s", "lower"),
    layer("aig.parse_mnodes_per_s", "Mnodes/s", "higher"),
    layer("aig.miter_s", "s", "lower"),
    layer("cli.overhead_s", "s", "lower"),
    layer("core.sweep_s", "s", "lower"),
    layer("core.phase_p_share", "ratio", "lower"),
    layer("core.phase_g_share", "ratio", "lower"),
    layer("core.phase_l_share", "ratio", "lower"),
    layer("core.phase_other_share", "ratio", "lower"),
    layer("core.fallback_share", "ratio", "lower"),
    layer("core.reduction_pct", "%", "higher"),
    layer("core.proved_pairs", "count", "higher"),
    layer("core.disproved_pairs", "count", "lower"),
    layer("core.inconclusive_checks", "count", "lower"),
    layer("core.check_yield", "ratio", "higher"),
    layer("core.sim_words", "count", "lower"),
    layer("core.pruned_sim_rounds", "count", "higher"),
    layer("core.resim_dirty_nodes", "count", "lower"),
    layer("core.resim_clean_nodes", "count", "higher"),
    layer("par.launches_pool", "count", "lower"),
    layer("par.launches_inline", "count", "lower"),
    layer("par.modeled_time", "count", "lower"),
    layer("par.serialized_time", "count", "lower"),
    layer("par.static_verified_share", "ratio", "higher"),
    layer("par.launch_inline_ns", "ns", "lower"),
    layer("par.launch_pool_us", "us", "lower"),
    layer("par.sweep_ns_per_launch", "ns", "lower"),
    layer("par.arena_hit_share", "ratio", "higher"),
    layer("par.arena_peak_live_mb", "MB", "lower"),
    layer("sim.partial_s", "s", "lower"),
    layer("sim.partial_gnw_per_s", "Gnw/s", "higher"),
    layer("sim.classes_s", "s", "lower"),
    layer("sim.exhaustive_s", "s", "lower"),
    layer("sim.exhaustive_gpn_per_s", "Gpn/s", "higher"),
    layer("sim.effort_words", "count", "lower"),
    layer("cut.enumerate_s", "s", "lower"),
    layer("cut.cuts_per_s", "1/s", "higher"),
    layer("sat.sweep_s", "s", "lower"),
    layer("sat.conflicts", "count", "lower"),
    layer("sat.conflicts_per_s", "1/s", "higher"),
    layer("sat.calls", "count", "lower"),
    layer("svc.job_ms_p50", "ms", "lower"),
    layer("svc.queue_wait_ms_mean", "ms", "lower"),
    layer("svc.overhead_ratio", "ratio", "lower"),
    layer("svc.shard_s", "s", "lower"),
    layer("svc.shards_per_job", "count", "lower"),
    layer("svc.cache_probe_us", "us", "lower"),
    layer("svc.cache_insert_us", "us", "lower"),
    layer("svc.memo_hit_share", "ratio", "higher"),
    layer("svc.cache_hit_share", "ratio", "higher"),
    layer("svc.semantic_hit_share", "ratio", "higher"),
    layer("svc.cache_evictions", "count", "lower"),
    layer("svc.worker_utilization", "ratio", "higher"),
    layer("net.overhead_ms_per_job", "ms", "lower"),
    layer("net.queued_share", "ratio", "lower"),
    layer("net.rejected_share", "ratio", "lower"),
    layer("net.bytes_per_job", "B", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
];

/// Per-layer metrics that are counts made by the program: two runs of one
/// commit on one seed must agree exactly (`benchmark compare` checks).
pub fn is_exact_count(name: &str) -> bool {
    let counted = [
        "core.reduction_pct",
        "core.proved_pairs",
        "core.disproved_pairs",
        "core.inconclusive_checks",
        "core.check_yield",
        "core.sim_words",
        "core.pruned_sim_rounds",
        "core.resim_dirty_nodes",
        "core.resim_clean_nodes",
        "par.launches_pool",
        "par.launches_inline",
        "par.modeled_time",
        "par.serialized_time",
        "svc.shards_per_job",
    ];
    counted.contains(&name)
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let metric = |m: &Metric| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better)),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound", Json::Num(bound)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
    .pretty()
}
