//! Device-runtime smoke benchmark: runs the engine over the generator
//! suite and emits `BENCH_runtime.json` with wall time, the cost model's
//! critical-path (`modeled_time`) and serialized estimates, the launch
//! split (pool-dispatched vs inline), the incremental-simulation counters
//! (pruned rounds, dirty-cone resim node counts), and the buffer-arena
//! recycling counters.
//!
//! Besides the nine sweep cases, two *deep-FRAIG* rows
//! (`multiplier_fraig`, `log2_fraig`) run [`fraig`] over the arithmetic
//! miters: FRAIG skips the PO-exhaustive phase entirely, so these rows
//! exercise the incremental G/L machinery — support-pruned rounds,
//! in-place refinement, and dirty-cone resimulation after merges — that
//! the sweep rows (which resolve exhaustively at tiny scale) do not.
//!
//! A `prover_dispatch` section compares the fixed engine sequence
//! against the adaptive per-class dispatcher on the deep-FRAIG miters
//! and one synthetic multiplier-like hard cone, asserting the two agree
//! on every verdict; `bench_delta.py` surfaces and gates the wall times.
//!
//! A `window_streaming` section runs the same sweep twice — at the
//! default `memory_words` and at a budget the partial-simulation tables
//! cannot fit, so they stream through host staging — on Small-scale
//! miters and records the peak-live arena reduction; a Tiny-scale
//! invocation additionally emits a `small_cases` row set so the
//! committed JSON always carries Small-scale data. Per-case rows
//! include `arena_peak_live_bytes` and `arena_peak_bytes_per_node`,
//! the memory leaves `bench_delta.py` gates.
//!
//! Usage: `runtime [tiny|small|medium|large] [output.json]`

use std::fmt::Write as _;

use parsweep_aig::{miter, Aig, Lit};
use parsweep_bench::harness::{suite, Case, Scale};
use parsweep_core::{fraig, sim_sweep, EngineConfig, EngineStats, Report};
use parsweep_par::{CancelToken, Executor, LaunchStats};
use parsweep_sat::{sat_sweep, Prover, SweepConfig, Verdict};

/// Modeled device width used for the time estimates (threads) — the
/// tracing subsystem's canonical width, so bench numbers and span
/// `modeled_time` arguments stay comparable.
const MODEL_CORES: u64 = parsweep_trace::MODEL_CORES;

/// The suite cases FRAIG'ed for the resim-heavy rows.
const FRAIG_CASES: [&str; 2] = ["multiplier", "log2"];

/// A multiplier-like hard cone for the prover-dispatch rows: `rounds`
/// identical Toffoli-style mixing rounds (`a ^ (b & c)`, balanced and
/// non-converging, so simulation signatures stay distinct) over `n`
/// inputs — strash-shared between the two sides of the miter — topped by
/// an output layer built
/// with two different majority decompositions (AND-OR sum-of-products vs
/// mux). Every PO's support is the full `n` inputs over a deep shared
/// cone, so the exhaustive engine is *admitted but slow* (one 2^n-pattern
/// window per PO over the whole cone), while SAT sweeping settles it
/// quickly: the only candidate pairs are the output-layer twins, each a
/// small local proof over shared fanins — exactly the class where the
/// fixed sequence commits to the slow engine and the adaptive race
/// early-cancels it.
fn maj_rounds_miter(n: usize, rounds: usize) -> Aig {
    fn build(n: usize, rounds: usize, mux_form: bool) -> Aig {
        let mut aig = Aig::new();
        let mut state: Vec<Lit> = aig.add_inputs(n);
        for r in 0..rounds {
            let mut next = Vec::with_capacity(n);
            for i in 0..n {
                let (a, b, c) = (state[i], state[(i + 1 + r) % n], state[(i + 7) % n]);
                let bc = aig.and(b, c);
                next.push(aig.xor(a, bc));
            }
            state = next;
        }
        // Output layer: the same majority per PO, in two structurally
        // different forms. Each PO is one exhaustive window over the full
        // 2^n pattern space.
        for i in 0..n {
            let (a, b, c) = (state[i], state[(i + 1) % n], state[(i + 7) % n]);
            let po = if mux_form {
                let or = aig.or(b, c);
                let and = aig.and(b, c);
                aig.mux(a, or, and)
            } else {
                aig.maj3(a, b, c)
            };
            aig.add_po(po);
        }
        aig
    }
    miter(&build(n, rounds, false), &build(n, rounds, true)).expect("same interface")
}

fn case_json(
    name: &str,
    verdict: &str,
    stats: &EngineStats,
    s: &LaunchStats,
    nodes: usize,
) -> String {
    let mut j = String::new();
    let _ = write!(
        j,
        concat!(
            "    {{\"name\": \"{}\", \"verdict\": \"{}\", \"seconds\": {:.6}, ",
            "\"modeled_time\": {}, \"serialized_time\": {}, \"launches\": {}, ",
            "\"inline_launches\": {}, \"pruned_rounds\": {}, ",
            "\"resim_clean\": {}, \"resim_dirty\": {}, ",
            "\"arena_hits\": {}, \"arena_misses\": {}, \"arena_peak_bytes\": {}, ",
            "\"arena_peak_live_bytes\": {}, \"arena_peak_bytes_per_node\": {:.1}, ",
            "\"static_verified_launches\": {}}}"
        ),
        name,
        verdict,
        stats.seconds,
        s.modeled_time(MODEL_CORES),
        s.serialized_time(MODEL_CORES),
        s.launches,
        s.inline_launches,
        stats.pruned_sim_rounds,
        stats.resim_clean_nodes,
        stats.resim_dirty_nodes,
        s.arena_hits,
        s.arena_misses,
        s.arena_peak_bytes,
        s.arena_peak_live_bytes,
        s.arena_peak_live_bytes as f64 / nodes.max(1) as f64,
        s.static_verified_launches,
    );
    j
}

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| Scale::parse(&s))
        .unwrap_or(Scale::Tiny);
    let out_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_runtime.json".to_string());
    let exec = Executor::new();

    let mut cases_json = Vec::new();
    let mut total_seconds = 0.0f64;
    let (mut total_modeled, mut total_serialized) = (0u64, 0u64);
    let (mut total_launches, mut total_inline) = (0u64, 0u64);
    // Two peak aggregates: `peak_bytes` is the arena *footprint*
    // high-water (pools never free, so across sequential cases this is a
    // cumulative-allocation figure, not any one case's working set);
    // `peak_live_bytes` maxes the per-case *live* peaks, which
    // `reset_stats` rebases between cases — the honest per-case number.
    let mut peak_bytes = 0u64;
    let mut peak_live_bytes = 0u64;
    let mut report = |name: &str,
                      verdict: &str,
                      stats: &EngineStats,
                      s: &LaunchStats,
                      nodes: usize| {
        let modeled = s.modeled_time(MODEL_CORES);
        total_seconds += stats.seconds;
        total_modeled += modeled;
        total_serialized += s.serialized_time(MODEL_CORES);
        total_launches += s.launches;
        total_inline += s.inline_launches;
        peak_bytes = peak_bytes.max(s.arena_peak_bytes);
        peak_live_bytes = peak_live_bytes.max(s.arena_peak_live_bytes);
        eprintln!(
            "{:<16} {} wall {:.3}s modeled {} launches {}p+{}i resim {}c/{}d arena {}h/{}m live-peak {}B",
            name,
            verdict,
            stats.seconds,
            modeled,
            s.launches,
            s.inline_launches,
            stats.resim_clean_nodes,
            stats.resim_dirty_nodes,
            s.arena_hits,
            s.arena_misses,
            s.arena_peak_live_bytes,
        );
        cases_json.push(case_json(name, verdict, stats, s, nodes));
    };

    eprintln!("# device-runtime smoke bench ({scale:?}, modeled cores = {MODEL_CORES})");
    let cases = suite(scale);
    for case in &cases {
        exec.reset_stats();
        let r = sim_sweep(&case.miter, &exec, &EngineConfig::scaled());
        let s = exec.stats();
        report(
            &case.name,
            Report::new(&r).verdict_tag(),
            &r.stats,
            &s,
            case.miter.num_nodes(),
        );
    }
    // A tighter global support bound and fewer random words than the
    // sweep rows: wide pairs fall through to later rounds and the
    // local phases, and coarse initial classes need several refine
    // rounds — together they keep the dirty-cone resim and in-place
    // refinement paths busy. Local phases are capped so the row stays
    // smoke-bench-sized (full reduction is not the point here).
    let fraig_cfg = || {
        let mut cfg = EngineConfig::scaled().with_support_bounds(18, 14, 7);
        cfg.sim_words = 2;
        cfg.max_local_phases = 2;
        cfg
    };
    for base in FRAIG_CASES {
        let case = cases
            .iter()
            .find(|c| c.name.starts_with(base))
            .expect("fraig case names come from the suite");
        exec.reset_stats();
        let fr = fraig(&case.miter, &exec, &fraig_cfg());
        let s = exec.stats();
        let name = format!("{base}_fraig");
        let verdict = if fr.stats.final_ands < fr.stats.initial_ands {
            "reduced"
        } else {
            "unchanged"
        };
        report(&name, verdict, &fr.stats, &s, case.miter.num_nodes());
    }

    // Small-scale rows, committed alongside the Tiny rows: big enough
    // that signature-table residency is a real cost, small enough for a
    // smoke bench. At Small scale or above the main loop already covers
    // them, so this extra set only runs (and only appears in the JSON)
    // for a Tiny-scale invocation.
    let small_suite = if scale == Scale::Tiny {
        suite(Scale::Small)
    } else {
        Vec::new()
    };
    let pick = |pool: &'static str| -> &Case {
        let from = if small_suite.is_empty() {
            &cases
        } else {
            &small_suite
        };
        from.iter()
            .find(|c| c.name.starts_with(pool))
            .expect("case names come from the suite")
    };
    let mut small_json = Vec::new();
    if !small_suite.is_empty() {
        eprintln!("# small-scale rows");
        for base in ["log2", "voter"] {
            let case = pick(base);
            exec.reset_stats();
            let r = sim_sweep(&case.miter, &exec, &EngineConfig::scaled());
            let s = exec.stats();
            eprintln!(
                "{:<16} {} wall {:.3}s live-peak {}B",
                format!("{}_small", case.name),
                Report::new(&r).verdict_tag(),
                r.stats.seconds,
                s.arena_peak_live_bytes,
            );
            small_json.push(case_json(
                &format!("{}_small", case.name),
                Report::new(&r).verdict_tag(),
                &r.stats,
                &s,
                case.miter.num_nodes(),
            ));
        }
    }

    // Residency comparison: the same sweep at the default memory budget
    // vs one an eighth the size of the first signature table (which
    // therefore streams through a window of levels), on Small-scale
    // miters (the acceptance regime). Disabling the exhaustive PO phase
    // (`k_po_all = k_po = 0`) and widening the random pattern set forces
    // the global phase's partial-simulation signature tables to dominate
    // the device arena — the regime the budget rule is for; at
    // depth-doubled scale the PO supports are too wide for exhaustive
    // tables anyway. Verdicts must match; the committed JSON records the
    // peak-live reduction.
    let mut window_json = Vec::new();
    eprintln!("# window streaming (default memory budget vs one the tables cannot fit)");
    let stream_cfg = || {
        let mut cfg = EngineConfig::scaled();
        cfg.k_po_all = 0;
        cfg.k_po = 0;
        cfg.k_g = 12;
        cfg.sim_words = 128;
        cfg
    };
    // One Small-scale case keeps this section smoke-sized: log2's
    // PO-phase-free sweep runs for tens of minutes at Small scale, so
    // it stays out of the committed comparison.
    #[allow(clippy::single_element_loop)] // the set is meant to grow
    for base in ["voter"] {
        let case = pick(base);
        let resident_exec = Executor::new();
        let resident = sim_sweep(&case.miter, &resident_exec, &stream_cfg());
        let rs = resident_exec.stats();
        let windowed_exec = Executor::new();
        let mut windowed_cfg = stream_cfg();
        windowed_cfg.memory_words = case.miter.num_nodes() * windowed_cfg.sim_words / 8;
        let windowed = sim_sweep(&case.miter, &windowed_exec, &windowed_cfg);
        let ws = windowed_exec.stats();
        assert_eq!(
            Report::new(&resident).verdict_tag(),
            Report::new(&windowed).verdict_tag(),
            "{base}: the memory budget changed the verdict"
        );
        assert!(
            ws.window_spills > 0,
            "{base}: the over-budget run never spilled a level"
        );
        let reduction = rs.arena_peak_live_bytes as f64 / ws.arena_peak_live_bytes.max(1) as f64;
        eprintln!(
            "{:<16} {} resident {}B windowed {}B (+{}B spill tier) reduction {:.2}x spills {}",
            base,
            Report::new(&windowed).verdict_tag(),
            rs.arena_peak_live_bytes,
            ws.arena_peak_live_bytes,
            ws.spill_peak_bytes,
            reduction,
            ws.window_spills,
        );
        let mut j = String::new();
        let _ = write!(
            j,
            concat!(
                "    {{\"name\": \"{}\", \"verdict\": \"{}\", ",
                "\"resident_peak_live_bytes\": {}, \"windowed_peak_live_bytes\": {}, ",
                "\"spill_peak_bytes\": {}, \"window_spills\": {}, ",
                "\"window_spill_bytes\": {}, \"peak_reduction\": {:.3}}}"
            ),
            case.name,
            Report::new(&windowed).verdict_tag(),
            rs.arena_peak_live_bytes,
            ws.arena_peak_live_bytes,
            ws.spill_peak_bytes,
            ws.window_spills,
            ws.window_spill_bytes,
            reduction,
        );
        window_json.push(j);
    }

    // Sanitizer-overhead comparison on the resim-heavy rows: the same
    // FRAIG run once on a sanitizing executor (every kernel serialized,
    // every access audited against its declaration) and once on a raw
    // one, where launches run in parallel on their static proof alone.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut overhead_json = Vec::new();
    eprintln!("# sanitizer overhead (dynamic audit vs statically verified parallel path)");
    for base in FRAIG_CASES {
        let case = cases
            .iter()
            .find(|c| c.name.starts_with(base))
            .expect("fraig case names come from the suite");
        let dynamic_exec = Executor::with_sanitizer(threads);
        let dynamic = fraig(&case.miter, &dynamic_exec, &fraig_cfg());
        let verified_exec = Executor::with_threads(threads);
        let verified = fraig(&case.miter, &verified_exec, &fraig_cfg());
        assert_eq!(
            dynamic.stats.final_ands, verified.stats.final_ands,
            "the audit changed the {base} FRAIG result"
        );
        assert_eq!(
            dynamic_exec.stats().static_verified_launches,
            0,
            "{base} FRAIG skipped the audit on a sanitizing executor"
        );
        let overhead_pct = if verified.stats.seconds > 0.0 {
            (dynamic.stats.seconds - verified.stats.seconds) / verified.stats.seconds * 100.0
        } else {
            0.0
        };
        eprintln!(
            "{:<16} dynamic {:.3}s verified {:.3}s overhead {:+.1}%",
            format!("{base}_fraig"),
            dynamic.stats.seconds,
            verified.stats.seconds,
            overhead_pct,
        );
        let mut j = String::new();
        let _ = write!(
            j,
            concat!(
                "    {{\"name\": \"{}_fraig\", \"dynamic_seconds\": {:.6}, ",
                "\"verified_seconds\": {:.6}, \"overhead_pct\": {:.1}}}"
            ),
            base, dynamic.stats.seconds, verified.stats.seconds, overhead_pct,
        );
        overhead_json.push(j);
    }

    // Prover-dispatch comparison: plain SAT sweeping (the one engine a
    // finisher without a dispatcher would run) vs the dispatcher on whole
    // deep-FRAIG miters and on a synthetic multiplier-like hard cone. On
    // the hard cone the exhaustive engine is admitted (support under the
    // cap) but pays 2^support over a deep cone; the dispatcher races it
    // against SAT sweeping and cancels the loser at its next poll point.
    // The JSON keys keep their `sequential_*`/`adaptive_*` names for
    // `scripts/bench_delta.py`.
    let mut prover_json = Vec::new();
    eprintln!("# prover dispatch (plain sat_sweep vs the dispatcher)");
    let mut dispatch_cases: Vec<(String, Aig)> = FRAIG_CASES
        .iter()
        .map(|base| {
            let case = cases
                .iter()
                .find(|c| c.name.starts_with(base))
                .expect("dispatch case names come from the suite");
            (format!("{base}_dispatch"), case.miter.clone())
        })
        .collect();
    dispatch_cases.push(("maj_rounds_hard_cone".to_string(), maj_rounds_miter(20, 16)));
    for (name, m) in &dispatch_cases {
        let sequential = sat_sweep(m, &exec, &SweepConfig::default());
        let adaptive = Prover::default().prove(m, &exec, &CancelToken::never());
        assert_eq!(
            sequential.verdict.is_equivalent(),
            adaptive.verdict.is_equivalent(),
            "{name}: the dispatcher disagreed with plain SAT sweeping"
        );
        let adaptive_engine = adaptive.engine.map_or("none", |e| e.name());
        let speedup = if adaptive.seconds > 0.0 {
            sequential.stats.seconds / adaptive.seconds
        } else {
            1.0
        };
        eprintln!(
            "{:<20} sat_sweep {:.3}s dispatcher {:.3}s ({}{}) speedup {:.2}x",
            name,
            sequential.stats.seconds,
            adaptive.seconds,
            adaptive_engine,
            if adaptive.raced { ", raced" } else { "" },
            speedup,
        );
        let mut j = String::new();
        let _ = write!(
            j,
            concat!(
                "    {{\"name\": \"{}\", \"sequential_seconds\": {:.6}, ",
                "\"adaptive_seconds\": {:.6}, \"sequential_engine\": \"{}\", ",
                "\"adaptive_engine\": \"{}\", \"raced\": {}, \"speedup\": {:.3}}}"
            ),
            name,
            sequential.stats.seconds,
            adaptive.seconds,
            "sat_sweep",
            adaptive_engine,
            adaptive.raced,
            speedup,
        );
        prover_json.push(j);
        // Undecided rows would make the comparison vacuous.
        assert!(
            !matches!(adaptive.verdict, Verdict::Undecided),
            "{name}: dispatch left the miter undecided"
        );
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"scale\": \"{:?}\",\n",
            "  \"model_cores\": {},\n",
            "  \"total_wall_seconds\": {:.6},\n",
            "  \"total_modeled_time\": {},\n",
            "  \"total_serialized_time\": {},\n",
            "  \"total_launches\": {},\n",
            "  \"total_inline_launches\": {},\n",
            "  \"max_arena_peak_bytes\": {},\n",
            "  \"max_arena_peak_live_bytes\": {},\n",
            "  \"cases\": [\n{}\n  ],\n",
            "  \"small_cases\": [\n{}\n  ],\n",
            "  \"window_streaming\": [\n{}\n  ],\n",
            "  \"sanitizer_overhead\": [\n{}\n  ],\n",
            "  \"prover_dispatch\": [\n{}\n  ]\n",
            "}}\n"
        ),
        scale,
        MODEL_CORES,
        total_seconds,
        total_modeled,
        total_serialized,
        total_launches,
        total_inline,
        peak_bytes,
        peak_live_bytes,
        cases_json.join(",\n"),
        small_json.join(",\n"),
        window_json.join(",\n"),
        overhead_json.join(",\n"),
        prover_json.join(",\n"),
    );
    std::fs::write(&out_path, json).expect("write benchmark json");
    eprintln!("wrote {out_path}");
}
