//! The traced run: the workload's inputs pushed through every layer's
//! public functions in-process, each call inside a span recorded from
//! here, plus the shipped binaries once more for the two numbers that are
//! differences against them (`cli.overhead_s`, `net.overhead_ms_per_job`).
//!
//! Everything is timed from outside a public call or read from a value the
//! call already returns (`EngineStats`, `LaunchStats`, `JobStats`, the
//! server's `stats` event); no crate gains a timer. The functions called
//! here are the benchmark's whole API surface — README.md lists them.

use std::time::{Duration, Instant};

use parsweep_aig::{miter, read_aiger_file, Aig, Var};
use parsweep_core::{combined_check, CombinedConfig, EngineStats};
use parsweep_cut::{
    enumeration_groups, enumeration_levels, Cut, CutKernel, CutParams, CutScorer, Pass,
};
use parsweep_par::{EffectTable, Executor, LaunchStats};
use parsweep_sat::{sat_sweep, SweepConfig, Verdict};
use parsweep_sim::{
    check_windows, merge_windows, signature_classes, simulate, PairCheck, Patterns, Window,
    DEFAULT_MEMORY_WORDS,
};
use parsweep_svc::{shard_miter, CecService, ResultCache, Shard, ShardPolicy, SvcConfig};

use crate::eng;
use crate::inputs::{self, Item};
use crate::json::Json;
use crate::run::{self, Env, Length, Report, Service, CONNECTIONS, WINDOW};
use crate::spans::Recorder;
use crate::stats::median;

/// Times the CLI and the in-process engine pass run over the sample.
const REPS: usize = 3;
/// Operations of a service workload the traced run samples.
const SERVICE_SAMPLE: usize = 60;
/// The global-window exhaustive check takes PO pairs up to this support.
const EXHAUSTIVE_SUPPORT: usize = 16;
/// Budget of the standalone SAT sweep and the CLI's `--budget`.
const SAT_BUDGET: Duration = Duration::from_secs(60);
/// The server's `--deadline-ms`.
const DEADLINE: Duration = Duration::from_millis(5000);

/// What the in-process engine pass learned about one item.
struct Checked {
    miter: Aig,
    reduced: Aig,
    /// In-process parse + miter + check, what the CLI does between spawn
    /// and exit.
    inproc_s: f64,
    check_s: f64,
}

#[derive(Default)]
struct EngineTotals {
    parse_s: f64,
    parse_nodes: f64,
    miter_s: f64,
    sweep_s: f64,
    fallback_s: f64,
    stats: Vec<EngineStats>,
    launches: Vec<LaunchStats>,
}

fn verdict_failure(item: &Item, verdict: &Verdict) -> Option<String> {
    let ok = match verdict {
        Verdict::Equivalent => item.expected_verdict() == "equivalent",
        Verdict::NotEquivalent(cex) => item.cex_fires(cex.inputs()),
        Verdict::Undecided => false,
    };
    (!ok).then(|| format!("{}: in-process verdict {verdict:?}", item.tag))
}

/// Parse, miter and check every item the way the CLI does, a span around
/// each call.
fn engine_pass(
    items: &[&Item],
    rec: &mut Recorder,
    failures: &mut Vec<String>,
) -> Result<(Vec<Checked>, EngineTotals), String> {
    let cfg = CombinedConfig {
        sat: SweepConfig {
            wall_budget: Some(SAT_BUDGET),
            ..SweepConfig::default()
        },
        ..CombinedConfig::default()
    };
    let mut totals = EngineTotals::default();
    let mut checked = Vec::new();
    for item in items {
        rec.next_op();
        let start = Instant::now();
        let out = rec.span("cli.check", |rec| {
            let (sides, s) = rec.timed("aig.parse", |_| {
                read_aiger_file(&item.left).and_then(|l| Ok((l, read_aiger_file(&item.right)?)))
            });
            let (left, right) = sides.map_err(|e| format!("{}: {e}", item.tag))?;
            totals.parse_s += s;
            totals.parse_nodes += (left.num_nodes() + right.num_nodes()) as f64;
            let (m, s) = rec.timed("aig.miter", |_| miter(&left, &right));
            let m = m.map_err(|e| format!("{}: {e}", item.tag))?;
            totals.miter_s += s;
            // A fresh executor per item, as each CLI process has.
            let exec = Executor::new();
            let (result, check_s) = rec.timed("core.combined_check", |rec| {
                let r = combined_check(&m, &exec, &cfg);
                rec.reported("core.sim_sweep", r.engine_seconds);
                rec.reported("core.sat_fallback", r.sat_seconds);
                r
            });
            totals.sweep_s += result.engine_seconds;
            totals.fallback_s += result.sat_seconds;
            totals.stats.push(result.engine.stats);
            totals.launches.push(exec.stats());
            failures.extend(verdict_failure(item, &result.verdict));
            Ok::<_, String>((m, result.engine.reduced, check_s))
        })?;
        checked.push(Checked {
            miter: out.0,
            reduced: out.1,
            inproc_s: start.elapsed().as_secs_f64(),
            check_s: out.2,
        });
    }
    Ok((checked, totals))
}

/// What recording one span costs: the same empty closure through a
/// recorder that is on and one that is off. Two engine passes, spans off
/// and on, cannot resolve it: a pass takes a second, the box's own noise
/// is a tenth of that, and a pass records a few spans per operation.
fn span_cost_s() -> f64 {
    const SPANS: usize = 200_000;
    let cost = |enabled: bool| {
        let mut rec = Recorder::new(enabled);
        let start = Instant::now();
        for i in 0..SPANS {
            rec.span("calibration", |_| std::hint::black_box(i));
        }
        start.elapsed().as_secs_f64()
    };
    (cost(true) - cost(false)).max(0.0) / SPANS as f64
}

/// One launch per width through the declared-effects entry point the
/// engine uses, with an empty kernel: what is left is dispatch.
fn launch_cost_s(exec: &Executor, width: usize, count: usize) -> f64 {
    let table = EffectTable::new();
    let start = Instant::now();
    for _ in 0..count {
        exec.launch_declared(&table, "benchmark.empty", width, &[], |t| {
            std::hint::black_box(t);
        });
    }
    start.elapsed().as_secs_f64() / count as f64
}

/// Priority-cut enumeration over a whole network, level by level, as the
/// L phase runs it (no classes yet: every node is its own representative).
fn enumerate_cuts(aig: &Aig, exec: &Executor) -> usize {
    let fanouts = aig.fanout_counts();
    let levels = aig.levels();
    let repr_map = vec![None; aig.num_nodes()];
    let el = enumeration_levels(aig, &repr_map);
    let groups = enumeration_groups(aig, &el, None);
    let mut cut_sets: Vec<Vec<Cut>> = vec![Vec::new(); aig.num_nodes()];
    for &pi in aig.pis() {
        cut_sets[pi.index()] = vec![Cut::trivial(pi)];
    }
    let kernel = CutKernel::new(
        aig,
        &repr_map,
        false,
        CutScorer::new(&fanouts, &levels),
        CutParams::default(),
        Pass::Fanout,
    );
    for group in groups.iter().filter(|g| !g.is_empty()) {
        kernel.compute_level(exec, group, &mut cut_sets);
    }
    cut_sets.iter().map(Vec::len).sum()
}

/// A window per miter PO whose support fits ("is this PO constant 0"),
/// merged under the same bound as the P phase merges them: unmerged, the
/// cones POs share would be simulated once per PO.
fn po_windows(m: &Aig) -> Vec<Window> {
    let supports = m.bounded_supports(EXHAUSTIVE_SUPPORT);
    let windows = m
        .pos()
        .iter()
        .filter(|po| !po.var().is_const() && supports[po.var().index()].size().is_some())
        .map(|po| {
            Window::global(
                m,
                PairCheck {
                    a: Var::FALSE,
                    b: po.var(),
                    complement: po.is_complemented(),
                },
            )
        })
        .collect();
    merge_windows(windows, EXHAUSTIVE_SUPPORT)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the single-layer calls over the sample's miters added up to.
#[derive(Default)]
struct Singles {
    sim_partial_s: f64,
    sim_classes_s: f64,
    sim_node_words: f64,
    exhaustive_s: f64,
    exhaustive_pattern_nodes: f64,
    effort_words: u64,
    cut_s: f64,
    cuts: usize,
    sat_s: f64,
    sat_conflicts: u64,
    sat_calls: u64,
    shard_s: f64,
    shards: Vec<Shard>,
}

/// Calls each layer below the engine on every checked miter, a span
/// around every call.
fn single_layers(
    checked: &[Checked],
    stats: &[EngineStats],
    exec: &Executor,
    seed: u64,
    rec: &mut Recorder,
) -> Singles {
    const WORDS: usize = 64;
    // Cuts are enumerated for the miters whose engine run reached the L
    // phase, where cuts are what it spends its time on; when none did, for
    // the smallest, so that the number is never made of nothing.
    let cut_fallback = if stats.iter().any(|s| s.local_phases > 0) {
        None
    } else {
        (0..checked.len()).min_by_key(|&n| checked[n].miter.num_ands())
    };
    let mut one = Singles::default();
    for (n, c) in checked.iter().enumerate() {
        let m = &c.miter;
        let patterns = Patterns::random(m.num_pis(), WORDS, seed.wrapping_add(n as u64));
        let (sigs, s) = rec.timed("sim.simulate", |_| simulate(m, exec, &patterns));
        one.sim_partial_s += s;
        one.sim_node_words += (m.num_nodes() * WORDS) as f64;
        one.sim_classes_s += rec
            .timed("sim.signature_classes", |_| signature_classes(m, &sigs))
            .1;

        let windows = po_windows(m);
        if !windows.is_empty() {
            one.exhaustive_pattern_nodes += windows
                .iter()
                .map(|w| (w.num_entries() as f64) * (1u64 << w.num_inputs()) as f64)
                .sum::<f64>();
            let ((_, effort), s) = rec.timed("sim.check_windows", |_| {
                check_windows(m, exec, &windows, DEFAULT_MEMORY_WORDS)
            });
            one.exhaustive_s += s;
            one.effort_words += effort.words;
        }

        if cut_fallback == Some(n) || stats[n].local_phases > 0 {
            let (cuts, s) = rec.timed("cut.compute_level", |_| enumerate_cuts(m, exec));
            one.cuts += cuts;
            one.cut_s += s;
        }

        let cfg = SweepConfig {
            wall_budget: Some(SAT_BUDGET),
            ..SweepConfig::default()
        };
        let (sweep, s) = rec.timed("sat.sat_sweep", |_| sat_sweep(&c.reduced, exec, &cfg));
        one.sat_s += s;
        one.sat_conflicts += sweep.stats.conflicts;
        one.sat_calls += sweep.stats.sat_calls;

        let (shards, s) = rec.timed("svc.shard_miter", |_| {
            shard_miter(m, ShardPolicy::PerOutput)
        });
        one.shards.extend(shards);
        one.shard_s += s;
    }
    one
}

/// The cone cache alone: every shard missed, inserted, then found.
/// Microseconds per cone for `(miss probe, insert, hit probe)`.
fn cache_costs_us(shards: &[Shard]) -> (f64, f64, f64) {
    let cache = ResultCache::new();
    let per_cone = |f: &dyn Fn(&Shard)| {
        let t = Instant::now();
        shards.iter().for_each(f);
        t.elapsed().as_secs_f64() * 1e6 / shards.len().max(1) as f64
    };
    let probe = |s: &Shard| {
        std::hint::black_box(cache.lookup(s.hash, &s.extraction.cone));
    };
    let miss = per_cone(&probe);
    let insert = per_cone(&|s| cache.insert(s.hash, &s.extraction.cone, &Verdict::Equivalent));
    (miss, insert, per_cone(&probe))
}

/// What the in-process service said about the jobs it was given.
struct ServicePass {
    job_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    /// Bare `combined_check` seconds of the same miters.
    bare_s: f64,
}

/// The service in-process with the flags of the server the workload
/// drives: `pre` settled first, as the workload's set-up does, then one
/// job at a time.
fn service_pass(
    pre: &[&Item],
    jobs: &[(&Item, &Checked)],
    rec: &mut Recorder,
    failures: &mut Vec<String>,
) -> Result<ServicePass, String> {
    let svc = CecService::new(SvcConfig {
        workers: 1,
        exec_threads: 1,
        sat_fallback: true,
        default_deadline: Some(DEADLINE),
        ..SvcConfig::default()
    });
    for item in pre {
        let side = |p| read_aiger_file(p).map_err(|e| format!("{}: {e}", item.tag));
        let m = miter(&side(&item.left)?, &side(&item.right)?).map_err(|e| e.to_string())?;
        svc.wait(svc.submit(m));
    }
    let mut pass = ServicePass {
        job_ms: Vec::new(),
        queue_ms: Vec::new(),
        bare_s: 0.0,
    };
    for (item, c) in jobs {
        rec.next_op();
        pass.bare_s += c.check_s;
        match rec.span("svc.submit_wait", |_| svc.wait(svc.submit(c.miter.clone()))) {
            Some(result) => {
                pass.job_ms.push(result.stats.total.as_secs_f64() * 1e3);
                pass.queue_ms
                    .push(result.stats.queue_wait.as_secs_f64() * 1e3);
                failures.extend(verdict_failure(item, &result.verdict));
            }
            None => failures.push(format!("{}: service lost the job", item.tag)),
        }
    }
    Ok(pass)
}

/// Runs the traced pass of `workload` and reports every per-layer metric.
pub fn run(env: &Env, workload: &str, seed: u64, smoke: bool) -> Result<Report, String> {
    let dir = env.out.join(workload);
    let length = if smoke {
        Length::Smoke
    } else {
        Length::OnePass
    };
    let plan = run::prepare(workload, seed, &env.inputs, &dir, length)?;
    let mut sample = plan.pass(0).ok_or("workload has no pass")?;
    if run::is_service(workload) {
        sample.truncate(if smoke {
            SERVICE_SAMPLE / 20
        } else {
            SERVICE_SAMPLE
        });
    }
    let pre = plan.refs(&plan.warmup);
    // What goes through the service layers: a service workload's whole
    // sample, but of an engine workload only the cheapest pair. Sharded
    // per output, a multiplier costs the service four times what it costs
    // the engine and comes close to the server's deadline.
    let cheapest = inputs::engine_pairs(workload).and_then(|p| p.last());
    let served = |item: &Item| cheapest.is_none_or(|c| item.tag.starts_with(c));
    let svc_sample: Vec<&Item> = sample.iter().copied().filter(|i| served(i)).collect();
    let svc_jobs = svc_sample.len() as f64;
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let jobs = sample.len() as f64;

    // --- `cli.overhead_s` is a small difference of two large times on a
    // box whose noise only ever adds: both sides run `REPS` times and each
    // pair counts with its fastest run. First the shipped CLI, the
    // black-box side.
    let mut cli_best = vec![f64::INFINITY; sample.len()];
    for _ in 0..REPS {
        for (best, item) in cli_best.iter_mut().zip(&sample) {
            let check = eng::check(&env.parsweep, item);
            *best = best.min(check.wall_s);
            failures.extend(check.failure);
        }
    }
    // Then the same calls in-process; the last pass is the one with a span
    // around every call, and the one every other number is read from.
    let mut inproc_best = vec![f64::INFINITY; sample.len()];
    let mut keep_best = |checked: &[Checked]| {
        for (best, c) in inproc_best.iter_mut().zip(checked) {
            *best = best.min(c.inproc_s);
        }
    };
    for _ in 1..REPS {
        keep_best(&engine_pass(&sample, &mut Recorder::new(false), &mut failures)?.0);
    }
    let mut rec = Recorder::new(true);
    let start = Instant::now();
    let (checked, eng) = rec.span("engine_pass", |rec| {
        engine_pass(&sample, rec, &mut failures)
    })?;
    let traced_s = start.elapsed().as_secs_f64();
    keep_best(&checked);
    attempted += (2 * REPS * sample.len()) as u64;
    let (cli_s, inproc_s): (f64, f64) = (cli_best.iter().sum(), inproc_best.iter().sum());
    let pass_spans = rec.len();

    // --- Single layers on the same miters.
    let exec = Executor::new();
    let one = rec.span("layers", |rec| {
        single_layers(&checked, &eng.stats, &exec, seed, rec)
    });
    let (miss_us, insert_us, probe_us) = cache_costs_us(&one.shards);
    let inline_s = launch_cost_s(&exec, 64, 100_000);
    let pool_s = launch_cost_s(&exec, 65_536, 1_000);

    // --- The service in-process, one job at a time.
    let served_checked: Vec<(&Item, &Checked)> = sample
        .iter()
        .copied()
        .zip(&checked)
        .filter(|(i, _)| served(i))
        .collect();
    let svc = rec.span("svc_pass", |rec| {
        service_pass(&pre, &served_checked, rec, &mut failures)
    })?;
    attempted += svc_sample.len() as u64;

    // --- The shipped server, one connection with one job outstanding:
    // what TCP, admission and JSON add to a job.
    let (mut single, warm) = Service::start(env, 1, &pre)?;
    failures.extend(warm.failures);
    let bytes_before = single.clients[0].bytes;
    let (serial, _) = rec.span("net.serial", |_| single.run(&svc_sample, 1));
    let bytes = (single.clients[0].bytes - bytes_before) as f64;
    let serial_ms: Vec<f64> = serial.latencies_s.iter().map(|s| s * 1e3).collect();
    failures.extend(serial.failures);
    single.stop()?;
    attempted += svc_sample.len() as u64;

    // --- The shipped server under the workload's own client shape: where
    // the hit shares, utilization and admission counts come from.
    let (mut shaped, warm) = Service::start(env, CONNECTIONS, &pre)?;
    failures.extend(warm.failures);
    let before = shaped.stats()?;
    let (batch, _) = rec.span("net.shaped", |_| shaped.run(&svc_sample, WINDOW));
    let after = shaped.stats()?;
    failures.extend(batch.failures);
    shaped.stop()?;
    attempted += svc_sample.len() as u64;
    // Counters over the sample only: what the warm-up did is subtracted.
    let stat = |k: &str| {
        let read = |s: &Json| s.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        read(&after) - read(&before)
    };
    let lookups = stat("cache_hits") + stat("cache_misses");
    let utilization = after
        .get("worker_utilization")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);

    // --- Totals of what the engine's own statistics said.
    let sum = |f: &dyn Fn(&EngineStats) -> f64| eng.stats.iter().map(f).sum::<f64>();
    let launch = |f: &dyn Fn(&LaunchStats) -> f64| eng.launches.iter().map(f).sum::<f64>();
    let proved = sum(&|s| s.proved_pairs as f64 + s.pos_proved as f64);
    let checks = proved + sum(&|s| (s.disproved_pairs + s.inconclusive_checks) as f64);
    let total_launches = launch(&|l| l.total_launches() as f64);
    let initial = sum(&|s| s.initial_ands as f64);
    let cores = parsweep_trace::MODEL_CORES;

    let metrics = vec![
        ("aig.parse_s", eng.parse_s),
        (
            "aig.parse_mnodes_per_s",
            ratio(eng.parse_nodes / 1e6, eng.parse_s),
        ),
        ("aig.miter_s", eng.miter_s),
        ("cli.overhead_s", cli_s - inproc_s),
        ("core.sweep_s", eng.sweep_s),
        // Shares, not seconds: a phase that never runs on a workload would
        // read as a time of exactly zero on every run.
        (
            "core.phase_p_share",
            ratio(sum(&|s| s.phase_times.po), eng.sweep_s),
        ),
        (
            "core.phase_g_share",
            ratio(sum(&|s| s.phase_times.global), eng.sweep_s),
        ),
        (
            "core.phase_l_share",
            ratio(sum(&|s| s.phase_times.local), eng.sweep_s),
        ),
        (
            "core.phase_other_share",
            ratio(sum(&|s| s.phase_times.other), eng.sweep_s),
        ),
        (
            "core.fallback_share",
            ratio(eng.fallback_s, eng.sweep_s + eng.fallback_s),
        ),
        (
            "core.reduction_pct",
            100.0 * ratio(initial - sum(&|s| s.final_ands as f64), initial),
        ),
        ("core.proved_pairs", sum(&|s| s.proved_pairs as f64)),
        ("core.disproved_pairs", sum(&|s| s.disproved_pairs as f64)),
        (
            "core.inconclusive_checks",
            sum(&|s| s.inconclusive_checks as f64),
        ),
        ("core.check_yield", ratio(proved, checks)),
        ("core.sim_words", sum(&|s| s.sim_words as f64)),
        (
            "core.pruned_sim_rounds",
            sum(&|s| f64::from(s.pruned_sim_rounds)),
        ),
        (
            "core.resim_dirty_nodes",
            sum(&|s| s.resim_dirty_nodes as f64),
        ),
        (
            "core.resim_clean_nodes",
            sum(&|s| s.resim_clean_nodes as f64),
        ),
        ("par.launches_pool", launch(&|l| l.launches as f64)),
        ("par.launches_inline", launch(&|l| l.inline_launches as f64)),
        (
            "par.modeled_time",
            launch(&|l| l.modeled_time(cores) as f64),
        ),
        (
            "par.serialized_time",
            launch(&|l| l.serialized_time(cores) as f64),
        ),
        (
            "par.static_verified_share",
            ratio(
                launch(&|l| l.static_verified_launches as f64),
                total_launches,
            ),
        ),
        ("par.launch_inline_ns", inline_s * 1e9),
        ("par.launch_pool_us", pool_s * 1e6),
        (
            "par.sweep_ns_per_launch",
            ratio(eng.sweep_s * 1e9, total_launches),
        ),
        (
            "par.arena_hit_share",
            ratio(
                launch(&|l| l.arena_hits as f64),
                launch(&|l| (l.arena_hits + l.arena_misses) as f64),
            ),
        ),
        (
            "par.arena_peak_live_mb",
            eng.launches
                .iter()
                .map(|l| l.arena_peak_live_bytes as f64 / 1e6)
                .fold(0.0, f64::max),
        ),
        ("sim.partial_s", one.sim_partial_s),
        (
            "sim.partial_gnw_per_s",
            ratio(one.sim_node_words / 1e9, one.sim_partial_s),
        ),
        ("sim.classes_s", one.sim_classes_s),
        ("sim.exhaustive_s", one.exhaustive_s),
        (
            "sim.exhaustive_gpn_per_s",
            ratio(one.exhaustive_pattern_nodes / 1e9, one.exhaustive_s),
        ),
        ("sim.effort_words", one.effort_words as f64),
        ("cut.enumerate_s", one.cut_s),
        ("cut.cuts_per_s", ratio(one.cuts as f64, one.cut_s)),
        ("sat.sweep_s", one.sat_s),
        ("sat.conflicts", one.sat_conflicts as f64),
        (
            "sat.conflicts_per_s",
            ratio(one.sat_conflicts as f64, one.sat_s),
        ),
        ("sat.calls", one.sat_calls as f64),
        ("svc.job_ms_p50", median(&svc.job_ms)),
        // The median job of `net_warm` is a memo hit, which never queues.
        (
            "svc.queue_wait_ms_mean",
            ratio(svc.queue_ms.iter().sum(), svc.queue_ms.len() as f64),
        ),
        (
            "svc.overhead_ratio",
            ratio(svc.job_ms.iter().sum::<f64>() / 1e3, svc.bare_s),
        ),
        ("svc.shard_s", one.shard_s),
        ("svc.shards_per_job", ratio(one.shards.len() as f64, jobs)),
        ("svc.cache_probe_us", probe_us),
        ("svc.cache_insert_us", insert_us),
        ("svc.memo_hit_share", ratio(stat("job_memo_hits"), svc_jobs)),
        ("svc.cache_hit_share", ratio(stat("cache_hits"), lookups)),
        (
            "svc.semantic_hit_share",
            ratio(stat("cache_semantic_hits"), lookups),
        ),
        ("svc.cache_evictions", stat("cache_evictions")),
        ("svc.worker_utilization", utilization),
        (
            "net.overhead_ms_per_job",
            median(&serial_ms) - median(&svc.job_ms),
        ),
        ("net.queued_share", ratio(batch.queued as f64, svc_jobs)),
        ("net.rejected_share", ratio(batch.rejected as f64, svc_jobs)),
        ("net.bytes_per_job", ratio(bytes, svc_jobs)),
        (
            "trace.overhead_pct",
            100.0 * ratio(pass_spans as f64 * span_cost_s(), traced_s),
        ),
    ];

    // The trace itself goes through the `trace` crate: validated, then
    // written as a Chrome trace next to the derived inputs.
    let events = rec.events();
    parsweep_trace::validate_events(&events).map_err(|e| format!("trace: {e}"))?;
    std::fs::create_dir_all(&env.out).map_err(|e| format!("{}: {e}", env.out.display()))?;
    let trace_file = env.out.join(format!("trace_{workload}.json"));
    std::fs::write(&trace_file, parsweep_trace::events_to_json(&events))
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    let spans = rec
        .totals()
        .into_iter()
        .map(|(name, (count, total, own))| {
            (
                name,
                Json::obj([
                    ("count", Json::Num(count as f64)),
                    ("total_s", Json::Num(total)),
                    ("self_s", Json::Num(own)),
                ]),
            )
        })
        .collect::<Vec<_>>();
    let detail = Json::obj([
        ("operations", Json::Num(jobs)),
        ("service_operations", Json::Num(svc_jobs)),
        ("spans_recorded", Json::Num(rec.len() as f64)),
        ("cli_s", Json::Num(cli_s)),
        ("inprocess_s", Json::Num(inproc_s)),
        ("engine_pass_s", Json::Num(traced_s)),
        ("engine_pass_spans", Json::Num(pass_spans as f64)),
        ("cache_miss_probe_us", Json::Num(miss_us)),
        ("net_serial_latency_ms_p50", Json::Num(median(&serial_ms))),
        (
            "engine_reaching_share",
            Json::Num(ratio(
                stat("cache_misses") - stat("cache_semantic_hits"),
                lookups,
            )),
        ),
        ("trace_file", Json::str(trace_file.to_string_lossy())),
        ("spans", Json::obj(spans)),
    ]);
    Ok(Report {
        attempted,
        failures,
        metrics,
        detail,
    })
}
