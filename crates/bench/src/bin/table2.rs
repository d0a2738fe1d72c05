//! Reproduces the paper's **Table II**: benchmark statistics and runtime
//! comparison of the SAT-sweeping baseline ("ABC &cec" role), the
//! portfolio checker ("Conformal" role) and the simulation-based engine
//! combined with the SAT fallback ("Ours (GPU+ABC)"): the paper's full
//! P/G/L engine, then SAT sweeping on whatever reduced miter it leaves.
//!
//! Each timed cell is the median of [`RUNS`] runs; a run that hits the
//! wall budget is not repeated.
//!
//! Usage: `table2 [tiny|small|medium] [--budget <seconds>] [--case <name>]`

use std::time::{Duration, Instant};

use parsweep_bench::harness::{baseline_sat_config, geomean, portfolio_config, suite, Scale};
use parsweep_core::{sim_sweep, EngineConfig};
use parsweep_par::Executor;
use parsweep_sat::{portfolio_check, sat_sweep, Verdict};

/// Runs per timed cell.
const RUNS: usize = 3;

/// Runs `run` (which returns its time and result) up to [`RUNS`] times and
/// returns the run with the median time; stops early after a run for which
/// `timed_out` holds.
fn median_run<T>(mut run: impl FnMut() -> (f64, T), timed_out: impl Fn(&T) -> bool) -> (f64, T) {
    let mut runs = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let r = run();
        let stop = timed_out(&r.1);
        runs.push(r);
        if stop {
            break;
        }
    }
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mid = runs.len() / 2;
    runs.swap_remove(mid)
}

fn verdict_tag(v: &Verdict) -> &'static str {
    match v {
        Verdict::Equivalent => "eq",
        Verdict::NotEquivalent(_) => "NEQ!",
        Verdict::Undecided => "t/o",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut budget = Duration::from_secs(60);
    let mut only: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--budget" => {
                let secs: u64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--budget <seconds>");
                budget = Duration::from_secs(secs);
            }
            "--case" => {
                only = Some(it.next().expect("--case <name>").clone());
            }
            s => {
                scale = Scale::parse(s).unwrap_or_else(|| panic!("unknown scale {s:?}"));
            }
        }
    }

    let exec = Executor::new();
    println!("# Table II reproduction — scale {scale:?}, SAT wall budget {budget:?}");
    println!("# (timeouts count as the full budget when computing speedups, like the");
    println!("#  paper's 122-day cap for log2_10xd)");
    println!();
    println!(
        "{:<16} {:>7} {:>7} {:>9} {:>6} | {:>9} {:>9} | {:>8} {:>7} {:>8} {:>9} | {:>8} {:>8}",
        "Benchmark",
        "#PIs",
        "#POs",
        "#Nodes",
        "Lev",
        "SAT(s)",
        "Pfl(s)",
        "Eng(s)",
        "Red(%)",
        "SAT2(s)",
        "Total(s)",
        "vs.SAT",
        "vs.Pfl"
    );

    let mut vs_sat = Vec::new();
    let mut vs_pfl = Vec::new();
    for case in suite(scale) {
        if let Some(f) = &only {
            if !case.name.starts_with(f.as_str()) {
                continue;
            }
        }
        let m = &case.miter;
        let (pis, pos, nodes, levels) = (m.num_pis(), m.num_pos(), m.num_ands(), m.depth());

        // Column 1: standalone SAT sweeping.
        let (mut sat_secs, sat_verdict) = median_run(
            || {
                let t = Instant::now();
                let res = sat_sweep(m, &exec, &baseline_sat_config(budget));
                (t.elapsed().as_secs_f64(), res.verdict)
            },
            |v| *v == Verdict::Undecided,
        );
        let sat_tag = verdict_tag(&sat_verdict);
        if sat_verdict == Verdict::Undecided {
            sat_secs = budget.as_secs_f64();
        }

        // Column 2: portfolio checker.
        let (mut pfl_secs, pfl_verdict) = median_run(
            || {
                let t = Instant::now();
                let res = portfolio_check(m, &exec, &portfolio_config(budget));
                (t.elapsed().as_secs_f64(), res.verdict)
            },
            |v| *v == Verdict::Undecided,
        );
        let pfl_tag = verdict_tag(&pfl_verdict);
        if pfl_verdict == Verdict::Undecided {
            pfl_secs = budget.as_secs_f64();
        }

        // Column 3: the simulation engine (P/G/L), then SAT sweeping on
        // the reduced miter it leaves undecided; the row shows the run
        // with the median total.
        let (mut total, (eng_secs, red, sat2_secs, verdict)) = median_run(
            || {
                let eng = sim_sweep(m, &exec, &EngineConfig::scaled());
                let (verdict, sat2_secs) = match eng.verdict {
                    Verdict::Undecided => {
                        let t = Instant::now();
                        let res = sat_sweep(&eng.reduced, &exec, &baseline_sat_config(budget));
                        (res.verdict, t.elapsed().as_secs_f64())
                    }
                    v => (v, 0.0),
                };
                let (eng_secs, red) = (eng.stats.seconds, eng.stats.reduction_pct());
                (eng_secs + sat2_secs, (eng_secs, red, sat2_secs, verdict))
            },
            |(_, _, _, v)| *v == Verdict::Undecided,
        );
        let comb_tag = verdict_tag(&verdict);
        if verdict == Verdict::Undecided {
            total = eng_secs + budget.as_secs_f64();
        }

        let su_sat = sat_secs / total;
        let su_pfl = pfl_secs / total;
        vs_sat.push(su_sat);
        vs_pfl.push(su_pfl);

        println!(
            "{:<16} {:>7} {:>7} {:>9} {:>6} | {:>7.2}{:<2} {:>7.2}{:<2} | {:>8.2} {:>7.1} {:>8.2} {:>7.2}{:<2} | {:>7.2}x {:>7.2}x",
            case.name, pis, pos, nodes, levels,
            sat_secs, sat_tag, pfl_secs, pfl_tag,
            eng_secs, red,
            sat2_secs, total, comb_tag,
            su_sat, su_pfl
        );
    }
    println!();
    println!(
        "{:<16} {:>86} {:>7.2}x {:>7.2}x",
        "Geomean",
        "",
        geomean(&vs_sat),
        geomean(&vs_pfl)
    );
}
