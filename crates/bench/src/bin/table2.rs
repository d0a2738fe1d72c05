//! Reproduces the paper's **Table II**: benchmark statistics and runtime
//! comparison of the SAT-sweeping baseline ("ABC &cec" role), the
//! portfolio checker ("Conformal" role) and the simulation-based engine
//! combined with the SAT fallback ("Ours (GPU+ABC)"): the paper's full
//! P/G/L engine, then SAT sweeping on whatever reduced miter it leaves.
//!
//! Usage: `table2 [tiny|small|medium] [--budget <seconds>] [--case <name>]`

use std::time::{Duration, Instant};

use parsweep_bench::harness::{baseline_sat_config, geomean, portfolio_config, suite, Scale};
use parsweep_core::{sim_sweep, EngineConfig};
use parsweep_par::Executor;
use parsweep_sat::{portfolio_check, sat_sweep, Verdict};

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
        let t = Instant::now();
        let sat_res = sat_sweep(m, &exec, &baseline_sat_config(budget));
        let mut sat_secs = t.elapsed().as_secs_f64();
        let sat_tag = verdict_tag(&sat_res.verdict);
        if sat_res.verdict == Verdict::Undecided {
            sat_secs = budget.as_secs_f64();
        }

        // Column 2: portfolio checker.
        let t = Instant::now();
        let pfl_res = portfolio_check(m, &exec, &portfolio_config(budget));
        let mut pfl_secs = t.elapsed().as_secs_f64();
        let pfl_tag = verdict_tag(&pfl_res.verdict);
        if pfl_res.verdict == Verdict::Undecided {
            pfl_secs = budget.as_secs_f64();
        }

        // Column 3: the simulation engine (P/G/L), then SAT sweeping on
        // the reduced miter it leaves undecided.
        let eng = sim_sweep(m, &exec, &EngineConfig::scaled());
        let eng_secs = eng.stats.seconds;
        let red = eng.stats.reduction_pct();
        let (verdict, sat2_secs) = match eng.verdict {
            Verdict::Undecided => {
                let t = Instant::now();
                let res = sat_sweep(&eng.reduced, &exec, &baseline_sat_config(budget));
                (res.verdict, t.elapsed().as_secs_f64())
            }
            v => (v, 0.0),
        };
        let mut total = eng_secs + sat2_secs;
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
