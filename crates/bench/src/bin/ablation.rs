//! Ablation study over the engine's design choices called out in
//! DESIGN.md: the number of cut-generation passes (Table I), repeated
//! local phases (Fig. 5) and the PO phase.
//!
//! Usage: `ablation [tiny|small|medium] [--case <name>]`

use parsweep_bench::harness::{suite, Scale};
use parsweep_core::{sim_sweep, EngineConfig};
use parsweep_cut::Pass;
use parsweep_par::Executor;

struct Variant {
    name: &'static str,
    cfg: EngineConfig,
}

fn variants() -> Vec<Variant> {
    let base = EngineConfig::scaled();
    let mut v = vec![Variant {
        name: "full engine",
        cfg: base.clone(),
    }];
    v.push(Variant {
        name: "1 cut pass (fanout)",
        cfg: EngineConfig {
            passes: vec![Pass::Fanout],
            ..base.clone()
        },
    });
    v.push(Variant {
        name: "2 cut passes",
        cfg: EngineConfig {
            passes: vec![Pass::Fanout, Pass::SmallLevel],
            ..base.clone()
        },
    });
    v.push(Variant {
        name: "single local phase",
        cfg: EngineConfig {
            max_local_phases: 1,
            ..base.clone()
        },
    });
    v.push(Variant {
        name: "no PO phase (k_P = 0)",
        cfg: EngineConfig {
            k_po_all: 0,
            k_po: 0,
            ..base
        },
    });
    v
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Tiny;
    let mut only: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--case" => only = Some(it.next().expect("--case <name>").clone()),
            s => scale = Scale::parse(s).unwrap_or_else(|| panic!("unknown scale {s:?}")),
        }
    }
    let exec = Executor::new();
    println!("# Ablation — engine design choices ({scale:?})");
    println!();
    println!(
        "{:<16} {:<24} {:>8} {:>8} {:>9} {:>12} {:>9}",
        "Benchmark", "Variant", "Red(%)", "Proved", "Inconcl.", "SimWords", "Time(s)"
    );
    for case in suite(scale) {
        if let Some(f) = &only {
            if !case.name.starts_with(f.as_str()) {
                continue;
            }
        }
        for variant in variants() {
            let r = sim_sweep(&case.miter, &exec, &variant.cfg);
            println!(
                "{:<16} {:<24} {:>8.1} {:>8} {:>9} {:>12} {:>9.2}",
                case.name,
                variant.name,
                r.stats.reduction_pct(),
                r.stats.proved_pairs,
                r.stats.inconclusive_checks,
                r.stats.sim_words,
                r.stats.seconds
            );
        }
        println!();
    }
}
