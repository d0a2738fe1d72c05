//! Reproduces the paper's **Figure 6**: runtime breakdown of the
//! simulation-based CEC engine into its phase types (P = PO checking,
//! G = global function checking, L = local function checking, other).
//!
//! Usage: `fig6 [tiny|small|medium|large]` (default `small`)

use parsweep_bench::harness::{suite, Scale};
use parsweep_core::{sim_sweep, EngineConfig};
use parsweep_par::Executor;

fn bar(pct: f64, width: usize) -> String {
    let filled = ((pct / 100.0) * width as f64).round() as usize;
    format!(
        "{}{}",
        "#".repeat(filled.min(width)),
        ".".repeat(width - filled.min(width))
    )
}

fn main() {
    let scale = std::env::args().nth(1).map_or(Scale::Small, |s| {
        Scale::parse(&s).unwrap_or_else(|| panic!("unknown scale {s:?}"))
    });
    let exec = Executor::new();
    println!("# Figure 6 reproduction — engine phase runtime breakdown ({scale:?})");
    println!();
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8}   {:<24} {:>9}",
        "Benchmark", "P(%)", "G(%)", "L(%)", "other(%)", "P/G/L profile", "total(s)"
    );
    for case in suite(scale) {
        let r = sim_sweep(&case.miter, &exec, &EngineConfig::scaled());
        let (p, g, l, o) = r.stats.phase_times.percentages();
        println!(
            "{:<16} {:>8.1} {:>8.1} {:>8.1} {:>8.1}   {} {:>9.2}",
            case.name,
            p,
            g,
            l,
            o,
            bar(p + g, 24),
            r.stats.seconds
        );
    }
}
