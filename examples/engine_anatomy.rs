//! Engine anatomy: watch each phase of the simulation-based engine work
//! on a miter that needs all three — PO checking (P), global function
//! checking (G) and repeated local function checking (L) — then inspect
//! the parallel work profile recorded by the kernel-launch executor.
//!
//! Run with: `cargo run --release --example engine_anatomy`

use parsweep::aig::{miter, Aig, Lit};
use parsweep::engine::{sim_sweep_traced, EngineConfig};
use parsweep::par::Executor;

/// A wide adder in two styles (deep carry chains defeat pure PO checking
/// and exercise the internal phases).
fn adder(width: usize, majority: bool) -> Aig {
    let mut aig = Aig::new();
    let a = aig.add_inputs(width);
    let b = aig.add_inputs(width);
    let mut carry = Lit::FALSE;
    for i in 0..width {
        let axb = aig.xor(a[i], b[i]);
        let sum = aig.xor(axb, carry);
        carry = if majority {
            aig.maj3(a[i], b[i], carry)
        } else {
            let g = aig.and(a[i], b[i]);
            let p = aig.and(axb, carry);
            aig.or(g, p)
        };
        aig.add_po(sum);
    }
    aig.add_po(carry);
    aig
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m = miter(&adder(24, false), &adder(24, true))?;
    println!(
        "miter: {} ANDs, depth {}, {} POs",
        m.num_ands(),
        m.depth(),
        m.num_pos()
    );

    let exec = Executor::new();
    let cfg = EngineConfig::default();
    println!(
        "engine parameters: k_P={} k_p={} k_g={} k_l={} C={}",
        cfg.k_po_all, cfg.k_po, cfg.k_g, cfg.cut.k_l, cfg.cut.c
    );

    let (result, snapshots) = sim_sweep_traced(&m, &exec, &cfg);
    println!();
    println!("phase-by-phase miter size (the Fig. 7 intermediate miters):");
    println!("  {:>6}: {:>8} ANDs", "start", m.num_ands());
    for (label, snap) in &snapshots {
        println!("  {label:>6}: {:>8} ANDs", snap.num_ands());
    }

    let (p, g, l, o) = result.stats.phase_times.percentages();
    println!();
    println!("runtime breakdown (the Fig. 6 bar for this case):");
    println!("  P={p:.1}%  G={g:.1}%  L={l:.1}%  other={o:.1}%");
    println!(
        "  {} local phases, {} pairs proved, {} (pair,cut) checks inconclusive",
        result.stats.local_phases, result.stats.proved_pairs, result.stats.inconclusive_checks
    );

    let stats = exec.stats();
    println!();
    println!("parallel work profile (kernel-launch executor):");
    println!(
        "  {} pool + {} inline launches, {} total work items, widest launch {}",
        stats.launches, stats.inline_launches, stats.total_threads, stats.widest
    );
    println!(
        "  modeled time on 1 core: {} units; on 4096 GPU-ish lanes: {} units ({}x max speedup)",
        stats.modeled_time(1),
        stats.modeled_time(4096),
        stats.max_speedup() as u64
    );
    println!(
        "  buffer arena: {} hits / {} misses, peak pooled footprint {} bytes",
        stats.arena_hits, stats.arena_misses, stats.arena_peak_bytes
    );

    println!();
    println!("verdict: {:?}", result.verdict);
    Ok(())
}
