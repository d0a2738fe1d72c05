//! FRAIG construction: functionally reduced AIGs.
//!
//! Applies the engine's equivalence-finding machinery to a *single*
//! network instead of a miter: internal nodes proved functionally
//! equivalent (up to complement) are merged, so the result contains at
//! most one node per logic function that random simulation can separate —
//! the classic FRAIG of Mishchenko et al. that the paper builds on, with
//! exhaustive simulation as the prover instead of SAT.

use parsweep_aig::Aig;
use parsweep_par::{CancelToken, Executor};

use parsweep_trace as trace;

use crate::config::EngineConfig;
use crate::engine::{global_phase, local_phase, modeled_mark};
use crate::stats::EngineStats;

/// The result of FRAIG construction.
#[derive(Clone, Debug)]
pub struct FraigResult {
    /// The functionally reduced network (equivalent to the input).
    pub reduced: Aig,
    /// Engine statistics (proved pairs = number of merges).
    pub stats: EngineStats,
}

/// Functionally reduces a network by proving and merging equivalent
/// internal nodes (global checking within `k_g`, then repeated local
/// function checking phases).
///
/// Unlike [`sim_sweep`](crate::sim_sweep), POs are ordinary outputs — a
/// nonzero PO is *not* a counter-example — and the result keeps the full
/// PI/PO interface with reduced internal logic.
pub fn fraig(aig: &Aig, exec: &Executor, cfg: &EngineConfig) -> FraigResult {
    let start = std::time::Instant::now();
    let mark = modeled_mark(exec);
    let mut span = trace::span("engine", "engine.fraig");
    span.arg_u64("ands", aig.num_ands() as u64);
    let mut stats = EngineStats {
        initial_ands: aig.num_ands(),
        ..Default::default()
    };
    // Borrowed until a phase actually merges something: a network with no
    // provable duplicates is returned without ever being cloned.
    let mut current: std::borrow::Cow<'_, Aig> = std::borrow::Cow::Borrowed(aig);
    let mut disproofs = Vec::new();

    let never = CancelToken::never();
    let t = std::time::Instant::now();
    // In non-miter mode the G phase cannot return a counter-example.
    let mut live = global_phase(
        &mut current,
        exec,
        cfg,
        &mut stats,
        &mut disproofs,
        false,
        &never,
    )
    .unwrap_or_default();
    stats.phase_times.global = t.elapsed().as_secs_f64();

    let t = std::time::Instant::now();
    for phase in 0..cfg.max_local_phases {
        stats.local_phases += 1;
        match local_phase(
            &mut current,
            exec,
            cfg,
            &cfg.passes,
            &mut stats,
            phase as u64,
            false,
            live.as_deref(),
            &never,
        ) {
            Ok((reduced, _, next_live)) => {
                live = next_live;
                if !reduced {
                    break;
                }
            }
            Err(_) => unreachable!("non-miter mode produces no counter-examples"),
        }
    }
    stats.phase_times.local = t.elapsed().as_secs_f64();

    stats.final_ands = current.num_ands();
    stats.seconds = start.elapsed().as_secs_f64();
    span.arg_u64("modeled_time", modeled_mark(exec).saturating_sub(mark));
    FraigResult {
        reduced: current.into_owned(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsweep_aig::{Aig, Lit};

    fn exec() -> Executor {
        Executor::with_threads(1)
    }

    fn equivalent(a: &Aig, b: &Aig, samples: usize) -> bool {
        let mut rng = parsweep_aig::random::SplitMix64::new(31);
        (0..samples).all(|_| {
            let bits: Vec<bool> = (0..a.num_pis()).map(|_| rng.bool()).collect();
            a.eval(&bits) == b.eval(&bits)
        })
    }

    #[test]
    fn fraig_merges_duplicate_logic() {
        // The same XOR built three structurally different ways, all kept
        // alive through separate POs.
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let x1 = aig.xor(xs[0], xs[1]);
        let o = aig.or(xs[0], xs[1]);
        let n = aig.and(xs[0], xs[1]);
        let x2 = aig.and(o, !n);
        let t0 = aig.and(xs[0], xs[1]);
        let t1 = aig.and(!xs[0], !xs[1]);
        let x3 = {
            let nx = aig.or(t0, t1);
            !nx
        };
        aig.add_po(x1);
        aig.add_po(x2);
        aig.add_po(x3);
        let before = aig.num_ands();
        let r = fraig(&aig, &exec(), &EngineConfig::default());
        assert!(r.reduced.num_ands() < before, "stats: {:?}", r.stats);
        assert!(equivalent(&aig, &r.reduced, 16));
        assert!(r.stats.proved_pairs >= 1);
    }

    #[test]
    fn fraig_keeps_interface_and_function() {
        let aig = parsweep_aig::random::random_aig(8, 150, 5, 77);
        let r = fraig(&aig, &exec(), &EngineConfig::default());
        assert_eq!(r.reduced.num_pis(), aig.num_pis());
        assert_eq!(r.reduced.num_pos(), aig.num_pos());
        assert!(r.reduced.num_ands() <= aig.num_ands());
        assert!(equivalent(&aig, &r.reduced, 256));
    }

    #[test]
    fn fraig_does_not_misread_pos_as_disproofs() {
        // A network whose POs are frequently 1 (an OR): miter semantics
        // would "disprove" it instantly; FRAIG must simply reduce.
        let mut aig = Aig::new();
        let xs = aig.add_inputs(3);
        let o1 = aig.or_all(xs.iter().copied());
        let o2 = {
            let t = aig.or(xs[0], xs[1]);
            aig.or(t, xs[2])
        };
        aig.add_po(o1);
        aig.add_po(o2);
        let r = fraig(&aig, &exec(), &EngineConfig::default());
        assert!(equivalent(&aig, &r.reduced, 8));
        // Both OR trees collapse onto one.
        assert!(r.reduced.num_ands() <= 2);
        let _ = Lit::FALSE;
    }
}
