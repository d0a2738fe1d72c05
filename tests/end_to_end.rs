//! End-to-end integration tests across all workspace crates: generate a
//! design, optimize it, write/read AIGER, miter, and check with every
//! engine.

use parsweep::aig::{aiger, is_proved, miter, Aig, Lit};
use parsweep::engine::{combined_check, sim_sweep, CombinedConfig, EngineConfig, Verdict};
use parsweep::par::Executor;
use parsweep::sat::{portfolio_check, sat_sweep, PortfolioConfig, SweepConfig};
use parsweep::synth::resyn2;

fn exec() -> Executor {
    Executor::with_threads(1)
}

/// A small barrel shifter: out = x rotated left by s.
fn rotator(bits: usize, sel: usize) -> Aig {
    let mut aig = Aig::new();
    let x = aig.add_inputs(bits);
    let s = aig.add_inputs(sel);
    let mut stage: Vec<Lit> = x.clone();
    for (k, &sk) in s.iter().enumerate() {
        let shift = 1usize << k;
        let mut next = Vec::with_capacity(bits);
        for i in 0..bits {
            let rotated = stage[(i + bits - shift % bits) % bits];
            next.push(aig.mux(sk, rotated, stage[i]));
        }
        stage = next;
    }
    for bit in stage {
        aig.add_po(bit);
    }
    aig
}

#[test]
fn optimize_and_verify_rotator_with_all_engines() {
    let original = rotator(8, 3);
    let optimized = resyn2(&original);
    assert_ne!(original.num_ands(), 0, "rotator must contain logic");
    let m = miter(&original, &optimized).unwrap();

    let sim = sim_sweep(&m, &exec(), &EngineConfig::default());
    assert_eq!(sim.verdict, Verdict::Equivalent, "sim engine");

    let sat = sat_sweep(&m, &exec(), &SweepConfig::default());
    assert_eq!(sat.verdict, Verdict::Equivalent, "sat sweeping");

    let pfl = portfolio_check(&m, &exec(), &PortfolioConfig::default());
    assert!(pfl.verdict.is_equivalent(), "portfolio");

    let comb = combined_check(&m, &exec(), &CombinedConfig::default());
    assert_eq!(comb.verdict, Verdict::Equivalent, "combined");
}

#[test]
fn aiger_file_roundtrip_through_the_full_flow() {
    let original = rotator(6, 2);
    let optimized = resyn2(&original);
    let dir = std::env::temp_dir();
    let p1 = dir.join("parsweep_it_left.aag");
    let p2 = dir.join("parsweep_it_right.aig");
    aiger::write_aiger_file(&original, &p1).unwrap();
    aiger::write_aiger_file(&optimized, &p2).unwrap();
    let left = aiger::read_aiger_file(&p1).unwrap();
    let right = aiger::read_aiger_file(&p2).unwrap();
    let m = miter(&left, &right).unwrap();
    let r = sim_sweep(&m, &exec(), &EngineConfig::default());
    assert_eq!(r.verdict, Verdict::Equivalent);
    let _ = std::fs::remove_file(p1);
    let _ = std::fs::remove_file(p2);
}

#[test]
fn injected_bug_is_caught_with_a_real_witness() {
    let good = rotator(8, 3);
    // Inject a subtle bug: complement one PO driver deep in the list.
    let mut bad = rotator(8, 3);
    let po = bad.po(5);
    bad.set_po(5, !po);
    let m = miter(&good, &bad).unwrap();

    for (name, verdict) in [
        (
            "sim",
            sim_sweep(&m, &exec(), &EngineConfig::default()).verdict,
        ),
        (
            "sat",
            sat_sweep(&m, &exec(), &SweepConfig::default()).verdict,
        ),
        (
            "combined",
            combined_check(&m, &exec(), &CombinedConfig::default()).verdict,
        ),
    ] {
        match verdict {
            Verdict::NotEquivalent(cex) => {
                assert!(cex.fires(&m), "{name}: counter-example must fire the miter");
            }
            other => panic!("{name}: expected NotEquivalent, got {other:?}"),
        }
    }
}

#[test]
fn doubling_scales_all_engines_consistently() {
    let base = rotator(6, 2);
    let opt = resyn2(&base);
    let m = miter(&base.double_times(2), &opt.double_times(2)).unwrap();
    assert_eq!(m.num_pis(), 4 * (6 + 2));
    let r = combined_check(&m, &exec(), &CombinedConfig::default());
    assert_eq!(r.verdict, Verdict::Equivalent);
}

#[test]
fn engine_reduction_preserves_miter_semantics() {
    // Run the engine with a crippled budget so it stops early, then
    // confirm the reduced miter is semantically the same as the original.
    let original = rotator(8, 3);
    let optimized = resyn2(&original);
    let m = miter(&original, &optimized).unwrap();
    let cfg = EngineConfig {
        max_local_phases: 1,
        k_g: 4,
        k_po_all: 4,
        k_po: 4,
        ..EngineConfig::default()
    };
    let r = sim_sweep(&m, &exec(), &cfg);
    if !is_proved(&r.reduced) {
        let mut rng = parsweep::aig::random::SplitMix64::new(77);
        for _ in 0..128 {
            let bits: Vec<bool> = (0..m.num_pis()).map(|_| rng.bool()).collect();
            let orig = m.eval(&bits).iter().any(|&x| x);
            let red = r.reduced.eval(&bits).iter().any(|&x| x);
            assert_eq!(orig, red);
        }
    }
}

#[test]
fn undecided_engine_result_is_finished_by_sat() {
    let original = rotator(10, 3);
    let optimized = resyn2(&original);
    let m = miter(&original, &optimized).unwrap();
    let mut cfg = CombinedConfig::default();
    // Handicap the engine into leaving work for SAT (field-by-field on
    // the nested config, so struct-update syntax does not apply).
    cfg.engine.k_po_all = 3;
    cfg.engine.k_po = 3;
    cfg.engine.k_g = 3;
    cfg.engine.max_local_phases = 1;
    cfg.engine.cut = parsweep::cut::CutParams { k_l: 3, c: 2 };
    let r = combined_check(&m, &exec(), &cfg);
    assert_eq!(r.verdict, Verdict::Equivalent);
}

/// The combined flow's finishing sweep on a committed pair whose reduced
/// miter leaves constant candidates that the round's own merges cut off:
/// their short probes run out, they are dropped unproved, and the verdict
/// needs none of them.
#[test]
fn combined_flow_drops_dead_constant_candidates_on_sqrt_w10() {
    let inputs = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmark/inputs");
    let read = |side: &str| {
        aiger::read_aiger_file(format!("{inputs}/sqrt_w10_1xd.{side}.aig")).expect("input reads")
    };
    let m = miter(&read("L"), &read("R")).unwrap();
    let r = combined_check(&m, &exec(), &CombinedConfig::default());
    assert_eq!(r.verdict, Verdict::Equivalent);
    let sweep = r.dispatch.expect("the SAT sweep finishes this pair");
    assert_eq!(sweep.unknown_pairs, 0, "{sweep:?}");
    assert!(sweep.dead_constants >= 1, "{sweep:?}");
}
