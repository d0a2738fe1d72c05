//! Behavioural tests of the engine's phase thresholds: the two-level PO
//! budget (k_P / k_p), the global support bound (k_g) and the repeated
//! local phases.

use parsweep_aig::{Aig, Lit};
use parsweep_core::{sim_sweep, EngineConfig, Verdict};
use parsweep_par::Executor;

fn exec() -> Executor {
    Executor::with_threads(1)
}

/// Builds a miter-shaped AIG with two constant-zero POs: one over `w1`
/// PIs, one over `w2` PIs (each PO XORs two different builds of the same
/// AND tree).
fn two_po_miter(w1: usize, w2: usize) -> Aig {
    let mut aig = Aig::new();
    let xs = aig.add_inputs(w1 + w2);
    let build_pair = |aig: &mut Aig, lits: &[Lit]| {
        let balanced = aig.and_all(lits.to_vec());
        let mut chain = lits[lits.len() - 1];
        for &l in lits[..lits.len() - 1].iter().rev() {
            chain = aig.and(l, chain);
        }
        aig.xor(balanced, chain)
    };
    let po1 = build_pair(&mut aig, &xs[..w1]);
    let po2 = build_pair(&mut aig, &xs[w1..]);
    aig.add_po(po1);
    aig.add_po(po2);
    aig
}

#[test]
fn one_shot_po_checking_when_everything_fits() {
    let m = two_po_miter(6, 10);
    let cfg = EngineConfig {
        k_po_all: 12,
        k_po: 8,
        ..EngineConfig::default()
    };
    let r = sim_sweep(&m, &exec(), &cfg);
    assert_eq!(r.verdict, Verdict::Equivalent);
    // Both POs fit k_P: one-shot PO checking proves both.
    assert_eq!(r.stats.pos_proved, 2, "stats: {:?}", r.stats);
}

#[test]
fn two_threshold_fallback_when_one_po_is_too_wide() {
    let m = two_po_miter(6, 10);
    // k_P = 9 excludes the 10-input PO, so only POs within k_p = 8 are
    // simulatable in the P phase; the wide PO falls to later phases.
    let cfg = EngineConfig {
        k_po_all: 9,
        k_po: 8,
        ..EngineConfig::default()
    };
    let r = sim_sweep(&m, &exec(), &cfg);
    assert_eq!(r.stats.pos_proved, 1, "stats: {:?}", r.stats);
    // The engine still finishes the job via G/L phases.
    assert_eq!(r.verdict, Verdict::Equivalent);
}

#[test]
fn po_phase_disabled_entirely() {
    let m = two_po_miter(6, 6);
    let cfg = EngineConfig {
        k_po_all: 0,
        k_po: 0,
        ..EngineConfig::default()
    };
    let r = sim_sweep(&m, &exec(), &cfg);
    assert_eq!(r.stats.pos_proved, 0);
    assert_eq!(r.verdict, Verdict::Equivalent, "G/L phases must cover");
}

#[test]
fn global_bound_steers_pairs_to_local_checking() {
    // With k_g = 0 nothing is globally checkable; local checking and the
    // PO phase must carry the proof.
    let m = two_po_miter(5, 7);
    let cfg = EngineConfig {
        k_g: 0,
        ..EngineConfig::default()
    };
    let r = sim_sweep(&m, &exec(), &cfg);
    assert_eq!(r.verdict, Verdict::Equivalent);
}

#[test]
fn repeated_local_phases_walk_a_carry_chain() {
    // Deep ripple vs majority adder: each local phase merges roughly one
    // more carry level, so few phases leave the miter unproved while the
    // full budget proves it.
    let adder = |majority: bool| {
        let w = 16;
        let mut aig = Aig::new();
        let a = aig.add_inputs(w);
        let b = aig.add_inputs(w);
        let mut carry = Lit::FALSE;
        for i in 0..w {
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
    };
    let m = parsweep_aig::miter(&adder(false), &adder(true)).unwrap();
    // Disable P and G so only local phases can make progress.
    let starved = EngineConfig {
        k_po_all: 4,
        k_po: 4,
        k_g: 4,
        max_local_phases: 2,
        ..EngineConfig::default()
    };
    let r2 = sim_sweep(&m, &exec(), &starved);
    let full = EngineConfig {
        k_po_all: 4,
        k_po: 4,
        k_g: 4,
        max_local_phases: 64,
        ..EngineConfig::default()
    };
    let r64 = sim_sweep(&m, &exec(), &full);
    assert_eq!(r64.verdict, Verdict::Equivalent, "stats: {:?}", r64.stats);
    assert!(
        r64.stats.local_phases > r2.stats.local_phases,
        "chain proving needs repeated phases: {:?} vs {:?}",
        r64.stats.local_phases,
        r2.stats.local_phases
    );
}

/// A `w`-by-`w` array multiplier: rows of partial products added into a
/// running sum by ripple-carry full adders. `transposed` makes the rows
/// run over the first operand instead of the second: the same function
/// in another structure.
fn multiplier(w: usize, transposed: bool) -> Aig {
    let mut aig = Aig::new();
    let mut a = aig.add_inputs(w);
    let mut b = aig.add_inputs(w);
    if transposed {
        std::mem::swap(&mut a, &mut b);
    }
    let mut acc = vec![Lit::FALSE; 2 * w];
    for (i, &bi) in b.iter().enumerate() {
        let mut carry = Lit::FALSE;
        for (j, &aj) in a.iter().enumerate() {
            let pp = aig.and(aj, bi);
            let s = aig.xor(acc[i + j], pp);
            let sum = aig.xor(s, carry);
            carry = aig.maj3(acc[i + j], pp, carry);
            acc[i + j] = sum;
        }
        acc[i + w] = carry;
    }
    for lit in acc {
        aig.add_po(lit);
    }
    aig
}

#[test]
fn rare_mutant_is_disproved_without_sat() {
    // A multiplier against its transposed build, with the top product bit
    // XORed with a conjunction of all 20 PI literals: one assignment in
    // 2^20 fires it, which random simulation does not find, and its
    // support is past every exhaustive bound. Reverse simulation of the
    // wide constant candidate, with distance-1 patterns around what it
    // justifies, must find it in the sim engine alone.
    let left = multiplier(10, false);
    let mut right = multiplier(10, true);
    let fires: Vec<bool> = (0..right.num_pis()).map(|i| i % 3 == 1).collect();
    let lits: Vec<Lit> = right
        .pis()
        .iter()
        .zip(&fires)
        .map(|(pi, &one)| pi.lit_with(!one))
        .collect();
    let conj = right.and_all(lits);
    let site = right.num_pos() - 1;
    let po = right.po(site);
    let mutated = right.xor(po, conj);
    right.set_po(site, mutated);
    let m = parsweep_aig::miter(&left, &right).unwrap();
    assert!(m.eval(&fires).contains(&true), "the mutation must fire");

    let r = sim_sweep(&m, &exec(), &EngineConfig::default());
    match r.verdict {
        Verdict::NotEquivalent(cex) => assert!(cex.fires(&m), "cex must fire"),
        other => panic!("expected NotEquivalent, got {other:?}: {:?}", r.stats),
    }
}
