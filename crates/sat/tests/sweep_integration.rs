//! Integration tests of the SAT sweeping checker: seeding, budgets,
//! round behaviour, agreement with brute force, and the topological
//! order-and-merge visit.

use proptest::prelude::*;

use parsweep_aig::random::random_aig;
use parsweep_aig::{miter, Aig, Lit};
use parsweep_par::Executor;
use parsweep_sat::{sat_sweep, sat_sweep_seeded, SweepConfig, Verdict};
use parsweep_sim::Cex;

fn exec() -> Executor {
    Executor::with_threads(1)
}

/// Two builds of a 6-bit odd-parity + threshold circuit.
fn parity_threshold(variant: bool) -> Aig {
    let mut aig = Aig::new();
    let xs = aig.add_inputs(6);
    let parity = if variant {
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = aig.xor(acc, x);
        }
        acc
    } else {
        let a = aig.xor(xs[0], xs[1]);
        let b = aig.xor(xs[2], xs[3]);
        let c = aig.xor(xs[4], xs[5]);
        let ab = aig.xor(a, b);
        aig.xor(ab, c)
    };
    aig.add_po(parity);
    // A second output to keep classes interesting.
    let t = aig.and(xs[0], xs[3]);
    let u = aig.or(t, xs[5]);
    aig.add_po(u);
    aig
}

#[test]
fn seeded_sweep_matches_unseeded_verdict() {
    let m = miter(&parity_threshold(false), &parity_threshold(true)).unwrap();
    let cfg = SweepConfig::default();
    let plain = sat_sweep(&m, &exec(), &cfg);
    // Seed with arbitrary (valid positional) patterns: verdict unchanged.
    let seeds: Vec<Cex> = (0..5)
        .map(|k| Cex::new((0..m.num_pis()).map(|i| (i + k) % 3 == 0).collect()))
        .collect();
    let seeded = sat_sweep_seeded(&m, &exec(), &cfg, &seeds);
    assert_eq!(plain.verdict, seeded.verdict);
    assert_eq!(plain.verdict, Verdict::Equivalent);
}

#[test]
fn seeding_with_distinguishing_pattern_short_circuits() {
    // Make the two circuits differ; seed the sweep with the exact
    // counter-example so round 1 simulation disproves instantly.
    let a = parity_threshold(false);
    let mut b = parity_threshold(false);
    let po = b.po(0);
    b.set_po(0, !po);
    let m = miter(&a, &b).unwrap();
    // Any pattern fires PO 0 (complemented parity differs everywhere).
    let seed = Cex::new(vec![false; m.num_pis()]);
    let r = sat_sweep_seeded(&m, &exec(), &SweepConfig::default(), &[seed]);
    match r.verdict {
        Verdict::NotEquivalent(cex) => assert!(cex.fires(&m)),
        other => panic!("expected disproof, got {other:?}"),
    }
    // Disproved purely by simulation: zero SAT calls.
    assert_eq!(r.stats.sat_calls, 0);
}

#[test]
fn single_round_budget_still_sound() {
    let m = miter(&parity_threshold(false), &parity_threshold(true)).unwrap();
    let cfg = SweepConfig {
        max_rounds: 1,
        ..SweepConfig::default()
    };
    let r = sat_sweep(&m, &exec(), &cfg);
    // One round may or may not finish, but must never disprove an
    // equivalent miter.
    assert!(!matches!(r.verdict, Verdict::NotEquivalent(_)));
}

#[test]
fn tiny_conflict_budgets_degrade_to_undecided_not_wrong() {
    // A moderately hard equivalent pair with absurdly small budgets.
    let mut a = Aig::new();
    let xs = a.add_inputs(14);
    let f = a.and_all(xs.iter().copied());
    a.add_po(f);
    let mut b = Aig::new();
    let ys = b.add_inputs(14);
    let mut g = ys[13];
    for &y in ys[..13].iter().rev() {
        g = b.and(y, g);
    }
    b.add_po(g);
    let m = miter(&a, &b).unwrap();
    let cfg = SweepConfig {
        conflicts_per_pair: 1,
        conflicts_per_po: 1,
        max_rounds: 2,
        ..SweepConfig::default()
    };
    let r = sat_sweep(&m, &exec(), &cfg);
    assert!(
        !matches!(r.verdict, Verdict::NotEquivalent(_)),
        "budget starvation must never fabricate a disproof"
    );
}

#[test]
fn stats_reflect_work() {
    let m = miter(&parity_threshold(false), &parity_threshold(true)).unwrap();
    let r = sat_sweep(&m, &exec(), &SweepConfig::default());
    assert!(r.stats.rounds >= 1);
    assert!(r.stats.seconds >= 0.0);
    if r.verdict == Verdict::Equivalent {
        assert_eq!(r.reduced.num_ands(), 0);
    }
    let _ = Lit::FALSE;
}

/// Brute-force miter check: constant-zero on every input assignment.
fn brute_equivalent(m: &Aig) -> bool {
    let pis = m.num_pis();
    (0..1u32 << pis).all(|mask| {
        let inputs: Vec<bool> = (0..pis).map(|i| mask >> i & 1 == 1).collect();
        m.eval(&inputs).iter().all(|&po| !po)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A random AIG against its cleaned rebuild, against a copy with one
    /// PO complemented, and against a copy with one PO XORed with an AND
    /// of two PIs: the sweep decides, and decides what brute force does.
    #[test]
    fn sweep_agrees_with_brute_force(
        seed in any::<u64>(),
        pis in 2usize..=10,
        ands in 1usize..60,
        pos in 1usize..4,
        shape in 0usize..3,
        pick in any::<usize>(),
    ) {
        let a = random_aig(pis, ands, pos, seed);
        let mut b = a.clean();
        let k = pick % b.num_pos();
        let po = b.po(k);
        match shape {
            0 => {}
            1 => b.set_po(k, !po),
            _ => {
                let x = b.pis()[pick / 7 % pis].lit();
                let y = b.pis()[pick / 131 % pis].lit();
                let xy = b.and(x, y);
                let mutated = b.xor(po, xy);
                b.set_po(k, mutated);
            }
        }
        let m = miter(&a, &b).unwrap();
        let truth = brute_equivalent(&m);
        let r = sat_sweep(&m, &exec(), &SweepConfig::default());
        match &r.verdict {
            Verdict::Equivalent => prop_assert!(truth, "proved a disprovable miter"),
            Verdict::NotEquivalent(cex) => {
                prop_assert!(!truth, "disproved an equivalent miter");
                prop_assert!(cex.fires(&m), "counter-example does not fire");
            }
            Verdict::Undecided => prop_assert!(false, "undecided on a small miter"),
        }
    }
}

/// A `width`-bit shift-add multiplier with a full product: each row
/// `a[i] & b` is added into the accumulator with a ripple of full adders
/// whose carry is `and`/`or` or, with `maj_carries`, `maj3`.
fn shift_add_multiplier(width: usize, maj_carries: bool) -> Aig {
    let mut aig = Aig::new();
    let a = aig.add_inputs(width);
    let b = aig.add_inputs(width);
    let mut acc = vec![Lit::FALSE; 2 * width];
    for (i, &ai) in a.iter().enumerate() {
        let mut carry = Lit::FALSE;
        for (j, &bj) in b.iter().enumerate() {
            let pp = aig.and(ai, bj);
            let half = aig.xor(acc[i + j], pp);
            let sum = aig.xor(half, carry);
            carry = if maj_carries {
                aig.maj3(acc[i + j], pp, carry)
            } else {
                let generate = aig.and(acc[i + j], pp);
                let propagate = aig.and(half, carry);
                aig.or(generate, propagate)
            };
            acc[i + j] = sum;
        }
        acc[i + width] = carry;
    }
    for bit in acc {
        aig.add_po(bit);
    }
    aig
}

/// Pins the topological visit with merged proofs on two carry styles of
/// one multiplier, in a single round. With ten conflicts a pair, the 6-bit
/// product is proved pair by pair only when each pair comes after the
/// pairs below it; visited class by class, 27 pairs run out of budget.
/// With five, the 7-bit product also needs every proof added to the
/// solver as clauses; the order alone leaves 14 pairs unknown.
#[test]
fn ordered_merging_proves_every_multiplier_pair_on_a_tiny_budget() {
    for (width, conflicts_per_pair) in [(6, 10), (7, 5)] {
        let m = miter(
            &shift_add_multiplier(width, false),
            &shift_add_multiplier(width, true),
        )
        .unwrap();
        let cfg = SweepConfig {
            conflicts_per_pair,
            max_rounds: 1,
            ..SweepConfig::default()
        };
        let r = sat_sweep(&m, &exec(), &cfg);
        assert_eq!(
            r.verdict,
            Verdict::Equivalent,
            "width {width}: {:?}",
            r.stats
        );
        assert_eq!(r.stats.unknown_pairs, 0, "width {width}: {:?}", r.stats);
    }
}

/// An AIG whose one PO is the conjunction of the pigeonhole clauses
/// PHP(`holes` + 1, `holes`): every pigeon sits in some hole, no hole holds
/// two. The PO is constant zero, and resolution needs many conflicts to
/// show it.
fn pigeonhole(holes: usize) -> Aig {
    let mut aig = Aig::new();
    let x: Vec<Vec<Lit>> = (0..=holes).map(|_| aig.add_inputs(holes)).collect();
    let mut clauses = Vec::new();
    for row in &x {
        let some_hole = row.iter().fold(Lit::FALSE, |acc, &l| aig.or(acc, l));
        clauses.push(some_hole);
    }
    for (p1, first) in x.iter().enumerate() {
        for second in &x[p1 + 1..] {
            for (&a, &b) in first.iter().zip(second) {
                let both = aig.and(a, b);
                clauses.push(!both);
            }
        }
    }
    let all = clauses
        .into_iter()
        .fold(Lit::TRUE, |acc, c| aig.and(acc, c));
    aig.add_po(all);
    aig
}

/// A live constant candidate that outlasts its short probe is retried
/// with the full per-pair budget inside the same round: with one round and
/// one conflict for the final PO proof, only that retry can prove the PO.
#[test]
fn a_constant_past_its_probe_is_proved_in_the_same_round() {
    for holes in [4, 5] {
        let aig = pigeonhole(holes);
        let cfg = SweepConfig {
            max_rounds: 1,
            conflicts_per_po: 1,
            ..SweepConfig::default()
        };
        let r = sat_sweep(&aig, &exec(), &cfg);
        assert_eq!(r.verdict, Verdict::Equivalent, "{:?}", r.stats);
        assert_eq!(r.reduced.po(0), Lit::FALSE, "{:?}", r.stats);
        assert_eq!(r.stats.unknown_pairs, 0, "{:?}", r.stats);
        assert_eq!(r.stats.dead_constants, 0, "{:?}", r.stats);
        // Every candidate is a constant, checked in one call; the PO's
        // probe and its retry make the one call more.
        let pairs = r.stats.proved_pairs + r.stats.disproved_pairs;
        assert_eq!(r.stats.sat_calls, pairs + 1, "{:?}", r.stats);
    }
}
