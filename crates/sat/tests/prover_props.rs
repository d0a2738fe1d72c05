//! Property-based tests of the dispatch layer: the dispatcher may change
//! *who* decides a class and at what cost, but never *what* the verdict
//! is. Brute-force evaluation is the oracle.
//!
//! * **Agreement with brute force** — on random equivalent, unrelated and
//!   single-gate-mutated pairs, on the raced and on the one-at-a-time
//!   branch alike, the verdict is the brute-force one and every
//!   counter-example fires.
//! * **Soundness under cancellation** — a tripped token yields
//!   `Undecided`; a race cut short by a deadline may settle `Undecided`,
//!   but a decisive verdict it does return is always correct: `Equal` is
//!   never fabricated from a cancelled engine's partial work.

use std::time::Duration;

use proptest::prelude::*;

use parsweep_aig::random::{mutate_gate, random_aig};
use parsweep_aig::{miter, Aig};
use parsweep_par::{CancelToken, Executor};
use parsweep_sat::{dispatch, PortfolioConfig, ProveOutcome, Verdict};

/// Brute-force miter check: constant-zero on every input assignment.
fn brute_equivalent(m: &Aig) -> bool {
    let pis = m.num_pis();
    assert!(pis < 16, "brute force only for small miters");
    (0..1u32 << pis).all(|mask| {
        let inputs: Vec<bool> = (0..pis).map(|i| mask >> i & 1 == 1).collect();
        m.eval(&inputs).iter().all(|&po| !po)
    })
}

/// The race thresholds that force the two branches of the dispatcher:
/// every miter with two admissible heavy engines races, or none does.
const BOTH_BRANCHES: [Duration; 2] = [Duration::ZERO, Duration::MAX];

/// Dispatches `m` at the default portfolio configuration.
fn prove(m: &Aig, exec: &Executor, token: &CancelToken, race_threshold: Duration) -> ProveOutcome {
    dispatch(m, exec, &PortfolioConfig::default(), token, race_threshold)
}

/// A balanced AND tree and a right-associated AND chain over `n` inputs:
/// equivalent, not structurally collapsible, and (for `n` past the
/// random-sim horizon) only decidable by the heavy engines — the shape
/// that triggers a concurrent race. `corrupt` flips the second build's
/// output so the pair is disprovable instead.
fn hard_pair(n: usize, corrupt: bool) -> Aig {
    let mut a = Aig::new();
    let xs = a.add_inputs(n);
    let f = a.and_all(xs.iter().copied());
    a.add_po(f);
    let mut b = Aig::new();
    let ys = b.add_inputs(n);
    let mut g = ys[n - 1];
    for &y in ys[..n - 1].iter().rev() {
        g = b.and(y, g);
    }
    if corrupt {
        g = !g;
    }
    b.add_po(g);
    miter(&a, &b).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random equivalent pairs (an AIG against its cleaned self), random
    /// unrelated pairs and single-gate mutants: on either branch the
    /// dispatcher decides, and decides what brute force decides.
    #[test]
    fn dispatcher_agrees_with_brute_force(
        seed in any::<u64>(),
        pis in 2usize..14,
        ands in 2usize..40,
        shape in 0usize..3,
    ) {
        let a = random_aig(pis, ands, 2, seed);
        let b = match shape {
            0 => a.clean(),
            1 => random_aig(pis, ands, 2, seed.wrapping_add(1)),
            _ => mutate_gate(&a, seed as usize),
        };
        let m = miter(&a, &b).unwrap();
        let truth = brute_equivalent(&m);
        let exec = Executor::new();
        for threshold in BOTH_BRANCHES {
            let outcome = prove(&m, &exec, &CancelToken::never(), threshold);
            match &outcome.verdict {
                Verdict::Equivalent => prop_assert!(truth, "proved a disprovable miter"),
                Verdict::NotEquivalent(cex) => {
                    prop_assert!(!truth, "disproved an equivalent miter");
                    prop_assert!(cex.fires(&m), "counter-example does not fire");
                }
                Verdict::Undecided => {
                    prop_assert!(false, "undecided without cancellation: {:?}", outcome.attempts)
                }
            }
        }
    }

    /// A token tripped before dispatch: nothing runs, nothing is claimed.
    #[test]
    fn tripped_token_yields_undecided(
        seed in any::<u64>(),
        pis in 2usize..8,
        ands in 2usize..40,
        equivalent in any::<bool>(),
    ) {
        let a = random_aig(pis, ands, 2, seed);
        let b = if equivalent { a.clean() } else { mutate_gate(&a, seed as usize) };
        let m = miter(&a, &b).unwrap();
        let exec = Executor::new();
        let token = CancelToken::new();
        token.cancel();
        for threshold in BOTH_BRANCHES {
            let outcome = prove(&m, &exec, &token, threshold);
            prop_assert_eq!(&outcome.verdict, &Verdict::Undecided);
            prop_assert!(outcome.engine.is_none());
        }
    }

    /// A concurrent race under a deadline that may trip anywhere —
    /// before dispatch, mid-race, or never. Whatever engines get
    /// cancelled with partial work, the dispatcher never turns that
    /// partial work into a fabricated `Equal` on a disprovable miter,
    /// and a counter-example it does return always fires.
    #[test]
    fn deadline_cancelled_race_never_fabricates_equal(
        n in 8usize..20,
        corrupt in any::<bool>(),
        deadline_us in 0u64..2000,
    ) {
        let m = hard_pair(n, corrupt);
        let exec = Executor::new();
        let token = CancelToken::with_deadline(Duration::from_micros(deadline_us));
        for threshold in BOTH_BRANCHES {
            let outcome = prove(&m, &exec, &token, threshold);
            match &outcome.verdict {
                Verdict::Equivalent => {
                    prop_assert!(!corrupt, "fabricated Equal on a disprovable miter");
                }
                Verdict::NotEquivalent(cex) => {
                    prop_assert!(corrupt, "disproved an equivalent miter");
                    prop_assert!(cex.fires(&m), "fabricated a counter-example");
                }
                Verdict::Undecided => {}
            }
        }
    }

    /// The same race without a deadline always decides, and decides
    /// correctly — racing costs completeness nothing when time allows.
    #[test]
    fn unbounded_race_decides_correctly(n in 8usize..20, corrupt in any::<bool>()) {
        let m = hard_pair(n, corrupt);
        let exec = Executor::new();
        let outcome = prove(&m, &exec, &CancelToken::never(), Duration::ZERO);
        match &outcome.verdict {
            Verdict::Equivalent => prop_assert!(!corrupt),
            Verdict::NotEquivalent(cex) => {
                prop_assert!(corrupt);
                prop_assert!(cex.fires(&m));
            }
            Verdict::Undecided => prop_assert!(false, "unbounded race left a miter undecided"),
        }
    }
}
