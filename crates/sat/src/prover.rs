//! The portfolio's dispatcher: one miter, four proof engines, first
//! verdict wins.
//!
//! [`dispatch`] runs the two screens inline (structural hashing, then a
//! random-simulation disproof), admits exhaustive PO proving by the PO
//! support and cone caps, and ranks it against SAT sweeping by two static
//! cost priors. When both are admitted and the best prior reaches the
//! race threshold, the two race with first-verdict-wins early
//! cancellation; otherwise they run one at a time in ranked order. No
//! fixed order replaces the race: SAT is 40x faster than exhaustive on one
//! Table II miter and exhaustive 19x faster than SAT on another, at the
//! same caps (DESIGN.md, "The portfolio").
//!
//! Cancellation preserves the "partial, never wrong" invariant: every
//! engine polls its [`CancelToken`] at natural checkpoint boundaries and
//! degrades to [`Verdict::Undecided`] when it trips — a cancelled rival
//! can lose a race, but can never fabricate a verdict. The loser is
//! stopped through a *linked child* token ([`CancelToken::child`]), so the
//! dispatcher's early-cancel never trips the caller's token.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use parsweep_aig::{is_proved, Aig, Var};
use parsweep_par::{CancelToken, Executor};
use parsweep_sim::{check_windows_cancellable, simulate, PairCheck, PairOutcome, Patterns, Window};

use crate::portfolio::PortfolioConfig;
use crate::sweep::{sat_sweep_seeded_cancellable, Verdict};

/// Which portfolio engine a verdict or attempt refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Structural hashing alone.
    Structural,
    /// Random-simulation disproof.
    RandomSim,
    /// Exhaustive truth-table PO proving.
    ExhaustivePo,
    /// SAT sweeping.
    SatSweep,
}

impl EngineKind {
    /// Stable snake_case label (span names).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Structural => "structural",
            EngineKind::RandomSim => "random_sim",
            EngineKind::ExhaustivePo => "exhaustive_po",
            EngineKind::SatSweep => "sat_sweep",
        }
    }
}

/// How one engine attempt ended, from the dispatcher's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttemptStatus {
    /// Produced the miter's verdict.
    Won,
    /// Ran (to completion or its budget) without deciding first.
    Lost,
    /// Stopped at a poll point because the rival decided first or the
    /// caller's token tripped.
    Cancelled,
    /// Never ran: inadmissible for this miter, or the miter was already
    /// decided (or cancelled).
    Skipped,
}

/// One engine attempt with its cost — recorded for winners, losers *and*
/// skipped engines.
#[derive(Clone, Copy, Debug)]
pub struct EngineAttempt {
    /// Which engine.
    pub engine: EngineKind,
    /// How the attempt ended.
    pub status: AttemptStatus,
    /// Wall seconds the attempt consumed (zero for skipped attempts).
    pub seconds: f64,
}

/// The outcome of dispatching one miter.
#[derive(Clone, Debug)]
pub struct ProveOutcome {
    /// The miter's verdict.
    pub verdict: Verdict,
    /// The engine that produced it (`None` when undecided).
    pub engine: Option<EngineKind>,
    /// One attempt per engine, winners, losers and skipped alike.
    pub attempts: Vec<EngineAttempt>,
    /// Dispatcher wall seconds for the miter.
    pub seconds: f64,
    /// Whether a concurrent race decided the miter.
    pub raced: bool,
}

/// Best prior cost of the two heavy engines at or above which a miter
/// counts as *hard* and they race.
pub const RACE_THRESHOLD: Duration = Duration::from_millis(2);

/// Seed of the random-simulation screen's patterns.
const SCREEN_SEED: u64 = 0xc0ffee;

/// The features exhaustive admission and the priors read.
struct Difficulty {
    /// AND gates in the miter.
    ands: usize,
    /// Largest per-PO support, or `None` when any PO's support exceeds
    /// the support cap.
    max_po_support: Option<usize>,
    /// Largest per-PO TFI cone (nodes), or `None` when any PO's cone
    /// exceeds the cone cap.
    max_po_cone: Option<usize>,
}

impl Difficulty {
    fn analyze(miter: &Aig, support_cap: usize, cone_cap: usize) -> Self {
        let supports = miter.bounded_supports(support_cap);
        let mut max_support = Some(0usize);
        let mut max_cone = Some(0usize);
        for po in miter.pos() {
            if po.var().is_const() {
                continue;
            }
            match (max_support, supports[po.var().index()].size()) {
                (Some(m), Some(s)) => max_support = Some(m.max(s)),
                _ => max_support = None,
            }
            if let Some(m) = max_cone {
                let c = miter.tfi_cone(&[po.var()]).len();
                max_cone = (c <= cone_cap).then_some(m.max(c));
            }
        }
        Difficulty {
            ands: miter.num_ands(),
            max_po_support: max_support,
            max_po_cone: max_cone,
        }
    }

    /// Whether every PO is within both caps: the exhaustive engine's
    /// admission, a proxy for the BDD blow-up of a global engine.
    fn admits_exhaustive(&self) -> bool {
        self.max_po_support.is_some() && self.max_po_cone.is_some()
    }

    /// Exhaustive prior in microseconds: truth-table work scales with
    /// 2^support; /2048 converts modeled word-parallel evaluation into
    /// rough microseconds.
    fn exhaustive_micros(&self) -> u64 {
        let s = self.max_po_support.unwrap_or(40).min(40) as u32;
        20 + (1u64 << s) / 2048 * self.ands.max(1) as u64 / 64
    }

    /// SAT-sweeping prior in microseconds.
    fn sat_micros(&self) -> u64 {
        50 + self.ands as u64 * 150
    }
}

/// The winning engine with its verdict.
type Winner = Option<(EngineKind, Verdict)>;

/// Dispatches one miter (prove every PO constant zero) to the portfolio's
/// engines and returns the first verdict.
///
/// The screens run inline first — microsecond cost, and a verdict there
/// spares both heavy engines. Exhaustive PO proving and SAT sweeping are
/// then ranked by their priors: when both are admitted and the best prior
/// is at least `race_threshold` they race, lane 0 (the better-ranked
/// engine) on `exec` and lane 1 on a one-thread executor of its own; any
/// other miter runs them one at a time. [`crate::portfolio_check`] passes
/// [`RACE_THRESHOLD`]; `Duration::ZERO` races every miter both engines
/// admit and `Duration::MAX` never races. Every engine leaves exactly one
/// [`EngineAttempt`].
pub fn dispatch(
    miter: &Aig,
    exec: &Executor,
    cfg: &PortfolioConfig,
    token: &CancelToken,
    race_threshold: Duration,
) -> ProveOutcome {
    use EngineKind::{ExhaustivePo, RandomSim, SatSweep, Structural};
    let start = Instant::now();
    // The one place an engine runs: a span labelled by engine, its wall
    // time, and its status — `Won` when it decided, `Cancelled` when it
    // came back undecided with its token tripped, `Lost` otherwise.
    let attempt = |kind: EngineKind, exec: &Executor, token: &CancelToken, mode: &str| {
        let mut span = parsweep_trace::span("prove", &format!("prove.engine.{}", kind.name()));
        span.arg_str("mode", mode);
        let t0 = Instant::now();
        let verdict = match kind {
            Structural => structural(miter),
            RandomSim => random_sim(miter, exec, cfg.sim_words),
            ExhaustivePo => exhaustive_po(miter, exec, cfg.memory_words, token),
            SatSweep => sat_sweep_seeded_cancellable(miter, exec, &cfg.sweep, &[], token).verdict,
        };
        let status = match (&verdict, token.is_cancelled()) {
            (Verdict::Undecided, true) => AttemptStatus::Cancelled,
            (Verdict::Undecided, false) => AttemptStatus::Lost,
            _ => AttemptStatus::Won,
        };
        let seconds = t0.elapsed().as_secs_f64();
        (
            EngineAttempt {
                engine: kind,
                status,
                seconds,
            },
            verdict,
        )
    };

    let mut attempts = Vec::with_capacity(4);
    let mut winner = None;
    let screens = [(Structural, true), (RandomSim, true)];
    run_in_order(&screens, &attempt, exec, token, &mut attempts, &mut winner);

    let mut raced = false;
    let mut heavy = [(ExhaustivePo, false), (SatSweep, true)];
    if winner.is_none() && !token.is_cancelled() {
        let d = Difficulty::analyze(miter, cfg.po_support_cap, cfg.po_cone_cap);
        let admitted = d.admits_exhaustive();
        heavy[0].1 = admitted;
        let best = if admitted && d.exhaustive_micros() <= d.sat_micros() {
            d.exhaustive_micros()
        } else {
            heavy.swap(0, 1);
            d.sat_micros()
        };
        raced = admitted && u128::from(best) >= race_threshold.as_micros();
    }
    if raced {
        winner = race(&heavy, &attempt, exec, token, &mut attempts);
    } else {
        run_in_order(&heavy, &attempt, exec, token, &mut attempts, &mut winner);
    }
    ProveOutcome {
        engine: winner.as_ref().map(|w| w.0),
        verdict: winner.map_or(Verdict::Undecided, |w| w.1),
        attempts,
        seconds: start.elapsed().as_secs_f64(),
        raced,
    }
}

/// Runs the admitted engines of `field` one at a time until one decides;
/// an engine that is not admitted, or whose turn comes after the verdict
/// or the cancellation, is recorded as skipped.
fn run_in_order(
    field: &[(EngineKind, bool)],
    attempt: &impl Fn(EngineKind, &Executor, &CancelToken, &str) -> (EngineAttempt, Verdict),
    exec: &Executor,
    token: &CancelToken,
    attempts: &mut Vec<EngineAttempt>,
    winner: &mut Winner,
) {
    for &(kind, admitted) in field {
        if winner.is_some() || token.is_cancelled() || !admitted {
            attempts.push(EngineAttempt {
                engine: kind,
                status: AttemptStatus::Skipped,
                seconds: 0.0,
            });
            continue;
        }
        let (a, verdict) = attempt(kind, exec, token, "inline");
        attempts.push(a);
        if a.status == AttemptStatus::Won {
            *winner = Some((kind, verdict));
        }
    }
}

/// Runs the two heavy engines concurrently; the first decisive verdict
/// cancels the other through a linked child token, so the caller's token
/// is never tripped by the dispatcher's own early-cancel.
fn race(
    field: &[(EngineKind, bool); 2],
    attempt: &(impl Fn(EngineKind, &Executor, &CancelToken, &str) -> (EngineAttempt, Verdict) + Sync),
    exec: &Executor,
    token: &CancelToken,
    attempts: &mut Vec<EngineAttempt>,
) -> Winner {
    let race_token = token.child();
    // One single-thread executor per lane, so the race keeps two threads
    // busy however wide the caller's executor is; each audits whenever
    // the caller's does.
    let lane_exec = || {
        if exec.sanitizing() {
            Executor::with_sanitizer(1)
        } else {
            Executor::with_threads(1)
        }
    };
    let lane_execs = [lane_exec(), lane_exec()];
    let winner = Mutex::new(None);
    let lane = |kind: EngineKind, exec: &Executor| {
        let (mut a, verdict) = attempt(kind, exec, &race_token, "race");
        if a.status == AttemptStatus::Won {
            let mut w = winner.lock().expect("race winner lock");
            if w.is_none() {
                *w = Some((kind, verdict));
                // First verdict wins: stop the rival at its next poll point.
                race_token.cancel();
            } else {
                a.status = AttemptStatus::Lost;
            }
        }
        a
    };
    attempts.extend(std::thread::scope(|s| {
        let rival = s.spawn(|| lane(field[1].0, &lane_execs[1]));
        [
            lane(field[0].0, &lane_execs[0]),
            rival.join().expect("race lane"),
        ]
    }));
    winner.into_inner().expect("race winner lock")
}

/// Structural hashing: decides when the miter strashes to constant zero.
fn structural(miter: &Aig) -> Verdict {
    if is_proved(miter) {
        Verdict::Equivalent
    } else {
        Verdict::Undecided
    }
}

/// Random-simulation disproof: a fixed batch of random patterns scanned
/// for a firing PO.
fn random_sim(miter: &Aig, exec: &Executor, sim_words: usize) -> Verdict {
    let patterns = Patterns::random(miter.num_pis(), sim_words, SCREEN_SEED);
    let sigs = simulate(miter, exec, &patterns);
    match parsweep_sim::find_po_counterexample(miter, &sigs, &patterns) {
        Some(cex) => Verdict::NotEquivalent(cex),
        None => Verdict::Undecided,
    }
}

/// Exhaustive truth-table PO proving: one global window per non-constant
/// PO, simulated in a table of `words` words.
fn exhaustive_po(miter: &Aig, exec: &Executor, words: usize, token: &CancelToken) -> Verdict {
    let windows: Vec<Window> = miter
        .pos()
        .iter()
        .filter(|po| !po.var().is_const())
        .map(|po| {
            let pair = PairCheck {
                a: Var::FALSE,
                b: po.var(),
                complement: po.is_complemented(),
            };
            Window::global(miter, pair)
        })
        .collect();
    let (outcomes, _) = check_windows_cancellable(miter, exec, &windows, words, token);
    // A mismatch from any completed round is a real disproof; `Equal`
    // needs every window fully resolved — a cancelled window comes back
    // with an *empty* outcome vector and must yield `Undecided`, never a
    // fabricated proof. No windows (every PO constant) is a proof.
    let mut complete = true;
    for (win, outcomes) in windows.iter().zip(&outcomes) {
        for outcome in outcomes {
            if let PairOutcome::Mismatch { assignment, .. } = outcome {
                return Verdict::NotEquivalent(win.cex(miter, assignment));
            }
        }
        complete &= outcomes.len() == win.pairs.len();
    }
    if complete {
        Verdict::Equivalent
    } else {
        Verdict::Undecided
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsweep_aig::{miter, Aig};

    fn exec() -> Executor {
        Executor::with_threads(1)
    }

    fn adder(width: usize, ripple: bool) -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_inputs(width);
        let b = aig.add_inputs(width);
        let mut carry = parsweep_aig::Lit::FALSE;
        for i in 0..width {
            let axb = aig.xor(a[i], b[i]);
            let sum = aig.xor(axb, carry);
            let new_carry = if ripple {
                let t = aig.and(a[i], b[i]);
                let u = aig.and(axb, carry);
                aig.or(t, u)
            } else {
                aig.maj3(a[i], b[i], carry)
            };
            aig.add_po(sum);
            carry = new_carry;
        }
        aig.add_po(carry);
        aig
    }

    /// The standard dispatch forced onto its raced branch.
    fn racing(m: &Aig, token: &CancelToken) -> ProveOutcome {
        dispatch(
            m,
            &exec(),
            &PortfolioConfig::default(),
            token,
            Duration::ZERO,
        )
    }

    /// The standard dispatch forced onto its one-at-a-time branch.
    fn unraced(m: &Aig, token: &CancelToken) -> ProveOutcome {
        dispatch(
            m,
            &exec(),
            &PortfolioConfig::default(),
            token,
            Duration::MAX,
        )
    }

    type Branch = fn(&Aig, &CancelToken) -> ProveOutcome;

    fn status_of(out: &ProveOutcome, kind: EngineKind) -> AttemptStatus {
        let mut of_kind = out.attempts.iter().filter(|a| a.engine == kind);
        let attempt = of_kind.next().expect("every engine leaves an attempt");
        assert!(of_kind.next().is_none(), "one attempt per engine");
        attempt.status
    }

    #[test]
    fn a_screening_win_skips_every_later_engine() {
        let a = parsweep_aig::random::random_aig(6, 40, 2, 5);
        let m = miter(&a, &a).unwrap();
        for p in [racing as Branch, unraced] {
            let out = p(&m, &CancelToken::never());
            assert_eq!(out.engine, Some(EngineKind::Structural));
            assert!(out.verdict.is_equivalent());
            assert!(!out.raced);
            assert_eq!(out.attempts.len(), 4);
            assert_eq!(status_of(&out, EngineKind::Structural), AttemptStatus::Won);
            for kind in [
                EngineKind::RandomSim,
                EngineKind::ExhaustivePo,
                EngineKind::SatSweep,
            ] {
                assert_eq!(status_of(&out, kind), AttemptStatus::Skipped);
            }
        }
    }

    #[test]
    fn losing_attempts_are_recorded() {
        // Equivalent but not structurally identical: structural and
        // random-sim lose before the exhaustive engine wins.
        let m = miter(&adder(3, true), &adder(3, false)).unwrap();
        let out = unraced(&m, &CancelToken::never());
        assert!(!out.raced);
        assert_eq!(out.engine, Some(EngineKind::ExhaustivePo));
        assert_eq!(status_of(&out, EngineKind::Structural), AttemptStatus::Lost);
        assert_eq!(status_of(&out, EngineKind::RandomSim), AttemptStatus::Lost);
        assert_eq!(
            status_of(&out, EngineKind::SatSweep),
            AttemptStatus::Skipped
        );
        // Skipped attempts cost nothing; the ones that ran fit in the
        // dispatch.
        assert!(out
            .attempts
            .iter()
            .all(|a| a.status != AttemptStatus::Skipped || a.seconds == 0.0));
        assert!(out.attempts.iter().map(|a| a.seconds).sum::<f64>() <= out.seconds);
    }

    #[test]
    fn both_branches_prove_an_adder() {
        let m = miter(&adder(4, true), &adder(4, false)).unwrap();
        for (p, raced) in [(racing as Branch, true), (unraced, false)] {
            let out = p(&m, &CancelToken::never());
            assert!(out.verdict.is_equivalent(), "raced={raced}: {out:?}");
            assert_eq!(out.raced, raced);
        }
    }

    #[test]
    fn hard_classes_race() {
        let m = miter(&adder(10, true), &adder(10, false)).unwrap();
        let out = racing(&m, &CancelToken::never());
        assert!(out.raced, "attempts: {:?}", out.attempts);
        assert!(out.verdict.is_equivalent());
        // Exactly one racer won; the rival either lost or was cancelled.
        let won = out
            .attempts
            .iter()
            .filter(|a| a.status == AttemptStatus::Won)
            .count();
        assert_eq!(won, 1);
        assert_eq!(out.attempts.len(), 4);
    }

    #[test]
    fn race_cancel_does_not_trip_the_job_token() {
        let m = miter(&adder(8, true), &adder(8, false)).unwrap();
        let job = CancelToken::new();
        let out = racing(&m, &job);
        assert!(out.verdict.is_equivalent());
        assert!(
            !job.is_cancelled(),
            "dispatcher early-cancel must stay scoped to the race"
        );
    }

    #[test]
    fn cancelled_dispatch_is_undecided_not_wrong() {
        let m = miter(&adder(6, true), &adder(6, false)).unwrap();
        let token = CancelToken::new();
        token.cancel();
        for p in [racing as Branch, unraced] {
            let out = p(&m, &token);
            assert_eq!(out.verdict, Verdict::Undecided);
            assert!(out.engine.is_none());
            assert!(out
                .attempts
                .iter()
                .all(|a| a.status == AttemptStatus::Skipped));
        }
    }

    #[test]
    fn difficulty_analysis_matches_portfolio_admission() {
        let m = miter(&adder(3, true), &adder(3, false)).unwrap();
        let d = Difficulty::analyze(&m, 20, 3000);
        assert!(d.max_po_support.is_some());
        assert!(d.max_po_cone.is_some());
        assert!(d.admits_exhaustive());
        // A 30-input conjunction exceeds a 16-bit support cap.
        let mut a = Aig::new();
        let xs = a.add_inputs(30);
        let f = a.and_all(xs.iter().copied());
        a.add_po(f);
        let d = Difficulty::analyze(&a, 16, 3000);
        assert_eq!(d.max_po_support, None);
        assert!(!d.admits_exhaustive());
    }
}
