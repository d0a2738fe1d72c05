//! The portfolio's dispatcher: one miter, several heterogeneous proof
//! engines, first verdict wins.
//!
//! * [`ProofEngine`] — the common trait each portfolio stage sits behind.
//!   The unit is a standalone miter whose POs must be proved constant
//!   zero.
//! * [`Prover`] — the dispatcher: cheap screening engines run inline in
//!   registration order, the heavy engines are ranked by their static
//!   cost priors, and on hard miters the top [`MAX_RACE`] race
//!   concurrently with first-verdict-wins early cancellation; otherwise
//!   they run one at a time in ranked order. No fixed order replaces the
//!   race: on two residuals of equal support and similar cone size the
//!   exhaustive engine is 50x slower than SAT on one and twice as fast on
//!   the other (DESIGN.md, "Finishing").
//! * [`Difficulty`] — the features admission and the priors read:
//!   support size and cone size.
//!
//! Cancellation preserves the "partial, never wrong" invariant: every
//! engine polls its [`CancelToken`] at natural checkpoint boundaries and
//! degrades to [`Verdict::Undecided`] when it trips — a cancelled rival
//! can lose a race, but can never fabricate a verdict. Losers are stopped
//! through *linked child* tokens ([`CancelToken::child`]), so the
//! dispatcher's early-cancel never trips the caller's job token.

use std::sync::Mutex;
use std::time::Duration;

use parsweep_aig::{is_proved, Aig, Var};
use parsweep_par::{CancelToken, Executor};
use parsweep_sim::{check_windows_cancellable, simulate, PairCheck, PairOutcome, Patterns, Window};
use parsweep_trace::{Clock, WallClock};

use crate::sweep::{sat_sweep_seeded_cancellable, SweepConfig, SweepStats, Verdict};

/// Which portfolio stage a verdict or attempt refers to.
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

/// Difficulty features of one miter, driving engine admission and the
/// cost priors.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Difficulty {
    /// Primary inputs of the cone.
    pub pis: usize,
    /// AND gates in the cone.
    pub ands: usize,
    /// Largest per-PO support, or `None` when any PO's support exceeds
    /// the analysis cap (the exhaustive engine's admission bound).
    pub max_po_support: Option<usize>,
    /// Largest per-PO TFI cone (nodes), or `None` when any PO's cone
    /// exceeds the analysis cap.
    pub max_po_cone: Option<usize>,
}

impl Difficulty {
    /// Analyzes a cone with the given admission caps: a PO whose support
    /// exceeds `support_cap` (or whose TFI cone exceeds `cone_cap`) makes
    /// the respective feature `None`.
    pub fn analyze(cone: &Aig, support_cap: usize, cone_cap: usize) -> Self {
        let supports = cone.bounded_supports(support_cap);
        let mut max_support = Some(0usize);
        let mut max_cone = Some(0usize);
        for po in cone.pos() {
            if po.var().is_const() {
                continue;
            }
            match (max_support, supports[po.var().index()].size()) {
                (Some(m), Some(s)) => max_support = Some(m.max(s)),
                _ => max_support = None,
            }
            if let Some(m) = max_cone {
                let c = cone.tfi_cone(&[po.var()]).len();
                max_cone = (c <= cone_cap).then_some(m.max(c));
            }
        }
        Difficulty {
            pis: cone.num_pis(),
            ands: cone.num_ands(),
            max_po_support: max_support,
            max_po_cone: max_cone,
        }
    }
}

/// What one engine attempt produced.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// The attempt's verdict ([`Verdict::Undecided`] when cancelled or
    /// out of budget — never a fabricated proof).
    pub verdict: Verdict,
    /// SAT-style statistics (populated by solver-backed engines).
    pub stats: SweepStats,
}

impl EngineReport {
    fn undecided() -> Self {
        EngineReport {
            verdict: Verdict::Undecided,
            stats: SweepStats::default(),
        }
    }
}

/// A proof engine the dispatcher can route a miter to.
///
/// Implementations must uphold the cancellation invariant: when `token`
/// trips mid-attempt, `prove` returns [`Verdict::Undecided`] — partial,
/// never wrong. A decisive verdict must always be the result of completed
/// work.
pub trait ProofEngine: Send + Sync {
    /// The engine's kind (attempt record, span label).
    fn kind(&self) -> EngineKind;

    /// Whether this engine can attempt a miter of this difficulty at all.
    fn admits(&self, _difficulty: &Difficulty) -> bool {
        true
    }

    /// True for cheap screening engines the dispatcher always runs inline
    /// before considering a concurrent race (structural hashing, random
    /// simulation): their cost is microseconds, so racing them buys
    /// nothing.
    fn prefilter(&self) -> bool {
        false
    }

    /// Static cost estimate in microseconds: the dispatcher ranks the
    /// heavy engines by it.
    fn prior_cost_micros(&self, difficulty: &Difficulty) -> u64;

    /// Attempts the miter `cone` (prove all POs constant zero); `token`
    /// must be polled at checkpoint boundaries.
    fn prove(&self, cone: &Aig, exec: &Executor, token: &CancelToken) -> EngineReport;
}

/// Structural hashing: free when the miter strashes to constant zero.
#[derive(Debug, Default)]
pub struct StructuralEngine;

impl ProofEngine for StructuralEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Structural
    }

    fn prefilter(&self) -> bool {
        true
    }

    fn prior_cost_micros(&self, difficulty: &Difficulty) -> u64 {
        1 + difficulty.ands as u64 / 512
    }

    fn prove(&self, cone: &Aig, _exec: &Executor, _token: &CancelToken) -> EngineReport {
        EngineReport {
            verdict: if is_proved(cone) {
                Verdict::Equivalent
            } else {
                Verdict::Undecided
            },
            stats: SweepStats::default(),
        }
    }
}

/// Random-simulation disproof: a fixed batch of random patterns scanned
/// for a firing PO.
#[derive(Debug)]
pub struct RandomSimEngine {
    /// 64-bit pattern words to simulate.
    pub sim_words: usize,
    /// Pattern seed.
    pub seed: u64,
}

impl ProofEngine for RandomSimEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::RandomSim
    }

    fn prefilter(&self) -> bool {
        true
    }

    fn prior_cost_micros(&self, difficulty: &Difficulty) -> u64 {
        10 + (difficulty.ands * self.sim_words) as u64 / 256
    }

    fn prove(&self, cone: &Aig, exec: &Executor, token: &CancelToken) -> EngineReport {
        if token.is_cancelled() {
            return EngineReport::undecided();
        }
        let patterns = Patterns::random(cone.num_pis(), self.sim_words, self.seed);
        let sigs = simulate(cone, exec, &patterns);
        EngineReport {
            verdict: match parsweep_sim::find_po_counterexample(cone, &sigs, &patterns) {
                Some(cex) => Verdict::NotEquivalent(cex),
                None => Verdict::Undecided,
            },
            stats: SweepStats::default(),
        }
    }
}

/// Exhaustive truth-table PO proving: admitted only when every PO support
/// and cone stays below the BDD-style blow-up proxy caps.
#[derive(Debug)]
pub struct ExhaustivePoEngine {
    /// PO support-size admission cap.
    pub po_support_cap: usize,
    /// PO cone-size admission cap (nodes).
    pub po_cone_cap: usize,
    /// Simulation-table memory budget in words.
    pub memory_words: usize,
}

impl ProofEngine for ExhaustivePoEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::ExhaustivePo
    }

    fn admits(&self, difficulty: &Difficulty) -> bool {
        difficulty
            .max_po_support
            .is_some_and(|s| s <= self.po_support_cap)
            && difficulty
                .max_po_cone
                .is_some_and(|c| c <= self.po_cone_cap)
    }

    fn prior_cost_micros(&self, difficulty: &Difficulty) -> u64 {
        // Truth-table work scales with 2^support; /2048 converts modeled
        // word-parallel evaluation into rough microseconds.
        let s = difficulty.max_po_support.unwrap_or(40).min(40) as u32;
        20 + (1u64 << s) / 2048 * difficulty.ands.max(1) as u64 / 64
    }

    fn prove(&self, cone: &Aig, exec: &Executor, token: &CancelToken) -> EngineReport {
        let windows: Vec<Window> = cone
            .pos()
            .iter()
            .filter(|po| !po.var().is_const())
            .map(|po| {
                let pair = PairCheck {
                    a: Var::FALSE,
                    b: po.var(),
                    complement: po.is_complemented(),
                };
                Window::global(cone, pair)
            })
            .collect();
        let (outcomes, _) =
            check_windows_cancellable(cone, exec, &windows, self.memory_words, token);
        // A mismatch from any completed round is a real disproof; an
        // `Equal` claim needs every window fully resolved — cancelled
        // windows come back with *empty* outcome vectors and must yield
        // `Undecided`, never a fabricated proof.
        let mut complete = true;
        for (w, win) in windows.iter().enumerate() {
            for outcome in &outcomes[w] {
                if let PairOutcome::Mismatch { assignment, .. } = outcome {
                    let sparse: Vec<_> = win
                        .inputs
                        .iter()
                        .copied()
                        .zip(assignment.iter().copied())
                        .collect();
                    let cex = parsweep_sim::Cex::from_sparse(cone, &sparse);
                    return EngineReport {
                        verdict: Verdict::NotEquivalent(cex),
                        stats: SweepStats::default(),
                    };
                }
            }
            complete &= outcomes[w].len() == win.pairs.len();
        }
        EngineReport {
            verdict: if complete && !windows.is_empty() {
                Verdict::Equivalent
            } else if windows.is_empty() {
                // All POs constant: nothing left to disprove.
                Verdict::Equivalent
            } else {
                Verdict::Undecided
            },
            stats: SweepStats::default(),
        }
    }
}

/// SAT sweeping.
#[derive(Debug)]
pub struct SatSweepEngine {
    /// Sweeping configuration (its `wall_budget` bounds each attempt).
    pub cfg: SweepConfig,
}

impl ProofEngine for SatSweepEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::SatSweep
    }

    fn prior_cost_micros(&self, difficulty: &Difficulty) -> u64 {
        50 + difficulty.ands as u64 * 150
    }

    fn prove(&self, cone: &Aig, exec: &Executor, token: &CancelToken) -> EngineReport {
        let result = sat_sweep_seeded_cancellable(cone, exec, &self.cfg, &[], token);
        EngineReport {
            verdict: result.verdict,
            stats: result.stats,
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
    /// Stopped at a poll point because a rival decided first or the
    /// caller's token tripped.
    Cancelled,
    /// Never ran: inadmissible for this difficulty, ranked out of the
    /// race field, or the miter was already decided (or cancelled).
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

/// Prior cost of the best-ranked heavy engine at or above which a miter
/// counts as *hard* and the top engines race.
pub const RACE_THRESHOLD: Duration = Duration::from_millis(2);

/// Engines racing one hard miter concurrently.
pub const MAX_RACE: usize = 2;

/// The outcome of dispatching one miter.
#[derive(Clone, Debug)]
pub struct ProveOutcome {
    /// The miter's verdict.
    pub verdict: Verdict,
    /// The engine that produced it (`None` when undecided).
    pub engine: Option<EngineKind>,
    /// Every engine attempt, winners, losers and skipped alike.
    pub attempts: Vec<EngineAttempt>,
    /// SAT-style statistics of the winning attempt.
    pub stats: SweepStats,
    /// Dispatcher wall seconds for the miter.
    pub seconds: f64,
    /// Whether a concurrent race decided the miter.
    pub raced: bool,
}

/// The proving dispatcher: the registered engines and the caps the
/// difficulty analysis runs with.
pub struct Prover {
    engines: Vec<Box<dyn ProofEngine>>,
    race_threshold: Duration,
    /// Difficulty-analysis caps; keep them equal to the exhaustive
    /// engine's admission caps.
    support_cap: usize,
    cone_cap: usize,
}

impl std::fmt::Debug for Prover {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kinds: Vec<EngineKind> = self.engines.iter().map(|e| e.kind()).collect();
        f.debug_struct("Prover")
            .field("engines", &kinds)
            .field("race_threshold", &self.race_threshold)
            .finish_non_exhaustive()
    }
}

impl Default for Prover {
    /// A dispatcher over the four standard portfolio engines, configured
    /// like [`crate::PortfolioConfig`]'s defaults.
    fn default() -> Self {
        Self::with_engines(standard_engines(
            &crate::portfolio::PortfolioConfig::default(),
        ))
    }
}

/// The winning engine with its verdict and statistics.
type Winner = (EngineKind, Verdict, SweepStats);

/// What every attempt on one miter shares.
struct Class<'a> {
    cone: &'a Aig,
    difficulty: &'a Difficulty,
    clock: &'a WallClock,
}

impl Prover {
    /// A dispatcher over an explicit engine list. Screening engines
    /// ([`ProofEngine::prefilter`]) run in registration order; the rest
    /// are ranked per miter. The default difficulty-analysis caps match
    /// [`crate::PortfolioConfig`]'s; use [`Prover::with_caps`] when the
    /// exhaustive engine's admission bounds differ.
    pub fn with_engines(engines: Vec<Box<dyn ProofEngine>>) -> Self {
        Prover {
            engines,
            race_threshold: RACE_THRESHOLD,
            support_cap: 20,
            cone_cap: 3000,
        }
    }

    /// Overrides the support/cone caps the difficulty analysis runs with
    /// (keep them equal to the exhaustive engine's admission caps).
    pub fn with_caps(mut self, support_cap: usize, cone_cap: usize) -> Self {
        self.support_cap = support_cap;
        self.cone_cap = cone_cap;
        self
    }

    /// Overrides [`RACE_THRESHOLD`]: `Duration::ZERO` races every miter
    /// with two admissible heavy engines, `Duration::MAX` never races.
    /// The property suites use it to force each branch deterministically.
    pub fn with_race_threshold(mut self, race_threshold: Duration) -> Self {
        self.race_threshold = race_threshold;
        self
    }

    /// Dispatches one miter on the wall clock.
    ///
    /// Screening engines run inline first — micro-second cost, and a
    /// disproof there spares every heavy engine. The heavy engines are
    /// then ranked by their priors; a hard miter races the top
    /// [`MAX_RACE`] with first-verdict-wins early cancellation, any other
    /// runs them one at a time. Every registered engine leaves exactly
    /// one [`EngineAttempt`].
    pub fn prove(&self, cone: &Aig, exec: &Executor, token: &CancelToken) -> ProveOutcome {
        let clock = WallClock::new();
        let difficulty = Difficulty::analyze(cone, self.support_cap, self.cone_cap);
        let class = Class {
            cone,
            difficulty: &difficulty,
            clock: &clock,
        };
        let mut attempts = Vec::with_capacity(self.engines.len());
        let mut winner = None;
        let (screens, mut heavy): (Vec<usize>, Vec<usize>) =
            (0..self.engines.len()).partition(|&i| self.engines[i].prefilter());
        self.run_in_order(&screens, &class, exec, token, &mut attempts, &mut winner);

        let mut raced = false;
        if winner.is_none() && !token.is_cancelled() {
            let score = |i: usize| {
                let e = &self.engines[i];
                if e.admits(&difficulty) {
                    e.prior_cost_micros(&difficulty) as f64
                } else {
                    f64::INFINITY
                }
            };
            let mut ranked: Vec<(usize, f64)> = heavy.iter().map(|&i| (i, score(i))).collect();
            ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
            raced = ranked.len() >= MAX_RACE
                && ranked[MAX_RACE - 1].1.is_finite()
                && ranked[0].1 >= self.race_threshold.as_micros() as f64;
            heavy = ranked.into_iter().map(|(i, _)| i).collect();
        }
        if raced {
            let (field, rest) = heavy.split_at(MAX_RACE);
            winner = self.race(field, &class, exec, token, &mut attempts);
            attempts.extend(rest.iter().map(|&i| skipped(self.engines[i].kind())));
        } else {
            self.run_in_order(&heavy, &class, exec, token, &mut attempts, &mut winner);
        }
        let (engine, verdict, stats) = match winner {
            Some((kind, verdict, stats)) => (Some(kind), verdict, stats),
            None => (None, Verdict::Undecided, SweepStats::default()),
        };
        ProveOutcome {
            verdict,
            engine,
            attempts,
            stats,
            seconds: clock.now().as_secs_f64(),
            raced,
        }
    }

    /// Runs the engines at `order` one at a time until one decides; an
    /// engine that does not admit the miter, or whose turn comes after
    /// the verdict or the cancellation, is recorded as skipped.
    fn run_in_order(
        &self,
        order: &[usize],
        class: &Class<'_>,
        exec: &Executor,
        token: &CancelToken,
        attempts: &mut Vec<EngineAttempt>,
        winner: &mut Option<Winner>,
    ) {
        for &i in order {
            let engine = &*self.engines[i];
            if winner.is_some() || token.is_cancelled() || !engine.admits(class.difficulty) {
                attempts.push(skipped(engine.kind()));
                continue;
            }
            let (attempt, report) = self.attempt(engine, class, exec, token, "inline");
            attempts.push(attempt);
            if attempt.status == AttemptStatus::Won {
                *winner = Some((engine.kind(), report.verdict, report.stats));
            }
        }
    }

    /// Runs the engine field concurrently; the first decisive verdict
    /// cancels the others through a linked child token, so the caller's
    /// job token is never tripped by the dispatcher's own early-cancel.
    fn race(
        &self,
        field: &[usize],
        class: &Class<'_>,
        exec: &Executor,
        token: &CancelToken,
        attempts: &mut Vec<EngineAttempt>,
    ) -> Option<Winner> {
        let race_token = token.child();
        // One executor per lane (a sanitizing executor audits one launch
        // at a time): lane 0 borrows the caller's, the rest live for the
        // race.
        let lane_execs: Vec<Executor> = (1..field.len())
            .map(|_| Executor::with_threads(1))
            .collect();

        let winner: Mutex<Option<Winner>> = Mutex::new(None);
        let lanes: Mutex<Vec<EngineAttempt>> = Mutex::new(Vec::with_capacity(field.len()));
        std::thread::scope(|s| {
            for (lane, &i) in field.iter().enumerate() {
                let engine = &*self.engines[i];
                let lane_exec = if lane == 0 {
                    exec
                } else {
                    &lane_execs[lane - 1]
                };
                let (race_token, winner, lanes) = (&race_token, &winner, &lanes);
                s.spawn(move || {
                    let (mut attempt, report) =
                        self.attempt(engine, class, lane_exec, race_token, "race");
                    if attempt.status == AttemptStatus::Won {
                        let mut w = winner.lock().expect("race winner lock");
                        if w.is_none() {
                            *w = Some((engine.kind(), report.verdict, report.stats));
                            // First verdict wins: stop the rival lanes at
                            // their next poll point.
                            race_token.cancel();
                        } else {
                            attempt.status = AttemptStatus::Lost;
                        }
                    }
                    lanes.lock().expect("race lanes lock").push(attempt);
                });
            }
        });
        attempts.append(&mut lanes.into_inner().expect("race lanes lock"));
        winner.into_inner().expect("race winner lock")
    }

    /// The one place an engine runs: times the attempt under a span
    /// labelled by engine and classifies it — `Won` when it decided,
    /// `Cancelled` when it came back undecided with `token` tripped,
    /// `Lost` otherwise.
    fn attempt(
        &self,
        engine: &dyn ProofEngine,
        class: &Class<'_>,
        exec: &Executor,
        token: &CancelToken,
        mode: &str,
    ) -> (EngineAttempt, EngineReport) {
        let kind = engine.kind();
        let mut span = parsweep_trace::span("prove", &format!("prove.engine.{}", kind.name()));
        span.arg_str("mode", mode);
        let t0 = class.clock.now();
        let report = engine.prove(class.cone, exec, token);
        let seconds = class.clock.since(t0).as_secs_f64();
        let status = if !matches!(report.verdict, Verdict::Undecided) {
            AttemptStatus::Won
        } else if token.is_cancelled() {
            AttemptStatus::Cancelled
        } else {
            AttemptStatus::Lost
        };
        let attempt = EngineAttempt {
            engine: kind,
            status,
            seconds,
        };
        (attempt, report)
    }
}

/// The record of an engine that never ran.
fn skipped(engine: EngineKind) -> EngineAttempt {
    EngineAttempt {
        engine,
        status: AttemptStatus::Skipped,
        seconds: 0.0,
    }
}

/// The four standard portfolio engines, wired from a
/// [`crate::PortfolioConfig`]: the two screening engines in the order they
/// run, then the heavy engines the dispatcher ranks per miter.
pub fn standard_engines(cfg: &crate::portfolio::PortfolioConfig) -> Vec<Box<dyn ProofEngine>> {
    vec![
        Box::new(StructuralEngine),
        Box::new(RandomSimEngine {
            sim_words: cfg.sim_words,
            seed: 0xc0ffee,
        }),
        Box::new(ExhaustivePoEngine {
            po_support_cap: cfg.po_support_cap,
            po_cone_cap: cfg.po_cone_cap,
            memory_words: cfg.memory_words,
        }),
        Box::new(SatSweepEngine {
            cfg: cfg.sweep.clone(),
        }),
    ]
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

    /// The standard dispatcher forced onto its raced branch.
    fn racing() -> Prover {
        Prover::default().with_race_threshold(Duration::ZERO)
    }

    /// The standard dispatcher forced onto its one-at-a-time branch.
    fn unraced() -> Prover {
        Prover::default().with_race_threshold(Duration::MAX)
    }

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
        for p in [racing(), unraced()] {
            let out = p.prove(&m, &exec(), &CancelToken::never());
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
        let out = unraced().prove(&m, &exec(), &CancelToken::never());
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
        for (p, raced) in [(racing(), true), (unraced(), false)] {
            let out = p.prove(&m, &exec(), &CancelToken::never());
            assert!(out.verdict.is_equivalent(), "raced={raced}: {out:?}");
            assert_eq!(out.raced, raced);
        }
    }

    #[test]
    fn hard_classes_race() {
        let m = miter(&adder(10, true), &adder(10, false)).unwrap();
        let p = racing();
        let out = p.prove(&m, &exec(), &CancelToken::never());
        assert!(out.raced, "attempts: {:?}", out.attempts);
        assert!(out.verdict.is_equivalent());
        // Exactly one racer won; any rival either lost or was cancelled.
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
        let out = racing().prove(&m, &exec(), &job);
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
        for p in [racing(), unraced()] {
            let out = p.prove(&m, &exec(), &token);
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
        assert_eq!(d.pis, 6);
        // A 30-input conjunction exceeds a 16-bit support cap.
        let mut a = Aig::new();
        let xs = a.add_inputs(30);
        let f = a.and_all(xs.iter().copied());
        a.add_po(f);
        let d = Difficulty::analyze(&a, 16, 3000);
        assert_eq!(d.max_po_support, None);
    }
}
