//! SAT sweeping: the baseline combinational equivalence checker (the role
//! ABC `&cec` plays in the paper's evaluation).
//!
//! Classic FRAIG-style flow: random simulation clusters nodes into
//! equivalence classes; candidate pairs (class representative vs member)
//! are checked with budgeted SAT calls on one incremental solver per
//! round, in topological order of the member (AIG indices are
//! topological), so every pair comes after the pairs below it. Each proof
//! is added to the solver at once as equivalence clauses (a unit clause
//! for a constant candidate), which makes the pairs above it easier; the
//! clauses are implied by the CNF, so soundness is unchanged. Disproofs
//! yield counter-examples that refine the next round's classes; proofs
//! merge nodes and reduce the miter. The loop repeats on the reduced
//! miter until the POs are proved constant zero, disproved, or the budget
//! runs out.
//!
//! A constant candidate (a pair whose representative is the constant node)
//! first gets a probe of 20 conflicts, or the per-pair budget if that is
//! smaller. A cheap constant is proved in place and acts as a unit lemma
//! for the pairs above it. One the probe leaves open is not counted as
//! unknown: it waits until the round's other pairs are done. Then the
//! miter is rebuilt once with the round's proofs; a waiting member that
//! the rebuild leaves dangling, or strashes to a constant, is dropped
//! unproved (no PO depends on it any more, and a skipped proof merges
//! nothing), and the rest are retried with the full per-pair budget.
//! The solver's watches carry blocker literals and propagate binary
//! clauses without reading the clause arena (see [`Solver`]).

use std::time::{Duration, Instant};

use parsweep_aig::{is_proved, Aig, Lit, Var};
use parsweep_par::{CancelToken, Executor};
use parsweep_sim::{simulate, Cex, Patterns};

use crate::cnf::CnfEncoder;
use crate::solver::{SolveResult, Solver};

/// Conflicts a constant candidate gets on its first visit (capped at the
/// per-pair budget); one that needs more waits for the round's other pairs.
const CONST_PROBE: u64 = 20;

/// Configuration for [`sat_sweep`].
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// 64-bit pattern words for the initial random simulation.
    pub sim_words: usize,
    /// Conflict budget per candidate-pair SAT call (a constant
    /// candidate's first call, its probe, gets at most 20).
    pub conflicts_per_pair: u64,
    /// Conflict budget for each final PO proof call (the paper uses
    /// `&cec -C 100000` when proving reduced miters).
    pub conflicts_per_po: u64,
    /// Maximum sweeping rounds (simulate / check / reduce).
    pub max_rounds: usize,
    /// Random seed for pattern generation.
    pub seed: u64,
    /// Optional wall-clock budget; exceeding it yields `Undecided`.
    pub wall_budget: Option<Duration>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            sim_words: 8,
            conflicts_per_pair: 1_000,
            conflicts_per_po: 100_000,
            max_rounds: 16,
            seed: 0x5eed,
            wall_budget: None,
        }
    }
}

/// The checker's verdict on a miter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// All miter POs proved constant zero: the circuits are equivalent.
    Equivalent,
    /// A counter-example distinguishes the circuits.
    NotEquivalent(Cex),
    /// Budget exhausted before a proof or disproof.
    Undecided,
}

impl Verdict {
    /// True for [`Verdict::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Verdict::Equivalent)
    }
}

/// Statistics of one sweeping run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SweepStats {
    /// SAT solve calls issued.
    pub sat_calls: u64,
    /// Candidate pairs proved equivalent.
    pub proved_pairs: u64,
    /// Candidate pairs disproved by SAT counter-examples.
    pub disproved_pairs: u64,
    /// Candidate pairs abandoned on budget.
    pub unknown_pairs: u64,
    /// Constant candidates left open by their probe and dropped unproved,
    /// because the round's merges had cut them off from every PO.
    pub dead_constants: u64,
    /// Sweeping rounds executed.
    pub rounds: u32,
    /// Total solver conflicts.
    pub conflicts: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// The outcome of [`sat_sweep`]: verdict, reduced miter and statistics.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Final verdict.
    pub verdict: Verdict,
    /// The miter after merging all proved equivalences.
    pub reduced: Aig,
    /// Run statistics.
    pub stats: SweepStats,
}

/// Runs SAT sweeping on a miter.
///
/// The miter's PIs are shared between the two circuits under comparison
/// (see [`parsweep_aig::miter`]); the verdict refers to whether all POs
/// are constant zero.
pub fn sat_sweep(miter: &Aig, exec: &Executor, cfg: &SweepConfig) -> SweepResult {
    sat_sweep_seeded(miter, exec, cfg, &[])
}

/// Like [`sat_sweep`], but seeded with counter-example patterns collected
/// by an earlier checker (e.g. the simulation engine's disproofs) — the
/// *EC transfer* improvement the paper's Discussion section proposes.
/// Seeded patterns refine the very first equivalence classes, so pairs
/// already disproved upstream are never re-checked by SAT.
pub fn sat_sweep_seeded(
    miter: &Aig,
    exec: &Executor,
    cfg: &SweepConfig,
    seed_cexs: &[Cex],
) -> SweepResult {
    sat_sweep_seeded_cancellable(miter, exec, cfg, seed_cexs, &CancelToken::never())
}

/// Like [`sat_sweep_seeded`], additionally polling `token` wherever the
/// wall budget is checked: between rounds, between per-pair SAT calls
/// (i.e. between conflict budgets — a budgeted call itself is bounded),
/// and between the final PO proofs. On cancellation the verdict degrades
/// to [`Verdict::Undecided`] with the miter as reduced so far; completed
/// proofs and counter-examples remain valid.
pub fn sat_sweep_seeded_cancellable(
    miter: &Aig,
    exec: &Executor,
    cfg: &SweepConfig,
    seed_cexs: &[Cex],
    token: &CancelToken,
) -> SweepResult {
    let start = Instant::now();
    let mut stats = SweepStats::default();
    let mut current = miter.clone();
    let mut pending_cexs: Vec<Cex> = seed_cexs.to_vec();
    let mut round_seed = cfg.seed;

    let out_of_time = |start: &Instant| {
        cfg.wall_budget.is_some_and(|b| start.elapsed() >= b) || token.is_cancelled()
    };

    for round in 0..cfg.max_rounds {
        if is_proved(&current) {
            break;
        }
        if out_of_time(&start) {
            stats.seconds = start.elapsed().as_secs_f64();
            return SweepResult {
                verdict: Verdict::Undecided,
                reduced: current,
                stats,
            };
        }
        stats.rounds = round as u32 + 1;
        // 1. Simulate: random patterns plus any pending counter-examples.
        round_seed = round_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(1);
        let mut patterns = Patterns::random(current.num_pis(), cfg.sim_words, round_seed);
        if let Some(cex_patterns) = Patterns::from_cexs(&current, &pending_cexs) {
            patterns.extend(&cex_patterns);
        }
        pending_cexs.clear();
        let sigs = simulate(&current, exec, &patterns);

        // Quick disproof from simulation alone.
        if let Some(cex) = parsweep_sim::find_po_counterexample(&current, &sigs, &patterns) {
            stats.seconds = start.elapsed().as_secs_f64();
            return SweepResult {
                verdict: Verdict::NotEquivalent(cex),
                reduced: current,
                stats,
            };
        }

        // 2. Candidate pairs from equivalence classes, in topological
        // order of the member. Only AND gates can be merged away; a PI
        // must keep its place in the interface.
        let classes = parsweep_sim::signature_classes(&current, &sigs);
        let mut pairs: Vec<(Var, Var)> = classes
            .iter()
            .flat_map(|class| class[1..].iter().map(|&member| (class[0], member)))
            .filter(|&(_, member)| current.node(member).is_and())
            .collect();
        pairs.sort_unstable_by_key(|&(_, member)| member);
        let mut subst: Vec<Lit> = (0..current.num_nodes())
            .map(|i| Var::new(i as u32).lit())
            .collect();
        let mut solver = Solver::new();
        let mut enc = CnfEncoder::new();
        let mut progress = false;
        // Constant candidates first get a short probe; the ones it leaves
        // open are retried after the round's other pairs, unless those
        // pairs' merges have left them dead.
        let mut const_budget = CONST_PROBE.min(cfg.conflicts_per_pair);
        let mut queue = pairs;
        loop {
            let mut deferred = Vec::new();
            for (repr, member) in queue {
                if out_of_time(&start) {
                    break;
                }
                let budget = if repr.is_const() {
                    const_budget
                } else {
                    cfg.conflicts_per_pair
                };
                let complement = sigs.phase(repr) != sigs.phase(member);
                let sb = enc.encode(&current, member.lit_with(complement), &mut solver);
                let (outcome, proof): (_, &[&[_]]) = if repr.is_const() {
                    // Prove member' constant zero: member' == 1 unsat.
                    stats.sat_calls += 1;
                    solver.set_conflict_budget(Some(budget));
                    (solver.solve(&[sb]), &[&[!sb]])
                } else {
                    let sa = enc.encode(&current, repr.lit(), &mut solver);
                    stats.sat_calls += 1;
                    solver.set_conflict_budget(Some(budget));
                    let outcome = match solver.solve(&[sa, !sb]) {
                        SolveResult::Unsat => {
                            stats.sat_calls += 1;
                            solver.set_conflict_budget(Some(budget));
                            solver.solve(&[!sa, sb])
                        }
                        other => other,
                    };
                    (outcome, &[&[!sa, sb], &[sa, !sb]])
                };
                match outcome {
                    SolveResult::Unsat => {
                        // Merge as you prove: the clauses are implied by the
                        // CNF, and they make every pair above this one easier.
                        for clause in proof {
                            solver.add_clause(clause);
                        }
                        subst[member.index()] = repr.lit_with(complement);
                        stats.proved_pairs += 1;
                        progress = true;
                    }
                    SolveResult::Sat => {
                        pending_cexs.push(enc.model_to_cex(&current, &solver));
                        stats.disproved_pairs += 1;
                        progress = true;
                    }
                    SolveResult::Unknown if budget < cfg.conflicts_per_pair => {
                        deferred.push((repr, member));
                    }
                    SolveResult::Unknown => {
                        stats.unknown_pairs += 1;
                    }
                }
            }
            if deferred.is_empty() || out_of_time(&start) {
                break;
            }
            // A deferred member that the merges so far leave dangling, or
            // strash to a constant, is gone from the reduced miter: its
            // proof would decide nothing.
            let (_, map) = current.rebuild_with_substitution(&subst);
            let open = deferred.len();
            deferred.retain(|&(_, member)| !map[member.index()].var().is_const());
            stats.dead_constants += (open - deferred.len()) as u64;
            const_budget = cfg.conflicts_per_pair;
            queue = deferred;
        }
        stats.conflicts += solver.stats().conflicts;

        // 3. Reduce the miter by the proved equivalences.
        if subst
            .iter()
            .enumerate()
            .any(|(i, &l)| l != Var::new(i as u32).lit())
        {
            let (reduced, _) = current.rebuild_with_substitution(&subst);
            current = reduced;
        }
        if !progress {
            break;
        }
    }

    // Final PO proving on the reduced miter.
    let mut verdict = Verdict::Equivalent;
    if !is_proved(&current) {
        let mut solver = Solver::new();
        let mut enc = CnfEncoder::new();
        for &po in current.pos() {
            if po == Lit::FALSE {
                continue;
            }
            if out_of_time(&start) {
                verdict = Verdict::Undecided;
                break;
            }
            let sp = enc.encode(&current, po, &mut solver);
            stats.sat_calls += 1;
            solver.set_conflict_budget(Some(cfg.conflicts_per_po));
            match solver.solve(&[sp]) {
                SolveResult::Unsat => {}
                SolveResult::Sat => {
                    verdict = Verdict::NotEquivalent(enc.model_to_cex(&current, &solver));
                    break;
                }
                SolveResult::Unknown => {
                    verdict = Verdict::Undecided;
                    break;
                }
            }
        }
        stats.conflicts += solver.stats().conflicts;
    }
    stats.seconds = start.elapsed().as_secs_f64();
    SweepResult {
        verdict,
        reduced: current,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsweep_aig::miter;

    fn exec() -> Executor {
        Executor::with_threads(1)
    }

    fn adder(width: usize, ripple: bool) -> Aig {
        // width-bit adder, two structural styles.
        let mut aig = Aig::new();
        let a = aig.add_inputs(width);
        let b = aig.add_inputs(width);
        let mut carry = Lit::FALSE;
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

    #[test]
    fn equivalent_adders_proved() {
        let m = miter(&adder(4, true), &adder(4, false)).unwrap();
        let r = sat_sweep(&m, &exec(), &SweepConfig::default());
        assert_eq!(r.verdict, Verdict::Equivalent);
        assert!(r.stats.sat_calls > 0);
    }

    #[test]
    fn nonequivalent_circuits_get_valid_cex() {
        let a = adder(3, true);
        // Corrupt one PO of a copy.
        let mut b = adder(3, true);
        let po0 = b.po(0);
        b.set_po(0, !po0);
        let m = miter(&a, &b).unwrap();
        let r = sat_sweep(&m, &exec(), &SweepConfig::default());
        match r.verdict {
            Verdict::NotEquivalent(cex) => {
                let dense = cex.to_dense(&m);
                let out = m.eval(&dense);
                assert!(out.iter().any(|&x| x), "cex must fire the miter");
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn identical_circuits_trivially_proved() {
        let a = adder(3, true);
        let m = miter(&a, &a).unwrap();
        let r = sat_sweep(&m, &exec(), &SweepConfig::default());
        assert_eq!(r.verdict, Verdict::Equivalent);
        // Strash already collapses everything: no SAT calls needed.
        assert_eq!(r.stats.sat_calls, 0);
    }

    #[test]
    fn reduced_miter_is_smaller() {
        let m = miter(&adder(5, true), &adder(5, false)).unwrap();
        let before = m.num_ands();
        let r = sat_sweep(&m, &exec(), &SweepConfig::default());
        assert!(r.reduced.num_ands() < before);
        assert_eq!(r.verdict, Verdict::Equivalent);
    }

    #[test]
    fn zero_wall_budget_is_undecided() {
        let m = miter(&adder(4, true), &adder(4, false)).unwrap();
        let cfg = SweepConfig {
            wall_budget: Some(Duration::from_secs(0)),
            ..SweepConfig::default()
        };
        let r = sat_sweep(&m, &exec(), &cfg);
        assert_eq!(r.verdict, Verdict::Undecided);
    }

    #[test]
    fn random_equivalent_pairs_from_rebuild() {
        // A random AIG against its cleaned rebuild (semantically equal,
        // structurally re-hashed).
        for seed in [3u64, 9, 27] {
            let a = parsweep_aig::random::random_aig(6, 60, 3, seed);
            let b = a.clean();
            let m = miter(&a, &b).unwrap();
            let r = sat_sweep(&m, &exec(), &SweepConfig::default());
            assert_eq!(r.verdict, Verdict::Equivalent, "seed {seed}");
        }
    }
}
