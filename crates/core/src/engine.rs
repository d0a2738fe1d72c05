//! The simulation-based CEC engine flow (paper Fig. 5): PO checking (P),
//! global function checking (G), then repeated local function checking
//! phases (L), each reducing the miter by merging proved pairs.

use std::borrow::Cow;
use std::time::Instant;

use parsweep_aig::{is_proved, Aig, Lit, Support, Var};
use parsweep_cut::Pass;
use parsweep_par::{CancelToken, Executor};
use parsweep_sat::Verdict;
use parsweep_sim::{
    find_po_counterexample, merge_windows, Cex, PairCheck, PairOutcome, Patterns, Window,
};
use parsweep_trace as trace;

use crate::config::{EngineConfig, MergeStrategy};
use crate::ec::EcManager;
use crate::local::run_cut_pass;
use crate::stats::EngineStats;

/// The result of running the simulation-based engine on a miter.
#[derive(Clone, Debug)]
pub struct EngineResult {
    /// Final verdict: `Equivalent` if the miter was fully proved,
    /// `NotEquivalent` with a counter-example, or `Undecided` with a
    /// reduced miter for a downstream checker.
    pub verdict: Verdict,
    /// The reduced miter (empty of logic when fully proved).
    pub reduced: Aig,
    /// Statistics including the Fig. 6 phase breakdown.
    pub stats: EngineStats,
    /// Counter-examples that disproved candidate pairs during global
    /// checking; a downstream SAT sweeper can be seeded with these (the
    /// Discussion section's *EC transfer*, see
    /// [`parsweep_sat::sat_sweep_seeded`]).
    pub disproof_cexs: Vec<Cex>,
}

/// A labelled snapshot of the miter after each phase boundary
/// ("P", "PG", "PGL"), used by the Fig. 7 experiment.
pub type PhaseSnapshot = (String, Aig);

/// Runs the simulation-based CEC engine on a miter.
pub fn sim_sweep(miter: &Aig, exec: &Executor, cfg: &EngineConfig) -> EngineResult {
    run(miter, exec, cfg, false, &CancelToken::never()).0
}

/// Like [`sim_sweep`], polling `token` at every phase boundary — between
/// the P, G and L phases, between G rounds, between L phases, and between
/// exhaustive-simulation batches inside a phase.
///
/// This is the job-service entry point: the caller hands in a
/// pre-extracted miter (a whole miter, or one output-cone shard from
/// [`parsweep_aig::Aig::extract_cone`]) plus a deadline- or
/// service-controlled token. When the token trips, in-flight checks are
/// abandoned *before* their results are recorded, so every proof and
/// counter-example in the result is complete and sound; the verdict
/// degrades to [`Verdict::Undecided`] (with the partially reduced miter)
/// rather than ever reporting a wrong `Equivalent`/`NotEquivalent`, and
/// `stats.cancelled` is set.
pub fn sim_sweep_cancellable(
    miter: &Aig,
    exec: &Executor,
    cfg: &EngineConfig,
    token: &CancelToken,
) -> EngineResult {
    run(miter, exec, cfg, false, token).0
}

/// Like [`sim_sweep`], additionally returning miter snapshots after the
/// P, P+G and P+G+L phase boundaries.
pub fn sim_sweep_traced(
    miter: &Aig,
    exec: &Executor,
    cfg: &EngineConfig,
) -> (EngineResult, Vec<PhaseSnapshot>) {
    run(miter, exec, cfg, true, &CancelToken::never())
}

/// The modeled time of everything the executor has run so far, sampled
/// only while tracing is live — phase spans report the *delta* across the
/// phase as their deterministic `modeled_time` argument (every launch is
/// a barrier, so the modeled time is additive).
pub(crate) fn modeled_mark(exec: &Executor) -> u64 {
    if trace::active() {
        exec.stats().serialized_time(trace::MODEL_CORES)
    } else {
        0
    }
}

fn run(
    miter: &Aig,
    exec: &Executor,
    cfg: &EngineConfig,
    traced: bool,
    token: &CancelToken,
) -> (EngineResult, Vec<PhaseSnapshot>) {
    let start = Instant::now();
    let mut run_span = trace::span("engine", "engine.run");
    run_span.arg_u64("ands", miter.num_ands() as u64);
    let mut stats = EngineStats {
        initial_ands: miter.num_ands(),
        ..Default::default()
    };
    // The miter is borrowed until a phase actually reduces it: an untraced
    // run that proves or disproves nothing never clones the input.
    let mut current: Cow<'_, Aig> = Cow::Borrowed(miter);
    let mut snapshots: Vec<PhaseSnapshot> = Vec::new();
    let mut disproofs: Vec<Cex> = Vec::new();

    let finish = |verdict: Verdict,
                  current: Cow<'_, Aig>,
                  mut stats: EngineStats,
                  snapshots: Vec<PhaseSnapshot>,
                  disproofs: Vec<Cex>| {
        stats.cancelled = token.is_cancelled();
        stats.final_ands = current.num_ands();
        stats.seconds = start.elapsed().as_secs_f64();
        let accounted = stats.phase_times.po + stats.phase_times.global + stats.phase_times.local;
        // Signed residual: a slightly negative value exposes measurement
        // skew between the phase timers and the total instead of hiding it.
        stats.phase_times.other = stats.seconds - accounted;
        (
            EngineResult {
                verdict,
                reduced: current.into_owned(),
                stats,
                disproof_cexs: disproofs,
            },
            snapshots,
        )
    };

    // ---- P: PO checking phase ----
    let t = Instant::now();
    let mark = modeled_mark(exec);
    let mut span = trace::span("engine", "engine.phase.P");
    let po_outcome = po_phase(&mut current, exec, cfg, &mut stats, token);
    span.arg_u64("modeled_time", modeled_mark(exec).saturating_sub(mark));
    drop(span);
    stats.phase_times.po = t.elapsed().as_secs_f64();
    if let Err(cex) = po_outcome {
        return finish(
            Verdict::NotEquivalent(cex),
            current,
            stats,
            snapshots,
            disproofs,
        );
    }
    if traced {
        snapshots.push(("P".into(), current.as_ref().clone()));
    }
    if is_proved(&current) {
        return finish(Verdict::Equivalent, current, stats, snapshots, disproofs);
    }
    // Cancellation checks sit *after* the proved/disproved checks: a
    // verdict reached from completed work stays valid even if the token
    // tripped while it was being recorded.
    if token.is_cancelled() {
        return finish(Verdict::Undecided, current, stats, snapshots, disproofs);
    }

    // ---- G: global function checking phase ----
    let t = Instant::now();
    let mark = modeled_mark(exec);
    let mut span = trace::span("engine", "engine.phase.G");
    let g_outcome = global_phase(&mut current, exec, cfg, &mut stats, &mut disproofs, token);
    span.arg_u64("modeled_time", modeled_mark(exec).saturating_sub(mark));
    drop(span);
    stats.phase_times.global = t.elapsed().as_secs_f64();
    let mut live = match g_outcome {
        Err(cex) => {
            return finish(
                Verdict::NotEquivalent(cex),
                current,
                stats,
                snapshots,
                disproofs,
            );
        }
        Ok(live) => live,
    };
    if traced {
        snapshots.push(("PG".into(), current.as_ref().clone()));
    }
    if is_proved(&current) {
        return finish(Verdict::Equivalent, current, stats, snapshots, disproofs);
    }
    if token.is_cancelled() {
        return finish(Verdict::Undecided, current, stats, snapshots, disproofs);
    }

    // ---- L: repeated local function checking phases ----
    let t = Instant::now();
    let mark = modeled_mark(exec);
    let mut l_span = trace::span("engine", "engine.phase.L");
    let mut active_passes = cfg.passes.clone();
    for phase in 0..cfg.max_local_phases {
        if token.is_cancelled() {
            break;
        }
        stats.local_phases += 1;
        match local_phase(
            &mut current,
            exec,
            cfg,
            &active_passes,
            &mut stats,
            phase as u64,
            live.as_deref(),
            token,
        ) {
            Err(cex) => {
                stats.phase_times.local = t.elapsed().as_secs_f64();
                return finish(
                    Verdict::NotEquivalent(cex),
                    current,
                    stats,
                    snapshots,
                    disproofs,
                );
            }
            Ok((reduced, per_pass, next_live)) => {
                live = next_live;
                if is_proved(&current) || !reduced {
                    break;
                }
                // Adaptive pass disabling (§V): drop passes that proved
                // nothing this phase, as long as at least one remains.
                if cfg.adaptive_passes {
                    let keep: Vec<_> = active_passes
                        .iter()
                        .copied()
                        .zip(&per_pass)
                        .filter(|(_, &n)| n > 0)
                        .map(|(p, _)| p)
                        .collect();
                    if !keep.is_empty() {
                        active_passes = keep;
                    }
                }
            }
        }
    }
    l_span.arg_u64("modeled_time", modeled_mark(exec).saturating_sub(mark));
    drop(l_span);
    stats.phase_times.local = t.elapsed().as_secs_f64();
    if traced {
        snapshots.push(("PGL".into(), current.as_ref().clone()));
    }

    let verdict = if is_proved(&current) {
        Verdict::Equivalent
    } else {
        Verdict::Undecided
    };
    finish(verdict, current, stats, snapshots, disproofs)
}

/// Runs a batch of windows through the exhaustive simulator, splitting the
/// batch so each sub-batch's simulation table fits the memory budget.
///
/// Polls `token` between sub-batches; on cancellation the remaining
/// windows get *empty* outcome vectors, so callers that iterate a
/// window's outcomes simply record nothing for unprocessed work (no
/// proof, no counter-example) — the sound degradation.
pub(crate) fn check_in_batches(
    aig: &Aig,
    exec: &Executor,
    windows: &[Window],
    cfg: &EngineConfig,
    stats: &mut EngineStats,
    token: &CancelToken,
) -> Vec<Vec<PairOutcome>> {
    let mut outcomes = Vec::with_capacity(windows.len());
    let mut batch_start = 0;
    while batch_start < windows.len() {
        if token.is_cancelled() {
            break;
        }
        let mut entries = 0usize;
        let mut end = batch_start;
        while end < windows.len() {
            let e = windows[end].num_entries();
            if end > batch_start && entries + e > cfg.batch_entries {
                break;
            }
            entries += e;
            end += 1;
        }
        let (res, effort) = parsweep_sim::check_windows_cancellable(
            aig,
            exec,
            &windows[batch_start..end],
            cfg.memory_words,
            token,
        );
        stats.sim_words += effort.words;
        outcomes.extend(res);
        batch_start = end;
    }
    // Pad cancelled-away windows with empty outcomes so indexing by
    // window position stays valid.
    outcomes.resize_with(windows.len(), Vec::new);
    outcomes
}

/// Applies the configured window-merging strategy.
fn apply_merging(windows: Vec<Window>, k_s: usize, strategy: MergeStrategy) -> Vec<Window> {
    match strategy {
        MergeStrategy::None => windows,
        MergeStrategy::Lexicographic => merge_windows(windows, k_s),
        MergeStrategy::Clustered => parsweep_sim::merge_windows_clustered(windows, k_s),
    }
}

/// Merges two bounded supports, giving up beyond `cap`.
fn union_support(a: &Support, b: &Support, cap: usize) -> Option<Vec<Var>> {
    let (sa, sb) = (a.vars()?, b.vars()?);
    let mut out = Vec::with_capacity((sa.len() + sb.len()).min(cap + 1));
    let (mut i, mut j) = (0, 0);
    while i < sa.len() || j < sb.len() {
        let v = if j >= sb.len() || (i < sa.len() && sa[i] <= sb[j]) {
            if j < sb.len() && sa[i] == sb[j] {
                j += 1;
            }
            let v = sa[i];
            i += 1;
            v
        } else {
            let v = sb[j];
            j += 1;
            v
        };
        if out.len() == cap {
            return None;
        }
        out.push(v);
    }
    Some(out)
}

/// The P phase: prove simulatable POs constant zero by exhaustive
/// simulation of their global functions (§III-D).
///
/// Returns `Err(cex)` if a PO is proved nonzero (real disproof).
fn po_phase(
    current: &mut Cow<'_, Aig>,
    exec: &Executor,
    cfg: &EngineConfig,
    stats: &mut EngineStats,
    token: &CancelToken,
) -> Result<(), Cex> {
    // Unique (var, complement) targets among the POs.
    let mut targets: Vec<(Var, bool)> = Vec::new();
    for &po in current.pos() {
        if po == Lit::FALSE {
            continue;
        }
        if po == Lit::TRUE {
            return Err(Cex::new(vec![false; current.num_pis()]));
        }
        let t = (po.var(), po.is_complemented());
        if !targets.contains(&t) {
            targets.push(t);
        }
    }
    if targets.is_empty() {
        return Ok(());
    }
    let supports = current.bounded_supports(cfg.k_po_all);
    let all_fit = targets
        .iter()
        .all(|(v, _)| supports[v.index()].size().is_some());
    // Two-threshold budget: one-shot checking with k_P when every PO
    // fits, otherwise only POs within k_p.
    let limit = if all_fit { cfg.k_po_all } else { cfg.k_po };
    let k_s = limit;

    let mut windows: Vec<Window> = Vec::new();
    for &(v, complement) in &targets {
        let Some(sup) = supports[v.index()].vars() else {
            continue;
        };
        if sup.len() > limit {
            continue;
        }
        let pair = PairCheck {
            a: Var::FALSE,
            b: v,
            complement,
        };
        // Bounded supports are ascending by construction (sorted merges).
        if let Some(w) = Window::for_sorted_inputs(current, pair, sup.to_vec()) {
            windows.push(w);
        }
    }
    if windows.is_empty() {
        return Ok(());
    }
    windows = apply_merging(windows, k_s, cfg.window_merging);
    let outcomes = check_in_batches(current, exec, &windows, cfg, stats, token);

    let mut proved: Vec<(Var, bool)> = Vec::new();
    for (w, win) in windows.iter().enumerate() {
        for (k, outcome) in outcomes[w].iter().enumerate() {
            let pair = win.pairs[k];
            match outcome {
                PairOutcome::Equal => proved.push((pair.b, pair.complement)),
                PairOutcome::Mismatch { assignment, .. } => {
                    let sparse: Vec<(Var, bool)> = win
                        .inputs
                        .iter()
                        .copied()
                        .zip(assignment.iter().copied())
                        .collect();
                    return Err(Cex::from_sparse(current, &sparse));
                }
            }
        }
    }
    if !proved.is_empty() {
        let cur = current.to_mut();
        for i in 0..cur.num_pos() {
            let po = cur.po(i);
            if proved.contains(&(po.var(), po.is_complemented())) {
                cur.set_po(i, Lit::FALSE);
                stats.pos_proved += 1;
            }
        }
        *cur = cur.clean();
    }
    Ok(())
}

/// The non-constant PO variables, sorted and deduplicated — kept live in
/// pruned simulation rounds so the counter-example scan reads real words,
/// never a dead node's zeroed buffer (which would false-fire on a
/// complemented PO).
fn po_vars(aig: &Aig) -> Vec<Var> {
    let mut out: Vec<Var> = aig
        .pos()
        .iter()
        .filter(|po| !po.is_const())
        .map(|po| po.var())
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The G phase: initialize ECs by random simulation, then prove/disprove
/// candidate pairs whose support union fits `k_g`, refining classes with
/// counter-examples and reducing the miter (§III-D).
///
/// Returns the surviving live set (undecided class members, in the final
/// miter's coordinates) for the L phases to prune against, or `None` if
/// the phase never built EC state.
fn global_phase(
    current: &mut Cow<'_, Aig>,
    exec: &Executor,
    cfg: &EngineConfig,
    stats: &mut EngineStats,
    disproofs: &mut Vec<Cex>,
    token: &CancelToken,
) -> Result<Option<Vec<Var>>, Cex> {
    global_phase_inner(current, exec, cfg, stats, disproofs, true, token)
}

/// The G phase body; with `miter_mode` off (FRAIG construction), firing
/// POs are not treated as disproofs.
///
/// Round 0 simulates every node once and keeps both the patterns and the
/// signature table. Later rounds are incremental: fresh patterns simulate
/// only the live cone ([`parsweep_sim::simulate_cone`]) and refine the
/// classes in place; when proved pairs rewrite the miter, the base table
/// is carried over by dirty-cone resimulation instead of a full rerun.
#[allow(clippy::too_many_arguments)]
pub(crate) fn global_phase_inner(
    current: &mut Cow<'_, Aig>,
    exec: &Executor,
    cfg: &EngineConfig,
    stats: &mut EngineStats,
    disproofs: &mut Vec<Cex>,
    miter_mode: bool,
    token: &CancelToken,
) -> Result<Option<Vec<Var>>, Cex> {
    let counters = trace::metrics::sim_counters();
    let mut cex_pool: Vec<Cex> = Vec::new();
    let mut base_patterns: Option<Patterns> = None;
    let mut ec: Option<EcManager> = None;
    for round in 0..cfg.max_global_rounds {
        if is_proved(current) || token.is_cancelled() {
            break;
        }
        let mut round_span = trace::span("engine", "engine.round.G");
        round_span.arg_u64("round", round as u64);
        round_span.arg_u64("ands", current.num_ands() as u64);
        let mut patterns = Patterns::random(
            current.num_pis(),
            cfg.sim_words,
            cfg.seed ^ (round as u64 + 1),
        );
        let cex_patterns = if cfg.distance1_cex {
            Patterns::from_cexs_distance1(current, &cex_pool, cfg.seed ^ 0xd1)
        } else {
            Patterns::from_cexs(current, &cex_pool)
        };
        if let Some(cex_patterns) = cex_patterns {
            patterns.extend(&cex_patterns);
        }
        cex_pool.clear();
        match ec.as_mut() {
            None => {
                let m = EcManager::from_patterns(current, exec, &patterns, cfg.memory_words);
                if miter_mode {
                    if let Some(cex) = find_po_counterexample(current, m.signatures(), &patterns) {
                        return Err(cex);
                    }
                }
                ec = Some(m);
                base_patterns = Some(patterns);
            }
            Some(m) => {
                let extra = if miter_mode {
                    po_vars(current)
                } else {
                    Vec::new()
                };
                let (fresh, refined, covered) = m.refine_with(current, exec, &patterns, &extra);
                stats.pruned_sim_rounds += 1;
                stats.classes_refined += refined as u64;
                trace::metrics::SimCounters::add(&counters.pruned_rounds, 1);
                trace::metrics::SimCounters::add(&counters.classes_refined, refined as u64);
                trace::metrics::SimCounters::add(
                    &counters.pruned_nodes_skipped,
                    current.num_nodes().saturating_sub(covered) as u64,
                );
                if miter_mode {
                    if let Some(cex) = find_po_counterexample(current, &fresh, &patterns) {
                        return Err(cex);
                    }
                }
            }
        }
        let supports = current.bounded_supports(cfg.k_g);
        let mut windows: Vec<Window> = Vec::new();
        let mut skipped_const: Vec<PairCheck> = Vec::new();
        let candidate_pairs = ec
            .as_ref()
            .expect("EC state initialized above")
            .pairs(current);
        for pair in candidate_pairs {
            let Some(union) = union_support(
                &supports[pair.a.index()],
                &supports[pair.b.index()],
                cfg.k_g,
            ) else {
                if pair.a.is_const() {
                    skipped_const.push(pair);
                }
                continue;
            };
            // `union_support` merges two sorted supports, so the union is
            // already ascending and deduplicated.
            if let Some(w) = Window::for_sorted_inputs(current, pair, union) {
                windows.push(w);
            }
        }
        // Reverse simulation (§V): try to justify a non-constant value on
        // wide-support constant candidates; verified patterns become
        // class-splitting counter-examples for the next round.
        if cfg.reverse_sim && !skipped_const.is_empty() {
            let mut rng = parsweep_aig::random::SplitMix64::new(cfg.seed ^ 0xbac2);
            for pair in skipped_const.iter().take(32) {
                // The member's constant value is `complement` (its sig is
                // all-`complement`); justify the opposite.
                let target = pair.b.lit_with(pair.complement);
                if let Some(pattern) =
                    parsweep_sim::reverse::justify_with_retries(current, target, true, 4, &mut rng)
                {
                    cex_pool.push(Cex::new(pattern));
                    stats.disproved_pairs += 1;
                }
            }
        }
        if windows.is_empty() {
            break;
        }
        windows = apply_merging(windows, cfg.k_g, cfg.window_merging);
        let outcomes = check_in_batches(current, exec, &windows, cfg, stats, token);

        let mut subst: Vec<Lit> = (0..current.num_nodes())
            .map(|i| Var::new(i as u32).lit())
            .collect();
        let mut proved_any = false;
        for (w, win) in windows.iter().enumerate() {
            for (k, outcome) in outcomes[w].iter().enumerate() {
                let pair = win.pairs[k];
                match outcome {
                    PairOutcome::Equal => {
                        subst[pair.b.index()] = pair.a.lit_with(pair.complement);
                        stats.proved_pairs += 1;
                        proved_any = true;
                    }
                    PairOutcome::Mismatch { assignment, .. } => {
                        let sparse: Vec<(Var, bool)> = win
                            .inputs
                            .iter()
                            .copied()
                            .zip(assignment.iter().copied())
                            .collect();
                        let cex = Cex::from_sparse(current, &sparse);
                        if disproofs.len() < 4096 {
                            disproofs.push(cex.clone());
                        }
                        cex_pool.push(cex);
                        stats.disproved_pairs += 1;
                    }
                }
            }
        }
        if proved_any {
            let (reduced, map) = current.rebuild_with_substitution(&subst);
            // Carry the EC state across the rewrite: dirty-cone resim of
            // the base table instead of a full round-0 rerun.
            let (clean, dirty) = ec.as_mut().expect("EC state initialized above").rebuild(
                current,
                &reduced,
                &map,
                &subst,
                exec,
                base_patterns
                    .as_ref()
                    .expect("base patterns kept with EC state"),
            );
            stats.resim_clean_nodes += clean as u64;
            stats.resim_dirty_nodes += dirty as u64;
            trace::metrics::SimCounters::add(&counters.resim_clean_nodes, clean as u64);
            trace::metrics::SimCounters::add(&counters.resim_dirty_nodes, dirty as u64);
            *current = Cow::Owned(reduced);
        }
        if !proved_any && cex_pool.is_empty() {
            break;
        }
    }
    Ok(ec.map(|m| m.live_vars()))
}

/// What an L phase reports back: whether the miter shrank, the per-pass
/// proof counts, and the next phase's live set.
type LocalPhaseOutcome = (bool, Vec<u64>, Option<Vec<Var>>);

/// One L phase: three cut generation and checking passes (Algorithm 2)
/// followed by miter reduction. Returns whether the miter shrank, the
/// per-pass proof counts, and the next phase's live set.
#[allow(clippy::too_many_arguments)]
fn local_phase(
    current: &mut Cow<'_, Aig>,
    exec: &Executor,
    cfg: &EngineConfig,
    passes: &[Pass],
    stats: &mut EngineStats,
    phase: u64,
    live: Option<&[Var]>,
    token: &CancelToken,
) -> Result<LocalPhaseOutcome, Cex> {
    local_phase_inner(current, exec, cfg, passes, stats, phase, true, live, token)
}

/// The L phase body; with `miter_mode` off (FRAIG construction), firing
/// POs are not treated as disproofs.
///
/// With `live` set (the previous phase's undecided class members),
/// simulation is support-pruned to their TFI cone and cut enumeration is
/// restricted to it; without it (cold entry, e.g. after a cancelled G
/// phase) the phase falls back to full simulation. Returns the next
/// phase's live set — the surviving class members mapped through this
/// phase's rewrite.
#[allow(clippy::too_many_arguments)]
pub(crate) fn local_phase_inner(
    current: &mut Cow<'_, Aig>,
    exec: &Executor,
    cfg: &EngineConfig,
    passes: &[Pass],
    stats: &mut EngineStats,
    phase: u64,
    miter_mode: bool,
    live: Option<&[Var]>,
    token: &CancelToken,
) -> Result<LocalPhaseOutcome, Cex> {
    let counters = trace::metrics::sim_counters();
    let mut round_span = trace::span("engine", "engine.round.L");
    round_span.arg_u64("phase", phase);
    let before = current.num_ands();
    round_span.arg_u64("ands", before as u64);
    let patterns = Patterns::random(
        current.num_pis(),
        cfg.sim_words,
        cfg.seed ^ 0x10ca1 ^ (phase.wrapping_mul(0x9e37_79b9)),
    );
    let ec = match live {
        Some(candidates) => {
            let extra = if miter_mode {
                po_vars(current)
            } else {
                Vec::new()
            };
            let m = EcManager::from_patterns_pruned(
                current,
                exec,
                &patterns,
                candidates,
                &extra,
                cfg.memory_words,
            );
            stats.pruned_sim_rounds += 1;
            trace::metrics::SimCounters::add(&counters.pruned_rounds, 1);
            if let Some(covered) = m.simulated_nodes() {
                trace::metrics::SimCounters::add(
                    &counters.pruned_nodes_skipped,
                    current.num_nodes().saturating_sub(covered) as u64,
                );
            }
            m
        }
        None => EcManager::from_patterns(current, exec, &patterns, cfg.memory_words),
    };
    if miter_mode {
        if let Some(cex) = find_po_counterexample(current, ec.signatures(), &patterns) {
            return Err(cex);
        }
    }
    // Cut enumeration only needs nodes inside the candidates' cones.
    let live_cone = live.map(|_| current.tfi_cone(&ec.live_vars()));
    let repr_map = ec.repr_map(current.num_nodes());
    let mut subst: Vec<Lit> = (0..current.num_nodes())
        .map(|i| Var::new(i as u32).lit())
        .collect();
    let mut proved = vec![false; current.num_nodes()];
    let mut per_pass = Vec::with_capacity(passes.len());
    for &pass in passes {
        if token.is_cancelled() {
            // Keep `per_pass` aligned with `passes` for adaptive disabling.
            per_pass.push(0);
            continue;
        }
        let before_pairs = stats.proved_pairs;
        run_cut_pass(
            current,
            exec,
            cfg,
            pass,
            &ec,
            &repr_map,
            live_cone.as_deref(),
            &mut subst,
            &mut proved,
            stats,
            token,
        );
        per_pass.push(stats.proved_pairs - before_pairs);
    }
    let rewrite_map = if proved.iter().any(|&p| p) {
        let (reduced, map) = current.rebuild_with_substitution(&subst);
        *current = Cow::Owned(reduced);
        Some(map)
    } else {
        None
    };
    // The next phase's live set: this phase's undecided members, renamed
    // through the rewrite (merged members collapse onto their
    // representative's image; members folded to a constant drop out).
    let mut next_live: Vec<Var> = ec
        .classes()
        .iter()
        .flatten()
        .filter_map(|&m| match &rewrite_map {
            Some(map) => {
                let lit = map[m.index()];
                if lit.is_const() {
                    m.is_const().then_some(Var::FALSE)
                } else {
                    Some(lit.var())
                }
            }
            None => Some(m),
        })
        .collect();
    next_live.sort_unstable();
    next_live.dedup();
    Ok((current.num_ands() < before, per_pass, Some(next_live)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsweep_aig::miter;

    fn exec() -> Executor {
        Executor::with_threads(1)
    }

    fn adder(width: usize, ripple: bool) -> Aig {
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
    fn proves_adder_miter_in_po_phase() {
        // 4-bit adders: every PO support <= 8 <= k_P, so the P phase
        // should prove the whole miter one-shot.
        let m = miter(&adder(4, true), &adder(4, false)).unwrap();
        let r = sim_sweep(&m, &exec(), &EngineConfig::default());
        assert_eq!(r.verdict, Verdict::Equivalent);
        assert!(r.stats.pos_proved > 0);
        assert_eq!(r.stats.reduction_pct(), 100.0);
    }

    #[test]
    fn disproves_with_valid_cex() {
        let a = adder(4, true);
        let mut b = adder(4, true);
        let po0 = b.po(0);
        b.set_po(0, !po0);
        let m = miter(&a, &b).unwrap();
        let r = sim_sweep(&m, &exec(), &EngineConfig::default());
        match r.verdict {
            Verdict::NotEquivalent(cex) => assert!(cex.fires(&m)),
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn global_phase_handles_wide_pos() {
        // 20-bit adders: the top carry's support (40) exceeds the scaled
        // k_P = 18, so per-PO one-shot checking is partial; internal
        // global/local phases must still finish the job.
        let m = miter(&adder(20, true), &adder(20, false)).unwrap();
        let r = sim_sweep(&m, &exec(), &EngineConfig::default());
        assert_eq!(r.verdict, Verdict::Equivalent, "stats: {:?}", r.stats);
    }

    #[test]
    fn incremental_rounds_prune_and_refine() {
        // 20-bit adders run G rounds plus L phases; everything after the
        // first EC build must go through the pruned/refined path.
        let m = miter(&adder(20, true), &adder(20, false)).unwrap();
        let r = sim_sweep(&m, &exec(), &EngineConfig::default());
        assert_eq!(r.verdict, Verdict::Equivalent);
        assert!(r.stats.pruned_sim_rounds > 0, "stats: {:?}", r.stats);
        // Merges happened, so the dirty-cone resimulator carried words.
        assert!(
            r.stats.resim_clean_nodes + r.stats.resim_dirty_nodes > 0,
            "stats: {:?}",
            r.stats
        );
    }

    #[test]
    fn traced_snapshots_cover_phases() {
        let m = miter(&adder(20, true), &adder(20, false)).unwrap();
        let (_, snaps) = sim_sweep_traced(&m, &exec(), &EngineConfig::default());
        let labels: Vec<&str> = snaps.iter().map(|(l, _)| l.as_str()).collect();
        assert!(labels.contains(&"P"));
    }

    #[test]
    fn undecided_returns_reduced_miter() {
        // Random equivalent pair with supports too big for the scaled
        // engine and a tiny local-phase budget: expect partial reduction.
        let m = miter(&adder(24, true), &adder(24, false)).unwrap();
        let cfg = EngineConfig {
            k_po_all: 6,
            k_po: 6,
            k_g: 6,
            max_local_phases: 1,
            cut: parsweep_cut::CutParams { k_l: 4, c: 4 },
            ..EngineConfig::default()
        };
        let r = sim_sweep(&m, &exec(), &cfg);
        // Whatever the verdict, the reduced miter must stay equivalent to
        // the original (spot-check by simulation).
        let mut rng = parsweep_aig::random::SplitMix64::new(9);
        for _ in 0..64 {
            let bits: Vec<bool> = (0..m.num_pis()).map(|_| rng.bool()).collect();
            let orig_fired = m.eval(&bits).iter().any(|&x| x);
            let red_fired = r.reduced.eval(&bits).iter().any(|&x| x);
            assert_eq!(orig_fired, red_fired);
        }
    }

    #[test]
    fn phase_breakdown_sums_to_wall_time() {
        // `other` is the signed residual, so the four phase times must
        // reconstruct the measured total exactly (up to float rounding)
        // instead of drifting when timers over-cover.
        let m = miter(&adder(8, true), &adder(8, false)).unwrap();
        let r = sim_sweep(&m, &exec(), &EngineConfig::default());
        let pt = r.stats.phase_times;
        assert!(
            (pt.total() - r.stats.seconds).abs() < 1e-9,
            "{pt:?} vs {}",
            r.stats.seconds
        );
    }

    #[test]
    fn union_support_bounds() {
        let a = Support::Exact(vec![Var::new(1), Var::new(2)]);
        let b = Support::Exact(vec![Var::new(2), Var::new(3)]);
        assert_eq!(
            union_support(&a, &b, 3),
            Some(vec![Var::new(1), Var::new(2), Var::new(3)])
        );
        assert_eq!(union_support(&a, &b, 2), None);
        assert_eq!(union_support(&a, &Support::Over, 8), None);
    }

    #[test]
    fn merge_strategies_agree_on_verdict() {
        let m = miter(&adder(8, true), &adder(8, false)).unwrap();
        for strategy in [
            crate::MergeStrategy::None,
            crate::MergeStrategy::Lexicographic,
            crate::MergeStrategy::Clustered,
        ] {
            let cfg = EngineConfig {
                window_merging: strategy,
                ..EngineConfig::default()
            };
            let r = sim_sweep(&m, &exec(), &cfg);
            assert_eq!(r.verdict, Verdict::Equivalent, "strategy {strategy:?}");
        }
    }

    #[test]
    fn extension_flags_preserve_verdicts() {
        let m = miter(&adder(10, true), &adder(10, false)).unwrap();
        let cfg = EngineConfig {
            distance1_cex: true,
            adaptive_passes: true,
            reverse_sim: true,
            ..EngineConfig::default()
        };
        let r = sim_sweep(&m, &exec(), &cfg);
        assert_eq!(r.verdict, Verdict::Equivalent);
    }

    #[test]
    fn over_budget_tables_preserve_verdicts() {
        // The miter exercises G rounds, refinement, rewrites and resim;
        // a memory budget its signature tables cannot fit (maximal
        // retirement, then roughly half a table) must land on the same
        // verdict and reduction as the default, where everything fits.
        let m = miter(&adder(20, true), &adder(20, false)).unwrap();
        let e = exec();
        let base = sim_sweep(&m, &e, &EngineConfig::default());
        assert_eq!(base.verdict, Verdict::Equivalent);
        assert_eq!(e.stats().window_spills, 0, "the default budget fits");
        for memory_words in [1, 1 << 10] {
            let cfg = EngineConfig {
                memory_words,
                ..EngineConfig::default()
            };
            let e = exec();
            let r = sim_sweep(&m, &e, &cfg);
            assert!(e.stats().window_spills > 0, "budget {memory_words}");
            assert_eq!(r.verdict, base.verdict, "budget {memory_words}");
            assert_eq!(
                r.stats.final_ands, base.stats.final_ands,
                "budget {memory_words}"
            );
        }
    }

    #[test]
    fn over_budget_tables_preserve_disproofs() {
        let a = adder(6, true);
        let mut b = adder(6, true);
        let po0 = b.po(0);
        b.set_po(0, !po0);
        let m = miter(&a, &b).unwrap();
        let cfg = EngineConfig {
            memory_words: 1,
            ..EngineConfig::default()
        };
        let r = sim_sweep(&m, &exec(), &cfg);
        match r.verdict {
            Verdict::NotEquivalent(cex) => assert!(cex.fires(&m)),
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn reverse_sim_splits_wide_constant_candidates() {
        // Two deep AND cones over 24 inputs: random simulation leaves
        // both in the constant class, their support exceeds k_g, and with
        // k_P shrunk below 24 the P phase cannot separate them either.
        // Reverse simulation justifies a 1 and splits the class.
        let mut aig = Aig::new();
        let xs = aig.add_inputs(24);
        let f = aig.and_all(xs.iter().copied());
        let mut g = xs[23];
        for &x in xs[..23].iter().rev() {
            g = aig.and(x, g);
        }
        let mi = aig.xor(f, g);
        aig.add_po(mi);
        let cfg = EngineConfig {
            k_po_all: 8,
            k_po: 8,
            k_g: 8,
            reverse_sim: true,
            ..EngineConfig::default()
        };
        let r = sim_sweep(&aig, &exec(), &cfg);
        // f and g are equivalent; with reverse simulation the engine must
        // not *disprove*, and the directed patterns let later phases see
        // the pair as non-constant (disproved_pairs counts the splits).
        assert!(!matches!(r.verdict, Verdict::NotEquivalent(_)));
        assert!(r.stats.disproved_pairs > 0, "stats: {:?}", r.stats);
    }
}
