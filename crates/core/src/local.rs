//! Local function checking: one cut generation and checking pass
//! (paper Algorithm 2).
//!
//! Priority cuts are computed for every node in *enumeration-level*
//! parallel order (Eq. 2), so a class representative's cuts exist before
//! its members select similarity-aligned cuts. Common cuts of each
//! candidate pair are pushed into a bounded buffer; whenever the buffer
//! fills, the exhaustive simulator checks the buffered local functions and
//! proved pairs are recorded for the end-of-phase miter reduction.

use parsweep_aig::{Aig, Lit, Var};
use parsweep_cut::{
    common_cuts, enumeration_groups, enumeration_levels, Cut, CutKernel, CutScorer, Pass,
};
use parsweep_par::{CancelToken, Executor};
use parsweep_sim::{PairCheck, PairOutcome, Window};

use crate::config::EngineConfig;
use crate::ec::EcManager;
use crate::engine::check_in_batches;
use crate::stats::EngineStats;

/// What every cut pass of one L phase shares: fanout counts and levels
/// for the scorer, and the AND nodes to enumerate grouped by enumeration
/// level (Eq. 2). All of it depends only on the network, the
/// representative map and the live cone, none of which changes between
/// the passes of a phase, so it is computed once per phase.
pub(crate) struct CutSetup {
    fanouts: Vec<u32>,
    levels: Vec<u32>,
    groups: Vec<Vec<Var>>,
}

impl CutSetup {
    /// With `live_cone` set (the TFI cone of the undecided class members),
    /// the groups skip every node outside it: cuts are only ever read
    /// inside a candidate pair's window cone, so dead regions of the miter
    /// cost nothing.
    pub(crate) fn new(aig: &Aig, repr_map: &[Option<Var>], live_cone: Option<&[Var]>) -> Self {
        let el = enumeration_levels(aig, repr_map);
        CutSetup {
            fanouts: aig.fanout_counts(),
            levels: aig.levels(),
            groups: enumeration_groups(aig, &el, live_cone),
        }
    }
}

/// Runs one cut generation and checking pass with the given Table-I
/// criteria, accumulating proved pairs into `subst`/`proved`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_cut_pass(
    aig: &Aig,
    exec: &Executor,
    cfg: &EngineConfig,
    pass: Pass,
    ec: &EcManager,
    repr_map: &[Option<Var>],
    setup: &CutSetup,
    subst: &mut [Lit],
    proved: &mut [bool],
    stats: &mut EngineStats,
    token: &CancelToken,
) {
    // Priority cut sets, leased from the executor's arena so successive
    // passes recycle one table; PIs seed with their trivial cut
    // (Algorithm 2 lines 4-5).
    let mut cut_sets = exec.arena().take::<Vec<Cut>>(aig.num_nodes());
    for &pi in aig.pis() {
        cut_sets[pi.index()] = vec![Cut::trivial(pi)];
    }
    let scorer = CutScorer::new(&setup.fanouts, &setup.levels);
    // Members always align their cut selection with their representative's
    // priority cuts (similarity selection, §III-C1).
    let kernel = CutKernel::new(aig, repr_map, true, scorer, cfg.cut, pass);

    let mut buffer: Vec<(PairCheck, Cut)> = Vec::with_capacity(cfg.cut_buffer_capacity);
    let sigs = ec.signatures();

    for group in setup.groups.iter().skip(1) {
        if group.is_empty() {
            continue;
        }
        // Enumeration-level boundary: the natural cancellation point —
        // cuts for lower levels are complete, higher levels untouched.
        if token.is_cancelled() {
            buffer.clear();
            break;
        }
        // Parallel priority-cut computation for this enumeration level.
        kernel.compute_level(exec, group, &mut cut_sets);

        // Generate the common cuts of pairs whose member sits at this
        // level, buffering for batched checking (Algorithm 2 lines 11-16).
        for &v in group {
            let Some(r) = repr_map[v.index()] else {
                continue;
            };
            if proved[v.index()] {
                continue;
            }
            let pair = PairCheck {
                a: r,
                b: v,
                complement: sigs.phase(r) != sigs.phase(v),
            };
            let cmn: Vec<Cut> = if r.is_const() {
                // Constant candidates: prove the member's local function
                // constant over its own priority cuts.
                cut_sets[v.index()].clone()
            } else {
                common_cuts(&cut_sets[r.index()], &cut_sets[v.index()], cfg.cut)
            };
            stats.common_cuts += cmn.len() as u64;
            for cut in cmn {
                buffer.push((pair, cut));
                if buffer.len() >= cfg.cut_buffer_capacity {
                    flush_buffer(aig, exec, cfg, &mut buffer, subst, proved, stats, token);
                }
            }
        }
    }
    flush_buffer(aig, exec, cfg, &mut buffer, subst, proved, stats, token);
}

/// Checks all buffered (pair, cut) local functions with the exhaustive
/// simulator and records proved pairs.
#[allow(clippy::too_many_arguments)]
fn flush_buffer(
    aig: &Aig,
    exec: &Executor,
    cfg: &EngineConfig,
    buffer: &mut Vec<(PairCheck, Cut)>,
    subst: &mut [Lit],
    proved: &mut [bool],
    stats: &mut EngineStats,
    token: &CancelToken,
) {
    if buffer.is_empty() {
        return;
    }
    let mut windows: Vec<Window> = Vec::new();
    for (pair, cut) in buffer.drain(..) {
        if proved[pair.b.index()] {
            continue;
        }
        // Cut leaves are sorted and deduplicated by construction, so the
        // window can skip its defensive re-sort.
        if let Some(w) = Window::for_sorted_inputs(aig, pair, cut.to_vars()) {
            windows.push(w);
        }
    }
    if windows.is_empty() {
        return;
    }
    let outcomes = check_in_batches(aig, exec, &windows, cfg, stats, token);
    for (w, win) in windows.iter().enumerate() {
        let pair = win.pairs[0];
        // A cancelled batch leaves this window's outcomes empty: record
        // nothing (no proof is the sound default).
        match outcomes[w].first() {
            None => continue,
            Some(PairOutcome::Equal) => {
                if !proved[pair.b.index()] {
                    proved[pair.b.index()] = true;
                    subst[pair.b.index()] = pair.a.lit_with(pair.complement);
                    stats.proved_pairs += 1;
                }
            }
            Some(PairOutcome::Mismatch { .. }) => {
                // Local mismatch may be a satisfiability don't-care: the
                // pair stays inconclusive (§III-C1).
                stats.inconclusive_checks += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsweep_sim::Patterns;

    fn exec() -> Executor {
        Executor::with_threads(1)
    }

    /// A miter-shaped network with an internal pair that global checking
    /// would need 2^20 patterns for, but a 3-input cut proves locally.
    fn wide_support_pair() -> (Aig, Var, Var) {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(20);
        // Deep shared base: three 6-7 input AND cones.
        let f = aig.and_all(xs[0..7].iter().copied());
        let g = aig.and_all(xs[7..14].iter().copied());
        let h = aig.and_all(xs[14..20].iter().copied());
        // Two structurally different but equal combinations of f, g, h.
        let fg = aig.and(f, g);
        let n1 = aig.and(fg, h);
        let gh = aig.and(g, h);
        let n2 = aig.and(f, gh);
        let mi = aig.xor(n1, n2);
        aig.add_po(mi);
        (aig, n1.var(), n2.var())
    }

    #[test]
    fn local_pass_proves_miter_nodes_constant() {
        // Random simulation puts the heavily-biased nodes into the
        // constant class; the local pass must then prove the miter's XOR
        // arms constant zero over SDC-revealing cuts (n1 and n2 agree on
        // every non-don't-care pattern), which empties the miter after
        // reduction.
        let (aig, _n1, n2) = wide_support_pair();
        let cfg = EngineConfig::default();
        let patterns = Patterns::random(aig.num_pis(), 8, 3);
        let ec = EcManager::from_patterns(&aig, &exec(), &patterns, cfg.memory_words);
        let repr_map = ec.repr_map(aig.num_nodes());
        assert!(
            repr_map[n2.index()].is_some(),
            "classes: {:?}",
            ec.classes()
        );
        let mut subst: Vec<Lit> = (0..aig.num_nodes())
            .map(|i| Var::new(i as u32).lit())
            .collect();
        let mut proved = vec![false; aig.num_nodes()];
        let mut stats = EngineStats::default();
        let setup = CutSetup::new(&aig, &repr_map, None);
        for pass in parsweep_cut::Pass::ALL {
            run_cut_pass(
                &aig,
                &exec(),
                &cfg,
                pass,
                &ec,
                &repr_map,
                &setup,
                &mut subst,
                &mut proved,
                &mut stats,
                &CancelToken::never(),
            );
        }
        assert!(stats.proved_pairs >= 1, "stats: {stats:?}");
        let (reduced, _) = aig.rebuild_with_substitution(&subst);
        assert!(parsweep_aig::is_proved(&reduced), "stats: {stats:?}");
    }

    #[test]
    fn proved_pairs_reduce_the_miter() {
        let (aig, _, _) = wide_support_pair();
        let cfg = EngineConfig::default();
        let r = crate::engine::sim_sweep(&aig, &exec(), &cfg);
        assert!(r.verdict.is_equivalent(), "stats: {:?}", r.stats);
    }
}
