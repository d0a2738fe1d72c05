//! Equivalence-class management for the engine.

use parsweep_aig::{Aig, Lit, Var};
use parsweep_par::Executor;
use parsweep_sim::{
    refine_classes, signature_classes, signature_classes_among, simulate_cone, Fanouts,
    OdcCandidate, OdcMasks, PairCheck, Patterns, ResimPlan, Signatures,
};

/// The engine's EC manager: wraps partial-simulation signatures and the
/// derived equivalence classes, and produces candidate pairs.
///
/// The signature table it holds is the *base* table the classes were
/// derived from. Incremental rounds never rebuild it from scratch: fresh
/// patterns refine the classes in place ([`EcManager::refine_with`]) and
/// miter rewrites carry the table over by dirty-cone resimulation
/// ([`EcManager::rebuild`]).
#[derive(Debug)]
pub struct EcManager {
    classes: Vec<Vec<Var>>,
    sigs: Signatures,
    /// Nodes the construction actually simulated: `Some(cone size)` for
    /// the pruned constructor, `None` for a full build.
    simulated_nodes: Option<usize>,
    /// Table budget in words (the paper's `M`) every simulation this
    /// manager runs is sized against.
    memory_words: usize,
}

impl EcManager {
    /// Builds classes by simulating `patterns` on the miter, with at most
    /// `memory_words` table words device-resident (also the budget of
    /// every later refinement and resimulation round).
    pub fn from_patterns(
        aig: &Aig,
        exec: &Executor,
        patterns: &Patterns,
        memory_words: usize,
    ) -> Self {
        let (sigs, _) = simulate_cone(aig, exec, patterns, None, memory_words);
        let classes = signature_classes(aig, &sigs);
        EcManager {
            classes,
            sigs,
            simulated_nodes: None,
            memory_words,
        }
    }

    /// Builds classes among `candidates` only, simulating just their TFI
    /// cone (plus `extra_live` nodes kept simulated but never clustered —
    /// the miter POs, whose counter-example scan must read real words).
    ///
    /// The constant node always participates, so candidates whose fresh
    /// signature is constant still bucket against it.
    pub fn from_patterns_pruned(
        aig: &Aig,
        exec: &Executor,
        patterns: &Patterns,
        candidates: &[Var],
        extra_live: &[Var],
        memory_words: usize,
    ) -> Self {
        let mut live: Vec<Var> = candidates.iter().chain(extra_live).copied().collect();
        live.sort_unstable();
        live.dedup();
        let (sigs, covered) = simulate_cone(aig, exec, patterns, Some(&live), memory_words);
        let mut among: Vec<Var> = std::iter::once(Var::FALSE)
            .chain(candidates.iter().copied())
            .collect();
        among.sort_unstable();
        among.dedup();
        let classes = signature_classes_among(&sigs, &among);
        EcManager {
            classes,
            sigs,
            simulated_nodes: Some(covered),
            memory_words,
        }
    }

    /// How many nodes the pruned constructor simulated (`None` after a
    /// full build).
    pub fn simulated_nodes(&self) -> Option<usize> {
        self.simulated_nodes
    }

    /// All undecided class members, sorted — the live set a pruned
    /// simulation round needs to cover.
    pub fn live_vars(&self) -> Vec<Var> {
        let mut out: Vec<Var> = self.classes.iter().flatten().copied().collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Refines the classes in place from one fresh round of patterns,
    /// simulating only the live cone (class members plus `extra_live`).
    ///
    /// With `odc = Some((fanouts, limit))`, observability care masks are
    /// computed over the fresh table before refinement, and pairs whose
    /// split was entirely unobservable come back as [`OdcCandidate`]s (at
    /// most `limit`) for the engine's exact replaceability check.
    /// Splitting itself is unchanged.
    ///
    /// Returns the fresh live-cone table (valid for the live set — e.g.
    /// for a PO counter-example scan when `extra_live` holds the PO
    /// vars), the number of classes that split or shrank, the cone size
    /// the round actually simulated, and the ODC candidates.
    pub fn refine_with(
        &mut self,
        aig: &Aig,
        exec: &Executor,
        patterns: &Patterns,
        extra_live: &[Var],
        odc: Option<(&Fanouts, usize)>,
    ) -> (Signatures, usize, usize, Vec<OdcCandidate>) {
        let mut live = self.live_vars();
        live.extend_from_slice(extra_live);
        live.sort_unstable();
        live.dedup();
        let (fresh, covered) = simulate_cone(aig, exec, patterns, Some(&live), self.memory_words);
        let masks = odc.map(|(fanouts, _)| OdcMasks::compute(aig, exec, &fresh, fanouts));
        let odc = masks.as_ref().zip(odc.map(|(_, limit)| limit));
        let (refined, candidates) = refine_classes(&mut self.classes, &self.sigs, &fresh, odc);
        (fresh, refined, covered, candidates)
    }

    /// Carries the EC state across a miter rewrite
    /// (`new = old.rebuild_with_substitution(subst)`, with `map` the
    /// old→new literal map rebuild returned): the base table is
    /// resimulated dirty-cone-only under the original `patterns`, and
    /// class members are renamed through `map` (merged members collapse
    /// onto their representative's image; members dropped or folded to a
    /// constant leave their class).
    ///
    /// Substitutions of the old variables in `exempt` (ODC merges proven
    /// PO-preserving by [`parsweep_sim::check_replaceable`]) do not dirty
    /// their TFO — the memoized words stay, stale only in unobservable
    /// bits.
    ///
    /// Returns the resim plan's `(clean, dirty)` node counts.
    #[allow(clippy::too_many_arguments)]
    pub fn rebuild(
        &mut self,
        old: &Aig,
        new: &Aig,
        map: &[Lit],
        subst: &[Lit],
        exempt: &[Var],
        exec: &Executor,
        patterns: &Patterns,
    ) -> (usize, usize) {
        let plan = ResimPlan::new(old, new, map, subst, exempt);
        self.sigs = plan.resimulate(new, exec, patterns, &self.sigs, self.memory_words);
        let mut classes: Vec<Vec<Var>> = Vec::with_capacity(self.classes.len());
        for class in self.classes.drain(..) {
            let mut members: Vec<Var> = class
                .into_iter()
                .filter_map(|m| {
                    let lit = map[m.index()];
                    if lit.is_const() {
                        // Only the constant class's own representative
                        // legitimately maps to a constant; anything else
                        // was merged away or dropped by the rewrite.
                        m.is_const().then_some(Var::FALSE)
                    } else {
                        Some(lit.var())
                    }
                })
                .collect();
            members.sort_unstable();
            members.dedup();
            if members.len() >= 2 {
                classes.push(members);
            }
        }
        classes.sort_by_key(|c| c[0]);
        self.classes = classes;
        (plan.num_clean(), plan.num_dirty())
    }

    /// The underlying signatures.
    pub fn signatures(&self) -> &Signatures {
        &self.sigs
    }

    /// The equivalence classes (each sorted, representative first).
    pub fn classes(&self) -> &[Vec<Var>] {
        &self.classes
    }

    /// Total number of candidate pairs implied by the classes.
    pub fn num_pairs(&self) -> usize {
        self.classes.iter().map(|c| c.len() - 1).sum()
    }

    /// Candidate pairs `(representative, member)` with their relative
    /// complement, skipping members that cannot be merged (non-AND nodes).
    pub fn pairs(&self, aig: &Aig) -> Vec<PairCheck> {
        let mut out = Vec::with_capacity(self.num_pairs());
        for class in &self.classes {
            let repr = class[0];
            for &member in &class[1..] {
                if !aig.node(member).is_and() {
                    continue;
                }
                out.push(PairCheck {
                    a: repr,
                    b: member,
                    complement: self.sigs.phase(repr) != self.sigs.phase(member),
                });
            }
        }
        out
    }

    /// The representative of each non-representative node, for the
    /// enumeration levels of Eq. (2).
    pub fn repr_map(&self, num_nodes: usize) -> Vec<Option<Var>> {
        let mut map = vec![None; num_nodes];
        for class in &self.classes {
            let repr = class[0];
            for &member in &class[1..] {
                map[member.index()] = Some(repr);
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsweep_aig::Aig;
    use parsweep_sim::DEFAULT_MEMORY_WORDS;

    fn setup() -> (Aig, EcManager) {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(3);
        let f = aig.and(xs[0], xs[1]);
        let t = aig.or(xs[0], xs[1]);
        let g = aig.and(t, f); // == f
        aig.add_po(g);
        aig.add_po(f);
        let exec = Executor::with_threads(1);
        let patterns = Patterns::random(3, 4, 7);
        let ec = EcManager::from_patterns(&aig, &exec, &patterns, DEFAULT_MEMORY_WORDS);
        (aig, ec)
    }

    #[test]
    fn pairs_have_min_id_representative() {
        let (aig, ec) = setup();
        for p in ec.pairs(&aig) {
            assert!(p.a < p.b);
        }
    }

    #[test]
    fn repr_map_marks_non_representatives() {
        let (aig, ec) = setup();
        let map = ec.repr_map(aig.num_nodes());
        let marked = map.iter().filter(|m| m.is_some()).count();
        assert_eq!(marked, ec.num_pairs());
    }

    #[test]
    fn pruned_build_matches_full_for_the_candidates() {
        let (aig, full) = setup();
        let exec = Executor::with_threads(1);
        let patterns = Patterns::random(3, 4, 7);
        let candidates = full.live_vars();
        let pruned = EcManager::from_patterns_pruned(
            &aig,
            &exec,
            &patterns,
            &candidates,
            &[],
            DEFAULT_MEMORY_WORDS,
        );
        assert_eq!(pruned.classes(), full.classes());
        assert!(pruned.simulated_nodes().unwrap() <= aig.num_nodes());
    }

    #[test]
    fn rebuild_carries_classes_across_a_rewrite() {
        // Three copies of a & b plus an unrelated node: merge one copy
        // away and check the class follows the rewrite.
        let mut aig = Aig::new();
        let xs = aig.add_inputs(3);
        let f = aig.and(xs[0], xs[1]);
        let t = aig.or(xs[0], xs[1]);
        let g = aig.and(t, f);
        let h = aig.and(g, f);
        aig.add_po(g);
        aig.add_po(h);
        aig.add_po(!f);
        let exec = Executor::with_threads(1);
        let patterns = Patterns::random(3, 4, 7);
        let mut ec = EcManager::from_patterns(&aig, &exec, &patterns, DEFAULT_MEMORY_WORDS);
        let class: Vec<Var> = ec
            .classes()
            .iter()
            .find(|c| c.contains(&f.var()))
            .expect("f, g, h share a class")
            .clone();
        assert!(class.len() >= 3, "class: {class:?}");
        // Merge the largest member into the representative.
        let (&member, repr) = (class.last().unwrap(), class[0]);
        let mut subst: Vec<parsweep_aig::Lit> = (0..aig.num_nodes())
            .map(|i| Var::new(i as u32).lit())
            .collect();
        subst[member.index()] = repr.lit();
        let (reduced, map) = aig.rebuild_with_substitution(&subst);
        let (clean, dirty) = ec.rebuild(&aig, &reduced, &map, &subst, &[], &exec, &patterns);
        assert!(clean > 0);
        assert_eq!(clean + dirty + 1, reduced.num_nodes());
        // The surviving class relates the images of the unmerged members,
        // with signatures valid over the rewritten network.
        let fresh = parsweep_sim::simulate(&reduced, &exec, &patterns);
        for class in ec.classes() {
            for &m in class {
                assert_eq!(
                    ec.signatures().sig(m),
                    fresh.sig(m),
                    "carried words of {m:?} must match a from-scratch resim"
                );
            }
        }
        let f_img = map[f.var().index()].var();
        assert!(
            ec.classes().iter().any(|c| c.contains(&f_img)),
            "classes: {:?}",
            ec.classes()
        );
    }

    #[test]
    fn equal_nodes_form_a_pair() {
        let (aig, ec) = setup();
        let pairs = ec.pairs(&aig);
        assert!(!pairs.is_empty());
        // All pairs relate semantically equal (or complementary) nodes
        // under exhaustive evaluation.
        for p in pairs {
            for v in 0..8u32 {
                let bits = [(v & 1) != 0, (v & 2) != 0, (v & 4) != 0];
                let values = aig.eval_nodes(&bits);
                let va = values[p.a.index()];
                let vb = values[p.b.index()];
                assert_eq!(va, vb != p.complement, "pair {p:?}");
            }
        }
    }
}
