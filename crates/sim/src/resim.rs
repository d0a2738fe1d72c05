//! Dirty-cone resimulation: keep a signature table alive across miter
//! rewrites.
//!
//! When FRAIG merges proved pairs and rebuilds the miter, the previous
//! round's `Signatures` table is *mostly* still correct: a node whose TFI
//! contains no replaced node computes exactly the same function in the
//! rewritten network, so its memoized words carry over verbatim. Only the
//! TFO of the replaced nodes — the *dirty frontier* — needs re-evaluating.
//! [`ResimPlan`] computes that split once per rewrite as one level
//! schedule (clean nodes copy, dirty nodes evaluate);
//! [`ResimPlan::resimulate`] hands it to the partial-simulation driver.

use parsweep_aig::{Aig, Lit, Node, Var};
use parsweep_par::Executor;

use crate::partial::{run_schedule, Patterns, Schedule, Signatures, Task};

/// The clean/dirty split of a rewritten network against its predecessor:
/// which new nodes inherit memoized signature words from an old node, and
/// which sit downstream of a substitution and must be re-launched.
///
/// Built from the outputs of `Aig::rebuild_with_substitution`: the old
/// network, the rewritten network, the old-variable→new-literal `map`,
/// and the substitution that drove the rewrite. A new node is *clean*
/// when it is the image of an old node that is neither substituted nor
/// downstream of a substituted node — its cone, hence its function, is
/// unchanged, so this holds even for unsound substitutions (which is what
/// lets a property test validate the plan under random merges).
#[derive(Debug)]
pub struct ResimPlan {
    /// Clean new nodes as [`Task::Copy`], dirty ones (and the constant
    /// node) as [`Task::Eval`], by topological level of the new network.
    schedule: Schedule,
    num_clean: usize,
    num_dirty: usize,
}

impl ResimPlan {
    /// Plans the resimulation of `new = old.rebuild_with_substitution(subst)`,
    /// where `map` is the old→new literal map that rebuild returned.
    ///
    /// Substitutions of the old variables listed in `exempt` do **not**
    /// seed taint: their TFO keeps its memoized words instead of
    /// re-evaluating. Only sound for substitutions *proven
    /// PO-function-preserving* (the ODC replaceability check): downstream
    /// words may then be stale in unobservable bits only, which PO cex
    /// scans never read and class refinement can at worst split on
    /// (splitting is always sound). An exempt node still never donates
    /// its own words.
    ///
    /// # Panics
    ///
    /// Panics if `map` or `subst` do not cover `old`'s nodes.
    pub fn new(old: &Aig, new: &Aig, map: &[Lit], subst: &[Lit], exempt: &[Var]) -> Self {
        assert_eq!(map.len(), old.num_nodes(), "map size mismatch");
        assert_eq!(subst.len(), old.num_nodes(), "substitution size mismatch");
        let mut exempted = vec![false; old.num_nodes()];
        for &v in exempt {
            exempted[v.index()] = true;
        }
        // Taint the substituted old nodes and everything downstream of
        // them (ascending ids: fanins are visited before fanouts).
        // Exempt substitutions (proven observability-preserving) are
        // not taint sources, but stay non-donors below.
        let mut substituted = vec![false; old.num_nodes()];
        let mut tainted = vec![false; old.num_nodes()];
        for (i, node) in old.nodes().iter().enumerate() {
            let downstream = match node {
                Node::And(a, b) => tainted[a.var().index()] || tainted[b.var().index()],
                _ => false,
            };
            substituted[i] = subst[i] != Var::new(i as u32).lit();
            tainted[i] = downstream || (substituted[i] && !exempted[i]);
        }
        // First clean old node mapping onto each new variable donates its
        // words. The constant node needs no donor (it evaluates to zero
        // words); tainted, substituted or dropped old nodes never donate.
        let mut source: Vec<Option<Lit>> = vec![None; new.num_nodes()];
        for (i, &lit) in map.iter().enumerate() {
            if tainted[i] || substituted[i] || lit.is_const() {
                continue;
            }
            let slot = &mut source[lit.var().index()];
            if slot.is_none() {
                *slot = Some(Var::new(i as u32).lit_with(lit.is_complemented()));
            }
        }
        let task = |(v, donor): (usize, &Option<Lit>)| {
            let var = Var::new(v as u32);
            donor.map_or(Task::Eval(var), |old_lit| Task::Copy(var, old_lit))
        };
        let num_clean = source.iter().flatten().count();
        ResimPlan {
            schedule: Schedule::by_level(&new.levels(), source.iter().enumerate().map(task)),
            num_clean,
            num_dirty: new.num_nodes() - 1 - num_clean,
        }
    }

    /// Number of new nodes that inherit memoized words.
    pub fn num_clean(&self) -> usize {
        self.num_clean
    }

    /// Number of new nodes on the dirty frontier (re-evaluated).
    pub fn num_dirty(&self) -> usize {
        self.num_dirty
    }

    /// Executes the plan under the table budget `budget_words` (see
    /// [`crate::simulate_cone`]): each level copies its clean nodes'
    /// words from `old_sigs` (complement folded in) and re-evaluates its
    /// dirty ones, on one stream.
    ///
    /// `old_sigs` must be the *full-coverage* table of the old network
    /// under exactly these `patterns` — the table [`crate::simulate`]
    /// produced, or a previous `resimulate` result (both cover every
    /// node). A live-cone table is not a valid donor.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width differs from `old_sigs`'s.
    pub fn resimulate(
        &self,
        new: &Aig,
        exec: &Executor,
        patterns: &Patterns,
        old_sigs: &Signatures,
        budget_words: usize,
    ) -> Signatures {
        assert_eq!(
            patterns.num_words(),
            old_sigs.num_words(),
            "resimulation patterns must match the memoized table"
        );
        run_schedule(
            new,
            exec,
            patterns,
            &self.schedule,
            Some(old_sigs),
            budget_words,
        )
    }
}
