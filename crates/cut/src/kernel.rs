//! Level-parallel priority-cut computation on the device runtime.
//!
//! The paper computes `P(n)` for all nodes of one enumeration level as a
//! single GPU kernel (Algorithm 2 line 7). [`CutKernel`] packages the
//! read-only kernel state (network, representative map, scorer, selection
//! parameters) once per pass; [`CutKernel::compute_level`] then runs one
//! launch per enumeration level, writing the selected priority cuts into
//! the caller's cut-set table.
//!
//! A task's work is its node's Eq. (1) candidates: the fanin cut sets are
//! merged in place, duplicates are rejected by signature and size before
//! their leaves are compared, and each candidate is scored once (its
//! similarity and metrics become a key) before the top `c` are selected.

use parsweep_aig::{Aig, Node, Var};
use parsweep_par::{Effect, EffectTable, Executor, Pattern};

use crate::{enumerate_cuts, select_priority_cuts, Cut, CutParams, CutScorer, Pass};

/// Read-only state of the priority-cut kernel for one selection pass.
pub struct CutKernel<'a> {
    aig: &'a Aig,
    repr_map: &'a [Option<Var>],
    similarity: bool,
    scorer: CutScorer<'a>,
    params: CutParams,
    pass: Pass,
}

impl<'a> CutKernel<'a> {
    /// Builds the kernel state.
    ///
    /// `repr_map[v]` names the class representative of a non-representative
    /// node `v`; when `similarity` is set, a member's cut selection aligns
    /// with its representative's priority cuts (paper §III-C1).
    pub fn new(
        aig: &'a Aig,
        repr_map: &'a [Option<Var>],
        similarity: bool,
        scorer: CutScorer<'a>,
        params: CutParams,
        pass: Pass,
    ) -> Self {
        CutKernel {
            aig,
            repr_map,
            similarity,
            scorer,
            params,
            pass,
        }
    }

    /// Computes the priority-cut sets of every AND node in `group` (one
    /// enumeration level) in parallel, writing into `cut_sets`.
    ///
    /// All fanins and representatives of `group` members must already have
    /// their slots written (they sit at strictly smaller enumeration
    /// levels, so level-order calls guarantee this).
    ///
    /// # Panics
    ///
    /// Panics if a member of `group` is not an AND node.
    pub fn compute_level(&self, exec: &Executor, group: &[Var], cut_sets: &mut [Vec<Cut>]) {
        // Declared effects: task t reads fanin / representative slots
        // (strictly lower enumeration levels, written before this call)
        // and writes only its own node's slot — data-dependent disjoint
        // chunks over the whole table. Statically verified, so the
        // launch runs the parallel fast path even when sanitizing.
        let table = EffectTable::new();
        let sets_buf = table.buffer("cut.kernel.sets", cut_sets.len());
        let all = Pattern::Indexed {
            lo: 0,
            hi: cut_sets.len(),
        };
        let effects = [Effect::read(sets_buf, all), Effect::write(sets_buf, all)];
        let cells = exec.bind_table(&table, sets_buf, cut_sets);
        let cells = &cells;
        exec.launch_declared(&table, "cut.kernel.level", group.len(), &effects, |t| {
            let v = group[t];
            let Node::And(a, b) = self.aig.node(v) else {
                unreachable!("groups contain AND nodes only");
            };
            // SAFETY: fanins and representatives have strictly smaller
            // enumeration levels, so their slots were written by earlier
            // launches; this task writes only slot v.
            let p0: &Vec<Cut> = unsafe { cells.get_ref(t, a.var().index()) };
            // SAFETY: as above.
            let p1: &Vec<Cut> = unsafe { cells.get_ref(t, b.var().index()) };
            let candidates = enumerate_cuts(a, b, p0, p1, self.params);
            let repr_cuts: Option<&Vec<Cut>> = self.repr_map[v.index()].and_then(|r| {
                if self.similarity && !r.is_const() {
                    // SAFETY: representatives sit at strictly smaller
                    // enumeration levels, written by earlier launches.
                    Some(unsafe { cells.get_ref(t, r.index()) })
                } else {
                    None
                }
            });
            let selected = select_priority_cuts(
                candidates,
                &self.scorer,
                self.pass,
                self.params,
                repr_cuts.map(|c| c.as_slice()),
            );
            // SAFETY: this task writes only slot v; no other task in this
            // launch touches v.
            unsafe { cells.write(t, v.index(), selected) };
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: sequential cut computation for one node.
    fn sequential_cuts(
        aig: &Aig,
        scorer: &CutScorer<'_>,
        pass: Pass,
        params: CutParams,
        cut_sets: &[Vec<Cut>],
        v: Var,
    ) -> Vec<Cut> {
        let Node::And(a, b) = aig.node(v) else {
            panic!("not an AND");
        };
        let candidates = enumerate_cuts(
            a,
            b,
            &cut_sets[a.var().index()],
            &cut_sets[b.var().index()],
            params,
        );
        select_priority_cuts(candidates, scorer, pass, params, None)
    }

    #[test]
    fn kernel_matches_sequential_reference() {
        let aig = parsweep_aig::random::random_aig(5, 40, 3, 21);
        let exec = Executor::with_threads(2);
        let fanouts = aig.fanout_counts();
        let levels = aig.levels();
        let params = CutParams::default();
        let repr_map: Vec<Option<Var>> = vec![None; aig.num_nodes()];
        let groups = {
            let max = levels.iter().copied().max().unwrap_or(0) as usize;
            let mut g: Vec<Vec<Var>> = vec![Vec::new(); max + 1];
            for v in aig.and_vars() {
                g[levels[v.index()] as usize].push(v);
            }
            g
        };

        let seed = |sets: &mut [Vec<Cut>]| {
            for &pi in aig.pis() {
                sets[pi.index()] = vec![Cut::trivial(pi)];
            }
        };

        // Kernel path.
        let mut kernel_sets: Vec<Vec<Cut>> = vec![Vec::new(); aig.num_nodes()];
        seed(&mut kernel_sets);
        let scorer = CutScorer::new(&fanouts, &levels);
        let kernel = CutKernel::new(&aig, &repr_map, false, scorer, params, Pass::Fanout);
        for group in groups.iter().skip(1) {
            kernel.compute_level(&exec, group, &mut kernel_sets);
        }

        // Sequential reference path.
        let mut ref_sets: Vec<Vec<Cut>> = vec![Vec::new(); aig.num_nodes()];
        seed(&mut ref_sets);
        let scorer = CutScorer::new(&fanouts, &levels);
        for group in groups.iter().skip(1) {
            for &v in group {
                ref_sets[v.index()] =
                    sequential_cuts(&aig, &scorer, Pass::Fanout, params, &ref_sets, v);
            }
        }

        assert_eq!(kernel_sets, ref_sets);
        assert!(exec.stats().total_launches() > 0);
    }

    /// Enumerates one network's cuts level by level on `exec`.
    fn enumerate_on(exec: &Executor) -> Vec<Vec<Cut>> {
        let aig = parsweep_aig::random::random_aig(4, 30, 3, 5);
        let fanouts = aig.fanout_counts();
        let levels = aig.levels();
        let params = CutParams::default();
        let repr_map: Vec<Option<Var>> = vec![None; aig.num_nodes()];
        let mut sets: Vec<Vec<Cut>> = vec![Vec::new(); aig.num_nodes()];
        for &pi in aig.pis() {
            sets[pi.index()] = vec![Cut::trivial(pi)];
        }
        let scorer = CutScorer::new(&fanouts, &levels);
        let kernel = CutKernel::new(&aig, &repr_map, false, scorer, params, Pass::Fanout);
        let max = levels.iter().copied().max().unwrap_or(0) as usize;
        let mut groups: Vec<Vec<Var>> = vec![Vec::new(); max + 1];
        for v in aig.and_vars() {
            groups[levels[v.index()] as usize].push(v);
        }
        for group in groups.iter().skip(1) {
            kernel.compute_level(exec, group, &mut sets);
        }
        sets
    }

    #[test]
    fn kernel_is_statically_verified_on_sanitizing_executor() {
        // Audited (fail-fast): every access of every cut launch is inside
        // its declaration, and nothing counts as run in parallel.
        let san = Executor::with_sanitizer(2);
        let audited = enumerate_on(&san);
        assert!(san.take_reports().is_empty());
        assert!(san.stats().total_launches() > 0);
        assert_eq!(san.stats().static_verified_launches, 0);

        // Raw: same cuts, every launch on the parallel path (ambient
        // PARSWEEP_SANITIZE makes this executor a sanitizing one too).
        let raw = Executor::with_threads(2);
        assert_eq!(enumerate_on(&raw), audited);
        if !raw.sanitizing() {
            let stats = raw.stats();
            assert_eq!(stats.static_verified_launches, stats.total_launches());
        }
    }
}
