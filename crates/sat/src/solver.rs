//! A CDCL SAT solver: two-watched-literal propagation, 1-UIP conflict
//! learning, VSIDS decisions, phase saving and Luby restarts — the
//! solver underneath the SAT-sweeping baseline (the role MiniSat-style
//! solvers play inside ABC `&cec`).
//!
//! Each watch carries a *blocker*, another literal of its clause: when the
//! blocker is true the clause is satisfied and propagation skips it without
//! reading the clause arena. For a binary clause the blocker is the other
//! literal, so the clause propagates (or conflicts) from the watch alone.
//! A clause in the arena is a header word (its length, top bit set for a
//! learned clause) followed by its literals.

use crate::heap::VarOrder;
use crate::slit::{LBool, SatLit, SatVar};

const NULL_CLAUSE: u32 = u32::MAX;
const ACTIVITY_RESCALE: f64 = 1e100;
/// Header bit of a learned clause; the other bits hold its length.
const LEARNED: u32 = 1 << 31;
/// Watch bit of a binary clause; the other bits hold its cref.
const BINARY: u32 = 1 << 31;

/// The length of the clause whose header word is `header`.
#[inline]
fn clause_len(header: u32) -> usize {
    (header & !LEARNED) as usize
}

/// One entry of a literal's watch list: a clause that watches the
/// literal, and a blocker literal of the same clause (for a binary clause,
/// the other literal).
#[derive(Clone, Copy, Debug)]
struct Watcher {
    /// The clause's cref, with [`BINARY`] set for a binary clause.
    tagged: u32,
    blocker: SatLit,
}

impl Watcher {
    #[inline]
    fn new(cref: u32, blocker: SatLit, binary: bool) -> Self {
        Watcher {
            tagged: if binary { cref | BINARY } else { cref },
            blocker,
        }
    }

    #[inline]
    fn cref(self) -> u32 {
        self.tagged & !BINARY
    }

    #[inline]
    fn is_binary(self) -> bool {
        self.tagged & BINARY != 0
    }
}

/// Result of a (budgeted) solve call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found (see [`Solver::model_value`]).
    Sat,
    /// The formula is unsatisfiable under the given assumptions.
    Unsat,
    /// The conflict budget was exhausted before a verdict.
    Unknown,
}

/// Counters exposed for benchmarking and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts encountered (over the solver's lifetime).
    pub conflicts: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Learned clauses recorded.
    pub learned: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learned-clause database reductions performed.
    pub reductions: u64,
}

/// A CDCL SAT solver.
///
/// ```
/// use parsweep_sat::{Solver, SolveResult};
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[a.pos(), b.pos()]);
/// s.add_clause(&[a.neg()]);
/// assert_eq!(s.solve(&[]), SolveResult::Sat);
/// assert_eq!(s.model_value(b), Some(true));
/// assert_eq!(s.solve(&[b.neg()]), SolveResult::Unsat);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Solver {
    db: Vec<u32>,
    watches: Vec<Vec<Watcher>>,
    assign: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<SatLit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarOrder,
    phase: Vec<bool>,
    seen: Vec<bool>,
    model: Vec<LBool>,
    ok: bool,
    stats: SolverStats,
    conflict_budget: Option<u64>,
    /// Learned clause bookkeeping for database reduction: (cref, activity).
    learned_clauses: Vec<(u32, f64)>,
    /// cref -> index into `learned_clauses`.
    learned_index: std::collections::HashMap<u32, usize>,
    cla_inc: f64,
    max_learned: usize,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            cla_inc: 1.0,
            max_learned: 4000,
            ok: true,
            ..Default::default()
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Limits the *total remaining* conflicts for subsequent solve calls;
    /// `None` removes the limit.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget.map(|b| self.stats.conflicts + b);
    }

    /// Sets the learned-clause count that triggers a database reduction
    /// (default 4000; the threshold grows geometrically afterwards).
    pub fn set_reduce_threshold(&mut self, threshold: usize) {
        self.max_learned = threshold.max(1);
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> SatVar {
        let v = SatVar::new(self.assign.len() as u32);
        self.assign.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(NULL_CLAUSE);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow(self.assign.len());
        self.order.insert(v.0, &self.activity);
        v
    }

    #[inline]
    fn value(&self, l: SatLit) -> LBool {
        let v = self.assign[l.var().index()];
        if l.is_neg() {
            v.negate()
        } else {
            v
        }
    }

    /// Adds a clause. Returns `false` if the formula became trivially
    /// unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if called at a non-root decision level.
    pub fn add_clause(&mut self, lits: &[SatLit]) -> bool {
        assert!(
            self.trail_lim.is_empty(),
            "clauses must be added at level 0"
        );
        if !self.ok {
            return false;
        }
        // Simplify: sort, dedup, drop false literals, detect tautology.
        let mut ls: Vec<SatLit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        let mut simplified = Vec::with_capacity(ls.len());
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return true; // tautology: l and !l both present
            }
            match self.value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop
                LBool::Undef => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(simplified[0], NULL_CLAUSE);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.alloc_clause(&simplified, false);
                true
            }
        }
    }

    fn alloc_clause(&mut self, lits: &[SatLit], learned: bool) -> u32 {
        let cref = self.db.len() as u32;
        // A watch keeps the binary flag in the cref's top bit.
        assert_eq!(cref & BINARY, 0, "the clause arena outgrew 2^31 words");
        self.db
            .push(lits.len() as u32 | if learned { LEARNED } else { 0 });
        for l in lits {
            self.db.push(l.0);
        }
        self.watch(cref, lits[0], lits[1], lits.len() == 2);
        cref
    }

    /// Attaches clause `cref` to the watch lists of its first two literals
    /// `a` and `b`, each the other's blocker.
    fn watch(&mut self, cref: u32, a: SatLit, b: SatLit, binary: bool) {
        self.watches[a.index()].push(Watcher::new(cref, b, binary));
        self.watches[b.index()].push(Watcher::new(cref, a, binary));
    }

    fn enqueue(&mut self, l: SatLit, reason: u32) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        let v = l.var().index();
        self.assign[v] = LBool::from_bool(!l.is_neg());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn backtrack(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        while self.trail.len() > bound {
            let l = self.trail.pop().expect("trail nonempty");
            let v = l.var().index();
            self.phase[v] = !l.is_neg();
            self.assign[v] = LBool::Undef;
            self.reason[v] = NULL_CLAUSE;
            self.order.insert(l.var().0, &self.activity);
        }
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        let mut conflict = None;
        while conflict.is_none() && self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let (mut i, mut j) = (0, 0);
            'watches: while i < ws.len() {
                let w = ws[i];
                i += 1;
                let blocker = self.value(w.blocker);
                if blocker == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                if w.is_binary() {
                    ws[j] = w;
                    j += 1;
                    if blocker == LBool::False {
                        conflict = Some(w.cref());
                        break;
                    }
                    self.enqueue(w.blocker, w.cref());
                    continue;
                }
                let cref = w.cref() as usize;
                let base = cref + 1;
                // Normalize: false_lit at slot 1.
                if self.db[base] == false_lit.0 {
                    self.db.swap(base, base + 1);
                }
                debug_assert_eq!(self.db[base + 1], false_lit.0);
                let first = SatLit(self.db[base]);
                let kept = Watcher::new(w.cref(), first, false);
                if first != w.blocker && self.value(first) == LBool::True {
                    ws[j] = kept;
                    j += 1;
                    continue;
                }
                // Look for a replacement watch.
                for k in 2..clause_len(self.db[cref]) {
                    let lk = SatLit(self.db[base + k]);
                    if self.value(lk) != LBool::False {
                        self.db[base + 1] = lk.0;
                        self.db[base + k] = false_lit.0;
                        self.watches[lk.index()].push(kept);
                        continue 'watches;
                    }
                }
                // Clause is unit or conflicting.
                ws[j] = kept;
                j += 1;
                if self.value(first) == LBool::False {
                    conflict = Some(w.cref());
                    break;
                }
                self.enqueue(first, w.cref());
            }
            // After a conflict, keep the watches not yet visited.
            ws.copy_within(i.., j);
            ws.truncate(j + ws.len() - i);
            self.watches[false_lit.index()] = ws;
        }
        if conflict.is_some() {
            self.qhead = self.trail.len();
        }
        conflict
    }

    fn bump(&mut self, v: SatVar) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > ACTIVITY_RESCALE {
            for a in &mut self.activity {
                *a /= ACTIVITY_RESCALE;
            }
            self.var_inc /= ACTIVITY_RESCALE;
        }
        self.order.increased(v.0, &self.activity);
    }

    /// 1-UIP conflict analysis; returns the learned clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, mut confl: u32) -> (Vec<SatLit>, u32) {
        let mut learned: Vec<SatLit> = vec![SatLit::default()];
        let mut path_c = 0u32;
        let mut p: Option<SatLit> = None;
        let mut idx = self.trail.len();
        loop {
            self.bump_clause(confl);
            let base = confl as usize + 1;
            let len = clause_len(self.db[confl as usize]);
            for k in 0..len {
                let q = SatLit(self.db[base + k]);
                // A reason clause holds the literal it implied; a binary
                // one, propagated from its watch, anywhere.
                if Some(q) == p {
                    continue;
                }
                let qv = q.var();
                if !self.seen[qv.index()] && self.level[qv.index()] > 0 {
                    self.seen[qv.index()] = true;
                    self.bump(qv);
                    if self.level[qv.index()] >= self.decision_level() {
                        path_c += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Find the next literal to expand.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let pv = self.trail[idx];
            p = Some(pv);
            self.seen[pv.var().index()] = false;
            path_c -= 1;
            if path_c == 0 {
                break;
            }
            confl = self.reason[pv.var().index()];
            debug_assert_ne!(confl, NULL_CLAUSE);
        }
        learned[0] = !p.expect("UIP exists");
        // Backtrack level: highest level among the other literals.
        let mut bt = 0u32;
        let mut at = 1usize;
        for (i, l) in learned.iter().enumerate().skip(1) {
            let lv = self.level[l.var().index()];
            if lv > bt {
                bt = lv;
                at = i;
            }
        }
        if learned.len() > 1 {
            learned.swap(1, at);
        }
        for l in &learned {
            self.seen[l.var().index()] = false;
        }
        (learned, bt)
    }

    fn bump_clause(&mut self, cref: u32) {
        if self.db[cref as usize] & LEARNED == 0 {
            return;
        }
        if let Some(&idx) = self.learned_index.get(&cref) {
            self.learned_clauses[idx].1 += self.cla_inc;
            if self.learned_clauses[idx].1 > ACTIVITY_RESCALE {
                for (_, a) in &mut self.learned_clauses {
                    *a /= ACTIVITY_RESCALE;
                }
                self.cla_inc /= ACTIVITY_RESCALE;
            }
        }
    }

    /// Deletes the low-activity half of the learned clauses and compacts
    /// the clause arena (MiniSat-style database reduction). Must run at
    /// decision level 0.
    fn reduce_db(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        self.stats.reductions += 1;
        // Level-0 assignments never need their reasons again (conflict
        // analysis skips level-0 literals), so clear them before crefs move.
        for l in &self.trail {
            self.reason[l.var().index()] = NULL_CLAUSE;
        }
        // Decide which learned clauses to keep: all short ones, plus the
        // most active half of the rest.
        let mut victims: Vec<(u32, f64)> = self
            .learned_clauses
            .iter()
            .copied()
            .filter(|&(cref, _)| clause_len(self.db[cref as usize]) > 3)
            .collect();
        victims.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let keep_half = victims.len() / 2;
        let drop: std::collections::HashSet<u32> =
            victims.iter().skip(keep_half).map(|&(c, _)| c).collect();

        // Compact the arena, remapping clause refs.
        let mut new_db: Vec<u32> = Vec::with_capacity(self.db.len());
        let mut remap: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        let mut cref = 0usize;
        while cref < self.db.len() {
            let len = clause_len(self.db[cref]);
            if !drop.contains(&(cref as u32)) {
                remap.insert(cref as u32, new_db.len() as u32);
                new_db.extend_from_slice(&self.db[cref..cref + 1 + len]);
            }
            cref += 1 + len;
        }
        self.db = new_db;
        // Rebuild watches.
        for w in &mut self.watches {
            w.clear();
        }
        let mut at = 0usize;
        while at < self.db.len() {
            let len = clause_len(self.db[at]);
            let (a, b) = (SatLit(self.db[at + 1]), SatLit(self.db[at + 2]));
            self.watch(at as u32, a, b, len == 2);
            at += 1 + len;
        }
        // Remap the learned bookkeeping.
        let old = std::mem::take(&mut self.learned_clauses);
        self.learned_index.clear();
        for (cref, act) in old {
            if let Some(&new_ref) = remap.get(&cref) {
                self.learned_index
                    .insert(new_ref, self.learned_clauses.len());
                self.learned_clauses.push((new_ref, act));
            }
        }
        // Grow the threshold geometrically.
        self.max_learned += self.max_learned / 2;
    }

    fn pick_branch(&mut self) -> Option<SatVar> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assign[v as usize] == LBool::Undef {
                return Some(SatVar::new(v));
            }
        }
        None
    }

    /// Solves under the given assumptions.
    ///
    /// Returns [`SolveResult::Unknown`] if the conflict budget runs out;
    /// after [`SolveResult::Sat`], [`Solver::model_value`] exposes the
    /// model. The solver is reusable after any outcome.
    pub fn solve(&mut self, assumptions: &[SatLit]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.backtrack(0);
        let mut restart_unit = 0u64;
        let restart_base = 100u64;
        let mut conflicts_since_restart = 0u64;
        let result = loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    break SolveResult::Unsat;
                }
                if self
                    .conflict_budget
                    .is_some_and(|b| self.stats.conflicts >= b)
                {
                    break SolveResult::Unknown;
                }
                let (learned, bt) = self.analyze(confl);
                self.backtrack(bt);
                if learned.len() == 1 {
                    self.enqueue(learned[0], NULL_CLAUSE);
                } else {
                    let cref = self.alloc_clause(&learned, true);
                    self.learned_index.insert(cref, self.learned_clauses.len());
                    self.learned_clauses.push((cref, self.cla_inc));
                    self.enqueue(learned[0], cref);
                }
                self.stats.learned += 1;
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
            } else if conflicts_since_restart >= restart_base * luby(restart_unit) {
                self.stats.restarts += 1;
                restart_unit += 1;
                conflicts_since_restart = 0;
                self.backtrack(0);
                if self.learned_clauses.len() > self.max_learned {
                    self.reduce_db();
                }
            } else if (self.decision_level() as usize) < assumptions.len() {
                let p = assumptions[self.decision_level() as usize];
                match self.value(p) {
                    LBool::True => self.new_decision_level(),
                    LBool::False => break SolveResult::Unsat,
                    LBool::Undef => {
                        self.new_decision_level();
                        self.enqueue(p, NULL_CLAUSE);
                    }
                }
            } else if let Some(v) = self.pick_branch() {
                self.stats.decisions += 1;
                self.new_decision_level();
                self.enqueue(v.lit(!self.phase[v.index()]), NULL_CLAUSE);
            } else {
                self.model = self.assign.clone();
                break SolveResult::Sat;
            }
        };
        self.backtrack(0);
        result
    }

    /// The value of a variable in the most recent model, or `None` if the
    /// last solve was not SAT (or the variable did not exist then).
    pub fn model_value(&self, v: SatVar) -> Option<bool> {
        match self.model.get(v.index()) {
            Some(LBool::True) => Some(true),
            Some(LBool::False) => Some(false),
            _ => None,
        }
    }
}

/// The Luby restart sequence: 1,1,2,1,1,2,4,...
fn luby(mut i: u64) -> u64 {
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != i {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[a.pos()]));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(a), Some(true));
        assert!(!s.add_clause(&[a.neg()]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn tautologies_are_ignored() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[a.pos(), a.neg()]));
        assert_eq!(s.solve(&[a.pos()]), SolveResult::Sat);
        assert_eq!(s.solve(&[a.neg()]), SolveResult::Sat);
    }

    #[test]
    fn pigeonhole_two_in_one_is_unsat() {
        // Two pigeons, one hole.
        let mut s = Solver::new();
        let p1 = s.new_var();
        let p2 = s.new_var();
        s.add_clause(&[p1.pos()]);
        s.add_clause(&[p2.pos()]);
        s.add_clause(&[p1.neg(), p2.neg()]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn xor_chain_sat_with_model() {
        // x0 ^ x1 = 1, x1 ^ x2 = 1, x0 = 1 => x1 = 0, x2 = 1.
        let mut s = Solver::new();
        let x: Vec<SatVar> = (0..3).map(|_| s.new_var()).collect();
        let xor1 = |s: &mut Solver, a: SatVar, b: SatVar| {
            s.add_clause(&[a.pos(), b.pos()]);
            s.add_clause(&[a.neg(), b.neg()]);
        };
        xor1(&mut s, x[0], x[1]);
        xor1(&mut s, x[1], x[2]);
        s.add_clause(&[x[0].pos()]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(x[0]), Some(true));
        assert_eq!(s.model_value(x[1]), Some(false));
        assert_eq!(s.model_value(x[2]), Some(true));
    }

    #[test]
    fn assumptions_are_temporary() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.pos(), b.pos()]);
        assert_eq!(s.solve(&[a.neg(), b.neg()]), SolveResult::Unsat);
        // Without assumptions the formula is still satisfiable.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.solve(&[a.neg()]), SolveResult::Sat);
        assert_eq!(s.model_value(b), Some(true));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn php_3_into_2_unsat() {
        // Pigeonhole 3 pigeons, 2 holes: forces real conflict analysis.
        let mut s = Solver::new();
        let mut x = [[SatVar::new(0); 2]; 3];
        for p in 0..3 {
            for h in 0..2 {
                x[p][h] = s.new_var();
            }
        }
        for p in 0..3 {
            s.add_clause(&[x[p][0].pos(), x[p][1].pos()]);
        }
        for h in 0..2 {
            for p1 in 0..3 {
                for p2 in p1 + 1..3 {
                    s.add_clause(&[x[p1][h].neg(), x[p2][h].neg()]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn budget_yields_unknown_on_hard_instance() {
        // Pigeonhole 7 into 6 with a budget of 1 conflict.
        let n = 7;
        let mut s = Solver::new();
        let mut x = vec![vec![SatVar::new(0); n - 1]; n];
        for (p, row) in x.iter_mut().enumerate() {
            for h in 0..n - 1 {
                row[h] = s.new_var();
                let _ = p;
            }
        }
        for p in 0..n {
            let clause: Vec<SatLit> = (0..n - 1).map(|h| x[p][h].pos()).collect();
            s.add_clause(&clause);
        }
        for h in 0..n - 1 {
            for p1 in 0..n {
                for p2 in p1 + 1..n {
                    s.add_clause(&[x[p1][h].neg(), x[p2][h].neg()]);
                }
            }
        }
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn random_3sat_models_are_valid() {
        // Deterministic pseudo-random 3-SAT at easy density; every SAT
        // answer's model must satisfy all clauses.
        let mut rng = parsweep_aig::random::SplitMix64::new(77);
        for round in 0..20 {
            let nv = 12;
            let nc = 30 + round;
            let mut s = Solver::new();
            let vars: Vec<SatVar> = (0..nv).map(|_| s.new_var()).collect();
            let mut clauses = Vec::new();
            for _ in 0..nc {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = vars[rng.below(nv)];
                    c.push(v.lit(rng.bool()));
                }
                clauses.push(c.clone());
                s.add_clause(&c);
            }
            match s.solve(&[]) {
                SolveResult::Sat => {
                    for c in &clauses {
                        let ok = c.iter().any(|l| {
                            let val = s.model_value(l.var()).unwrap();
                            val != l.is_neg()
                        });
                        assert!(ok, "model violates clause {c:?}");
                    }
                }
                SolveResult::Unsat => {}
                SolveResult::Unknown => panic!("no budget set"),
            }
        }
    }

    #[test]
    fn database_reduction_preserves_soundness() {
        // PHP(7 -> 6) with an aggressive reduction threshold: the solver
        // must still conclude UNSAT, and reductions must actually fire.
        let n = 7;
        let mut s = Solver::new();
        s.set_reduce_threshold(40);
        let mut x = vec![vec![SatVar::new(0); n - 1]; n];
        for row in x.iter_mut() {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &x {
            let clause: Vec<SatLit> = row.iter().map(|v| v.pos()).collect();
            s.add_clause(&clause);
        }
        #[allow(clippy::needless_range_loop)]
        for h in 0..n - 1 {
            for p1 in 0..n {
                for p2 in p1 + 1..n {
                    s.add_clause(&[x[p1][h].neg(), x[p2][h].neg()]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.stats().reductions > 0, "stats: {:?}", s.stats());
    }

    #[test]
    fn database_reduction_on_satisfiable_random_instances() {
        let mut rng = parsweep_aig::random::SplitMix64::new(3);
        for round in 0..6 {
            let nv = 30;
            let nc = 120;
            let mut s = Solver::new();
            s.set_reduce_threshold(20);
            let vars: Vec<SatVar> = (0..nv).map(|_| s.new_var()).collect();
            let mut clauses = Vec::new();
            for _ in 0..nc {
                let c: Vec<SatLit> = (0..3)
                    .map(|_| vars[rng.below(nv)].lit(rng.bool()))
                    .collect();
                clauses.push(c.clone());
                s.add_clause(&c);
            }
            if s.solve(&[]) == SolveResult::Sat {
                for c in &clauses {
                    assert!(
                        c.iter()
                            .any(|l| s.model_value(l.var()).unwrap() != l.is_neg()),
                        "round {round}: model violates {c:?}"
                    );
                }
            }
        }
    }

    /// True if the assignment `m` (bit `v` is variable `v`) satisfies
    /// `lits` as a clause.
    fn satisfies(m: u32, lits: &[SatLit]) -> bool {
        lits.iter()
            .any(|l| (m >> l.var().index() & 1 == 1) != l.is_neg())
    }

    /// Random mixed 2-/3-literal formulas over at most 12 variables, each
    /// solved incrementally under a series of random assumption sets: every
    /// SAT/UNSAT answer agrees with enumeration, every model satisfies the
    /// clauses and the assumptions. Half the solvers run with a tiny
    /// reduction threshold and reduce their learned clauses after every
    /// call (formulas this small never reach a restart, where a reduction
    /// would run by itself), so the next call runs on rebuilt watch lists:
    /// blockers, binary watches and remapped crefs.
    #[test]
    fn mixed_binary_ternary_formulas_under_assumptions_match_enumeration() {
        let mut rng = parsweep_aig::random::SplitMix64::new(0xb10c);
        for round in 0..400 {
            let nv = 4 + rng.below(9);
            let nc = nv * (3 + rng.below(3));
            let reduce = round % 2 == 1;
            let mut s = Solver::new();
            if reduce {
                s.set_reduce_threshold(1 + rng.below(4));
            }
            let vars: Vec<SatVar> = (0..nv).map(|_| s.new_var()).collect();
            let mut clauses: Vec<Vec<SatLit>> = Vec::new();
            for _ in 0..nc {
                let width = 2 + rng.below(2);
                let c: Vec<SatLit> = (0..width)
                    .map(|_| vars[rng.below(nv)].lit(rng.bool()))
                    .collect();
                s.add_clause(&c);
                clauses.push(c);
            }
            for call in 0..6 {
                let assumptions: Vec<SatLit> = (0..rng.below(4))
                    .map(|_| vars[rng.below(nv)].lit(rng.bool()))
                    .collect();
                let holds = |m: u32| {
                    clauses.iter().all(|c| satisfies(m, c))
                        && assumptions.iter().all(|&a| satisfies(m, &[a]))
                };
                let expect = (0..1u32 << nv).any(holds);
                match s.solve(&assumptions) {
                    SolveResult::Sat => {
                        assert!(expect, "round {round} call {call}: SAT, enumeration UNSAT");
                        let m = vars.iter().fold(0u32, |m, &v| {
                            m | u32::from(s.model_value(v).expect("model")) << v.index()
                        });
                        assert!(holds(m), "round {round} call {call}: model {m:#b} fails");
                    }
                    SolveResult::Unsat => {
                        assert!(!expect, "round {round} call {call}: UNSAT, enumeration SAT")
                    }
                    SolveResult::Unknown => panic!("no budget was set"),
                }
                if reduce && s.ok {
                    s.reduce_db();
                }
            }
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }
}
