//! Equivalence-class construction and in-place refinement from simulation
//! signatures.

use parsweep_aig::{Aig, Var};

use crate::partial::{hash_canonical_words, Signatures};

/// Clusters all nodes by phase-canonicalized signature.
///
/// Returns every class with at least two members, each sorted by id (the
/// minimum-id member — the paper's *representative* — first), ordered by
/// representative id. A node and its complement land in the same class;
/// the relative phase of two members is `sigs.phase(a) != sigs.phase(b)`.
pub fn signature_classes(aig: &Aig, sigs: &Signatures) -> Vec<Vec<Var>> {
    let all: Vec<Var> = (0..aig.num_nodes()).map(|i| Var::new(i as u32)).collect();
    signature_classes_among(sigs, &all)
}

/// Clusters only the given nodes by phase-canonicalized signature — the
/// companion of a live-cone [`crate::simulate_cone`], whose table is
/// meaningful only for cone members (dead nodes read as zero words that
/// would otherwise cluster into a bogus constant class).
///
/// Buckets come from the cached canonical-hash column (no rehash); the
/// exact canonical-word comparison runs only within a bucket. Same class
/// shape as [`signature_classes`]: sorted members, minimum-id
/// representative first, classes ordered by representative.
pub fn signature_classes_among(sigs: &Signatures, nodes: &[Var]) -> Vec<Vec<Var>> {
    use std::collections::HashMap;
    let mut buckets: HashMap<u64, Vec<Var>> = HashMap::new();
    for &v in nodes {
        buckets.entry(sigs.canonical_hash(v)).or_default().push(v);
    }
    let mut classes = Vec::new();
    for (_, mut members) in buckets {
        if members.len() < 2 {
            continue;
        }
        members.sort_unstable();
        // Split hash buckets by exact canonical signature.
        while members.len() >= 2 {
            let repr = members[0];
            let repr_sig: Vec<u64> = sigs.canonical(repr).collect();
            let (same, rest): (Vec<Var>, Vec<Var>) = members
                .into_iter()
                .partition(|&m| sigs.canonical(m).eq(repr_sig.iter().copied()));
            if same.len() >= 2 {
                classes.push(same);
            }
            members = rest;
        }
    }
    classes.sort_by_key(|c| c[0]);
    classes
}

/// Refines classes in place against a fresh round of signatures, instead
/// of rebucketing every node from scratch.
///
/// `base` is the table the classes were built from (it supplies each
/// member's *persistent* phase); `fresh` is the new round's table (a
/// live-cone table covering the class members suffices). Two members `a`,
/// `b` stay together iff the fresh patterns still support the class
/// relation `a == b ^ (phase_a != phase_b)` — i.e. their fresh words
/// agree after each is normalized by its own base phase.
///
/// The fast path hashes each member's normalized fresh words and leaves a
/// class untouched when every member hashes like its representative —
/// "split only classes containing a dirty member". (A 64-bit hash
/// collision can only *keep* a doomed candidate pair, which the
/// exhaustive prover later discharges; it can never produce a wrong
/// merge, since merges come from exhaustive simulation alone.)
///
/// Splinter groups keep the invariants of [`signature_classes`]: sorted
/// members, singletons dropped, classes ordered by representative.
/// Returns the number of classes that split or shrank.
pub fn refine_classes(classes: &mut Vec<Vec<Var>>, base: &Signatures, fresh: &Signatures) -> usize {
    use std::collections::HashMap;
    let normalized = |m: Var| {
        let mask = if base.phase(m) { u64::MAX } else { 0 };
        fresh.sig(m).iter().map(move |&w| w ^ mask)
    };
    let normalized_hash = |m: Var| hash_canonical_words(normalized(m));
    let mut refined = 0usize;
    let mut out: Vec<Vec<Var>> = Vec::with_capacity(classes.len());
    for class in classes.drain(..) {
        let repr = class[0];
        let repr_hash = normalized_hash(repr);
        if class[1..].iter().all(|&m| normalized_hash(m) == repr_hash) {
            out.push(class);
            continue;
        }
        refined += 1;
        // Regroup this class by exact normalized fresh words (hash
        // buckets first, exact compare within).
        let mut buckets: HashMap<u64, Vec<Var>> = HashMap::new();
        for &m in &class {
            buckets.entry(normalized_hash(m)).or_default().push(m);
        }
        for (_, mut members) in buckets {
            while members.len() >= 2 {
                let head_sig: Vec<u64> = normalized(members[0]).collect();
                let (same, rest): (Vec<Var>, Vec<Var>) = members
                    .into_iter()
                    .partition(|&m| normalized(m).eq(head_sig.iter().copied()));
                if same.len() >= 2 {
                    out.push(same);
                }
                members = rest;
            }
        }
    }
    out.sort_by_key(|c| c[0]);
    *classes = out;
    refined
}

/// Scans the PO signatures for a fired miter output and extracts the
/// distinguishing input pattern, if any.
///
/// Returns a counter-example as soon as some PO evaluates to 1 under one
/// of the simulated patterns (constant-true POs yield the all-zero
/// pattern).
pub fn find_po_counterexample(
    aig: &Aig,
    sigs: &Signatures,
    patterns: &crate::partial::Patterns,
) -> Option<crate::Cex> {
    use parsweep_aig::Lit;
    for &po in aig.pos() {
        if po == Lit::FALSE {
            continue;
        }
        if po == Lit::TRUE {
            return Some(crate::Cex::new(vec![false; aig.num_pis()]));
        }
        let mask = if po.is_complemented() { u64::MAX } else { 0 };
        for (w, &word) in sigs.sig(po.var()).iter().enumerate() {
            let fired = word ^ mask;
            if fired != 0 {
                let bit = fired.trailing_zeros() as usize;
                let p = w * 64 + bit;
                let inputs = (0..aig.num_pis())
                    .map(|i| patterns.word(i, p / 64) >> (p % 64) & 1 == 1)
                    .collect();
                return Some(crate::Cex::new(inputs));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partial::{simulate, Patterns};
    use parsweep_aig::Aig;
    use parsweep_par::Executor;

    #[test]
    fn clusters_equal_functions_and_complements() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(3);
        // Two structurally distinct forms of a & b: plain, and the
        // redundant (a | b) & (a & b).
        let f1 = aig.and(xs[0], xs[1]);
        let t = aig.or(xs[0], xs[1]);
        let g = aig.and(t, f1);
        aig.add_po(g);
        aig.add_po(!f1);
        let patterns = Patterns::random(3, 4, 9);
        let sigs = simulate(&aig, &Executor::with_threads(1), &patterns);
        let classes = signature_classes(&aig, &sigs);
        // f1 and g's var must share a class.
        let has = classes
            .iter()
            .any(|c| c.contains(&f1.var()) && c.contains(&g.var()));
        assert!(has, "classes: {classes:?}");
    }

    #[test]
    fn refine_splits_only_dirty_classes() {
        // xor(a,b) three ways plus and(a,b) twice: under one word of
        // patterns that never exercises a distinguishing input, all five
        // land together; a fresh round with the distinguishing pattern
        // must split exactly that one class.
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let x1 = aig.xor(xs[0], xs[1]);
        let o = aig.or(xs[0], xs[1]);
        let n = aig.and(xs[0], xs[1]);
        let x2 = aig.and(o, !n);
        aig.add_po(x1);
        aig.add_po(x2);
        aig.add_po(n);
        let exec = Executor::with_threads(1);
        // Base patterns: only the all-zero and all-one inputs, where XOR
        // is 0 and OR == AND — or/and/xor relations all degenerate.
        let base_p = Patterns::from_raw(2, 1, vec![0b10, 0b10]);
        let base = simulate(&aig, &exec, &base_p);
        let mut classes = signature_classes(&aig, &base);
        let before = classes.clone();
        // A fresh all-zero round changes nothing: zero classes refined.
        let dull = simulate(&aig, &exec, &Patterns::from_raw(2, 1, vec![0, 0]));
        assert_eq!(refine_classes(&mut classes, &base, &dull), 0);
        assert_eq!(classes, before);
        // A (0,1) pattern separates xor/or (true) from and (false).
        let sharp = simulate(&aig, &exec, &Patterns::from_raw(2, 1, vec![0, 1]));
        let refined = refine_classes(&mut classes, &base, &sharp);
        assert!(refined > 0, "classes: {classes:?}");
        for class in &classes {
            assert!(class.windows(2).all(|w| w[0] < w[1]));
            assert!(class.len() >= 2);
        }
    }

    #[test]
    fn representative_is_minimum_id() {
        let aig = parsweep_aig::random::random_aig(5, 60, 2, 8);
        let patterns = Patterns::random(5, 2, 3);
        let sigs = simulate(&aig, &Executor::with_threads(1), &patterns);
        for class in signature_classes(&aig, &sigs) {
            assert!(class.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
