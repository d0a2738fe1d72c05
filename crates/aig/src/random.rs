//! Deterministic pseudo-random AIG generation for tests and fuzzing.
//!
//! Uses an embedded SplitMix64 generator so the crate stays
//! dependency-free; all generation is reproducible from the seed.

use crate::{Aig, Lit, Node};

/// A tiny deterministic PRNG (SplitMix64), sufficient for structural
/// randomness in tests.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Returns a value uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Returns a uniformly random boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Generates a random combinational AIG with the requested interface.
///
/// Fanins are drawn from all previously created nodes with a bias toward
/// recent nodes, which yields deep, reconvergent structures similar to
/// optimized logic. The last `num_pos` created nodes drive the POs (with
/// random complementation).
///
/// # Panics
///
/// Panics if `num_pis == 0`.
pub fn random_aig(num_pis: usize, num_ands: usize, num_pos: usize, seed: u64) -> Aig {
    assert!(num_pis > 0, "a random AIG needs at least one input");
    let mut rng = SplitMix64::new(seed);
    let mut aig = Aig::with_capacity(1 + num_pis + num_ands);
    let mut lits: Vec<Lit> = (0..num_pis).map(|_| aig.add_input()).collect();
    let mut created = 0usize;
    let mut attempts = 0usize;
    while created < num_ands && attempts < num_ands * 8 {
        attempts += 1;
        // Bias toward recent nodes: pick from the last half most of the time.
        let pick = |rng: &mut SplitMix64, n: usize| {
            if n > 2 && rng.below(4) != 0 {
                n / 2 + rng.below(n - n / 2)
            } else {
                rng.below(n)
            }
        };
        let a = lits[pick(&mut rng, lits.len())].xor(rng.bool());
        let b = lits[pick(&mut rng, lits.len())].xor(rng.bool());
        let before = aig.num_nodes();
        let f = aig.and(a, b);
        if aig.num_nodes() > before {
            lits.push(f);
            created += 1;
        }
    }
    let n = lits.len();
    for k in 0..num_pos {
        let idx = n - 1 - (k % n.min(num_pos.max(1)));
        aig.add_po(lits[idx].xor(rng.bool()));
    }
    aig
}

/// A copy of `aig` with one fanin of its `pick`-th AND gate (modulo the
/// gate count) complemented — the single-gate mutant property tests
/// compare against brute force. Usually inequivalent to `aig`, sometimes
/// not: the flipped gate may be unobservable.
pub fn mutate_gate(aig: &Aig, pick: usize) -> Aig {
    let target = aig.and_vars().nth(pick % aig.num_ands().max(1));
    let mut out = Aig::with_capacity(aig.num_nodes());
    let mut map: Vec<Lit> = Vec::with_capacity(aig.num_nodes());
    for (i, node) in aig.nodes().iter().enumerate() {
        let lit = match *node {
            Node::Const => Lit::FALSE,
            Node::Input(_) => out.add_input(),
            Node::And(x, y) => {
                let fx = map[x.var().index()].xor(x.is_complemented());
                let fy = map[y.var().index()].xor(y.is_complemented());
                let flip = target.is_some_and(|t| t.index() == i);
                out.and(fx.xor(flip), fy)
            }
        };
        map.push(lit);
    }
    for po in aig.pos() {
        out.add_po(map[po.var().index()].xor(po.is_complemented()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutate_gate_keeps_the_interface_and_changes_the_function() {
        let a = random_aig(6, 40, 2, 7);
        let differs = (0..a.num_ands()).any(|pick| {
            let b = mutate_gate(&a, pick);
            assert_eq!((b.num_pis(), b.num_pos()), (a.num_pis(), a.num_pos()));
            (0..64u32).any(|v| {
                let bits: Vec<bool> = (0..6).map(|i| v >> i & 1 == 1).collect();
                a.eval(&bits) != b.eval(&bits)
            })
        });
        assert!(differs, "some single-gate mutant must be observable");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = random_aig(8, 50, 4, 42);
        let b = random_aig(8, 50, 4, 42);
        assert_eq!(a.num_nodes(), b.num_nodes());
        for v in 0..16u32 {
            let bits: Vec<bool> = (0..8).map(|i| v >> i & 1 == 1).collect();
            assert_eq!(a.eval(&bits), b.eval(&bits));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_aig(8, 60, 2, 1);
        let b = random_aig(8, 60, 2, 2);
        let same = (0..256u32).all(|v| {
            let bits: Vec<bool> = (0..8).map(|i| v >> i & 1 == 1).collect();
            a.eval(&bits) == b.eval(&bits)
        });
        assert!(!same, "distinct seeds should give distinct functions");
    }

    #[test]
    fn respects_interface_counts() {
        let aig = random_aig(5, 30, 3, 7);
        assert_eq!(aig.num_pis(), 5);
        assert_eq!(aig.num_pos(), 3);
        assert!(aig.num_ands() <= 30);
        aig.check_invariants().unwrap();
    }

    #[test]
    fn splitmix_below_is_in_range() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }
}
