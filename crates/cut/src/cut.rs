//! Cuts: bounded sets of nodes through which every root-to-PI path passes.

use std::fmt;

use parsweep_aig::Var;

/// Hard upper bound on cut size supported by the fixed-capacity [`Cut`]
/// representation. The paper uses `k_l = 8`; 12 leaves leave headroom for
/// experiments.
pub const MAX_CUT_SIZE: usize = 12;

/// A cut: a sorted set of at most [`MAX_CUT_SIZE`] leaf variables, plus a
/// 64-bit signature for fast overlap pre-checks.
///
/// ```
/// use parsweep_cut::Cut;
/// use parsweep_aig::Var;
/// let a = Cut::new(&[Var::new(1), Var::new(3)]);
/// let b = Cut::new(&[Var::new(3), Var::new(5)]);
/// let merged = a.merge(&b, 4).unwrap();
/// assert_eq!(merged.len(), 3);
/// assert!(a.merge(&b, 2).is_none());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cut {
    leaves: [u32; MAX_CUT_SIZE],
    len: u8,
    sig: u64,
}

impl Cut {
    /// Creates a cut from leaves (sorted and deduplicated internally).
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_CUT_SIZE`] distinct leaves are given.
    pub fn new(leaves: &[Var]) -> Self {
        let mut sorted: Vec<u32> = leaves.iter().map(|v| v.index() as u32).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(sorted.len() <= MAX_CUT_SIZE, "cut exceeds MAX_CUT_SIZE");
        let mut arr = [0u32; MAX_CUT_SIZE];
        arr[..sorted.len()].copy_from_slice(&sorted);
        let mut cut = Cut {
            leaves: arr,
            len: sorted.len() as u8,
            sig: 0,
        };
        cut.sig = cut.compute_sig();
        cut
    }

    /// The trivial cut `{n}`.
    pub fn trivial(n: Var) -> Self {
        let mut leaves = [0u32; MAX_CUT_SIZE];
        leaves[0] = n.index() as u32;
        Cut {
            leaves,
            len: 1,
            sig: 1u64 << (n.index() % 64),
        }
    }

    fn compute_sig(&self) -> u64 {
        self.iter().fold(0u64, |s, v| s | 1u64 << (v.index() % 64))
    }

    /// The 64-bit signature: bit `v % 64` is set for every leaf `v`.
    /// Equal cuts have equal signatures, so a signature mismatch rules
    /// out equality (and `a.signature() & !b.signature() != 0` rules out
    /// `a ⊆ b`) without touching the leaves.
    #[inline]
    pub fn signature(&self) -> u64 {
        self.sig
    }

    /// Number of leaves.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for the (impossible in practice) empty cut.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The leaves in increasing variable order.
    #[inline]
    pub fn leaves(&self) -> &[u32] {
        &self.leaves[..self.len as usize]
    }

    /// Iterates over the leaves as variables.
    pub fn iter(&self) -> impl Iterator<Item = Var> + '_ {
        self.leaves().iter().map(|&v| Var::new(v))
    }

    /// The leaves as a vector of variables.
    ///
    /// **Sorted invariant:** strictly ascending and deduplicated (cuts
    /// store their leaves sorted), so callers can hand the list to
    /// sorted-input consumers — e.g. simulation windows — without
    /// re-sorting.
    pub fn to_vars(&self) -> Vec<Var> {
        self.iter().collect()
    }

    /// True if `v` is a leaf of this cut.
    pub fn contains(&self, v: Var) -> bool {
        self.leaves().binary_search(&(v.index() as u32)).is_ok()
    }

    /// Merges two cuts; `None` if the union exceeds `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k > MAX_CUT_SIZE`.
    pub fn merge(&self, other: &Cut, k: usize) -> Option<Cut> {
        assert!(k <= MAX_CUT_SIZE, "k exceeds MAX_CUT_SIZE");
        // Signature pre-check: union popcount is a lower bound.
        if (self.sig | other.sig).count_ones() as usize > k {
            return None;
        }
        let (a, b) = (self.leaves(), other.leaves());
        let mut out = [0u32; MAX_CUT_SIZE];
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < a.len() || j < b.len() {
            let v = if j >= b.len() || (i < a.len() && a[i] <= b[j]) {
                if j < b.len() && a[i] == b[j] {
                    j += 1;
                }
                let v = a[i];
                i += 1;
                v
            } else {
                let v = b[j];
                j += 1;
                v
            };
            if n == k {
                return None;
            }
            out[n] = v;
            n += 1;
        }
        // The union's signature is the union of the signatures.
        Some(Cut {
            leaves: out,
            len: n as u8,
            sig: self.sig | other.sig,
        })
    }

    /// True if every leaf of `self` is a leaf of `other` (i.e. `self`
    /// dominates `other`).
    pub fn subset_of(&self, other: &Cut) -> bool {
        if self.sig & !other.sig != 0 || self.len > other.len {
            return false;
        }
        self.leaves()
            .iter()
            .all(|&v| other.leaves().binary_search(&v).is_ok())
    }

    /// Size of the intersection with `other`.
    pub fn intersection_len(&self, other: &Cut) -> usize {
        let (a, b) = (self.leaves(), other.leaves());
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Jaccard similarity `|a ∩ b| / |a ∪ b|` with another cut.
    pub fn jaccard(&self, other: &Cut) -> f64 {
        let inter = self.intersection_len(other);
        let union = self.len() + other.len() - inter;
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }
}

impl fmt::Debug for Cut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cut{{")?;
        for (i, v) in self.leaves().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "v{v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(ids: &[u32]) -> Vec<Var> {
        ids.iter().map(|&i| Var::new(i)).collect()
    }

    #[test]
    fn new_sorts_and_dedups() {
        let c = Cut::new(&vs(&[5, 1, 3, 1]));
        assert_eq!(c.leaves(), &[1, 3, 5]);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn merge_unions_leaves() {
        let a = Cut::new(&vs(&[1, 2, 3]));
        let b = Cut::new(&vs(&[3, 4]));
        let m = a.merge(&b, 4).unwrap();
        assert_eq!(m.leaves(), &[1, 2, 3, 4]);
        assert!(a.merge(&b, 3).is_none());
    }

    #[test]
    fn merge_identical_is_identity() {
        let a = Cut::new(&vs(&[2, 7]));
        assert_eq!(a.merge(&a, 2).unwrap(), a);
    }

    #[test]
    fn subset_detection() {
        let a = Cut::new(&vs(&[1, 3]));
        let b = Cut::new(&vs(&[1, 2, 3]));
        assert!(a.subset_of(&b));
        assert!(!b.subset_of(&a));
        assert!(a.subset_of(&a));
    }

    #[test]
    fn jaccard_similarity() {
        let a = Cut::new(&vs(&[1, 2]));
        let b = Cut::new(&vs(&[2, 3]));
        assert!((a.jaccard(&b) - 1.0 / 3.0).abs() < 1e-9);
        assert!((a.jaccard(&a) - 1.0).abs() < 1e-9);
        let c = Cut::new(&vs(&[8, 9]));
        assert_eq!(a.jaccard(&c), 0.0);
    }

    #[test]
    fn contains_checks_membership() {
        let a = Cut::new(&vs(&[1, 64, 65]));
        assert!(a.contains(Var::new(64)));
        assert!(!a.contains(Var::new(2)));
        // 1 and 65 collide in the signature; membership must still be exact.
        assert!(!a.contains(Var::new(129)));
    }

    #[test]
    fn trivial_cut() {
        let t = Cut::trivial(Var::new(9));
        assert_eq!(t.len(), 1);
        assert!(t.contains(Var::new(9)));
        for v in [0, 1, 63, 64, 200] {
            assert_eq!(Cut::trivial(Var::new(v)), Cut::new(&[Var::new(v)]));
        }
    }
}
