//! NPN canonicalization of small truth tables.
//!
//! Two functions are NPN-equivalent when one can be obtained from the
//! other by Negating inputs, Permuting inputs and/or Negating the output.
//! Canonical forms let rewriting engines and function caches treat all
//! 2^2^k functions as a few hundred classes (e.g. 222 for k = 4); this is
//! the standard machinery behind ABC-style rewriting libraries.
//!
//! Nothing on the proving path canonicalizes: at `k = 5` one canonical
//! form costs `k!·2^k·2` = 7680 transforms, far more than deciding a
//! miter cone from its table ([`cone_truth_table`](crate::cone_truth_table)).

use crate::tt::TruthTable;

/// Maximum variable count supported by the exhaustive canonicalizer.
pub const MAX_NPN_VARS: usize = 6;

/// One NPN transform: permute inputs, complement a subset of inputs,
/// optionally complement the output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NpnTransform {
    /// `perm[i]` is the source variable feeding output variable `i`.
    pub perm: [u8; MAX_NPN_VARS],
    /// Bit `i` set: input `i` (after permutation) is complemented.
    pub input_neg: u8,
    /// Complement the output.
    pub output_neg: bool,
}

impl NpnTransform {
    /// The identity transform over `k` variables.
    pub fn identity() -> Self {
        let mut perm = [0u8; MAX_NPN_VARS];
        for (i, p) in perm.iter_mut().enumerate() {
            *p = i as u8;
        }
        NpnTransform {
            perm,
            input_neg: 0,
            output_neg: false,
        }
    }
}

/// Applies an NPN transform: output minterm `i` takes the value of the
/// source function at the index obtained by routing bit `j` of `i`
/// (xor the negation mask) to source variable `perm[j]`.
///
/// # Panics
///
/// Panics if the table has more than [`MAX_NPN_VARS`] variables.
pub fn apply_npn(tt: &TruthTable, t: &NpnTransform) -> TruthTable {
    let k = tt.num_vars();
    assert!(k <= MAX_NPN_VARS, "NPN supports up to {MAX_NPN_VARS} vars");
    TruthTable::from_fn(k, |i| tt.value(lift_index(t, k, i)) != t.output_neg)
}

/// Maps an assignment index in the transform's *canonical* (output) space
/// back to an assignment index of the source function: bit `j` of
/// `canon_index`, xor the input-negation mask, lands on source variable
/// `perm[j]`. This is how a counterexample found on a canonical form is
/// lifted back onto the cone it came from.
pub fn lift_index(t: &NpnTransform, k: usize, canon_index: usize) -> usize {
    let mut src = 0usize;
    for j in 0..k {
        let bit = (canon_index >> j & 1 == 1) != (t.input_neg >> j & 1 == 1);
        if bit {
            src |= 1 << t.perm[j] as usize;
        }
    }
    src
}

/// Inverse of [`lift_index`]: maps a source-space assignment index into
/// the transform's canonical space. Round-trips with `lift_index` for any
/// transform whose `perm` is a bijection on `0..k`.
pub fn push_index(t: &NpnTransform, k: usize, src_index: usize) -> usize {
    let mut out = 0usize;
    for j in 0..k {
        let bit = (src_index >> t.perm[j] as usize & 1 == 1) != (t.input_neg >> j & 1 == 1);
        if bit {
            out |= 1 << j;
        }
    }
    out
}

fn permutations(k: usize) -> Vec<[u8; MAX_NPN_VARS]> {
    let mut base: Vec<u8> = (0..k as u8).collect();
    let mut out = Vec::new();
    heap_permute(&mut base, k, &mut out);
    out
}

fn heap_permute(arr: &mut [u8], n: usize, out: &mut Vec<[u8; MAX_NPN_VARS]>) {
    if n <= 1 {
        let mut fixed = [0u8; MAX_NPN_VARS];
        for (i, &v) in arr.iter().enumerate() {
            fixed[i] = v;
        }
        for (i, slot) in fixed.iter_mut().enumerate().skip(arr.len()) {
            *slot = i as u8;
        }
        out.push(fixed);
        return;
    }
    for i in 0..n {
        heap_permute(arr, n - 1, out);
        if n.is_multiple_of(2) {
            arr.swap(i, n - 1);
        } else {
            arr.swap(0, n - 1);
        }
    }
}

/// Computes the NPN-canonical representative of a function (the
/// lexicographically smallest word vector over all transforms) and the
/// transform that produces it.
///
/// Exhaustive over all `k! * 2^k * 2` transforms — fine for `k <= 6`
/// (92k transforms) outside inner loops.
///
/// # Panics
///
/// Panics if the table has more than [`MAX_NPN_VARS`] variables.
pub fn npn_canonical(tt: &TruthTable) -> (TruthTable, NpnTransform) {
    let k = tt.num_vars();
    assert!(k <= MAX_NPN_VARS, "NPN supports up to {MAX_NPN_VARS} vars");
    // Mask at the boundary: the lexicographic minimum below compares raw
    // word vectors, so a `k < 6` table carrying dirty don't-care upper
    // bits (e.g. from `TruthTable::from_sim_words`) would otherwise split
    // an NPN class across several "canonical" forms.
    let tt = tt.masked();
    let mut best: Option<(TruthTable, NpnTransform)> = None;
    for perm in permutations(k) {
        for input_neg in 0..1u16 << k {
            for output_neg in [false, true] {
                let t = NpnTransform {
                    perm,
                    input_neg: input_neg as u8,
                    output_neg,
                };
                let cand = apply_npn(&tt, &t);
                let better = match &best {
                    None => true,
                    Some((b, _)) => cand.words() < b.words(),
                };
                if better {
                    best = Some((cand, t));
                }
            }
        }
    }
    best.expect("at least the identity transform exists")
}

/// True if two functions are NPN-equivalent.
pub fn npn_equivalent(a: &TruthTable, b: &TruthTable) -> bool {
    a.num_vars() == b.num_vars() && npn_canonical(a).0 == npn_canonical(b).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proj(k: usize, v: usize) -> TruthTable {
        TruthTable::projection(k, v)
    }

    #[test]
    fn identity_transform_is_noop() {
        let f = proj(3, 0).and(&proj(3, 1)).or(&proj(3, 2));
        assert_eq!(apply_npn(&f, &NpnTransform::identity()), f);
    }

    #[test]
    fn all_projections_share_a_class() {
        for k in 1..=4 {
            let c0 = npn_canonical(&proj(k, 0)).0;
            for v in 1..k {
                assert_eq!(npn_canonical(&proj(k, v)).0, c0, "k={k} v={v}");
                assert_eq!(npn_canonical(&proj(k, v).not()).0, c0, "k={k} !v={v}");
            }
        }
    }

    #[test]
    fn and_or_are_npn_equivalent() {
        // a & b ~ a | b under input+output negation (De Morgan).
        let a = proj(2, 0);
        let b = proj(2, 1);
        assert!(npn_equivalent(&a.and(&b), &a.or(&b)));
        // XOR is in a different class.
        assert!(!npn_equivalent(&a.and(&b), &a.xor(&b)));
    }

    #[test]
    fn canonical_transform_reproduces_canonical_form() {
        let f = TruthTable::from_fn(4, |i| (i * 7 + 3) % 5 < 2);
        let (canon, t) = npn_canonical(&f);
        assert_eq!(apply_npn(&f, &t), canon);
    }

    #[test]
    fn npn_classes_of_two_variables() {
        // The 16 two-variable functions fall into exactly 4 NPN classes:
        // const, projection, and2, xor2.
        use std::collections::HashSet;
        let mut classes = HashSet::new();
        for code in 0..16u64 {
            let f = TruthTable::from_fn(2, |i| code >> i & 1 == 1);
            classes.insert(npn_canonical(&f).0.words().to_vec());
        }
        assert_eq!(classes.len(), 4);
    }

    #[test]
    fn npn_classes_of_three_variables() {
        // Known count: 14 NPN classes of 3-variable functions.
        use std::collections::HashSet;
        let mut classes = HashSet::new();
        for code in 0..256u64 {
            let f = TruthTable::from_fn(3, |i| code >> i & 1 == 1);
            classes.insert(npn_canonical(&f).0.words().to_vec());
        }
        assert_eq!(classes.len(), 14);
    }

    #[test]
    fn dirty_upper_bits_do_not_split_a_class() {
        // Same 3-variable function, once clean and once with don't-care
        // garbage above bit 8 (as a bit-parallel simulator would leave it).
        // Canonicalization must mask at the boundary so both land on the
        // same canonical word vector — and a clean one.
        let clean = TruthTable::from_fn(3, |i| (i * 5 + 1) % 3 == 0);
        let dirty = TruthTable::from_sim_words(3, vec![clean.words()[0] | !0xFFu64]);
        assert_ne!(clean.words(), dirty.words(), "test needs dirty bits");
        let (cc, _) = npn_canonical(&clean);
        let (cd, _) = npn_canonical(&dirty);
        assert_eq!(cc, cd);
        assert_eq!(cc.words(), cd.words());
        assert_eq!(cd.masked().words(), cd.words(), "canonical form is masked");
    }

    #[test]
    fn lift_and_push_are_inverse() {
        let mut rng = parsweep_aig::random::SplitMix64::new(42);
        for k in 0..=4usize {
            for _ in 0..10 {
                let t = NpnTransform {
                    perm: {
                        let mut p = [0u8, 1, 2, 3, 4, 5];
                        for i in (1..k).rev() {
                            p.swap(i, rng.below(i + 1));
                        }
                        p
                    },
                    input_neg: (rng.next_u64() & ((1 << k) - 1)) as u8,
                    output_neg: rng.bool(),
                };
                for i in 0..1usize << k {
                    assert_eq!(push_index(&t, k, lift_index(&t, k, i)), i);
                    assert_eq!(lift_index(&t, k, push_index(&t, k, i)), i);
                }
            }
        }
    }

    #[test]
    fn canonical_cex_lifts_back_to_the_source() {
        // For every canonical-space assignment i, the lifted source index
        // evaluates to canon(i) xor output_neg — the invariant a cache
        // keyed by canonical form needs to replay counterexamples.
        let mut rng = parsweep_aig::random::SplitMix64::new(7);
        for _ in 0..20 {
            let f = TruthTable::from_fn(4, |_| rng.bool());
            let (canon, t) = npn_canonical(&f);
            for i in 0..canon.num_bits() {
                let src = lift_index(&t, 4, i);
                assert_eq!(f.value(src) != t.output_neg, canon.value(i));
            }
        }
    }

    #[test]
    fn equivalence_is_invariant_under_random_transforms() {
        let mut rng = parsweep_aig::random::SplitMix64::new(11);
        for _ in 0..20 {
            let f = TruthTable::from_fn(4, |_| rng.bool());
            // Scramble with a random transform.
            let t = NpnTransform {
                perm: {
                    let mut p = [0u8, 1, 2, 3, 4, 5];
                    let i = rng.below(4);
                    p.swap(i, (i + 1) % 4);
                    p
                },
                input_neg: (rng.next_u64() & 0xF) as u8,
                output_neg: rng.bool(),
            };
            let g = apply_npn(&f, &t);
            assert!(npn_equivalent(&f, &g));
        }
    }
}
