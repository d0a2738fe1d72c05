//! Packed truth tables.
//!
//! A truth table over `k` variables is a bit string of length `2^k` stored
//! in 64-bit words; bit `i` is the function value under the assignment
//! where input `j` takes bit `j` of `i` (the paper's §II-A encoding).

use std::fmt;

/// Number of 64-bit words needed for a truth table over `num_vars` inputs.
#[inline]
pub const fn word_len(num_vars: usize) -> usize {
    if num_vars < 6 {
        1
    } else {
        1 << (num_vars - 6)
    }
}

/// The six canonical single-word projection patterns for variables 0..6.
pub const PROJECTIONS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Returns word `word_index` of the projection truth table for variable
/// `var` in a table over at least `var + 1` variables.
///
/// For `var < 6` the word is a fixed alternating pattern; for `var >= 6`
/// the word is all-ones iff bit `var - 6` of the word index is set.
#[inline]
pub fn projection_word(var: usize, word_index: usize) -> u64 {
    if var < 6 {
        PROJECTIONS[var]
    } else if word_index >> (var - 6) & 1 == 1 {
        u64::MAX
    } else {
        0
    }
}

/// A dense truth table over an explicit number of variables.
///
/// ```
/// use parsweep_sim::TruthTable;
/// let x0 = TruthTable::projection(3, 0);
/// let x1 = TruthTable::projection(3, 1);
/// let and = x0.and(&x1);
/// assert!(and.value(0b011));
/// assert!(!and.value(0b001));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    num_vars: usize,
    words: Vec<u64>,
}

impl TruthTable {
    /// The constant-false table over `num_vars` variables.
    pub fn zeros(num_vars: usize) -> Self {
        TruthTable {
            num_vars,
            words: vec![0; word_len(num_vars)],
        }
    }

    /// The constant-true table over `num_vars` variables.
    pub fn ones(num_vars: usize) -> Self {
        let mut tt = Self::zeros(num_vars);
        for w in &mut tt.words {
            *w = u64::MAX;
        }
        tt.mask_off();
        tt
    }

    /// The projection table of variable `var` over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn projection(num_vars: usize, var: usize) -> Self {
        assert!(var < num_vars, "projection variable out of range");
        let mut tt = Self::zeros(num_vars);
        for (i, w) in tt.words.iter_mut().enumerate() {
            *w = projection_word(var, i);
        }
        tt.mask_off();
        tt
    }

    /// Builds a table from a function over assignments.
    pub fn from_fn<F: FnMut(usize) -> bool>(num_vars: usize, mut f: F) -> Self {
        let mut tt = Self::zeros(num_vars);
        for i in 0..1usize << num_vars {
            if f(i) {
                tt.words[i >> 6] |= 1u64 << (i & 63);
            }
        }
        tt
    }

    /// Builds a table from raw words (little-endian bit order).
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != word_len(num_vars)`.
    pub fn from_words(num_vars: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), word_len(num_vars), "wrong word count");
        let mut tt = TruthTable { num_vars, words };
        tt.mask_off();
        tt
    }

    /// Builds a table directly from raw simulation words **without**
    /// masking the unused upper bits.
    ///
    /// Bit-parallel simulators hand back full 64-bit words even for
    /// `num_vars < 6` cones, and the bits above `2^num_vars` are
    /// don't-cares left over from whatever patterns filled the word. A
    /// table built this way is only safe to consume through
    /// [`TruthTable::value`] (which never reads the dirty region) or
    /// after [`TruthTable::masked`]; comparing it with `==` or hashing
    /// its raw [`TruthTable::words`] is meaningless until masked.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != word_len(num_vars)`.
    pub fn from_sim_words(num_vars: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), word_len(num_vars), "wrong word count");
        TruthTable { num_vars, words }
    }

    /// Returns a copy with the unused upper bits zeroed (`num_vars < 6`),
    /// restoring the invariant every other constructor maintains. The
    /// canonical entry point for laundering [`TruthTable::from_sim_words`]
    /// output before word-level comparison or hashing.
    pub fn masked(&self) -> Self {
        let mut tt = self.clone();
        tt.mask_off();
        tt
    }

    /// Zeroes the unused upper bits when `num_vars < 6`.
    fn mask_off(&mut self) {
        if self.num_vars < 6 {
            let used = 1u64 << (1 << self.num_vars);
            self.words[0] &= used.wrapping_sub(1);
        }
    }

    /// Number of variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of assignments (bits).
    #[inline]
    pub fn num_bits(&self) -> usize {
        1 << self.num_vars
    }

    /// The underlying words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The function value under assignment index `i` (bit `j` of `i` is the
    /// value of variable `j`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 2^num_vars`.
    #[inline]
    pub fn value(&self, i: usize) -> bool {
        assert!(i < self.num_bits(), "assignment index out of range");
        self.words[i >> 6] >> (i & 63) & 1 == 1
    }

    /// Bitwise AND of two tables over the same variables.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    pub fn and(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a & b)
    }

    /// Bitwise OR.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    pub fn or(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a | b)
    }

    /// Bitwise XOR.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    pub fn xor(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a ^ b)
    }

    fn zip<F: Fn(u64, u64) -> u64>(&self, other: &Self, f: F) -> Self {
        assert_eq!(self.num_vars, other.num_vars, "variable counts differ");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| f(a, b))
            .collect();
        let mut tt = TruthTable {
            num_vars: self.num_vars,
            words,
        };
        tt.mask_off();
        tt
    }

    /// Bitwise complement.
    pub fn not(&self) -> Self {
        let words = self.words.iter().map(|&w| !w).collect();
        let mut tt = TruthTable {
            num_vars: self.num_vars,
            words,
        };
        tt.mask_off();
        tt
    }

    /// True if the table is constant false.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True if the table is constant true.
    pub fn is_ones(&self) -> bool {
        *self == Self::ones(self.num_vars)
    }

    /// Number of satisfying assignments.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the function depends on variable `var` (semantically).
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn depends_on(&self, var: usize) -> bool {
        assert!(var < self.num_vars);
        let proj = Self::projection(self.num_vars, var);
        // f depends on x iff f restricted to x=0 differs from x=1 anywhere.
        for i in 0..self.words.len() {
            let w = self.words[i];
            let p = proj.words[i];
            if var < 6 {
                // Compare adjacent blocks within the word.
                let lo = w & !p;
                let hi = (w & p) >> (1 << var);
                let used = if self.num_vars < 6 {
                    (1u64 << (1 << self.num_vars)) - 1
                } else {
                    u64::MAX
                };
                let mask = !p & used;
                if (lo ^ hi) & mask != 0 {
                    return true;
                }
            } else {
                let stride = 1usize << (var - 6);
                if i >> (var - 6) & 1 == 0 && self.words[i] != self.words[i + stride] {
                    return true;
                }
            }
        }
        false
    }

    /// The positive cofactor with respect to `var` (as a table over the
    /// same variable set, with `var` forced to 1).
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn cofactor(&self, var: usize, value: bool) -> Self {
        assert!(var < self.num_vars);
        Self::from_fn(self.num_vars, |i| {
            let j = if value {
                i | (1 << var)
            } else {
                i & !(1 << var)
            };
            self.value(j)
        })
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({}v: ", self.num_vars)?;
        if self.num_vars <= 6 {
            let bits = self.num_bits();
            for i in (0..bits).rev() {
                write!(f, "{}", self.value(i) as u8)?;
            }
        } else {
            write!(f, "{} words", self.words.len())?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_matches_paper_example() {
        // Paper §II-A: for k = 3, projections are 10101010, 11001100,
        // 11110000.
        let p0 = TruthTable::projection(3, 0);
        let p1 = TruthTable::projection(3, 1);
        let p2 = TruthTable::projection(3, 2);
        assert_eq!(p0.words()[0], 0xAA);
        assert_eq!(p1.words()[0], 0xCC);
        assert_eq!(p2.words()[0], 0xF0);
    }

    #[test]
    fn projection_value_semantics() {
        for k in 1..=8 {
            for v in 0..k {
                let p = TruthTable::projection(k, v);
                for i in 0..1usize << k {
                    assert_eq!(p.value(i), i >> v & 1 == 1, "k={k} v={v} i={i}");
                }
            }
        }
    }

    #[test]
    fn ops_match_boolean_semantics() {
        let k = 7;
        let a = TruthTable::projection(k, 2);
        let b = TruthTable::projection(k, 6);
        let and = a.and(&b);
        let or = a.or(&b);
        let xor = a.xor(&b);
        for i in 0..1usize << k {
            let (va, vb) = (a.value(i), b.value(i));
            assert_eq!(and.value(i), va && vb);
            assert_eq!(or.value(i), va || vb);
            assert_eq!(xor.value(i), va != vb);
        }
    }

    #[test]
    fn not_masks_unused_bits() {
        let t = TruthTable::zeros(2).not();
        assert!(t.is_ones());
        assert_eq!(t.words()[0], 0b1111);
        assert_eq!(t.count_ones(), 4);
    }

    #[test]
    fn depends_on_detects_support() {
        // f = x0 & x1 over 3 vars does not depend on x2.
        let x0 = TruthTable::projection(3, 0);
        let x1 = TruthTable::projection(3, 1);
        let f = x0.and(&x1);
        assert!(f.depends_on(0));
        assert!(f.depends_on(1));
        assert!(!f.depends_on(2));
    }

    #[test]
    fn depends_on_large_vars() {
        let k = 8;
        let f = TruthTable::projection(k, 7);
        assert!(f.depends_on(7));
        for v in 0..7 {
            assert!(!f.depends_on(v));
        }
    }

    #[test]
    fn cofactor_fixes_variable() {
        let x0 = TruthTable::projection(3, 0);
        let x2 = TruthTable::projection(3, 2);
        let f = x0.and(&x2); // x0 & x2
        let c1 = f.cofactor(2, true); // = x0
        let c0 = f.cofactor(2, false); // = 0
        assert_eq!(c1, TruthTable::projection(3, 0));
        assert!(c0.is_zero());
    }

    #[test]
    fn from_fn_roundtrip() {
        let f = TruthTable::from_fn(5, |i| i.count_ones() % 2 == 1);
        for i in 0..32 {
            assert_eq!(f.value(i), i.count_ones() % 2 == 1);
        }
        assert_eq!(f.count_ones(), 16);
    }

    #[test]
    fn hex_notation_matches_abc_conventions() {
        let a = TruthTable::projection(2, 0);
        let b = TruthTable::projection(2, 1);
        assert_eq!(a.and(&b).words(), [0x8]);
        assert_eq!(a.or(&b).words(), [0xe]);
        assert_eq!(a.xor(&b).words(), [0x6]);
        let m3 = {
            let x = TruthTable::projection(3, 0);
            let y = TruthTable::projection(3, 1);
            let z = TruthTable::projection(3, 2);
            let xy = x.and(&y);
            let xz = x.and(&z);
            let yz = y.and(&z);
            xy.or(&xz).or(&yz)
        };
        assert_eq!(m3.words(), [0xe8]); // MAJ3 in ABC notation
    }

    #[test]
    fn word_len_boundaries() {
        assert_eq!(word_len(0), 1);
        assert_eq!(word_len(5), 1);
        assert_eq!(word_len(6), 1);
        assert_eq!(word_len(7), 2);
        assert_eq!(word_len(10), 16);
    }

    #[test]
    fn projection_word_high_vars() {
        // Variable 6 alternates every word; variable 7 every two words.
        assert_eq!(projection_word(6, 0), 0);
        assert_eq!(projection_word(6, 1), u64::MAX);
        assert_eq!(projection_word(7, 1), 0);
        assert_eq!(projection_word(7, 2), u64::MAX);
    }
}
