//! Irredundant sum-of-products extraction (Minato–Morreale ISOP).

use parsweep_sim::TruthTable;

/// A product term over `k` cut variables: `pos` holds variables appearing
/// positively, `neg` those appearing negatively.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cube {
    /// Bitmask of positive literals.
    pub pos: u32,
    /// Bitmask of negative literals.
    pub neg: u32,
}

impl Cube {
    /// The constant-true cube (no literals).
    pub const TRUE: Cube = Cube { pos: 0, neg: 0 };

    /// Number of literals in the cube.
    pub fn num_lits(&self) -> usize {
        (self.pos.count_ones() + self.neg.count_ones()) as usize
    }

    /// Evaluates the cube under an assignment (bit `j` = variable `j`).
    pub fn eval(&self, assignment: usize) -> bool {
        let a = assignment as u32;
        (a & self.pos) == self.pos && (!a & self.neg) == self.neg
    }
}

/// Computes an irredundant SOP cover of the (completely specified)
/// function `f` by the Minato–Morreale procedure, returning the cubes.
///
/// The cover is exact: the OR of all cubes equals `f`.
pub fn isop(f: &TruthTable) -> Vec<Cube> {
    let (cubes, cover) = isop_rec(f, f, f.num_vars());
    debug_assert_eq!(&cover, f, "ISOP cover must equal the function");
    cubes
}

/// Recursive ISOP on an interval `[lower, upper]`; returns the cubes and
/// the cover's truth table.
fn isop_rec(lower: &TruthTable, upper: &TruthTable, num_vars: usize) -> (Vec<Cube>, TruthTable) {
    if lower.is_zero() {
        return (Vec::new(), TruthTable::zeros(lower.num_vars()));
    }
    if upper.is_ones() {
        return (vec![Cube::TRUE], TruthTable::ones(lower.num_vars()));
    }
    // Split on the highest variable either bound depends on.
    let var = (0..num_vars)
        .rev()
        .find(|&v| lower.depends_on(v) || upper.depends_on(v))
        .expect("nonconstant interval depends on something");

    let l0 = lower.cofactor(var, false);
    let l1 = lower.cofactor(var, true);
    let u0 = upper.cofactor(var, false);
    let u1 = upper.cofactor(var, true);

    // Cubes that must contain !x (needed for x=0 but not allowed at x=1).
    let (c0, cov0) = isop_rec(&l0.and(&u1.not()), &u0, var);
    // Cubes that must contain x.
    let (c1, cov1) = isop_rec(&l1.and(&u0.not()), &u1, var);
    // Remaining minterms, coverable independently of x.
    let lstar = l0.and(&cov0.not()).or(&l1.and(&cov1.not()));
    let (cs, covs) = isop_rec(&lstar, &u0.and(&u1), var);

    let mut cubes = Vec::with_capacity(c0.len() + c1.len() + cs.len());
    for c in c0 {
        cubes.push(Cube {
            pos: c.pos,
            neg: c.neg | 1 << var,
        });
    }
    for c in c1 {
        cubes.push(Cube {
            pos: c.pos | 1 << var,
            neg: c.neg,
        });
    }
    cubes.extend(cs);

    let proj = TruthTable::projection(lower.num_vars(), var);
    let cover = cov0.and(&proj.not()).or(&cov1.and(&proj)).or(&covs);
    (cubes, cover)
}

/// Estimated AIG cost of a cover: AND gates inside cubes plus OR gates
/// combining them.
pub fn sop_cost(cubes: &[Cube]) -> usize {
    if cubes.is_empty() {
        return 0;
    }
    let ands: usize = cubes.iter().map(|c| c.num_lits().saturating_sub(1)).sum();
    ands + (cubes.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_cover(f: &TruthTable) {
        let cubes = isop(f);
        for i in 0..f.num_bits() {
            let covered = cubes.iter().any(|c| c.eval(i));
            assert_eq!(covered, f.value(i), "assignment {i}");
        }
    }

    #[test]
    fn constant_functions() {
        check_cover(&TruthTable::zeros(3));
        check_cover(&TruthTable::ones(3));
        assert!(isop(&TruthTable::zeros(4)).is_empty());
        assert_eq!(isop(&TruthTable::ones(4)), vec![Cube::TRUE]);
    }

    #[test]
    fn projections_and_simple_gates() {
        for k in 1..=4 {
            for v in 0..k {
                check_cover(&TruthTable::projection(k, v));
                check_cover(&TruthTable::projection(k, v).not());
            }
        }
        let a = TruthTable::projection(3, 0);
        let b = TruthTable::projection(3, 1);
        check_cover(&a.and(&b));
        check_cover(&a.or(&b));
        check_cover(&a.xor(&b));
    }

    #[test]
    fn xor_cover_has_two_cubes() {
        let a = TruthTable::projection(2, 0);
        let b = TruthTable::projection(2, 1);
        let cubes = isop(&a.xor(&b));
        assert_eq!(cubes.len(), 2);
        assert!(cubes.iter().all(|c| c.num_lits() == 2));
    }

    #[test]
    fn exhaustive_small_functions() {
        // Every 3-variable function must be covered exactly.
        for code in 0..256u64 {
            let f = TruthTable::from_fn(3, |i| code >> i & 1 == 1);
            check_cover(&f);
        }
    }

    #[test]
    fn random_larger_functions() {
        let mut rng = parsweep_aig::random::SplitMix64::new(5);
        for _ in 0..30 {
            let f = TruthTable::from_fn(7, |_| rng.bool());
            check_cover(&f);
        }
    }

    #[test]
    fn cost_of_and2() {
        let a = TruthTable::projection(2, 0);
        let b = TruthTable::projection(2, 1);
        let cubes = isop(&a.and(&b));
        assert_eq!(cubes.len(), 1);
        assert_eq!(sop_cost(&cubes), 1);
    }
}
