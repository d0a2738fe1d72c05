//! Miter construction for combinational equivalence checking.
//!
//! A miter shares the corresponding PIs of the two circuits under
//! comparison and XORs corresponding PO pairs; the XOR outputs become the
//! miter POs. The two circuits are equivalent iff every miter PO is
//! constant zero.

use std::fmt;

use crate::{Aig, Lit};

/// Error building a miter from two circuits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildMiterError {
    /// The circuits have different numbers of primary inputs.
    PiCountMismatch {
        /// PI count of the first circuit.
        left: usize,
        /// PI count of the second circuit.
        right: usize,
    },
    /// The circuits have different numbers of primary outputs.
    PoCountMismatch {
        /// PO count of the first circuit.
        left: usize,
        /// PO count of the second circuit.
        right: usize,
    },
}

impl fmt::Display for BuildMiterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildMiterError::PiCountMismatch { left, right } => {
                write!(f, "primary input counts differ: {left} vs {right}")
            }
            BuildMiterError::PoCountMismatch { left, right } => {
                write!(f, "primary output counts differ: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for BuildMiterError {}

/// Builds the miter of two circuits with matching interfaces.
///
/// PO pair `i` of the result is `left.po(i) XOR right.po(i)`; the circuits
/// are equivalent iff all miter POs are constant false.
///
/// # Errors
///
/// Returns [`BuildMiterError`] if the PI or PO counts differ.
///
/// ```
/// use parsweep_aig::{Aig, miter};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Aig::new();
/// let xs = a.add_inputs(2);
/// let f = a.and(xs[0], xs[1]);
/// a.add_po(f);
/// // De Morgan form of the same function.
/// let mut b = Aig::new();
/// let ys = b.add_inputs(2);
/// let g = b.or(!ys[0], !ys[1]);
/// b.add_po(!g);
/// let m = miter(&a, &b)?;
/// assert_eq!(m.num_pos(), 1);
/// # Ok(())
/// # }
/// ```
pub fn miter(left: &Aig, right: &Aig) -> Result<Aig, BuildMiterError> {
    check_interface(
        (left.num_pis(), left.num_pos()),
        (right.num_pis(), right.num_pos()),
    )?;
    let mut m = Aig::with_capacity(left.num_nodes() + right.num_nodes());
    let pis = m.add_inputs(left.num_pis());
    let pos_l = m.append(left, &pis);
    let pos_r = m.append(right, &pis);
    add_xor_pos(&mut m, &pos_l, &pos_r);
    Ok(m)
}

/// Checks that two circuits, given as `(PI count, PO count)`, can be
/// mitered.
pub(crate) fn check_interface(
    left: (usize, usize),
    right: (usize, usize),
) -> Result<(), BuildMiterError> {
    if left.0 != right.0 {
        return Err(BuildMiterError::PiCountMismatch {
            left: left.0,
            right: right.0,
        });
    }
    if left.1 != right.1 {
        return Err(BuildMiterError::PoCountMismatch {
            left: left.1,
            right: right.1,
        });
    }
    Ok(())
}

/// Adds the miter POs: `left[i] XOR right[i]` for every pair.
pub(crate) fn add_xor_pos(m: &mut Aig, left: &[Lit], right: &[Lit]) {
    for (&l, &r) in left.iter().zip(right) {
        let x = m.xor(l, r);
        m.add_po(x);
    }
}

/// Returns true if every PO of `aig` is the constant-false literal, i.e. a
/// miter in this state is *proved*: the original circuits are equivalent.
pub fn is_proved(aig: &Aig) -> bool {
    aig.pos().iter().all(|&po| po == Lit::FALSE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miter_of_identical_circuits_strashes_to_zero() {
        let mut a = Aig::new();
        let xs = a.add_inputs(2);
        let f = a.and(xs[0], xs[1]);
        a.add_po(f);
        let m = miter(&a, &a).unwrap();
        // Identical structure is strashed; the XOR folds to constant 0.
        assert!(is_proved(&m));
    }

    #[test]
    fn miter_of_different_functions_is_not_constant() {
        let mut a = Aig::new();
        let xs = a.add_inputs(2);
        let f = a.and(xs[0], xs[1]);
        a.add_po(f);
        let mut b = Aig::new();
        let ys = b.add_inputs(2);
        let g = b.or(ys[0], ys[1]);
        b.add_po(g);
        let m = miter(&a, &b).unwrap();
        assert!(!is_proved(&m));
        // AND=0, OR=1 under (1, 0): the miter fires.
        assert_eq!(m.eval(&[true, false]), vec![true]);
        assert_eq!(m.eval(&[true, true]), vec![false]);
    }

    #[test]
    fn mismatched_interfaces_error() {
        let mut a = Aig::new();
        a.add_inputs(2);
        let mut b = Aig::new();
        b.add_inputs(3);
        assert!(matches!(
            miter(&a, &b),
            Err(BuildMiterError::PiCountMismatch { .. })
        ));
        let mut c = Aig::new();
        let xs = c.add_inputs(2);
        c.add_po(xs[0]);
        let mut d = Aig::new();
        d.add_inputs(2);
        assert!(matches!(
            miter(&c, &d),
            Err(BuildMiterError::PoCountMismatch { .. })
        ));
    }

    #[test]
    fn miter_detects_equivalence_semantically() {
        // a XOR b built two different ways.
        let mut a = Aig::new();
        let xs = a.add_inputs(2);
        let f = a.xor(xs[0], xs[1]);
        a.add_po(f);
        let mut b = Aig::new();
        let ys = b.add_inputs(2);
        let t0 = b.and(ys[0], ys[1]);
        let t1 = b.and(!ys[0], !ys[1]);
        let g = b.or(t0, t1);
        b.add_po(!g);
        let m = miter(&a, &b).unwrap();
        for v in 0..4u32 {
            let bits = [(v & 1) != 0, (v & 2) != 0];
            assert_eq!(m.eval(&bits), vec![false]);
        }
    }
}
