//! # parsweep-aig — And-Inverter Graph substrate
//!
//! The circuit representation underlying the `parsweep` combinational
//! equivalence checker: a structurally hashed [`Aig`] with topological
//! utilities, [AIGER](https://fmv.jku.at/aiger/) I/O, miter construction,
//! benchmark enlargement (`double`) and the substitution-based rebuilding
//! used by sweeping to merge proved-equivalent nodes.
//!
//! ```
//! use parsweep_aig::{Aig, miter, is_proved};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build a half adder twice, differently, and miter the two versions.
//! let mut a = Aig::new();
//! let xs = a.add_inputs(2);
//! let sum = a.xor(xs[0], xs[1]);
//! a.add_po(sum);
//!
//! let mut b = Aig::new();
//! let ys = b.add_inputs(2);
//! let o = b.or(ys[0], ys[1]);
//! let n = b.and(ys[0], ys[1]);
//! let sum2 = b.and(o, !n); // (a|b) & !(a&b) == a^b
//! b.add_po(sum2);
//!
//! let m = miter(&a, &b)?;
//! // Not structurally identical, so the miter is not trivially proved...
//! assert!(!is_proved(&m));
//! // ...but semantically every PO is zero.
//! assert_eq!(m.eval(&[true, false]), vec![false]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod aig;
pub mod aiger;
mod build;
pub mod dot;
mod extract;
mod lit;
mod miter;
mod node;
pub mod random;
mod stats;
mod topo;
pub mod verilog;

pub use aig::Aig;
pub use aiger::{
    read_aiger, read_aiger_file, read_miter, write_aiger_file, ParseAigerError, ReadMiterError,
};
pub use extract::ConeExtraction;
pub use lit::{Lit, Var};
pub use miter::{is_proved, miter, BuildMiterError};
pub use node::Node;
pub use stats::NetworkStats;
pub use topo::{Support, Supports};
