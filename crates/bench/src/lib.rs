//! # parsweep-bench — evaluation harness
//!
//! Reproduces every table and figure of the paper's evaluation:
//!
//! * **Table II** (`--bin table2`): runtime comparison of the SAT-sweeping
//!   baseline ("ABC &cec"), the portfolio checker ("Conformal"), and the
//!   simulation engine + SAT combined flow, on nine benchmark families
//!   mirroring the paper's EPFL/IWLS selection.
//! * **Figure 6** (`--bin fig6`): per-case runtime breakdown of the
//!   engine's P / G / L phases.
//! * **Figure 7** (`--bin fig7`): SAT proving time of the intermediate
//!   miters after the P, P+G and P+G+L phases, normalized to standalone
//!   SAT time.
//! * **Ablations** (`--bin ablation`): window merging, number of cut
//!   passes (Table I), similarity selection, repeated L phases.
//!
//! The library half provides the circuit generators ([`gen`]), arithmetic
//! building blocks ([`arith`]) and suite assembly ([`harness`]) shared by
//! the binaries.

#![warn(missing_docs)]

pub mod arith;
pub mod gen;
pub mod harness;

pub use harness::{geomean, suite, Case, Scale};
