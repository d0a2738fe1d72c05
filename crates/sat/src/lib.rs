//! # parsweep-sat — SAT substrate and baseline checkers
//!
//! Everything SAT-flavoured that the paper's evaluation compares against:
//!
//! * a from-scratch CDCL [`Solver`] (two-watched literals, 1-UIP learning,
//!   VSIDS, phase saving, Luby restarts, conflict budgets);
//! * a Tseitin [`CnfEncoder`] for AIG logic cones;
//! * [`sat_sweep`]: the SAT-sweeping combinational equivalence checker
//!   standing in for ABC `&cec`, used both as the baseline of Table II and
//!   as the fallback that finishes miters the simulation engine leaves
//!   undecided;
//! * [`portfolio_check`]: a multi-engine portfolio standing in for the
//!   commercial checker column of Table II. One function, [`dispatch`],
//!   runs its two screens and ranks (or races) exhaustive PO proving
//!   against SAT sweeping.
//!
//! ```
//! use parsweep_aig::{Aig, miter};
//! use parsweep_par::Executor;
//! use parsweep_sat::{sat_sweep, SweepConfig, Verdict};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Aig::new();
//! let xs = a.add_inputs(2);
//! let f = a.xor(xs[0], xs[1]);
//! a.add_po(f);
//! let mut b = Aig::new();
//! let ys = b.add_inputs(2);
//! let o = b.or(ys[0], ys[1]);
//! let n = b.and(ys[0], ys[1]);
//! let g = b.and(o, !n);
//! b.add_po(g);
//! let m = miter(&a, &b)?;
//! let exec = Executor::with_threads(1);
//! let result = sat_sweep(&m, &exec, &SweepConfig::default());
//! assert_eq!(result.verdict, Verdict::Equivalent);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod cnf;
pub mod dimacs;
mod heap;
mod portfolio;
mod prover;
mod slit;
mod solver;
mod sweep;

pub use cnf::CnfEncoder;
pub use dimacs::{read_dimacs, write_dimacs, Cnf, ParseDimacsError};
pub use portfolio::{portfolio_check, PortfolioConfig};
pub use prover::{
    dispatch, AttemptStatus, EngineAttempt, EngineKind, ProveOutcome, RACE_THRESHOLD,
};
pub use slit::{LBool, SatLit, SatVar};
pub use solver::{SolveResult, Solver, SolverStats};
pub use sweep::{
    sat_sweep, sat_sweep_seeded, sat_sweep_seeded_cancellable, SweepConfig, SweepResult,
    SweepStats, Verdict,
};
