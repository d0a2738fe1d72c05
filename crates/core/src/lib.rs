//! # parsweep-core — the simulation-based parallel sweeping CEC engine
//!
//! The primary contribution of *"Simulation-based Parallel Sweeping: A New
//! Perspective on Combinational Equivalence Checking"* (DAC 2025): a
//! combinational equivalence checker whose prover is **exhaustive
//! simulation** rather than SAT.
//!
//! The engine (paper Fig. 1/Fig. 5) combines five modules:
//!
//! * an **exhaustive simulator** (in [`parsweep_sim`]) that compares the
//!   complete truth tables of candidate node pairs in bounded memory;
//! * a **cut generator** (in [`parsweep_cut`]) producing multiple common
//!   cuts per pair for *local function checking* of wide-support pairs;
//! * a **miter manager** that merges proved pairs and reduces the miter
//!   (in [`parsweep_aig`]);
//! * an **EC manager** ([`EcManager`]) maintaining equivalence classes;
//! * a **partial simulator** (in [`parsweep_sim`]) initializing and
//!   refining the classes with random and counter-example patterns.
//!
//! The flow runs a PO checking phase (P), a global function checking
//! phase (G), then repeated local function checking phases (L). The
//! paper's "GPU+ABC" configuration, [`combined_check`], runs P and G only
//! and hands the reduced miter they leave to the seeded SAT sweep, which
//! finishes it for less than the L phases would cost.
//!
//! ```
//! use parsweep_aig::{Aig, miter};
//! use parsweep_core::{sim_sweep, EngineConfig};
//! use parsweep_par::Executor;
//! use parsweep_sat::Verdict;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 2-bit ripple adder vs its majority-gate variant.
//! let mut a = Aig::new();
//! let xs = a.add_inputs(4);
//! let s0 = a.xor(xs[0], xs[2]);
//! let c0 = a.and(xs[0], xs[2]);
//! let s1a = a.xor(xs[1], xs[3]);
//! let s1 = a.xor(s1a, c0);
//! a.add_po(s0);
//! a.add_po(s1);
//! let mut b = Aig::new();
//! let ys = b.add_inputs(4);
//! let t0 = b.xor(ys[0], ys[2]);
//! let d0 = b.maj3(ys[0], ys[2], parsweep_aig::Lit::FALSE);
//! let t1a = b.xor(ys[1], ys[3]);
//! let t1 = b.xor(t1a, d0);
//! b.add_po(t0);
//! b.add_po(t1);
//! let m = miter(&a, &b)?;
//! let exec = Executor::with_threads(1);
//! let result = sim_sweep(&m, &exec, &EngineConfig::default());
//! assert_eq!(result.verdict, Verdict::Equivalent);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod combined;
mod config;
mod diagnose;
mod ec;
mod engine;
mod fraig;
mod local;
mod report;
mod stats;

pub use combined::{combined_check, combined_check_cancellable, CombinedConfig, CombinedResult};
pub use config::EngineConfig;
pub use diagnose::{diagnose, Diagnosis};
pub use ec::EcManager;
pub use engine::{sim_sweep, sim_sweep_cancellable, sim_sweep_traced, EngineResult, PhaseSnapshot};
pub use fraig::{fraig, FraigResult};
pub use report::Report;
pub use stats::{EngineStats, PhaseTimes};

// Re-export the shared verdict type for convenience.
pub use parsweep_sat::Verdict;
