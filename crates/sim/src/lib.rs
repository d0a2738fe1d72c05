//! # parsweep-sim — bit-parallel simulation substrate
//!
//! Implements both simulators of the paper's CEC engine:
//!
//! * the **partial simulator** ([`partial`]): samples random or
//!   counter-example patterns on every node of a miter (or a live cone,
//!   or the dirty cone of a rewrite — one level-scheduled driver) to
//!   initialize and refine equivalence classes;
//! * the **exhaustive simulator** ([`exhaustive`], paper Algorithm 1): the
//!   engine's *prover*, which compares the complete truth tables of
//!   candidate pairs over simulation [`Window`]s, in bounded memory via
//!   multi-round segment simulation, with window merging (§III-B3) to
//!   reduce total effort.
//!
//! ```
//! use parsweep_aig::Aig;
//! use parsweep_par::Executor;
//! use parsweep_sim::{check_windows, PairCheck, PairOutcome, Window};
//!
//! // Prove (a & b) == !(!a | !b) by exhaustive simulation.
//! let mut aig = Aig::new();
//! let xs = aig.add_inputs(2);
//! let f = aig.and(xs[0], xs[1]);
//! let g = aig.or(!xs[0], !xs[1]); // g == !f
//! let complement = f.is_complemented() == g.is_complemented();
//! let pair = PairCheck { a: f.var(), b: g.var(), complement };
//! let window = Window::global(&aig, pair);
//! let exec = Executor::with_threads(1);
//! let (outcomes, _) = check_windows(&aig, &exec, &[window], 1 << 12);
//! assert_eq!(outcomes[0][0], PairOutcome::Equal);
//! ```

#![warn(missing_docs)]

mod cex;
mod classes;
pub mod cone;
pub mod exhaustive;
pub mod npn;
pub mod partial;
pub mod resim;
pub mod reverse;
mod sigwin;
mod tt;
mod window;

pub use cex::Cex;
pub use classes::{
    find_po_counterexample, refine_classes, signature_classes, signature_classes_among,
};
pub use cone::{cone_truth_table, MAX_CONE_VARS};
pub use exhaustive::{
    check_windows, check_windows_cancellable, PairOutcome, SimEffort, DEFAULT_MEMORY_WORDS,
};
pub use partial::{simulate, simulate_cone, Patterns, Signatures};
pub use resim::ResimPlan;
pub use tt::{projection_word, word_len, TruthTable, PROJECTIONS};
pub use window::{merge_windows, merge_windows_clustered, PairCheck, Window};
