//! # parsweep-cut — cut enumeration substrate
//!
//! Local function checking (paper §III-C) needs, for every candidate pair
//! of nodes, *multiple common cuts* of bounded size. This crate provides
//! the cut machinery: a fixed-capacity [`Cut`] type, priority-cut
//! enumeration per the paper's Eq. (1), the three-pass selection criteria
//! of Table I (plus the similarity metric that aligns the cuts of a
//! non-representative with its class representative), common-cut
//! generation for pairs, and the enumeration levels of Eq. (2) that order
//! the level-parallel cut generation. The [`CutKernel`] runs that
//! generation level-parallel on the device runtime.
//!
//! Selection scores each candidate once: [`select_priority_cuts`] computes
//! every candidate's key (similarity, then the pass metrics) up front and
//! sorts only the `c` it keeps. [`CutScorer::compare`] and
//! [`compare_with_similarity`] are the reference order it reproduces.
//!
//! ```
//! use parsweep_cut::{Cut, CutParams, enumerate_cuts};
//! use parsweep_aig::{Lit, Var};
//! // A node with fanins v4 and v5 whose fanins have no priority cuts yet
//! // gets exactly the cut {v4, v5}.
//! let cuts = enumerate_cuts(Lit::new(4, false), Lit::new(5, true), &[], &[],
//!                           CutParams::default());
//! assert_eq!(cuts, vec![Cut::new(&[Var::new(4), Var::new(5)])]);
//! ```

#![warn(missing_docs)]

mod criteria;
mod cut;
mod enumerate;
mod kernel;

pub use criteria::{compare_with_similarity, similarity, CutMetrics, CutScorer, Pass};
pub use cut::{Cut, MAX_CUT_SIZE};
pub use enumerate::{
    common_cuts, enumerate_cuts, enumeration_groups, enumeration_levels, filter_dominated,
    select_priority_cuts, CutParams,
};
pub use kernel::CutKernel;
