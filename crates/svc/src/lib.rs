//! # parsweep-svc — a multi-client CEC job service
//!
//! The paper frames simulation-based sweeping as a *throughput* engine:
//! many independent checks saturating one parallel executor. This crate
//! turns that framing into a service:
//!
//! * **Sharding** ([`shard_miter`]): each submitted miter splits along
//!   its output cones into independently provable sub-jobs (a miter is
//!   equivalent iff every PO cone is constant zero), scheduled on a
//!   lane-aware worker pool (one locked queue per [`Lane`]) that drives
//!   the `parsweep-core` engine, one executor per worker.
//! * **Cancellation & deadlines**: every job carries a
//!   [`CancelToken`](parsweep_par::CancelToken) polled at the engine's
//!   phase boundaries and the SAT fallback's budget checks, so a
//!   deadline produces a prompt *partial* verdict — `Undecided`, never a
//!   wrong answer.
//! * **Small cones are decided, not cached**: a single-output shard over
//!   at most [`MAX_CONE_VARS`](parsweep_sim::MAX_CONE_VARS) inputs settles
//!   from its one-word truth table — the table *is* the proof.
//! * **Result cache** ([`ResultCache`]): larger cones are keyed by
//!   canonical structural hash (verified exactly), so repeated traffic —
//!   reruns, `double`d benchmarks, shared blocks — settles without
//!   re-proving. It, the whole-job memo and the front-ends' file cache are
//!   all one bounded, verify-before-serve store.
//! * **Settle hooks**: a job is waited on ([`CecService::wait`]) or
//!   submitted with a hook that receives its result where it settles
//!   ([`CecService::submit_with_hook`]), which is how the TCP front-end
//!   delivers verdicts without a blocked thread per job.
//! * **Front-end**: the `svc` binary speaks flat JSON lines on
//!   stdin/stdout ([`jsonl`]); [`SvcStats`] reports queue wait, shard
//!   counts, cache hit rate and worker utilization.
//!
//! ```
//! use parsweep_aig::{miter, Aig};
//! use parsweep_sat::Verdict;
//! use parsweep_svc::{CecService, SvcConfig};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Aig::new();
//! let xs = a.add_inputs(4);
//! let f = a.and(xs[0], xs[1]);
//! let g = a.xor(xs[2], xs[3]);
//! a.add_po(f);
//! a.add_po(g);
//! let m = miter(&a, &a.clone())?;
//! let svc = CecService::new(SvcConfig::default());
//! let job = svc.submit(m);
//! assert_eq!(svc.wait(job).unwrap().verdict, Verdict::Equivalent);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod cache;
pub mod frontend;
pub mod jsonl;
mod pool;
mod semantic;
mod service;
mod shard;
pub mod shutdown;

pub use cache::{ResultCache, DEFAULT_CACHE_CAPACITY};
pub use pool::Lane;
pub use service::{CecService, JobId, JobResult, JobStats, SubmitOpts, SvcConfig, SvcStats};
pub use shard::{shard_miter, Shard, ShardPolicy};
