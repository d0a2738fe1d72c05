//! # parsweep-net — the networked multi-client front-end
//!
//! The engine underneath ([`parsweep_svc::CecService`]) is a throughput
//! machine: many independent cone proofs, a work-stealing pool, a
//! structural result cache. The stdin front-end wastes that — one
//! client, one request at a time, queue-wait dominating latency. This
//! crate is the "many concurrent CEC jobs" story from the paper's
//! service framing: a TCP server speaking the same JSON-lines protocol,
//! std-only (thread-per-connection, no async runtime, no new
//! dependencies), with the three mechanisms a shared service needs:
//!
//! * **Admission control** ([`admission`]): a bounded in-flight budget
//!   with per-lane queues; submits answer `accepted`, `queued`, or
//!   `rejected` with a `retry_after_ms` backoff hint.
//! * **Fairness**: round-robin grant order across clients, per-client
//!   in-flight quotas, and two priority lanes
//!   (`"lane":"interactive"|"batch"`) with an anti-starvation rotation
//!   mirroring the worker pool's.
//! * **Pushed, multiplexed results**: requests carry an `"id"` the
//!   server echoes on every response, so one connection can pipeline
//!   many jobs and match results as they settle.
//!
//! The `net_cold` and `net_warm` workloads of the repository benchmark
//! (`benchmark/`) drive concurrent clients against this server's binary.

#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod server;

pub use admission::{Admission, AdmissionConfig, AdmissionStats, Decision, Grant};
pub use client::{Event, NetClient, SubmitReply};
pub use server::{NetConfig, NetServer};
