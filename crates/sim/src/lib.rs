//! # rta-sim — discrete-event simulator for distributed job chains
//!
//! Simulates the exact system model of the ICPP'98 paper: jobs as chains of
//! subjobs over processors running SPP, SPNP, FCFS or IWRR schedulers, with
//! the Direct Synchronization protocol (an instance's completion on hop `j`
//! releases hop `j+1` immediately).
//!
//! The simulator is the workspace's ground truth:
//!
//! * for all-SPP systems, simulated response times must **equal** the exact
//!   analysis of `rta-core` (Theorem 1) on the same trace;
//! * for SPNP/FCFS/IWRR systems, simulated responses must lie **at or
//!   below** the Theorem 4 bounds;
//! * recorded per-subjob service intervals reconstruct observed service
//!   functions, which must be bracketed by the analytic bounds at the first
//!   hop (exact arrivals) and must match the exact Theorem 3 curves on SPP.
//!
//! The engine is an indexed discrete-event core (see DESIGN.md §4f): a
//! sorted primary-release table and one pending-completion slot per
//! processor, instances in a flat arena, per-processor ready queues
//! feeding zero-allocation policy decisions. It is exact on
//! the integer tick lattice — no quantum loop, no floating point.
//!
//! ## Features
//!
//! * `trace` — record per-subjob serving intervals and per-hop
//!   release/start/finish records ([`SimResult::observed_service`],
//!   [`SimResult::observed_utilization`], `SimResult::hop_records`).
//!   Off by default: the hot path then records completion times only.
//!
//! ## Monte-Carlo replication
//!
//! [`batch`] replicates bursty arrival draws across the worker pool with
//! per-thread engine workspaces, producing per-job empirical response-time
//! distributions and the observed-vs-analytic tightness gap per policy.
//! [`wcdfp`] is its verdict-only sibling: the same event loop behind a
//! counters-only observer, streaming per-job deadline-failure probability
//! estimates (confidence intervals, P² sketches, adaptive stopping)
//! without materializing a result per draw.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod engine;
mod result;

pub mod batch;
pub mod wcdfp;

pub use engine::{simulate, SimConfig, SimEngine};
#[cfg(feature = "trace")]
pub use result::HopRecord;
pub use result::SimResult;
