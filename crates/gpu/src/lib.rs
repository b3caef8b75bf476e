//! GPU execution model: warp-level trace replay with latency hiding.
//!
//! GMT's decisions are driven entirely by the stream of *coalesced warp
//! accesses* a kernel issues and by how long each miss stalls the issuing
//! warp. Traces arrive already coalesced: each [`gmt_mem::WarpAccess`]
//! lists the distinct pages one warp instruction touches. This crate
//! models the rest:
//!
//! * [`MemoryBackend`] — the interface every tiering runtime (GMT, BaM,
//!   HMM) implements: given a warp access at a time, return when the warp
//!   may proceed,
//! * [`Executor`] — replays a trace across a configurable number of
//!   resident warp contexts. Thousands of concurrent warps are what makes
//!   GPU memory tiering *throughput*-sensitive rather than
//!   latency-sensitive (paper §2): one warp's 130 µs SSD miss is invisible
//!   if 2047 other warps can issue in the meantime, but a serialized
//!   intermediary (a DMA engine, a handful of host cores) stalls them all.

#![warn(missing_docs)]

mod executor;
mod partitioned;

pub use executor::{Executor, ExecutorConfig, MemoryBackend, Replay, RunOutcome};
pub use partitioned::PartitionedExecutor;
