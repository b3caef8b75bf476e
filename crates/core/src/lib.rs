//! The GMT runtime: a GPU-orchestrated 3-tier memory hierarchy.
//!
//! This crate implements the paper's primary contribution — the tiering
//! runtime that fields every coalesced warp access against GPU memory
//! (Tier-1), host memory (Tier-2) and the SSD (Tier-3), with *the GPU*
//! orchestrating all critical-path transfers:
//!
//! * Tier-1 uses clock replacement; misses always fill into Tier-1
//!   directly from whichever tier holds the page (the up-path bypasses
//!   Tier-2, as in BaM — §2, common parameter 4).
//! * On every Tier-1 eviction, a [`PolicyKind`] decides where the victim
//!   goes: always Tier-2 (**GMT-TierOrder**), a coin flip
//!   (**GMT-Random**), or the reuse predictor (**GMT-Reuse**, §2.1.3)
//!   combining VTD sampling + OLS regression, Eq. 1 classification and the
//!   3-state Markov chain — plus the 80 % Tier-3-pressure heuristic
//!   (§2.2) that keeps Tier-2 utilized when predictions skew long.
//! * Tier-1 ⇄ Tier-2 moves use the Hybrid-32T transfer engine (§2.3);
//!   Tier-1 ⇄ Tier-3 moves use BaM-style GPU-direct NVMe; Tier-2 → Tier-3
//!   write-backs use host userspace I/O off the critical path.
//!
//! The entry point is [`Gmt`], which implements
//! [`gmt_gpu::MemoryBackend`] and can be replayed by [`gmt_gpu::Executor`].
//! The same engine serves many tenants: [`Gmt::with_tenants`] takes a
//! tenant table of [`TenantSlice`]s and a [`PartitionPolicy`] dividing
//! Tier-1 among them (the `gmt-serve` crate builds on it).

#![warn(missing_docs)]
// P1: library code surfaces typed errors, not panics. A justified
// exception carries `#[expect(clippy::…, reason = "…")]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

mod config;
mod manager;
mod metrics;
mod tenant;
mod tier2;

pub use config::{
    ConfigError, FrontendConfig, GmtConfig, MarkovScope, PolicyKind, PredictorKind, ReuseConfig,
    Tier2Insert,
};
pub use manager::{Gmt, LatencyBreakdown, TierSnapshot};
pub use metrics::TieringMetrics;
pub use tenant::{PartitionPolicy, TenantId, TenantSlice};
