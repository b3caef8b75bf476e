//! Multi-tenant serving on one GMT hierarchy.
//!
//! The paper evaluates GMT one application at a time; a serving
//! deployment instead multiplexes *N* tenant workload streams over a
//! single tiered hierarchy, and the interesting questions become
//! distributional: who gets the scarce Tier-1, whose misses queue
//! behind whose SSD reads, and how badly can one tenant's scan degrade
//! another tenant's working set. This crate builds that layer out of
//! the existing substrate:
//!
//! * [`TenantRegistry`] — admission control: each [`TenantSpec`] asks
//!   for a share of Tier-1 (plus an optional protected floor), and
//!   admission fails up front when the asks are unsatisfiable under
//!   the chosen [`PartitionPolicy`].
//! * [`PartitionPolicy`] (re-exported from `gmt-core`) — how Tier-1 is
//!   split: strict per-tenant quotas, weighted work-conserving shares,
//!   fully shared with QoS-protected floors, or fully shared
//!   free-for-all.
//! * [`ArrivalSchedule`] — deterministic seeded open-arrival load
//!   generation (uniform, Poisson, bursty) per tenant; schedules are
//!   merged into one interleaved stream and replayed through
//!   [`gmt_gpu::Executor::run_arrivals`].
//! * [`TieredService`] — the registry on one tiering engine
//!   ([`gmt_core::Gmt::with_tenants`]): per-tenant Tier-1 organization,
//!   one shared Tier-2, one shared SSD array and PCIe links (contention
//!   is shared even when capacity is not), and *per-tenant* reuse
//!   machinery so one tenant's access pattern never poisons another's
//!   predictions.
//! * [`ServeReport`] — per-tenant hit rates, miss-service latency
//!   percentiles and the Jain fairness index, straight from the
//!   tenant-stamped trace stream.
//!
//! The `paper` driver's `serve_isolation` and `serve_scaling` captures
//! (`results/figures/`) sweep tenant count × partitioning policy and
//! check the isolation story: under [`PartitionPolicy::StrictQuota`] or
//! QoS floors, a sequential-scan tenant pulls a Zipf tenant's Tier-1 hit
//! rate down by 0.00 and 2.28 pp, within 10 % of its solo 95.23 %, while
//! [`PartitionPolicy::FullyShared`] shows 6.90 pp of interference.

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

mod arrival;
mod report;
mod runtime;
mod tenant;

pub use arrival::ArrivalSchedule;
pub use gmt_core::{PartitionPolicy, TenantId};
pub use gmt_sim::trace::SloClass;
pub use report::{ServeReport, TenantReport};
pub use runtime::{ServeConfig, ServeOutcome, TieredService};
pub use tenant::{AdmissionError, TenantRegistry, TenantSpec};
