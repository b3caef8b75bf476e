//! Online serving front-end for the tiered hierarchy.
//!
//! Everything below `gmt-serve` replays *schedules*: the offered load
//! is known up front and merged offline. A serving deployment is not
//! like that — requests arrive on N client connections, get batched,
//! admitted or refused, and graded against per-class latency
//! objectives. This crate models that front half of the system on top
//! of [`gmt_serve::TieredService`], deterministically:
//!
//! * [`conn`] — per-connection state machines with seeded exponential
//!   inter-arrival gaps, request sizes and Zipf page popularity.
//! * [`batch`] — per-tenant batching flushed at the Fig. 6 hybrid
//!   crossover (the point where the transfer engine switches to
//!   zero-copy), on class-scaled max-delay timers, or at drain.
//! * [`engine`] — admission backpressure (admit / defer / shed against
//!   class-graded occupancy thresholds and Tier-1 pressure) and the
//!   event loop driving the hierarchy.
//! * [`report`] — per-class p50/p99/p999 and SLO-violation rates,
//!   reconciled exactly against the hierarchy's own counters.
//!
//! Every decision is a typed [`gmt_sim::trace::TraceEvent`] in the same
//! ring the hierarchy traces into, so one stream tells the whole story
//! from admission to SSD.
//!
//! # Example
//!
//! ```
//! use gmt_core::GmtConfig;
//! use gmt_frontend::{suggested_floor, Frontend};
//! use gmt_mem::TierGeometry;
//! use gmt_serve::{
//!     ArrivalSchedule, PartitionPolicy, ServeConfig, SloClass, TenantRegistry, TenantSpec,
//!     TieredService,
//! };
//! use gmt_workloads::synthetic::ZipfLoop;
//! use gmt_workloads::WorkloadScale;
//!
//! let tier1 = 64;
//! let mut registry = TenantRegistry::new(tier1, PartitionPolicy::SharedQos);
//! registry
//!     .admit(TenantSpec {
//!         name: "point-lookups".into(),
//!         workload: Box::new(ZipfLoop::new(&WorkloadScale::tiny(), 1.1, 0.1, 100)),
//!         arrival: ArrivalSchedule::Uniform { gap_ns: 500 },
//!         quota_pages: 0,
//!         weight: 1,
//!         floor_pages: suggested_floor(SloClass::Interactive, tier1, 1),
//!         slo: SloClass::Interactive,
//!         seed: 11,
//!     })
//!     .expect("admitted");
//! let config = ServeConfig {
//!     gmt: GmtConfig::new(TierGeometry::from_tier1(tier1, 4.0, 2.0)),
//!     partition: PartitionPolicy::SharedQos,
//! };
//! let service = TieredService::new(&config, registry).expect("valid");
//! let outcome = Frontend::new(service, 42, 40, 1 << 16).run();
//! let interactive = outcome.report.class(SloClass::Interactive).expect("served");
//! assert_eq!(interactive.admits, interactive.completes());
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod conn;
pub mod engine;
pub mod report;

pub use batch::{TenantBatch, WARP_THREADS};
pub use conn::{ConnPhase, Connection};
pub use engine::{Frontend, FrontendOutcome};
pub use report::FrontendReport;

use gmt_sim::trace::SloClass;

/// A starting-point QoS floor for a tenant of `class` sharing `tier1`
/// pages with `tenants_of_class` same-class tenants: interactive
/// tenants split half of Tier-1 as eviction-exempt floors, standard
/// tenants an eighth, batch tenants get none. Feeds
/// [`gmt_serve::PartitionPolicy::SharedQos`]; callers with real
/// capacity plans should size floors themselves.
///
/// # Panics
///
/// Panics if `tenants_of_class` is zero.
pub fn suggested_floor(class: SloClass, tier1: usize, tenants_of_class: usize) -> usize {
    assert!(tenants_of_class > 0, "at least one tenant shares the floor");
    let share = match class {
        SloClass::Interactive => tier1 / 2,
        SloClass::Standard => tier1 / 8,
        SloClass::Batch => 0,
    };
    share / tenants_of_class
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suggested_floors_rank_by_sensitivity_and_split_by_population() {
        assert_eq!(suggested_floor(SloClass::Interactive, 256, 1), 128);
        assert_eq!(suggested_floor(SloClass::Interactive, 256, 2), 64);
        assert_eq!(suggested_floor(SloClass::Standard, 256, 1), 32);
        assert_eq!(suggested_floor(SloClass::Batch, 256, 1), 0);
    }
}
