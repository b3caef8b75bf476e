//! Instrumented characterization and experiment plumbing.
//!
//! This crate produces the paper's *measurement* artifacts — the numbers
//! that explain the performance results:
//!
//! * [`characterize`] — replays a workload against an instrumented Tier-1
//!   model and measures page-reuse percentage, total I/O, and the
//!   distribution of Remaining Reuse Distances at Tier-1 evictions
//!   (Table 2 and Fig. 7),
//! * [`vtd_rd_pairs`] / [`correlation`] — the VTD ↔ reuse-distance
//!   relation (Fig. 4a),
//! * [`eviction_rrd_series`] — per-page RRD sequences at successive
//!   evictions (Fig. 4b/4c),
//! * [`runner`] — one-call execution of any workload on any system (BaM,
//!   HMM, the three GMT policies) with paired speedup/I/O comparisons,
//!   plus the §3.6 "optimistic HMM" estimate,
//! * [`tracesum`] — summaries over captured decision traces: per-window
//!   counters and occupancy, SSD queue-depth percentiles, and exact
//!   reconciliation against [`gmt_core::TieringMetrics`],
//! * [`table`] — fixed-width text tables for the figures.

#![warn(missing_docs)]

mod characterize;
pub mod runner;
pub mod table;
pub mod timeline;
pub mod tracesum;

pub use characterize::{
    characterize, correlation, eviction_rrd_series, vtd_rd_pairs, Characterization,
};
