//! A guided tour of the GMT library.
//!
//! Everything below is a runnable doctest; this module contains no code.
//!
//! # 1. The mental model
//!
//! The paper's system has three layers, and the crate structure mirrors
//! them:
//!
//! * A **workload** produces a stream of coalesced warp accesses
//!   ([`crate::workloads::Workload`]). It knows nothing about memory.
//! * A **memory backend** ([`crate::gpu::MemoryBackend`]) services each
//!   access against a tier hierarchy and virtual device clocks. The GMT
//!   runtime ([`crate::core::Gmt`]), BaM and HMM are the three backends.
//! * An **executor** ([`crate::gpu::Executor`]) replays the stream across
//!   many concurrent warp contexts, which is what converts device
//!   latencies into end-to-end time.
//!
//! The one-call wrapper [`crate::analysis::runner::run_system`] wires the
//! three together:
//!
//! ```
//! use gmt::analysis::runner::{geometry_for, run_system, SystemKind};
//! use gmt::core::PolicyKind;
//! use gmt::workloads::{hotspot::Hotspot, WorkloadScale};
//!
//! let workload = Hotspot::with_scale(&WorkloadScale::tiny());
//! let geometry = geometry_for(&workload, 4.0, 2.0);
//! let run = run_system(&workload, SystemKind::Gmt(PolicyKind::Reuse), &geometry, 1);
//! assert!(run.metrics.t1_misses > 0);
//! ```
//!
//! # 2. Configuring the runtime
//!
//! [`crate::core::GmtConfig`] holds every knob as a public field;
//! [`GmtConfig::new`](crate::core::GmtConfig::new) fills in the paper's
//! published configuration (GMT-Reuse, Hybrid-32T transfers, 80 % bypass
//! threshold, demand-only movement), and
//! [`GmtConfig::validate`](crate::core::GmtConfig::validate) reports a
//! degenerate setting as a typed error before [`crate::core::Gmt::new`]
//! would panic on it:
//!
//! ```
//! use gmt::core::{Gmt, GmtConfig, MarkovScope, PolicyKind};
//! use gmt::mem::TierGeometry;
//!
//! let mut config = GmtConfig::new(TierGeometry::from_tier1(64, 4.0, 2.0));
//! config.policy = PolicyKind::Reuse;
//! config.reuse.markov_scope = MarkovScope::PerPage; // ablation variant
//! config.prefetch_degree = 4; // extension, default off
//! config.ssd_devices = 2; // striped Tier-3
//! config.validate().expect("a well-formed configuration");
//! let gmt = Gmt::new(config);
//! assert_eq!(gmt.config().ssd_devices, 2);
//! ```
//!
//! # 3. Bringing your own workload
//!
//! Implement [`crate::workloads::Workload`]: name, address-space extent,
//! and a deterministic trace. Page ids must stay below
//! `total_pages()`.
//!
//! ```
//! use gmt::mem::{PageId, WarpAccess};
//! use gmt::workloads::Workload;
//!
//! struct PingPong;
//!
//! impl Workload for PingPong {
//!     fn name(&self) -> &'static str { "PingPong" }
//!     fn total_pages(&self) -> usize { 128 }
//!     fn trace(&self, _seed: u64) -> Vec<WarpAccess> {
//!         (0..1_000u64)
//!             .map(|i| WarpAccess::read(PageId(if i % 2 == 0 { 0 } else { 64 })))
//!             .collect()
//!     }
//! }
//!
//! use gmt::analysis::runner::{geometry_for, run_system, SystemKind};
//! let geometry = geometry_for(&PingPong, 4.0, 2.0);
//! let run = run_system(&PingPong, SystemKind::Bam, &geometry, 0);
//! // Two hot pages: after the cold misses everything hits Tier-1.
//! assert!(run.metrics.t1_hit_rate() > 0.99);
//! ```
//!
//! # 4. Understanding a result
//!
//! Three tools explain *why* a run performed as it did:
//!
//! * [`crate::analysis::characterize`] — reuse % and the Fig. 7 RRD tier
//!   bias,
//! * [`crate::reuse::mrc::MissRatioCurve`] — the LRU miss ratio at any
//!   capacity (the ceiling on what Tier-2 can recover),
//! * [`crate::core::Gmt::latency_breakdown`] — measured host vs SSD
//!   miss-service distributions (the paper's ~50 µs vs ~130 µs).
//!
//! ```
//! use gmt::mem::PageId;
//! use gmt::reuse::mrc::MissRatioCurve;
//!
//! // A loop over 50 pages thrashes any smaller LRU...
//! let mrc = MissRatioCurve::from_trace((0..10).flat_map(|_| (0..50).map(PageId)));
//! assert_eq!(mrc.miss_ratio(49), 1.0);
//! // ...and only takes cold misses once it fits.
//! assert!(mrc.miss_ratio(50) <= 0.1);
//! ```
//!
//! # 5. Reproducing the paper
//!
//! `cargo run -p gmt-bench --release --bin paper` regenerates every table
//! and figure into `results/figures/` and the headline numbers into
//! `REPORT.md` on your machine, and `EXPERIMENTS.md` records the
//! paper-vs-measured comparison for all of them.
