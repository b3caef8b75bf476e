//! # GMT: GPU-Orchestrated Memory Tiering
//!
//! A full Rust reproduction of **"GMT: GPU Orchestrated Memory Tiering for
//! the Big Data Era"** (ASPLOS 2024). GMT builds a GPU-orchestrated 3-tier
//! memory hierarchy — GPU memory (Tier-1), host memory (Tier-2), NVMe SSD
//! (Tier-3) — with a reuse-prediction-based insertion policy deciding where
//! each Tier-1 eviction victim goes.
//!
//! Because the paper's platform (A100 + NVMe peer-to-peer) is hardware, this
//! workspace implements the whole substrate as a calibrated discrete-event
//! simulation (see `DESIGN.md` for the substitution table) and the GMT
//! algorithms — clock replacement, VTD sampling, OLS reuse regression, the
//! 3-state Markov tier predictor, Hybrid-32T transfers — exactly as
//! published.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`sim`] — virtual time, queueing resources, Zipf sampling, statistics.
//! * [`mem`] — pages, tiers, warp accesses, clock/FIFO structures.
//! * [`ssd`] — the NVMe SSD model (queue pairs, channels, latency/BW).
//! * [`pcie`] — PCIe link, DMA vs zero-copy transfer engines, Hybrid-XT.
//! * [`gpu`] — the warp-level execution engine that replays traces.
//! * [`reuse`] — reuse-distance machinery (Olken tree, VTD, OLS, Markov).
//! * [`core`] — the GMT runtime and its three placement policies.
//! * [`baselines`] — BaM (2-tier) and HMM (CPU-orchestrated) baselines.
//! * [`workloads`] — the nine paper applications as trace generators.
//! * [`analysis`] — instrumented characterization (reuse %, RRD histograms).
//!
//! # Quickstart
//!
//! Run MultiVectorAdd through GMT-Reuse and BaM, and compare:
//!
//! ```
//! use gmt::analysis::runner::{geometry_for, run_system, SystemKind};
//! use gmt::core::PolicyKind;
//! use gmt::workloads::{multivectoradd::MultiVectorAdd, Workload, WorkloadScale};
//!
//! let workload = MultiVectorAdd::with_scale(&WorkloadScale::tiny());
//! let geometry = geometry_for(&workload, 4.0, 2.0);
//!
//! let bam = run_system(&workload, SystemKind::Bam, &geometry, 7);
//! let gmt = run_system(&workload, SystemKind::Gmt(PolicyKind::Reuse), &geometry, 7);
//! println!("GMT-Reuse speedup over BaM: {:.2}x", gmt.speedup_over(&bam));
//! assert!(gmt.elapsed.as_nanos() > 0 && bam.elapsed.as_nanos() > 0);
//! ```

pub mod tutorial;

pub use gmt_analysis as analysis;
pub use gmt_baselines as baselines;
pub use gmt_core as core;
pub use gmt_frontend as frontend;
pub use gmt_gpu as gpu;
pub use gmt_mem as mem;
pub use gmt_pcie as pcie;
pub use gmt_reuse as reuse;
pub use gmt_serve as serve;
pub use gmt_sim as sim;
pub use gmt_ssd as ssd;
pub use gmt_workloads as workloads;
