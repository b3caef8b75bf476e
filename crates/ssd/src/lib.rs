//! NVMe SSD model for the GMT reproduction.
//!
//! The paper's Tier-3 is a Samsung 970 EVO Plus on PCIe Gen3 x4, accessed
//! two ways:
//!
//! * **GPU-direct** (the BaM mechanism, §2.3): GPU threads write NVMe
//!   commands into submission queues that live in GPU memory and are mapped
//!   over the PCIe bus, then ring the doorbell — no host software involved.
//! * **Host userspace I/O** (libnvm) for Tier-2 ⇄ Tier-3 transfers, which
//!   are off the GPU's critical path.
//!
//! Both paths drive the same device model:
//!
//! * [`qpair`] — a queue pair's depth limit: the in-flight window that
//!   throttles BaM's GPU threads when its rings fill (no doorbells or
//!   completion entries; only the timing that shapes results),
//! * [`SsdDevice`] — a multi-channel flash timing model behind a Gen3 x4
//!   link, calibrated so a 64 KB page read costs ≈130 µs at low load and
//!   aggregate read bandwidth saturates ≈3.2 GB/s — the numbers the paper
//!   itself reports (§3.4).

#![warn(missing_docs)]

pub mod array;
mod device;
pub mod host_io;
pub mod qpair;

pub use device::{SsdConfig, SsdDevice, SsdStats};
