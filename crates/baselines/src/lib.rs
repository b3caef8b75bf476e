//! The paper's two comparison systems, re-implemented on the same
//! simulated substrate as GMT:
//!
//! * [`Bam`] — the state-of-the-art *GPU-orchestrated 2-tier* hierarchy
//!   (GPU memory ⇄ SSD). Clock replacement in GPU memory; misses issue
//!   GPU-direct NVMe reads; dirty victims are written back to the SSD;
//!   host memory is bypassed entirely. This is the baseline every figure
//!   normalizes against.
//! * [`Hmm`] — Linux Heterogeneous Memory Management: a *CPU-orchestrated
//!   3-tier* hierarchy. Every GPU fault is serviced by host software (a
//!   serialized fault-buffer drain plus a bounded pool of handler cores)
//!   through the host page cache, with `cudaMemcpy`-style DMA migrations.
//!   Its bottleneck is exactly the one the paper identifies: host cores
//!   cannot match the demand throughput of thousands of GPU warps.
//!
//! Both implement [`gmt_gpu::MemoryBackend`] and reuse
//! [`gmt_core::TieringMetrics`], so every run is directly comparable.

#![warn(missing_docs)]

mod bam;
mod hmm;

pub use bam::{Bam, BamConfig, BAM_QUEUE_SLOTS};
pub use hmm::{Hmm, HmmConfig};
