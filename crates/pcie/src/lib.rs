//! PCIe Gen3 x16 transfer models for the Tier-1 ⇄ Tier-2 path.
//!
//! Paper §2.3 identifies two mechanisms for moving pages between GPU memory
//! and host memory, with sharply different cost shapes (Fig. 6a):
//!
//! * **`cudaMemcpyAsync`** — a DMA engine moves each non-contiguous page in
//!   a separate, serialized engine operation. Low fixed cost per call, but
//!   one engine: it becomes a serialization bottleneck for large scattered
//!   batches and across concurrent warps.
//! * **Zero-copy** — warp threads issue loads/stores directly against
//!   pinned host memory. Throughput scales with the number of threads that
//!   can be employed, but each batch pays a pinning overhead up front.
//!
//! The crossover sits at ≈8 non-contiguous pages, and the paper's
//! **Hybrid-XT** policy uses zero-copy only when (a) the batch exceeds
//! 8 pages and (b) at least `X` threads can be employed; Hybrid-32T (the
//! full warp) wins across the Zipf skew sweep (Fig. 6b) and is what GMT
//! ships with.
//!
//! [`HostLink`] implements both engines over a shared [`gmt_sim::Link`] and
//! [`TransferMethod`] selects between them.

#![warn(missing_docs)]

mod transfer;

pub use transfer::{HostLink, HostLinkConfig, TransferBatch, TransferMethod, TransferStats};
