//! Memory vocabulary shared by every component of the GMT reproduction.
//!
//! This crate defines the units the paper's algorithms operate on:
//!
//! * [`PageId`] and [`Tier`] — 64 KB pages and the three-tier hierarchy
//!   (GPU memory, host memory, SSD),
//! * [`WarpAccess`] / [`PageSet`] — one coalesced memory instruction from a
//!   GPU warp, touching one or more pages,
//! * [`ClockList`] — the clock (second-chance) replacement list used in
//!   Tier-1 (paper §2, common parameter 3),
//! * [`FifoCache`] — the FIFO-managed Tier-2 structure (paper §2.2),
//! * [`PageTable`] — a dense per-page metadata table,
//! * [`TierGeometry`] — capacities and the over-subscription arithmetic the
//!   evaluation sweeps.

#![warn(missing_docs)]

mod access;
mod clock;
mod fifo;
mod geometry;
mod page;
mod table;

pub mod trace;

pub use access::{PageSet, WarpAccess, WARP_PAGES};
pub use clock::ClockList;
pub use fifo::FifoCache;
pub use geometry::TierGeometry;
pub use page::{PageId, Tier};
pub use table::PageTable;
