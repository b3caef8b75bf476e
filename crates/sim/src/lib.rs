//! Discrete-event simulation substrate for the GMT reproduction.
//!
//! This crate provides the timing vocabulary shared by every hardware model
//! in the workspace:
//!
//! * [`Time`] and [`Dur`] — nanosecond-granularity virtual time,
//! * [`FifoServer`], [`ServerPool`], [`Link`] — queueing resources used to
//!   model DMA engines, SSD channels and PCIe links,
//! * [`Zipf`] — the skewed access generator used by the paper's transfer
//!   micro-benchmark (Fig. 6b),
//! * [`stats`] — log-bucketed histograms for experiment output,
//! * [`rng`] — deterministic, seedable random number helpers,
//! * [`parts`] — host-side work split across cores, joined in order.
//!
//! # Examples
//!
//! Model a DMA engine as a single FIFO server with a 2 µs per-call overhead:
//!
//! ```
//! use gmt_sim::{FifoServer, Time, Dur};
//!
//! let mut dma = FifoServer::new();
//! let t0 = Time::ZERO;
//! let first = dma.submit(t0, Dur::from_micros(2));
//! let second = dma.submit(t0, Dur::from_micros(2));
//! assert_eq!(first, Time::ZERO + Dur::from_micros(2));
//! // The second request queues behind the first.
//! assert_eq!(second, Time::ZERO + Dur::from_micros(4));
//! ```

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

mod server;
mod time;
mod zipf;

pub mod events;
pub mod parts;
pub mod rng;
pub mod stats;
pub mod trace;

pub use server::{FifoServer, Link, ServerPool};
pub use time::{Dur, Time};
pub use zipf::Zipf;
