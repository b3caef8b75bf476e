//! Per-tenant request batching with Fig. 6 crossover flushes.
//!
//! Admitted requests do not hit the hierarchy one by one: each tenant
//! accumulates pages into an open batch, and the batch is released as a
//! single coalesced [`gmt_mem::WarpAccess`] at one of three flush
//! points:
//!
//! * **Size** — the batch crosses the Fig. 6 hybrid-engine crossover
//!   ([`gmt_pcie::TransferMethod::picks_zero_copy`] at warp width):
//!   from here on the transfer engine moves the batch by zero-copy, so
//!   waiting longer buys nothing.
//! * **Timer** — the batch has been open for the class-scaled maximum
//!   delay. Latency-sensitive classes never wait unboundedly for a
//!   batch that may never fill.
//! * **Drain** — end of run; whatever is open goes out.
//!
//! The batcher consults the configured [`gmt_pcie::TransferMethod`]
//! directly rather than re-encoding the crossover constant, so the
//! flush decision can never drift from the link model's.

use gmt_mem::PageId;
use gmt_pcie::TransferMethod;
use gmt_sim::events::EventId;
use gmt_sim::trace::SloClass;
use gmt_sim::Time;

/// Threads a flushed batch presents to the transfer engine: one warp.
pub const WARP_THREADS: u32 = 32;

/// One admitted-but-unflushed request inside a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchedRequest {
    /// Originating connection.
    pub conn: u32,
    /// When the request arrived (latency is graded from here).
    pub arrived: Time,
}

/// A tenant's open batch: the pages and requests accumulated since the
/// last flush.
#[derive(Debug, Default)]
pub struct TenantBatch {
    /// Global pages accumulated, in admission order.
    pub pages: Vec<PageId>,
    /// The requests those pages came from.
    pub requests: Vec<BatchedRequest>,
    /// Whether any batched request writes (the flush inherits it).
    pub write: bool,
    /// Pending max-delay flush timer, if armed.
    pub timer: Option<EventId>,
}

impl TenantBatch {
    /// An empty batch with room for `pages` pages pre-reserved, so the
    /// steady state appends without reallocating.
    pub fn with_capacity(pages: usize) -> TenantBatch {
        TenantBatch {
            pages: Vec::with_capacity(pages),
            requests: Vec::with_capacity(pages),
            write: false,
            timer: None,
        }
    }

    /// Whether no request is batched.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Appends one admitted request's pages, coalescing duplicates: a
    /// page already in the open batch is fetched once per flush no
    /// matter how many requests want it (the hierarchy requires the
    /// pages of one coalesced access to be distinct). Returns how many
    /// pages were actually added.
    pub fn append(&mut self, conn: u32, arrived: Time, write: bool, pages: &[u64]) -> usize {
        let before = self.pages.len();
        for &p in pages {
            if !self.pages.contains(&PageId(p)) {
                self.pages.push(PageId(p));
            }
        }
        self.requests.push(BatchedRequest { conn, arrived });
        self.write |= write;
        self.pages.len() - before
    }

    /// Whether the open batch has crossed the Fig. 6 crossover: at warp
    /// width the hybrid engine now picks zero-copy for it, so the size
    /// flush point has been reached.
    pub fn crossover_reached(&self, method: &TransferMethod) -> bool {
        method.picks_zero_copy(self.pages.len(), WARP_THREADS)
    }
}

/// The most pages one flush can carry, as far as it matters against a
/// Tier-1 of `room` pages: a batch holds fewer pages than the crossover
/// until the request that takes it there, of at most `max_request_pages`,
/// is appended (a crossover beyond `room` counts as `room + 1`). `None`
/// when the method never picks zero-copy at warp width, so that only the
/// delay timer bounds a flush.
pub fn widest_flush(
    method: &TransferMethod,
    max_request_pages: usize,
    room: usize,
) -> Option<usize> {
    if !method.picks_zero_copy(usize::MAX, WARP_THREADS) {
        return None;
    }
    let crossover = (0..=room)
        .find(|&pages| method.picks_zero_copy(pages, WARP_THREADS))
        .unwrap_or(room + 1);
    Some(crossover.saturating_sub(1) + max_request_pages)
}

/// How long a class's batch may stay open before a timer flush.
///
/// The base is [`gmt_core::FrontendConfig::max_delay_ns`]; less
/// latency-sensitive classes wait geometrically longer (×1 / ×4 / ×16),
/// trading batching efficiency against their wider latency budgets.
pub fn max_delay_ns(class: SloClass, base_ns: u64) -> u64 {
    base_ns << (2 * class as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the Fig. 6 flush decision on both sides of the 8-page
    /// crossover: a 7-page batch has not reached the size flush point
    /// (the engine would still move it by DMA) while an 8-page batch
    /// has (the engine moves it by zero-copy).
    #[test]
    fn size_flush_point_sits_exactly_at_the_fig6_crossover() {
        let method = TransferMethod::hybrid_32t();
        let mut batch = TenantBatch::with_capacity(16);
        for p in 0..7u64 {
            batch.append(0, Time::ZERO, false, &[p]);
            assert!(
                !batch.crossover_reached(&method),
                "{} pages must not trigger a size flush",
                batch.pages.len()
            );
            assert!(!method.picks_zero_copy(batch.pages.len(), WARP_THREADS));
        }
        batch.append(0, Time::ZERO, false, &[7]);
        assert_eq!(batch.pages.len(), 8);
        assert!(
            batch.crossover_reached(&method),
            "8 pages is the crossover: size flush fires"
        );
        assert!(method.picks_zero_copy(8, WARP_THREADS));
    }

    #[test]
    fn widest_flush_is_one_request_past_the_crossover() {
        let hybrid = TransferMethod::hybrid_32t();
        assert_eq!(widest_flush(&hybrid, 16, 256), Some(7 + 16));
        assert_eq!(widest_flush(&hybrid, 16, 4), Some(4 + 16));
        assert_eq!(widest_flush(&TransferMethod::ZeroCopy, 12, 256), Some(12));
        assert_eq!(widest_flush(&TransferMethod::DmaAsync, 12, 256), None);
    }

    #[test]
    fn crossover_follows_the_configured_method_not_a_constant() {
        let method = TransferMethod::Hybrid {
            min_pages: 3,
            min_threads: WARP_THREADS,
        };
        let mut batch = TenantBatch::with_capacity(4);
        batch.append(0, Time::ZERO, false, &[0, 1]);
        assert!(!batch.crossover_reached(&method));
        batch.append(1, Time::ZERO, false, &[2]);
        assert!(batch.crossover_reached(&method));
    }

    #[test]
    fn append_accumulates_pages_requests_and_the_write_bit() {
        let mut batch = TenantBatch::with_capacity(8);
        assert_eq!(batch.append(4, Time::from_nanos(10), false, &[1, 2]), 2);
        assert_eq!(batch.append(5, Time::from_nanos(20), true, &[3]), 1);
        assert_eq!(batch.pages, vec![PageId(1), PageId(2), PageId(3)]);
        assert_eq!(batch.requests.len(), 2);
        assert!(batch.write, "one writer dirties the whole flush");
        assert!(!batch.is_empty());
    }

    #[test]
    fn duplicate_pages_coalesce_within_a_batch() {
        let mut batch = TenantBatch::with_capacity(8);
        assert_eq!(
            batch.append(0, Time::ZERO, false, &[7, 7, 8]),
            2,
            "a request's own duplicates collapse"
        );
        assert_eq!(
            batch.append(1, Time::ZERO, false, &[8, 9]),
            1,
            "pages already batched are not re-added"
        );
        assert_eq!(batch.pages, vec![PageId(7), PageId(8), PageId(9)]);
        assert_eq!(batch.requests.len(), 2, "both requests still complete");
    }

    #[test]
    fn class_delays_widen_geometrically() {
        assert_eq!(max_delay_ns(SloClass::Interactive, 1_000), 1_000);
        assert_eq!(max_delay_ns(SloClass::Standard, 1_000), 4_000);
        assert_eq!(max_delay_ns(SloClass::Batch, 1_000), 16_000);
    }
}
