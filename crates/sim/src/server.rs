//! Queueing resources: FIFO servers, multi-server pools and bandwidth links.
//!
//! All hardware shared by many GPU threads — the DMA engine, the PCIe link,
//! the SSD controller channels, the host fault handlers — is modelled with
//! these three primitives. They are deliberately *work-conserving FIFO*
//! approximations: a request submitted at time `t` begins service at
//! `max(t, next_free)` and the resource's backlog carries across requests.
//! This is the standard fluid approximation for saturating devices, and is
//! what makes the bandwidth-bound regimes of the paper reproducible without
//! simulating every PCIe TLP.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{Dur, Time};

/// A single work-conserving FIFO server.
///
/// Requests queue behind each other; there is exactly one unit of service
/// capacity. Used for the `cudaMemcpyAsync` DMA engine (the serialization
/// bottleneck highlighted in §2.3 of the paper).
///
/// # Examples
///
/// ```
/// use gmt_sim::{FifoServer, Time, Dur};
/// let mut s = FifoServer::new();
/// let done = s.submit(Time::ZERO, Dur::from_nanos(100));
/// assert_eq!(done.as_nanos(), 100);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FifoServer {
    next_free: Time,
    busy: Dur,
    served: u64,
}

impl FifoServer {
    /// Creates an idle server.
    pub fn new() -> FifoServer {
        FifoServer::default()
    }

    /// Submits a request of length `service` at time `now`; returns the
    /// completion time.
    pub fn submit(&mut self, now: Time, service: Dur) -> Time {
        let start = now.max(self.next_free);
        let done = start + service;
        self.next_free = done;
        self.busy += service;
        self.served += 1;
        done
    }

    /// The earliest time a newly-submitted request would begin service.
    pub fn next_free(&self) -> Time {
        self.next_free
    }

    /// Total time this server has spent serving requests.
    pub fn busy_time(&self) -> Dur {
        self.busy
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }
}

/// A pool of `k` identical FIFO servers; each request is dispatched to the
/// server that frees up first.
///
/// Used for SSD controller channels and for the HMM host-side fault-handler
/// cores (whose limited count is exactly the bottleneck the paper targets).
///
/// # Examples
///
/// ```
/// use gmt_sim::{ServerPool, Time, Dur};
/// let mut pool = ServerPool::new(2);
/// let a = pool.submit(Time::ZERO, Dur::from_nanos(100));
/// let b = pool.submit(Time::ZERO, Dur::from_nanos(100));
/// let c = pool.submit(Time::ZERO, Dur::from_nanos(100));
/// assert_eq!(a.as_nanos(), 100);
/// assert_eq!(b.as_nanos(), 100); // second server
/// assert_eq!(c.as_nanos(), 200); // queues behind the first free server
/// ```
#[derive(Debug, Clone)]
pub struct ServerPool {
    free_at: BinaryHeap<Reverse<Time>>,
    busy: Dur,
    served: u64,
}

impl ServerPool {
    /// Creates a pool with `servers` identical servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(servers: usize) -> ServerPool {
        assert!(servers > 0, "server pool must have at least one server");
        let mut free_at = BinaryHeap::with_capacity(servers);
        for _ in 0..servers {
            free_at.push(Reverse(Time::ZERO));
        }
        ServerPool {
            free_at,
            busy: Dur::ZERO,
            served: 0,
        }
    }

    /// Number of servers in the pool.
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Submits a request of length `service` at time `now`; returns the
    /// completion time on the earliest-free server.
    pub fn submit(&mut self, now: Time, service: Dur) -> Time {
        #[expect(
            clippy::expect_used,
            reason = "the constructor seeds one entry per server and pops are re-pushed"
        )]
        let Reverse(free) = self.free_at.pop().expect("pool is never empty");
        let start = now.max(free);
        let done = start + service;
        self.free_at.push(Reverse(done));
        self.busy += service;
        self.served += 1;
        done
    }

    /// The earliest time a newly-submitted request would begin service.
    pub fn next_free(&self) -> Time {
        self.free_at
            .peek()
            .map(|Reverse(t)| *t)
            .unwrap_or(Time::ZERO)
    }

    /// Total service time accumulated across all servers.
    pub fn busy_time(&self) -> Dur {
        self.busy
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }
}

/// A bandwidth-limited pipe with a fixed propagation latency.
///
/// A transfer of `bytes` submitted at `now` occupies the pipe for
/// `bytes / bandwidth` and completes one `latency` later. Models PCIe links
/// and the SSD's aggregate flash bandwidth.
///
/// # Examples
///
/// ```
/// use gmt_sim::{Link, Time, Dur};
/// // A 1 GB/s link with 1 us latency.
/// let mut link = Link::new(1e9, Dur::from_micros(1));
/// let done = link.transfer(Time::ZERO, 1_000_000); // 1 MB -> 1 ms + 1 us
/// assert_eq!(done.as_nanos(), 1_001_000);
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    server: FifoServer,
    bytes_per_sec: f64,
    latency: Dur,
    bytes_moved: u64,
}

impl Link {
    /// Creates a link with the given bandwidth (bytes/second) and
    /// propagation latency.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive.
    pub fn new(bytes_per_sec: f64, latency: Dur) -> Link {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        Link {
            server: FifoServer::new(),
            bytes_per_sec,
            latency,
            bytes_moved: 0,
        }
    }

    /// Submits a transfer of `bytes` at `now`; returns its completion time.
    pub fn transfer(&mut self, now: Time, bytes: u64) -> Time {
        self.bytes_moved += bytes;
        let occupancy = Dur::for_bytes(bytes, self.bytes_per_sec);
        self.server.submit(now, occupancy) + self.latency
    }

    /// Submits a transfer of `bytes` whose *source* can only sustain
    /// `rate` bytes/second (e.g. a zero-copy stream driven by few GPU
    /// threads). The link is occupied for the transfer's fair share
    /// (`bytes / link_bandwidth`), so other traffic can interleave, but the
    /// requester completes no earlier than the slow source allows.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn transfer_at_rate(&mut self, now: Time, bytes: u64, rate: f64) -> Time {
        assert!(rate > 0.0, "source rate must be positive");
        self.bytes_moved += bytes;
        let occupancy = Dur::for_bytes(bytes, self.bytes_per_sec);
        let start = now.max(self.server.next_free());
        let queued_done = self.server.submit(now, occupancy);
        let source_done = start + Dur::for_bytes(bytes, rate.min(self.bytes_per_sec));
        queued_done.max(source_done) + self.latency
    }

    /// The link's configured bandwidth in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec
    }

    /// The link's propagation latency.
    pub fn latency(&self) -> Dur {
        self.latency
    }

    /// Total bytes moved over this link.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Earliest time a new transfer would begin occupying the link.
    pub fn next_free(&self) -> Time {
        self.server.next_free()
    }

    /// Total time the link has been occupied.
    pub fn busy_time(&self) -> Dur {
        self.server.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_server_queues_back_to_back() {
        let mut s = FifoServer::new();
        let a = s.submit(Time::ZERO, Dur::from_nanos(10));
        let b = s.submit(Time::ZERO, Dur::from_nanos(10));
        let c = s.submit(Time::from_nanos(100), Dur::from_nanos(10));
        assert_eq!(a.as_nanos(), 10);
        assert_eq!(b.as_nanos(), 20);
        // Idle gap: server waits until now.
        assert_eq!(c.as_nanos(), 110);
        assert_eq!(s.served(), 3);
        assert_eq!(s.busy_time(), Dur::from_nanos(30));
    }

    #[test]
    fn pool_runs_k_in_parallel() {
        let mut pool = ServerPool::new(4);
        let mut finishes: Vec<u64> = (0..8)
            .map(|_| pool.submit(Time::ZERO, Dur::from_nanos(100)).as_nanos())
            .collect();
        finishes.sort_unstable();
        assert_eq!(finishes, vec![100, 100, 100, 100, 200, 200, 200, 200]);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_rejected() {
        let _ = ServerPool::new(0);
    }

    #[test]
    fn link_saturation_matches_bandwidth() {
        // 10 transfers of 1 MB over a 1 GB/s link should take ~10 ms.
        let mut link = Link::new(1e9, Dur::ZERO);
        let mut done = Time::ZERO;
        for _ in 0..10 {
            done = link.transfer(Time::ZERO, 1_000_000);
        }
        assert_eq!(done.as_nanos(), 10_000_000);
        assert_eq!(link.bytes_moved(), 10_000_000);
    }

    #[test]
    fn link_latency_added_after_occupancy() {
        let mut link = Link::new(1e9, Dur::from_micros(5));
        let done = link.transfer(Time::ZERO, 1_000);
        assert_eq!(done.as_nanos(), 1_000 + 5_000);
        // Latency is propagation only: the next transfer can start at 1 us,
        // not after the latency.
        assert_eq!(link.next_free().as_nanos(), 1_000);
    }

    #[test]
    fn rate_limited_transfer_completes_at_source_speed() {
        let mut link = Link::new(10e9, Dur::ZERO);
        // 1 MB from a 1 GB/s source over a 10 GB/s link: source-bound, 1 ms.
        let done = link.transfer_at_rate(Time::ZERO, 1_000_000, 1e9);
        assert_eq!(done.as_nanos(), 1_000_000);
        // But the link was only occupied for 100 us: a second full-rate
        // transfer can start at 100 us, not 1 ms.
        assert_eq!(link.next_free().as_nanos(), 100_000);
    }

    #[test]
    fn rate_above_link_capacity_is_clamped() {
        let mut link = Link::new(1e9, Dur::ZERO);
        let done = link.transfer_at_rate(Time::ZERO, 1_000_000, 50e9);
        assert_eq!(done.as_nanos(), 1_000_000);
    }

    #[test]
    fn pool_next_free_tracks_earliest_server() {
        let mut pool = ServerPool::new(2);
        pool.submit(Time::ZERO, Dur::from_nanos(100));
        assert_eq!(pool.next_free(), Time::ZERO);
        pool.submit(Time::ZERO, Dur::from_nanos(50));
        assert_eq!(pool.next_free().as_nanos(), 50);
    }
}
