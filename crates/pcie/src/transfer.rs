//! DMA vs zero-copy transfer engines and the Hybrid-XT selector.

use gmt_sim::trace::{LinkDir, TraceEvent, TraceSink};
use gmt_sim::{Dur, FifoServer, Link, Time};

/// How a batch of pages is moved between GPU and host memory (paper §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMethod {
    /// Always use the `cudaMemcpyAsync` DMA engine.
    DmaAsync,
    /// Always use warp zero-copy loads/stores on pinned memory.
    ZeroCopy,
    /// The paper's Hybrid-XT: zero-copy only when the batch has at least
    /// `min_pages` non-contiguous pages (8 in the paper, the Fig. 6a
    /// crossover) *and* at least `min_threads` warp threads can be
    /// employed; otherwise DMA.
    Hybrid {
        /// Minimum batch size for zero-copy (paper: 8).
        min_pages: usize,
        /// Minimum employable threads for zero-copy (paper: X ∈ {8,16,32}).
        min_threads: u32,
    },
}

impl TransferMethod {
    /// The configuration GMT ships with: Hybrid-32T (paper §2.3).
    pub fn hybrid_32t() -> TransferMethod {
        TransferMethod::Hybrid {
            min_pages: 8,
            min_threads: 32,
        }
    }

    /// Hybrid-XT with the paper's 8-page threshold and `x` threads.
    pub fn hybrid(x: u32) -> TransferMethod {
        TransferMethod::Hybrid {
            min_pages: 8,
            min_threads: x,
        }
    }

    /// Whether this method picks zero-copy for a batch of `pages` pages
    /// with `threads` employable threads.
    pub fn picks_zero_copy(&self, pages: usize, threads: u32) -> bool {
        match *self {
            TransferMethod::DmaAsync => false,
            TransferMethod::ZeroCopy => true,
            TransferMethod::Hybrid {
                min_pages,
                min_threads,
            } => pages >= min_pages && threads >= min_threads,
        }
    }
}

/// One batch of non-contiguous pages to move in one direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferBatch {
    /// Number of non-contiguous pages.
    pub pages: usize,
    /// Bytes per page.
    pub page_bytes: u64,
    /// Warp threads employable for a zero-copy transfer of this batch.
    pub threads: u32,
}

impl TransferBatch {
    /// Total payload bytes.
    pub fn bytes(&self) -> u64 {
        self.pages as u64 * self.page_bytes
    }
}

/// Calibration of the GPU ⇄ host path.
///
/// Defaults model PCIe Gen3 x16 (~12.8 GB/s effective) with a copy-engine
/// call gap and zero-copy parameters chosen so the DMA/zero-copy crossover
/// lands near the paper's 8-page figure and host-memory page retrieval
/// costs ≈50 µs under load (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostLinkConfig {
    /// Link bandwidth, bytes/second (Gen3 x16 effective).
    pub link_bytes_per_sec: f64,
    /// Link propagation latency.
    pub link_latency: Dur,
    /// Per-`cudaMemcpyAsync` engine gap (launch + descriptor fetch).
    pub dma_call_gap: Dur,
    /// Fixed pinning/bookkeeping overhead per zero-copy batch. Pinning
    /// mutates shared mapping state, so batches serialize through it.
    pub pin_overhead: Dur,
    /// Additional pinning work per page in the batch.
    pub pin_per_page: Dur,
    /// Sustainable zero-copy bandwidth per employed GPU thread,
    /// bytes/second.
    pub per_thread_bytes_per_sec: f64,
    /// Software lookup cost of probing Tier-2 residency (paper §3.4:
    /// ~50 ns added to the critical path on a miss).
    pub lookup_cost: Dur,
}

impl Default for HostLinkConfig {
    fn default() -> HostLinkConfig {
        HostLinkConfig {
            link_bytes_per_sec: 12.8e9,
            link_latency: Dur::from_micros(1),
            dma_call_gap: Dur::from_micros(3),
            pin_overhead: Dur::from_micros(24),
            pin_per_page: Dur::from_micros(1),
            per_thread_bytes_per_sec: 1.0e9,
            lookup_cost: Dur::from_nanos(50),
        }
    }
}

impl HostLinkConfig {
    /// Rejects degenerate link calibrations before they can turn into
    /// zero/NaN transfer durations deep inside the batch scheduler.
    ///
    /// # Errors
    ///
    /// Returns a static description of the first nonsensical knob.
    pub fn validate(&self) -> Result<(), &'static str> {
        // No `..`: a new knob does not compile until it is named here.
        let HostLinkConfig {
            link_bytes_per_sec,
            // A `Dur` cannot be negative, and zero is a valid cost.
            link_latency: _,
            dma_call_gap: _,
            pin_overhead: _,
            pin_per_page: _,
            per_thread_bytes_per_sec,
            lookup_cost: _,
        } = *self;
        if !(link_bytes_per_sec.is_finite() && link_bytes_per_sec > 0.0) {
            return Err("link_bytes_per_sec must be finite and positive");
        }
        if !(per_thread_bytes_per_sec.is_finite() && per_thread_bytes_per_sec > 0.0) {
            return Err("per_thread_bytes_per_sec must be finite and positive");
        }
        Ok(())
    }
}

/// Transfer counters for one direction of the GPU ⇄ host path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Batches moved by the DMA engine.
    pub dma_batches: u64,
    /// Batches moved by zero-copy.
    pub zero_copy_batches: u64,
    /// Pages moved (both engines).
    pub pages: u64,
    /// Bytes moved (both engines).
    pub bytes: u64,
}

/// One direction of the GPU ⇄ host PCIe path: a shared link, a DMA engine,
/// and the zero-copy cost model.
///
/// The real link is full-duplex, so the GMT runtime instantiates two
/// `HostLink`s (device-to-host for evictions, host-to-device for fetches).
///
/// # Examples
///
/// ```
/// use gmt_sim::Time;
/// use gmt_pcie::{HostLink, HostLinkConfig, TransferBatch, TransferMethod};
///
/// let mut link = HostLink::new(HostLinkConfig::default());
/// let batch = TransferBatch { pages: 16, page_bytes: 64 * 1024, threads: 32 };
/// let done = link.transfer(Time::ZERO, batch, TransferMethod::hybrid_32t());
/// assert!(done > Time::ZERO);
/// assert_eq!(link.stats().zero_copy_batches, 1);
/// ```
#[derive(Debug, Clone)]
pub struct HostLink {
    config: HostLinkConfig,
    link: Link,
    dma_engine: FifoServer,
    pin_server: FifoServer,
    stats: TransferStats,
    trace: TraceSink,
    trace_dir: LinkDir,
}

impl HostLink {
    /// Creates a link from `config`.
    ///
    /// # Panics
    ///
    /// Panics if a bandwidth in `config` is non-positive.
    pub fn new(config: HostLinkConfig) -> HostLink {
        HostLink {
            link: Link::new(config.link_bytes_per_sec, config.link_latency),
            dma_engine: FifoServer::new(),
            pin_server: FifoServer::new(),
            stats: TransferStats::default(),
            trace: TraceSink::disabled(),
            trace_dir: LinkDir::ToGpu,
            config,
        }
    }

    /// The link's configuration.
    pub fn config(&self) -> &HostLinkConfig {
        &self.config
    }

    /// Routes this link's batch transfers into `trace`, labelled with the
    /// direction this instance serves.
    pub fn attach_trace(&mut self, trace: &TraceSink, direction: LinkDir) {
        self.trace = trace.clone();
        self.trace_dir = direction;
    }

    /// Moves `batch` at time `now` using `method`; returns the completion
    /// time.
    pub fn transfer(&mut self, now: Time, batch: TransferBatch, method: TransferMethod) -> Time {
        if batch.pages == 0 {
            return now;
        }
        self.stats.pages += batch.pages as u64;
        self.stats.bytes += batch.bytes();
        let zero_copy = method.picks_zero_copy(batch.pages, batch.threads);
        let done = if zero_copy {
            self.stats.zero_copy_batches += 1;
            self.zero_copy(now, batch)
        } else {
            self.stats.dma_batches += 1;
            self.dma(now, batch)
        };
        self.trace.emit(
            now,
            TraceEvent::PcieBatch {
                direction: self.trace_dir,
                pages: batch.pages as u32,
                bytes: batch.bytes(),
                zero_copy,
                latency_ns: done.since(now).as_nanos(),
            },
        );
        done
    }

    /// Transfer counters so far.
    pub fn stats(&self) -> TransferStats {
        self.stats
    }

    /// Total bytes moved over the underlying link.
    pub fn bytes_moved(&self) -> u64 {
        self.link.bytes_moved()
    }

    /// Total time the underlying link has been occupied.
    pub fn busy_time(&self) -> Dur {
        self.link.busy_time()
    }

    /// The software cost of one Tier-2 residency probe (paper §3.4).
    pub fn lookup_cost(&self) -> Dur {
        self.config.lookup_cost
    }

    /// `cudaMemcpyAsync` path: each non-contiguous page is one serialized
    /// engine descriptor — the engine processes (setup gap + wire time)
    /// per page back-to-back, which is exactly the serialization
    /// bottleneck the paper describes. The payload also occupies the
    /// shared wire, so concurrent zero-copy traffic and DMA traffic
    /// together can never exceed the link's bandwidth.
    fn dma(&mut self, now: Time, batch: TransferBatch) -> Time {
        let wire = Dur::for_bytes(batch.page_bytes, self.config.link_bytes_per_sec);
        let per_page = self.config.dma_call_gap + wire;
        let mut done = now;
        for _ in 0..batch.pages {
            let engine_done = self.dma_engine.submit(now, per_page);
            let link_done = self.link.transfer(engine_done - wire, batch.page_bytes);
            done = engine_done.max(link_done);
        }
        done
    }

    /// Zero-copy path: the batch's pages are pinned first (serialized —
    /// pinning updates shared mapping state), then the employed threads
    /// stream the pages at `threads x per-thread` bandwidth (capped by
    /// the link).
    fn zero_copy(&mut self, now: Time, batch: TransferBatch) -> Time {
        let pin = self.config.pin_overhead + self.config.pin_per_page * batch.pages as u64;
        let start = self.pin_server.submit(now, pin);
        let rate = (batch.threads.max(1) as f64) * self.config.per_thread_bytes_per_sec;
        self.link.transfer_at_rate(start, batch.bytes(), rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: u64 = 64 * 1024;

    fn batch(pages: usize, threads: u32) -> TransferBatch {
        TransferBatch {
            pages,
            page_bytes: PAGE,
            threads,
        }
    }

    fn elapsed_us(done: Time) -> f64 {
        done.since(Time::ZERO).as_nanos() as f64 / 1e3
    }

    #[test]
    fn validate_names_every_degenerate_knob() {
        assert_eq!(HostLinkConfig::default().validate(), Ok(()));
        type Case = (fn(&mut HostLinkConfig), &'static str);
        let cases: [Case; 6] = [
            (|c| c.link_bytes_per_sec = 0.0, "link_bytes_per_sec"),
            (
                |c| c.link_bytes_per_sec = f64::INFINITY,
                "link_bytes_per_sec",
            ),
            (
                |c| c.per_thread_bytes_per_sec = 0.0,
                "per_thread_bytes_per_sec",
            ),
            (
                |c| c.per_thread_bytes_per_sec = -1.0,
                "per_thread_bytes_per_sec",
            ),
            (
                |c| c.per_thread_bytes_per_sec = f64::INFINITY,
                "per_thread_bytes_per_sec",
            ),
            (
                |c| c.per_thread_bytes_per_sec = f64::NAN,
                "per_thread_bytes_per_sec",
            ),
        ];
        for (mutate, field) in cases {
            let mut config = HostLinkConfig::default();
            mutate(&mut config);
            let err = config.validate().expect_err(field);
            assert!(err.starts_with(field), "{field}: {err}");
        }
    }

    #[test]
    fn dma_beats_zero_copy_for_small_batches() {
        let mut dma = HostLink::new(HostLinkConfig::default());
        let mut zc = HostLink::new(HostLinkConfig::default());
        let b = batch(2, 32);
        let dma_done = dma.transfer(Time::ZERO, b, TransferMethod::DmaAsync);
        let zc_done = zc.transfer(Time::ZERO, b, TransferMethod::ZeroCopy);
        assert!(dma_done < zc_done, "DMA {:?} vs ZC {:?}", dma_done, zc_done);
    }

    #[test]
    fn zero_copy_beats_dma_for_large_batches() {
        let mut dma = HostLink::new(HostLinkConfig::default());
        let mut zc = HostLink::new(HostLinkConfig::default());
        let b = batch(32, 32);
        let dma_done = dma.transfer(Time::ZERO, b, TransferMethod::DmaAsync);
        let zc_done = zc.transfer(Time::ZERO, b, TransferMethod::ZeroCopy);
        assert!(zc_done < dma_done, "ZC {:?} vs DMA {:?}", zc_done, dma_done);
    }

    #[test]
    fn crossover_near_eight_pages() {
        // Find the smallest batch where full-warp zero-copy wins; the paper
        // reports 8 — our calibration must land in the same neighbourhood.
        let mut crossover = None;
        for n in 1..=64 {
            let mut dma = HostLink::new(HostLinkConfig::default());
            let mut zc = HostLink::new(HostLinkConfig::default());
            let b = batch(n, 32);
            let d = dma.transfer(Time::ZERO, b, TransferMethod::DmaAsync);
            let z = zc.transfer(Time::ZERO, b, TransferMethod::ZeroCopy);
            if z <= d {
                crossover = Some(n);
                break;
            }
        }
        let n = crossover.expect("zero-copy must eventually win");
        assert!((5..=12).contains(&n), "crossover at {n} pages");
    }

    #[test]
    fn few_threads_cripple_zero_copy() {
        let mut full = HostLink::new(HostLinkConfig::default());
        let mut few = HostLink::new(HostLinkConfig::default());
        let fast = full.transfer(Time::ZERO, batch(32, 32), TransferMethod::ZeroCopy);
        let slow = few.transfer(Time::ZERO, batch(32, 4), TransferMethod::ZeroCopy);
        assert!(elapsed_us(slow) > 2.0 * elapsed_us(fast));
    }

    #[test]
    fn hybrid_32t_picks_the_right_engine() {
        let m = TransferMethod::hybrid_32t();
        assert!(!m.picks_zero_copy(4, 32), "small batch must use DMA");
        assert!(!m.picks_zero_copy(16, 16), "half warp must use DMA");
        assert!(m.picks_zero_copy(16, 32), "big batch + full warp uses ZC");
    }

    #[test]
    fn hybrid_matches_best_pure_method_at_extremes() {
        let hybrid = TransferMethod::hybrid_32t();
        for (pages, threads) in [(1usize, 32u32), (64, 32)] {
            let mut h = HostLink::new(HostLinkConfig::default());
            let mut d = HostLink::new(HostLinkConfig::default());
            let mut z = HostLink::new(HostLinkConfig::default());
            let b = batch(pages, threads);
            let hd = h.transfer(Time::ZERO, b, hybrid);
            let dd = d.transfer(Time::ZERO, b, TransferMethod::DmaAsync);
            let zd = z.transfer(Time::ZERO, b, TransferMethod::ZeroCopy);
            assert_eq!(hd, hd.min(dd).min(zd), "hybrid suboptimal at {pages} pages");
        }
    }

    #[test]
    fn dma_engine_serializes_across_batches() {
        let mut link = HostLink::new(HostLinkConfig::default());
        let first = link.transfer(Time::ZERO, batch(8, 32), TransferMethod::DmaAsync);
        let second = link.transfer(Time::ZERO, batch(8, 32), TransferMethod::DmaAsync);
        assert!(second > first, "second batch must queue behind the first");
    }

    #[test]
    fn empty_batch_is_free() {
        let mut link = HostLink::new(HostLinkConfig::default());
        let done = link.transfer(Time::ZERO, batch(0, 32), TransferMethod::hybrid_32t());
        assert_eq!(done, Time::ZERO);
        assert_eq!(link.stats().pages, 0);
    }

    #[test]
    fn stats_split_by_engine() {
        let mut link = HostLink::new(HostLinkConfig::default());
        link.transfer(Time::ZERO, batch(2, 32), TransferMethod::hybrid_32t());
        link.transfer(Time::ZERO, batch(32, 32), TransferMethod::hybrid_32t());
        let s = link.stats();
        assert_eq!(s.dma_batches, 1);
        assert_eq!(s.zero_copy_batches, 1);
        assert_eq!(s.pages, 34);
        assert_eq!(s.bytes, 34 * PAGE);
    }
}
