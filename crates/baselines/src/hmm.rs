//! HMM: CPU-orchestrated 3-tier memory management (UVM + host page cache).

use gmt_core::{GmtConfig, TieringMetrics};
use gmt_gpu::MemoryBackend;
use gmt_mem::{ClockList, FifoCache, PageId, PageTable, Tier, TierGeometry, WarpAccess};
use gmt_sim::trace::{TierTag, TraceEvent, TraceSink};
use gmt_sim::{Dur, FifoServer, Link, ServerPool, Time};
use gmt_ssd::{SsdConfig, SsdDevice};

/// Calibration of the HMM baseline.
///
/// The defaults model Linux HMM/UVM on the paper's platform: GPU faults
/// are delivered through a single fault buffer drained by the driver
/// (serialized), then serviced by a bounded pool of host cores, with
/// `cudaMemcpy`-style DMA migrations over PCIe and a host page cache as
/// Tier-2. The serialized drain is the throughput ceiling — the property
/// the paper's §3.6 comparison hinges on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HmmConfig {
    /// Tier capacities (Tier-2 is the host page cache).
    pub geometry: TierGeometry,
    /// SSD calibration (accessed through the host block layer).
    pub ssd: SsdConfig,
    /// Serialized fault-buffer drain + replay cost per fault.
    pub fault_drain_cost: Dur,
    /// Faults the driver batches per drain pass (UVM processes the fault
    /// buffer in batches). The drain cost is amortized over the batch:
    /// effective per-fault cost is `fault_drain_cost / fault_batch`.
    /// Default 1 (no batching) matches the conservative baseline; larger
    /// values model an optimistically batched driver.
    pub fault_batch: u32,
    /// Host cores servicing faults concurrently.
    pub handler_cores: usize,
    /// CPU work per fault on a handler core (page-table walk, mapping
    /// updates, TLB shootdown amortized).
    pub handler_cost: Dur,
    /// DMA migration bandwidth over PCIe, bytes/second.
    pub dma_bytes_per_sec: f64,
    /// Per-migration DMA engine gap.
    pub dma_gap: Dur,
    /// Pages migrated per fault (UVM's density prefetcher grows
    /// migrations from 64 KB toward 2 MB; 1 disables chunking). The
    /// chunk's extra pages are pulled from wherever they live and mapped
    /// alongside the faulting page.
    pub migration_chunk_pages: usize,
}

impl HmmConfig {
    /// HMM with default calibration on the given capacities.
    pub fn new(geometry: TierGeometry) -> HmmConfig {
        HmmConfig {
            geometry,
            ssd: SsdConfig::default(),
            fault_drain_cost: Dur::from_micros(60),
            fault_batch: 1,
            handler_cores: 16,
            handler_cost: Dur::from_micros(25),
            dma_bytes_per_sec: 12.8e9,
            dma_gap: Dur::from_micros(3),
            migration_chunk_pages: 1,
        }
    }
}

impl From<GmtConfig> for HmmConfig {
    fn from(config: GmtConfig) -> HmmConfig {
        HmmConfig {
            ssd: config.ssd,
            ..HmmConfig::new(config.geometry)
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct HmmMeta {
    tier: Tier,
    dirty: bool,
    ready_at: Time,
}

impl Default for HmmMeta {
    fn default() -> HmmMeta {
        HmmMeta {
            tier: Tier::Ssd,
            dirty: false,
            ready_at: Time::ZERO,
        }
    }
}

/// The HMM baseline: a CPU-orchestrated 3-tier hierarchy.
///
/// On a GPU-memory miss the faulting warp stalls through: fault-buffer
/// drain (serialized) → handler core (pooled) → page-cache lookup →
/// (SSD read on a cache miss) → DMA migration to the GPU. Tier-1 victims
/// are always migrated down into the page cache (UVM semantics: the host
/// is home), whose own FIFO spills dirty pages to the SSD.
///
/// # Examples
///
/// ```
/// use gmt_baselines::{Hmm, HmmConfig};
/// use gmt_gpu::{Executor, ExecutorConfig};
/// use gmt_mem::{PageId, TierGeometry, WarpAccess};
///
/// let hmm = Hmm::new(HmmConfig::new(TierGeometry::from_tier1(16, 4.0, 2.0)));
/// let trace = (0..160u64).map(|p| WarpAccess::read(PageId(p)));
/// let out = Executor::new(ExecutorConfig::default()).run(hmm, trace);
/// assert!(out.backend.metrics().ssd_reads > 0);
/// ```
#[derive(Debug)]
pub struct Hmm {
    config: HmmConfig,
    clock: ClockList,
    page_cache: FifoCache,
    table: PageTable<HmmMeta>,
    fault_drain: FifoServer,
    handlers: ServerPool,
    dma: Link,
    ssd: SsdDevice,
    metrics: TieringMetrics,
    /// HMM has no coalesced-transaction counter of its own; for tracing,
    /// one tick per distinct page touch mirrors GMT's convention.
    vt: u64,
    trace: TraceSink,
}

impl Hmm {
    /// Builds the baseline from `config`.
    ///
    /// # Panics
    ///
    /// Panics if a capacity or pool size is zero.
    pub fn new(config: HmmConfig) -> Hmm {
        Hmm {
            clock: ClockList::new(config.geometry.tier1_pages),
            page_cache: FifoCache::new(config.geometry.tier2_pages),
            table: PageTable::new(config.geometry.total_pages),
            fault_drain: FifoServer::new(),
            handlers: ServerPool::new(config.handler_cores),
            dma: Link::new(config.dma_bytes_per_sec, Dur::from_micros(1)),
            ssd: SsdDevice::new(config.ssd),
            metrics: TieringMetrics::default(),
            vt: 0,
            trace: TraceSink::disabled(),
            config,
        }
    }

    /// Turns on decision tracing into a fresh ring of `capacity` records,
    /// wiring the SSD device into it. Returns a handle to the shared sink.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_tracing(&mut self, capacity: usize) -> TraceSink {
        let sink = TraceSink::bounded(capacity);
        self.trace = sink.clone();
        self.ssd.attach_trace(&sink, 0);
        sink
    }

    /// The baseline's trace sink (disabled unless
    /// [`Hmm::enable_tracing`] was called).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The baseline's configuration.
    pub fn config(&self) -> &HmmConfig {
        &self.config
    }

    /// Counters accumulated so far.
    pub fn metrics(&self) -> TieringMetrics {
        self.metrics
    }

    /// The SSD device's statistics.
    pub fn ssd_stats(&self) -> gmt_ssd::SsdStats {
        self.ssd.stats()
    }

    /// Pages currently held by the host page cache.
    pub fn page_cache_occupancy(&self) -> usize {
        self.page_cache.len()
    }

    fn page_bytes(&self) -> u64 {
        self.config.geometry.page_bytes
    }

    /// Evicts one Tier-1 page into the host page cache (host software does
    /// the migration; the faulting warp is gated by it because the same
    /// handler performs both halves of the fault).
    fn evict_one(&mut self, now: Time) -> Time {
        let victim = self.clock.evict_candidate();
        self.metrics.t1_evictions += 1;
        self.metrics.t2_placements += 1;
        if self.trace.is_enabled() {
            // UVM has no tier predictor: the host is always home.
            let dirty = self.table.get(victim).dirty;
            self.trace.emit(
                now,
                TraceEvent::Eviction {
                    page: victim.0,
                    predicted: None,
                    target: TierTag::Host,
                    dirty,
                },
            );
            self.trace.emit(
                now,
                TraceEvent::Tier2Place {
                    page: victim.0,
                    dirty,
                },
            );
        }
        let bytes = self.page_bytes();
        // Migrate device -> host over the DMA engine.
        let dma_done = self.dma.transfer(now + self.config.dma_gap, bytes);
        if let Some(spilled) = self.page_cache.insert_evicting(victim) {
            let meta = self.table.get_mut(spilled);
            meta.tier = Tier::Ssd;
            if std::mem::take(&mut meta.dirty) {
                self.metrics.t2_writebacks += 1;
                self.trace.emit(
                    now,
                    TraceEvent::Tier2Spill {
                        page: spilled.0,
                        dirty: true,
                    },
                );
                self.ssd.write(now, spilled.0 * bytes, bytes);
            } else {
                self.metrics.t2_drops += 1;
                self.trace.emit(
                    now,
                    TraceEvent::Tier2Spill {
                        page: spilled.0,
                        dirty: false,
                    },
                );
            }
        }
        let meta = self.table.get_mut(victim);
        meta.tier = Tier::Host;
        meta.ready_at = dma_done;
        dma_done
    }

    /// Services one fault through the host software stack; returns when
    /// the page is mapped on the GPU.
    fn fault(&mut self, now: Time, page: PageId) -> Time {
        // 1. Serialized fault-buffer drain (the driver's single consumer);
        // batching amortizes the per-pass cost across faults.
        let per_fault = self.config.fault_drain_cost / self.config.fault_batch.max(1) as u64;
        let drained = self.fault_drain.submit(now, per_fault);
        // 2. A handler core picks the fault up.
        let handled = self.handlers.submit(drained, self.config.handler_cost);
        // 3. Make room on the GPU.
        let mut ready = handled;
        if self.clock.is_full() {
            ready = ready.max(self.evict_one(handled));
        }
        // 4. Source the page.
        let bytes = self.page_bytes();
        let (in_host, source) = match self.table.get(page).tier {
            Tier::Host => {
                self.metrics.t2_hits += 1;
                self.trace.emit(now, TraceEvent::Tier2Hit { page: page.0 });
                self.page_cache.remove(page);
                (handled.max(self.table.get(page).ready_at), TierTag::Host)
            }
            _ => {
                self.metrics.wasteful_lookups += 1;
                self.metrics.ssd_reads += 1;
                self.trace
                    .emit(now, TraceEvent::WastefulLookup { page: page.0 });
                (self.ssd.read(handled, page.0 * bytes, bytes), TierTag::Ssd)
            }
        };
        // 5. Migrate host -> device.
        let dma_done = self.dma.transfer(in_host + self.config.dma_gap, bytes);
        if self.trace.is_enabled() {
            self.trace.emit(
                now,
                TraceEvent::Tier1Fill {
                    page: page.0,
                    source,
                    ready_ns: dma_done.as_nanos(),
                },
            );
        }
        self.clock.insert(page);
        let meta = self.table.get_mut(page);
        meta.tier = Tier::Gpu;
        meta.ready_at = dma_done;
        // 6. UVM chunking: migrate the following pages of the chunk too
        // (off the faulting warp's critical path, but using the same
        // handler's DMA stream).
        for delta in 1..self.config.migration_chunk_pages as u64 {
            let next = PageId(page.0 + delta);
            if next.index() >= self.table.len() || self.table.get(next).tier != Tier::Ssd {
                continue;
            }
            if self.clock.is_full() {
                self.evict_one(handled);
            }
            let fetched = self.ssd.read(handled, next.0 * bytes, bytes);
            let chunk_done = self.dma.transfer(fetched + self.config.dma_gap, bytes);
            self.metrics.ssd_reads += 1;
            self.metrics.prefetches += 1;
            if self.trace.is_enabled() {
                self.trace.emit(now, TraceEvent::Prefetch { page: next.0 });
                // Unlike GMT's prefetcher, UVM's chunk reads count in
                // `ssd_reads`, so they get a fill event too.
                self.trace.emit(
                    now,
                    TraceEvent::Tier1Fill {
                        page: next.0,
                        source: TierTag::Ssd,
                        ready_ns: chunk_done.as_nanos(),
                    },
                );
            }
            self.clock.insert(next);
            let meta = self.table.get_mut(next);
            meta.tier = Tier::Gpu;
            meta.ready_at = chunk_done;
        }
        ready.max(dma_done)
    }
}

impl MemoryBackend for Hmm {
    fn access(&mut self, now: Time, access: &WarpAccess) -> Time {
        self.metrics.accesses += 1;
        let mut ready = now;
        for page in access.pages.iter() {
            assert!(
                page.index() < self.table.len(),
                "page {page} outside the configured address space"
            );
            self.vt += 1;
            self.trace.set_vt(self.vt);
            let meta = self.table.get(page);
            if meta.tier == Tier::Gpu {
                ready = ready.max(meta.ready_at);
                self.clock.touch(page);
                self.metrics.t1_hits += 1;
                self.trace.emit(now, TraceEvent::Tier1Hit { page: page.0 });
            } else {
                self.metrics.t1_misses += 1;
                if self.trace.is_enabled() {
                    let resident = if meta.tier == Tier::Host {
                        TierTag::Host
                    } else {
                        TierTag::Ssd
                    };
                    self.trace.emit(
                        now,
                        TraceEvent::Tier1Miss {
                            page: page.0,
                            resident,
                        },
                    );
                }
                let done = self.fault(now, page);
                ready = ready.max(done);
            }
            if access.write {
                self.table.get_mut(page).dirty = true;
            }
        }
        ready
    }

    fn finish(&mut self, now: Time) -> Time {
        self.ssd.flush_trace(now);
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hmm {
        Hmm::new(HmmConfig::new(TierGeometry::from_tier1(4, 4.0, 2.0)))
    }

    fn read(hmm: &mut Hmm, now: Time, page: u64) -> Time {
        hmm.access(now, &WarpAccess::read(PageId(page)))
    }

    #[test]
    fn fault_cost_includes_host_stack() {
        let mut hmm = tiny();
        let done = read(&mut hmm, Time::ZERO, 0);
        let cfg = *hmm.config();
        let floor = cfg.fault_drain_cost + cfg.handler_cost;
        assert!(
            done.since(Time::ZERO) > floor,
            "fault must pay drain + handler + I/O, got {}",
            done.since(Time::ZERO)
        );
    }

    #[test]
    fn victims_always_go_to_page_cache() {
        let mut hmm = tiny();
        let mut now = Time::ZERO;
        for p in 0..10 {
            now = read(&mut hmm, now, p);
        }
        let m = hmm.metrics();
        assert_eq!(m.t1_evictions, 6);
        assert_eq!(m.t2_placements, 6);
        assert_eq!(hmm.page_cache_occupancy(), 6);
    }

    #[test]
    fn page_cache_hit_skips_ssd() {
        let mut hmm = tiny();
        let mut now = Time::ZERO;
        for p in 0..10 {
            now = read(&mut hmm, now, p);
        }
        let reads_before = hmm.metrics().ssd_reads;
        read(&mut hmm, now, 0); // evicted earlier -> page-cache hit
        let m = hmm.metrics();
        assert_eq!(m.ssd_reads, reads_before);
        assert_eq!(m.t2_hits, 1);
    }

    #[test]
    fn serialized_drain_throttles_concurrent_faults() {
        // Submit many faults at the same instant: completions must spread
        // out by at least the drain cost each.
        let mut hmm = Hmm::new(HmmConfig::new(TierGeometry::from_tier1(64, 4.0, 2.0)));
        let mut completions: Vec<Time> = (0..16u64)
            .map(|p| hmm.access(Time::ZERO, &WarpAccess::read(PageId(p))))
            .collect();
        completions.sort_unstable();
        let drain = hmm.config().fault_drain_cost.as_nanos();
        for pair in completions.windows(2) {
            let gap = pair[1].since(pair[0]).as_nanos();
            assert!(
                gap >= drain,
                "faults completed {gap} ns apart, drain is {drain} ns"
            );
        }
    }

    #[test]
    fn migration_chunks_cut_fault_counts_on_scans() {
        let geometry = TierGeometry::from_tier1(32, 4.0, 2.0);
        let mut chunked_cfg = HmmConfig::new(geometry);
        chunked_cfg.migration_chunk_pages = 8;
        let mut plain = Hmm::new(HmmConfig::new(geometry));
        let mut chunked = Hmm::new(chunked_cfg);
        let mut now_p = Time::ZERO;
        let mut now_c = Time::ZERO;
        for p in 0..160u64 {
            now_p = plain.access(now_p, &WarpAccess::read(PageId(p)));
            now_c = chunked.access(now_c, &WarpAccess::read(PageId(p)));
        }
        let (pm, cm) = (plain.metrics(), chunked.metrics());
        assert!(cm.prefetches > 0);
        assert!(
            cm.t1_misses * 4 < pm.t1_misses,
            "chunking must slash fault counts: {} vs {}",
            cm.t1_misses,
            pm.t1_misses
        );
        assert!(
            now_c < now_p,
            "fewer serialized faults must finish the scan sooner"
        );
    }

    #[test]
    fn fault_batching_amortizes_the_drain() {
        let geometry = TierGeometry::from_tier1(64, 4.0, 2.0);
        let mut plain = Hmm::new(HmmConfig::new(geometry));
        let mut batched_cfg = HmmConfig::new(geometry);
        batched_cfg.fault_batch = 8;
        let mut batched = Hmm::new(batched_cfg);
        let mut last_plain = Time::ZERO;
        let mut last_batched = Time::ZERO;
        for p in 0..32u64 {
            last_plain = last_plain.max(plain.access(Time::ZERO, &WarpAccess::read(PageId(p))));
            last_batched =
                last_batched.max(batched.access(Time::ZERO, &WarpAccess::read(PageId(p))));
        }
        assert!(
            last_batched < last_plain,
            "batched drain must finish the fault burst sooner ({last_batched:?} vs {last_plain:?})"
        );
    }

    #[test]
    fn dirty_page_cache_spills_write_to_ssd() {
        let mut hmm = tiny();
        let mut now = Time::ZERO;
        // Dirty 4 pages, then stream enough to push them through the page
        // cache (capacity 16) and out the far side.
        for p in 0..4 {
            now = hmm.access(now, &WarpAccess::write(PageId(p)));
        }
        for p in 4..39 {
            now = read(&mut hmm, now, p);
        }
        assert!(
            hmm.metrics().t2_writebacks > 0,
            "dirty spills must hit the SSD"
        );
    }
}
