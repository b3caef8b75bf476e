//! BaM: GPU-initiated on-demand storage access, 2 tiers (GPU ⇄ SSD).

use gmt_core::{GmtConfig, TieringMetrics};
use gmt_gpu::MemoryBackend;
use gmt_mem::{ClockList, PageTable, TierGeometry, WarpAccess};
use gmt_sim::trace::{TierTag, TraceEvent, TraceSink};
use gmt_sim::Time;
use gmt_ssd::array::{ArrayConfig, SsdArray};
use gmt_ssd::qpair::QueuePair;
use gmt_ssd::SsdConfig;

/// Slots in each of BaM's GPU-resident NVMe rings. One is reserved to
/// tell a full ring from an empty one, so up to 1,023 commands are in
/// flight before submitting threads spin.
pub const BAM_QUEUE_SLOTS: usize = 1024;

/// Configuration of the BaM baseline.
///
/// BaM has no Tier-2, so only the Tier-1 capacity and the SSD calibration
/// matter; the [`TierGeometry`]'s Tier-2 field is ignored (kept so the same
/// geometry drives paired GMT/BaM runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BamConfig {
    /// Tier capacities (Tier-2 ignored).
    pub geometry: TierGeometry,
    /// SSD calibration.
    pub ssd: SsdConfig,
    /// Number of identical SSDs striped at page granularity (BaM scales
    /// to arrays of ten in its own evaluation).
    pub ssd_devices: usize,
}

impl BamConfig {
    /// BaM with the default SSD on the given capacities.
    pub fn new(geometry: TierGeometry) -> BamConfig {
        BamConfig {
            geometry,
            ssd: SsdConfig::default(),
            ssd_devices: 1,
        }
    }

    /// Same configuration striped over `devices` SSDs.
    pub fn with_devices(mut self, devices: usize) -> BamConfig {
        self.ssd_devices = devices;
        self
    }
}

impl From<GmtConfig> for BamConfig {
    /// Extracts the parameters BaM shares with a GMT configuration, so a
    /// paired baseline run uses the identical device models.
    fn from(config: GmtConfig) -> BamConfig {
        BamConfig {
            geometry: config.geometry,
            ssd: config.ssd,
            ssd_devices: config.ssd_devices,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct BamMeta {
    resident: bool,
    dirty: bool,
    ready_at: Time,
}

impl Default for BamMeta {
    fn default() -> BamMeta {
        BamMeta {
            resident: false,
            dirty: false,
            ready_at: Time::ZERO,
        }
    }
}

/// The BaM runtime (Qureshi et al., ASPLOS 2023), re-implemented on the
/// simulated substrate.
///
/// GPU threads submit NVMe commands directly: a Tier-1 miss is one SSD
/// read; a dirty Tier-1 victim is one SSD write; host memory never holds
/// pages.
///
/// # Examples
///
/// ```
/// use gmt_baselines::{Bam, BamConfig};
/// use gmt_gpu::{Executor, ExecutorConfig};
/// use gmt_mem::{PageId, TierGeometry, WarpAccess};
///
/// let bam = Bam::new(BamConfig::new(TierGeometry::from_tier1(16, 4.0, 2.0)));
/// let trace = (0..160u64).map(|p| WarpAccess::read(PageId(p)));
/// let out = Executor::new(ExecutorConfig::default()).run(bam, trace);
/// assert_eq!(out.backend.metrics().ssd_reads, 160);
/// ```
#[derive(Debug)]
pub struct Bam {
    config: BamConfig,
    clock: ClockList,
    table: PageTable<BamMeta>,
    ssd: SsdArray,
    /// The queue-depth window of BaM's NVMe rings. Rings belong to one
    /// controller, so only a single-device BaM has one; a striped array
    /// issues without back-pressure.
    ring: Option<QueuePair>,
    metrics: TieringMetrics,
    /// BaM has no coalesced-transaction counter of its own; for tracing,
    /// one tick per distinct page touch mirrors GMT's convention.
    vt: u64,
    trace: TraceSink,
}

impl Bam {
    /// Builds the baseline from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's Tier-1 is empty.
    pub fn new(config: BamConfig) -> Bam {
        Bam {
            clock: ClockList::new(config.geometry.tier1_pages),
            table: PageTable::new(config.geometry.total_pages),
            ssd: SsdArray::new(ArrayConfig {
                device: config.ssd,
                devices: config.ssd_devices.max(1),
                stripe_bytes: config.geometry.page_bytes,
            }),
            ring: (config.ssd_devices <= 1).then(|| QueuePair::new(BAM_QUEUE_SLOTS)),
            metrics: TieringMetrics::default(),
            vt: 0,
            trace: TraceSink::disabled(),
            config,
        }
    }

    /// Turns on decision tracing into a fresh ring of `capacity` records,
    /// wiring the SSDs and the NVMe ring window into it. Returns a handle
    /// to the shared sink.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_tracing(&mut self, capacity: usize) -> TraceSink {
        let sink = TraceSink::bounded(capacity);
        self.trace = sink.clone();
        self.ssd.attach_trace(&sink);
        if let Some(ring) = &mut self.ring {
            ring.attach_trace(&sink);
        }
        sink
    }

    /// The baseline's trace sink (disabled unless
    /// [`Bam::enable_tracing`] was called).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The baseline's configuration.
    pub fn config(&self) -> &BamConfig {
        &self.config
    }

    /// Counters accumulated so far.
    pub fn metrics(&self) -> TieringMetrics {
        self.metrics
    }

    /// The SSDs' own statistics, summed over the array.
    pub fn ssd_stats(&self) -> gmt_ssd::SsdStats {
        self.ssd.stats()
    }

    fn page_bytes(&self) -> u64 {
        self.config.geometry.page_bytes
    }

    /// Issues one SSD command for `page`, through the ring window when
    /// there is one; returns its completion time.
    fn issue(&mut self, now: Time, write: bool, page: u64) -> Time {
        let bytes = self.page_bytes();
        let offset = page * bytes;
        let ssd = &mut self.ssd;
        let mut io = |at| {
            if write {
                ssd.write(at, offset, bytes)
            } else {
                ssd.read(at, offset, bytes)
            }
        };
        match &mut self.ring {
            Some(ring) => ring.submit(now, write, io),
            None => io(now),
        }
    }

    fn evict_one(&mut self, now: Time) -> Time {
        let victim = self.clock.evict_candidate();
        self.metrics.t1_evictions += 1;
        let meta = self.table.get_mut(victim);
        meta.resident = false;
        let dirty = std::mem::take(&mut meta.dirty);
        self.trace.emit(
            now,
            TraceEvent::Eviction {
                page: victim.0,
                predicted: None,
                target: TierTag::Ssd,
                dirty,
            },
        );
        if dirty {
            self.metrics.ssd_writes += 1;
            self.trace
                .emit(now, TraceEvent::SsdWriteBack { page: victim.0 });
            self.issue(now, true, victim.0)
        } else {
            self.metrics.discards += 1;
            self.trace
                .emit(now, TraceEvent::EvictDiscard { page: victim.0 });
            now
        }
    }
}

impl MemoryBackend for Bam {
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
            if meta.resident {
                ready = ready.max(meta.ready_at);
                self.clock.touch(page);
                self.metrics.t1_hits += 1;
                self.trace.emit(now, TraceEvent::Tier1Hit { page: page.0 });
            } else {
                self.metrics.t1_misses += 1;
                self.trace.emit(
                    now,
                    TraceEvent::Tier1Miss {
                        page: page.0,
                        resident: TierTag::Ssd,
                    },
                );
                if self.clock.is_full() {
                    let done = self.evict_one(now);
                    ready = ready.max(done);
                }
                self.metrics.ssd_reads += 1;
                let done = self.issue(now, false, page.0);
                if self.trace.is_enabled() {
                    self.trace.emit(
                        now,
                        TraceEvent::Tier1Fill {
                            page: page.0,
                            source: TierTag::Ssd,
                            ready_ns: done.as_nanos(),
                        },
                    );
                }
                self.clock.insert(page);
                let meta = self.table.get_mut(page);
                meta.resident = true;
                meta.ready_at = done;
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
    use gmt_mem::PageId;

    fn tiny() -> Bam {
        Bam::new(BamConfig::new(TierGeometry::from_tier1(4, 4.0, 2.0)))
    }

    fn read(bam: &mut Bam, now: Time, page: u64) -> Time {
        bam.access(now, &WarpAccess::read(PageId(page)))
    }

    #[test]
    fn miss_then_hit() {
        let mut bam = tiny();
        let t1 = read(&mut bam, Time::ZERO, 0);
        assert!(t1 > Time::ZERO);
        let t2 = read(&mut bam, t1, 0);
        assert_eq!(t2, t1);
        let m = bam.metrics();
        assert_eq!((m.t1_hits, m.t1_misses, m.ssd_reads), (1, 1, 1));
    }

    #[test]
    fn clean_evictions_are_free() {
        let mut bam = tiny();
        let mut now = Time::ZERO;
        for p in 0..12 {
            now = read(&mut bam, now, p);
        }
        let m = bam.metrics();
        assert_eq!(m.t1_evictions, 8);
        assert_eq!(m.discards, 8);
        assert_eq!(m.ssd_writes, 0);
    }

    #[test]
    fn dirty_evictions_write_back() {
        let mut bam = tiny();
        let mut now = Time::ZERO;
        for p in 0..4 {
            now = bam.access(now, &WarpAccess::write(PageId(p)));
        }
        for p in 4..8 {
            now = read(&mut bam, now, p);
        }
        assert_eq!(bam.metrics().ssd_writes, 4);
    }

    #[test]
    fn no_tier2_counters_ever_move() {
        let mut bam = tiny();
        let mut now = Time::ZERO;
        for p in 0..40 {
            now = read(&mut bam, now, p % 13);
        }
        let m = bam.metrics();
        assert_eq!(m.t2_hits, 0);
        assert_eq!(m.t2_placements, 0);
        assert_eq!(m.wasteful_lookups, 0);
    }

    #[test]
    fn config_from_gmt_shares_devices() {
        let gmt_config = GmtConfig::new(TierGeometry::from_tier1(8, 4.0, 2.0));
        let bam_config: BamConfig = gmt_config.into();
        assert_eq!(bam_config.geometry, gmt_config.geometry);
        assert_eq!(bam_config.ssd, gmt_config.ssd);
    }
}
