//! Trace-derived summaries: decision counters, per-window timelines,
//! and queue-depth distributions.
//!
//! The runtimes' [`TraceSink`](gmt_sim::trace::TraceSink) records every
//! tiering decision as a typed event; this module turns a captured record
//! stream back into numbers:
//!
//! * [`counters_from_trace`] — aggregate decision counters, with
//!   [`TraceCounters::reconcile`] checking them *exactly* against the
//!   runtime's own [`TieringMetrics`] (the differential tests' anchor),
//! * [`summarize_windows`] — fixed-width time windows carrying counters,
//!   Tier-1/Tier-2 occupancy, PCIe traffic and peak SSD queue depth, for
//!   warm-up timelines and the paper figures,
//! * [`queue_depth_percentiles`] — the distribution of instantaneous SSD
//!   queue depth over the run,
//! * [`TenantSummaryBuilder`] and [`SloSummaryBuilder`] — per-tenant and
//!   per-SLO-class folds, fed one record at a time straight out of the
//!   ring.
//!
//! All summaries assume the capturing ring was large enough that nothing
//! was dropped ([`TraceSink::dropped`](gmt_sim::trace::TraceSink::dropped)
//! `== 0`); a truncated stream under-counts whatever scrolled off.

use gmt_core::{Gmt, GmtConfig, TieringMetrics};
use gmt_gpu::{Executor, ExecutorConfig};
use gmt_sim::trace::{SloClass, TierTag, TraceEvent, TraceRecord};
use gmt_sim::Dur;
use gmt_workloads::Workload;

use crate::runner::replay;

/// Decision counters recovered from a trace stream.
///
/// Field names mirror the derivable subset of [`TieringMetrics`]. The
/// event → counter mapping is uniform across the GMT, BaM and HMM
/// runtimes; each runtime emits exactly the events whose counters it
/// increments (e.g. GMT's prefetcher reads the SSD without counting in
/// `ssd_reads`, so it emits `prefetch` without a `t1_fill`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// `t1_hit` events.
    pub t1_hits: u64,
    /// `t1_miss` events.
    pub t1_misses: u64,
    /// `t2_hit` events.
    pub t2_hits: u64,
    /// `wasteful_lookup` events.
    pub wasteful_lookups: u64,
    /// `t1_fill` events sourced from Tier-3.
    pub ssd_reads: u64,
    /// `ssd_writeback` events.
    pub ssd_writes: u64,
    /// `evict` events.
    pub t1_evictions: u64,
    /// `t2_place` events.
    pub t2_placements: u64,
    /// `evict_discard` events.
    pub discards: u64,
    /// Dirty `t2_spill` events.
    pub t2_writebacks: u64,
    /// Clean `t2_spill` events.
    pub t2_drops: u64,
    /// `prefetch` events.
    pub prefetches: u64,
    /// `prediction` events.
    pub predictions: u64,
    /// ... of which were graded correct.
    pub predictions_correct: u64,
    /// `warp_access` events that were loads.
    pub warp_reads: u64,
    /// `warp_access` events that were stores.
    pub warp_writes: u64,
    /// `ring_submit` events (NVMe submission-ring pushes).
    pub ring_submits: u64,
    /// `ring_complete` events (NVMe completion-ring reaps).
    pub ring_completes: u64,
    /// `front_admit` events (front-end admissions into the batcher).
    pub front_admits: u64,
    /// `front_defer` events (backpressure queued an arrival).
    pub front_defers: u64,
    /// `front_shed` events (backpressure dropped an arrival).
    pub front_sheds: u64,
    /// `front_flush` events (batches released into the hierarchy).
    pub front_flushes: u64,
    /// `front_complete` events (requests whose data came ready).
    pub front_completes: u64,
}

impl TraceCounters {
    // T1: every variant is named, so a new one is a compile error here
    // rather than a silently uncounted event.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn add(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Tier1Hit { .. } => self.t1_hits += 1,
            TraceEvent::Tier1Miss { .. } => self.t1_misses += 1,
            TraceEvent::Tier2Hit { .. } => self.t2_hits += 1,
            TraceEvent::WastefulLookup { .. } => self.wasteful_lookups += 1,
            TraceEvent::Tier1Fill {
                source: TierTag::Ssd,
                ..
            } => self.ssd_reads += 1,
            TraceEvent::SsdWriteBack { .. } => self.ssd_writes += 1,
            TraceEvent::Eviction { .. } => self.t1_evictions += 1,
            TraceEvent::Tier2Place { .. } => self.t2_placements += 1,
            TraceEvent::EvictDiscard { .. } => self.discards += 1,
            TraceEvent::Tier2Spill { dirty: true, .. } => self.t2_writebacks += 1,
            TraceEvent::Tier2Spill { dirty: false, .. } => self.t2_drops += 1,
            TraceEvent::Prefetch { .. } => self.prefetches += 1,
            TraceEvent::PredictionGraded { correct, .. } => {
                self.predictions += 1;
                self.predictions_correct += u64::from(*correct);
            }
            TraceEvent::WarpAccess { write: false, .. } => self.warp_reads += 1,
            TraceEvent::WarpAccess { write: true, .. } => self.warp_writes += 1,
            TraceEvent::RingSubmit { .. } => self.ring_submits += 1,
            TraceEvent::RingComplete { .. } => self.ring_completes += 1,
            TraceEvent::FrontAdmit { .. } => self.front_admits += 1,
            TraceEvent::FrontDefer { .. } => self.front_defers += 1,
            TraceEvent::FrontShed { .. } => self.front_sheds += 1,
            TraceEvent::FrontFlush { .. } => self.front_flushes += 1,
            TraceEvent::FrontComplete { .. } => self.front_completes += 1,
            TraceEvent::Tier1Fill { .. }
            | TraceEvent::SsdSubmit { .. }
            | TraceEvent::SsdComplete { .. }
            | TraceEvent::PcieBatch { .. } => {}
        }
    }

    /// Checks every derivable counter against the runtime's own metrics,
    /// returning the first mismatch as `field: trace=<n> metrics=<m>`.
    ///
    /// Exact equality is the contract: the trace is a faithful journal of
    /// the decisions the counters summarize, so any drift is a bug in one
    /// of the two bookkeepers.
    ///
    /// # Errors
    ///
    /// Returns a description of the first differing counter.
    pub fn reconcile(&self, metrics: &TieringMetrics) -> Result<(), String> {
        let pairs = [
            ("t1_hits", self.t1_hits, metrics.t1_hits),
            ("t1_misses", self.t1_misses, metrics.t1_misses),
            ("t2_hits", self.t2_hits, metrics.t2_hits),
            (
                "wasteful_lookups",
                self.wasteful_lookups,
                metrics.wasteful_lookups,
            ),
            ("ssd_reads", self.ssd_reads, metrics.ssd_reads),
            ("ssd_writes", self.ssd_writes, metrics.ssd_writes),
            ("t1_evictions", self.t1_evictions, metrics.t1_evictions),
            ("t2_placements", self.t2_placements, metrics.t2_placements),
            ("discards", self.discards, metrics.discards),
            ("t2_writebacks", self.t2_writebacks, metrics.t2_writebacks),
            ("t2_drops", self.t2_drops, metrics.t2_drops),
            ("prefetches", self.prefetches, metrics.prefetches),
            ("predictions", self.predictions, metrics.predictions),
            (
                "predictions_correct",
                self.predictions_correct,
                metrics.predictions_correct,
            ),
        ];
        for (name, trace, counter) in pairs {
            if trace != counter {
                return Err(format!("{name}: trace={trace} metrics={counter}"));
            }
        }
        Ok(())
    }

    /// Fraction of graded predictions that were correct, if any.
    pub fn prediction_accuracy(&self) -> Option<f64> {
        (self.predictions > 0).then(|| self.predictions_correct as f64 / self.predictions as f64)
    }

    /// Tier-2 hit rate over Tier-1 misses, if any missed.
    pub fn t2_hit_rate(&self) -> Option<f64> {
        (self.t1_misses > 0).then(|| self.t2_hits as f64 / self.t1_misses as f64)
    }
}

/// One fully-traced GMT run: the captured stream plus the runtime's own
/// bookkeeping, for cross-checking and window summaries.
#[derive(Debug)]
pub struct TracedRun {
    /// Every record the ring retained, oldest first.
    pub records: Vec<TraceRecord>,
    /// The runtime's counters at the end of the run.
    pub metrics: TieringMetrics,
    /// Total simulated execution time.
    pub elapsed: Dur,
    /// Records lost to ring overflow (0 means `records` is complete).
    pub dropped: u64,
}

/// Replays `workload` through a traced [`Gmt`] runtime on the default
/// executor, capturing up to `capacity` records.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn run_gmt_traced(
    workload: &dyn Workload,
    config: &GmtConfig,
    seed: u64,
    capacity: usize,
) -> TracedRun {
    let mut gmt = Gmt::new(*config);
    let sink = gmt.enable_tracing(capacity);
    let out = replay(
        &Executor::new(ExecutorConfig::default()),
        gmt,
        workload,
        seed,
    );
    TracedRun {
        records: sink.snapshot(),
        metrics: out.backend.metrics(),
        elapsed: out.elapsed,
        dropped: sink.dropped(),
    }
}

/// Aggregates the whole stream into one [`TraceCounters`].
pub fn counters_from_trace(records: &[TraceRecord]) -> TraceCounters {
    let mut counters = TraceCounters::default();
    for r in records {
        counters.add(&r.event);
    }
    counters
}

/// One fixed-width window of a summarized trace.
#[derive(Debug, Clone, Default)]
pub struct TraceWindow {
    /// Window start (inclusive), ns since the run began.
    pub start_ns: u64,
    /// Window end (exclusive), ns.
    pub end_ns: u64,
    /// Decision counters for events inside the window.
    pub counters: TraceCounters,
    /// Pages resident in Tier-1 at the window's end (net fills plus
    /// prefetches minus evictions since the run began).
    pub t1_occupancy: u64,
    /// Pages resident in Tier-2 at the window's end (net placements
    /// minus spills and promotions).
    pub t2_occupancy: u64,
    /// Largest instantaneous SSD queue depth observed in the window.
    pub max_queue_depth: u32,
    /// Bytes that crossed PCIe toward the GPU inside the window.
    pub pcie_bytes_to_gpu: u64,
    /// Bytes that crossed PCIe toward the host inside the window.
    pub pcie_bytes_to_host: u64,
}

/// Tracks which pages the trace says are resident in each memory tier.
///
/// Installs and removals are applied per *page*, not per event, so the
/// double-removal corner (a Tier-2 page spilled by an eviction and then
/// hit by the very access that triggered it) cannot drive the population
/// negative. HMM's chunked migration, which emits `prefetch` and
/// `t1_fill` back to back for one install, is likewise counted once.
#[derive(Debug, Clone, Default)]
pub struct OccupancyTracker {
    tier1: std::collections::BTreeSet<u64>,
    tier2: std::collections::BTreeSet<u64>,
}

impl OccupancyTracker {
    /// Applies one event's tier movement.
    pub fn apply(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Tier1Fill { page, .. } | TraceEvent::Prefetch { page } => {
                self.tier1.insert(*page);
            }
            TraceEvent::Eviction { page, .. } => {
                self.tier1.remove(page);
            }
            TraceEvent::Tier2Place { page, .. } => {
                self.tier2.insert(*page);
            }
            TraceEvent::Tier2Spill { page, .. } | TraceEvent::Tier2Hit { page } => {
                self.tier2.remove(page);
            }
            _ => {}
        }
    }

    /// Pages currently resident in Tier-1.
    pub fn tier1_pages(&self) -> usize {
        self.tier1.len()
    }

    /// Pages currently resident in Tier-2.
    pub fn tier2_pages(&self) -> usize {
        self.tier2.len()
    }
}

/// Splits `records` into windows of `width` and summarizes each.
///
/// Windows are aligned to the run's origin (`[k·width, (k+1)·width)`) and
/// the sequence is dense: quiet windows appear with zero counters so the
/// timeline has even spacing. Occupancy is cumulative — a window reports
/// the net population at its end ([`OccupancyTracker`] semantics), not
/// the delta within it.
///
/// Returns an empty vector for an empty stream.
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn summarize_windows(records: &[TraceRecord], width: Dur) -> Vec<TraceWindow> {
    assert!(width > Dur::ZERO, "window width must be positive");
    let Some(last) = records.last() else {
        return Vec::new();
    };
    let width_ns = width.as_nanos();
    let windows = last.at.as_nanos() / width_ns + 1;
    let mut out: Vec<TraceWindow> = (0..windows)
        .map(|k| TraceWindow {
            start_ns: k * width_ns,
            end_ns: (k + 1) * width_ns,
            ..TraceWindow::default()
        })
        .collect();
    let mut occupancy = OccupancyTracker::default();
    for r in records {
        let w = &mut out[(r.at.as_nanos() / width_ns) as usize];
        w.counters.add(&r.event);
        occupancy.apply(&r.event);
        match &r.event {
            TraceEvent::SsdSubmit { queue_depth, .. }
            | TraceEvent::SsdComplete { queue_depth, .. } => {
                w.max_queue_depth = w.max_queue_depth.max(*queue_depth);
            }
            TraceEvent::PcieBatch {
                direction, bytes, ..
            } => match direction {
                gmt_sim::trace::LinkDir::ToGpu => w.pcie_bytes_to_gpu += bytes,
                gmt_sim::trace::LinkDir::ToHost => w.pcie_bytes_to_host += bytes,
            },
            _ => {}
        }
        w.t1_occupancy = occupancy.tier1_pages() as u64;
        w.t2_occupancy = occupancy.tier2_pages() as u64;
    }
    // Quiet windows inherit the occupancy standing at their start.
    for k in 1..out.len() {
        if out[k].counters == TraceCounters::default() {
            out[k].t1_occupancy = out[k - 1].t1_occupancy;
            out[k].t2_occupancy = out[k - 1].t2_occupancy;
        }
    }
    out
}

/// Percentiles (nearest-rank) of instantaneous SSD queue depth, sampled
/// at every `ssd_submit`/`ssd_complete` event.
///
/// `percentiles` are in `[0, 100]`. Returns an empty vector when the
/// stream holds no device events.
///
/// # Panics
///
/// Panics if a requested percentile is outside `[0, 100]`.
pub fn queue_depth_percentiles(records: &[TraceRecord], percentiles: &[f64]) -> Vec<u32> {
    let mut samples: Vec<u32> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::SsdSubmit { queue_depth, .. }
            | TraceEvent::SsdComplete { queue_depth, .. } => Some(queue_depth),
            _ => None,
        })
        .collect();
    if samples.is_empty() {
        return Vec::new();
    }
    samples.sort_unstable();
    // `samples` is not empty, so every percentile has a value.
    percentiles
        .iter()
        .filter_map(|&p| nearest_rank(&samples, p))
        .collect()
}

/// The nearest-rank `p`-th percentile of ascending `sorted`: the sample
/// at rank `ceil(p/100 · n)`, counted from 1, with rank 0 (`p = 0`)
/// taken as the smallest sample. `None` when `sorted` is empty.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
fn nearest_rank<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile {p} outside [0, 100]"
    );
    let last = sorted.len().checked_sub(1)?;
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(last)])
}

/// Per-tenant view of a multi-tenant trace stream.
///
/// Built by [`TenantSummaryBuilder`] from records stamped with a tenant
/// id (the serving runtime's `TraceSink::set_tenant`). Untagged records —
/// single-tenant runs, or device events emitted outside any tenant's
/// access — are not attributed to anyone.
#[derive(Debug, Clone)]
pub struct TenantTraceSummary {
    /// The tenant the records were stamped with.
    pub tenant: u32,
    /// Decision counters over this tenant's records.
    pub counters: TraceCounters,
    /// Service latency of every Tier-1 fill this tenant triggered
    /// (`ready_ns` minus the miss's wall time), sorted ascending.
    pub miss_service_ns: Vec<u64>,
}

impl TenantTraceSummary {
    /// Tier-1 hit rate over this tenant's page touches.
    pub fn t1_hit_rate(&self) -> f64 {
        let touches = self.counters.t1_hits + self.counters.t1_misses;
        if touches == 0 {
            0.0
        } else {
            self.counters.t1_hits as f64 / touches as f64
        }
    }

    /// Nearest-rank percentile of this tenant's miss-service latency,
    /// or `None` if every access hit.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn miss_service_percentile(&self, p: f64) -> Option<u64> {
        nearest_rank(&self.miss_service_ns, p)
    }
}

/// Splits a tenant-stamped stream into one summary per tenant, ordered
/// by tenant id. Feed it records one at a time (e.g. straight out of a
/// trace ring via `TraceSink::visit`) without ever materializing the
/// whole trace as a contiguous slice.
///
/// Miss-service latency is taken from [`TraceEvent::Tier1Fill`]: the
/// fill's `ready_ns` minus the record's wall time is exactly how long
/// the faulting warp waited for its page.
///
/// # Examples
///
/// ```
/// use gmt_analysis::tracesum::TenantSummaryBuilder;
/// use gmt_sim::trace::{TraceEvent, TraceSink};
/// use gmt_sim::Time;
///
/// let sink = TraceSink::bounded(8);
/// sink.set_tenant(Some(1));
/// sink.emit(Time::from_nanos(5), TraceEvent::Tier1Hit { page: 0 });
/// sink.set_tenant(None);
/// sink.emit(Time::from_nanos(6), TraceEvent::Tier1Hit { page: 1 });
///
/// let mut builder = TenantSummaryBuilder::new();
/// sink.visit(|r| builder.observe(r));
/// let summaries = builder.finish();
/// assert_eq!(summaries.len(), 1, "untagged records belong to no tenant");
/// assert_eq!(summaries[0].tenant, 1);
/// assert_eq!(summaries[0].t1_hit_rate(), 1.0);
/// ```
#[derive(Debug, Default)]
pub struct TenantSummaryBuilder {
    // Tenant ids are dense small integers assigned by the registry, so a
    // flat table (grown on demand, `None` = never seen) replaces a map
    // lookup per record with an indexed load.
    by_tenant: Vec<Option<TenantTraceSummary>>,
}

impl TenantSummaryBuilder {
    /// An empty builder.
    pub fn new() -> TenantSummaryBuilder {
        TenantSummaryBuilder::default()
    }

    /// Folds one record in. Records without a tenant stamp are skipped.
    pub fn observe(&mut self, r: &TraceRecord) {
        let Some(tenant) = r.tenant else {
            return;
        };
        let i = tenant as usize;
        if i >= self.by_tenant.len() {
            self.by_tenant.resize_with(i + 1, || None);
        }
        let summary = self.by_tenant[i].get_or_insert_with(|| TenantTraceSummary {
            tenant,
            counters: TraceCounters::default(),
            miss_service_ns: Vec::new(),
        });
        summary.counters.add(&r.event);
        if let TraceEvent::Tier1Fill { ready_ns, .. } = r.event {
            summary
                .miss_service_ns
                .push(ready_ns.saturating_sub(r.at.as_nanos()));
        }
    }

    /// Sorts the latency samples and returns the summaries ordered by
    /// tenant id.
    pub fn finish(self) -> Vec<TenantTraceSummary> {
        let mut out: Vec<TenantTraceSummary> = self.by_tenant.into_iter().flatten().collect();
        for s in &mut out {
            s.miss_service_ns.sort_unstable();
        }
        out
    }
}

/// Per-SLO-class view of a front-end trace stream.
///
/// Built by [`SloSummaryBuilder`] from the `front_*` events the serving
/// front-end (`crates/frontend`) emits: one summary per [`SloClass`]
/// that appeared in the stream, carrying the class's admission-decision
/// counts and its end-to-end request-latency distribution.
#[derive(Debug, Clone)]
pub struct SloClassSummary {
    /// The class the events were stamped with.
    pub class: SloClass,
    /// `front_admit` events: requests that entered the batcher.
    pub admits: u64,
    /// `front_defer` events: requests backpressure queued first.
    pub defers: u64,
    /// `front_shed` events: requests dropped outright.
    pub sheds: u64,
    /// `front_flush` events: batches released into the hierarchy.
    pub flushes: u64,
    /// Pages across all of this class's flushed batches.
    pub flush_pages: u64,
    /// ... of which batches the Fig. 6 engine moved by zero-copy.
    pub zero_copy_flushes: u64,
    /// End-to-end latency of every completed request, sorted ascending.
    pub latency_ns: Vec<u64>,
}

impl SloClassSummary {
    fn empty(class: SloClass) -> SloClassSummary {
        SloClassSummary {
            class,
            admits: 0,
            defers: 0,
            sheds: 0,
            flushes: 0,
            flush_pages: 0,
            zero_copy_flushes: 0,
            latency_ns: Vec::new(),
        }
    }

    /// Completed requests (the latency sample count).
    pub fn completes(&self) -> u64 {
        self.latency_ns.len() as u64
    }

    /// Nearest-rank percentile of this class's request latency, or
    /// `None` when nothing completed.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn latency_percentile(&self, p: f64) -> Option<u64> {
        nearest_rank(&self.latency_ns, p)
    }

    /// Median request latency.
    pub fn p50_ns(&self) -> Option<u64> {
        self.latency_percentile(50.0)
    }

    /// 99th-percentile request latency.
    pub fn p99_ns(&self) -> Option<u64> {
        self.latency_percentile(99.0)
    }

    /// 99.9th-percentile request latency.
    pub fn p999_ns(&self) -> Option<u64> {
        self.latency_percentile(99.9)
    }

    /// Fraction of completed requests that finished later than the
    /// class's [`SloClass::target_p99_ns`] budget (0.0 when nothing
    /// completed).
    pub fn violation_rate(&self) -> f64 {
        if self.latency_ns.is_empty() {
            return 0.0;
        }
        let target = self.class.target_p99_ns();
        // The samples are sorted, so the violators form a suffix.
        let violators = self.latency_ns.len() - self.latency_ns.partition_point(|&l| l <= target);
        violators as f64 / self.latency_ns.len() as f64
    }

    /// Checks the stream-level conservation law: every admitted request
    /// completes exactly once, so per class `admits == completes`.
    ///
    /// # Errors
    ///
    /// Returns a description of the imbalance.
    pub fn check_conservation(&self) -> Result<(), String> {
        if self.admits != self.completes() {
            return Err(format!(
                "{}: admits={} but completes={}",
                self.class,
                self.admits,
                self.completes()
            ));
        }
        Ok(())
    }
}

/// Splits a front-end trace into one [`SloClassSummary`] per class that
/// appeared, ordered most latency-sensitive first. Feed it records one
/// at a time (e.g. straight out of a trace ring via `TraceSink::visit`);
/// non-front-end events are skipped.
#[derive(Debug, Default)]
pub struct SloSummaryBuilder {
    by_class: [Option<SloClassSummary>; 3],
}

impl SloSummaryBuilder {
    /// An empty builder.
    pub fn new() -> SloSummaryBuilder {
        SloSummaryBuilder::default()
    }

    fn slot(&mut self, class: SloClass) -> &mut SloClassSummary {
        self.by_class[class as usize].get_or_insert_with(|| SloClassSummary::empty(class))
    }

    /// Folds one record in. Non-front-end events are skipped.
    pub fn observe(&mut self, r: &TraceRecord) {
        match &r.event {
            TraceEvent::FrontAdmit { class, .. } => self.slot(*class).admits += 1,
            TraceEvent::FrontDefer { class, .. } => self.slot(*class).defers += 1,
            TraceEvent::FrontShed { class, .. } => self.slot(*class).sheds += 1,
            TraceEvent::FrontFlush {
                class,
                pages,
                zero_copy,
                ..
            } => {
                let s = self.slot(*class);
                s.flushes += 1;
                s.flush_pages += u64::from(*pages);
                s.zero_copy_flushes += u64::from(*zero_copy);
            }
            TraceEvent::FrontComplete {
                class, latency_ns, ..
            } => self.slot(*class).latency_ns.push(*latency_ns),
            _ => {}
        }
    }

    /// Sorts the latency samples and returns the summaries ordered
    /// most latency-sensitive first.
    pub fn finish(self) -> Vec<SloClassSummary> {
        let mut out: Vec<SloClassSummary> = self.by_class.into_iter().flatten().collect();
        for s in &mut out {
            s.latency_ns.sort_unstable();
        }
        out
    }
}

/// Jain's fairness index `(Σx)² / (n · Σx²)` over per-tenant allocations.
///
/// 1.0 means every tenant receives the same share; `1/n` means one
/// tenant receives everything. Conventionally 1.0 when every allocation
/// is zero (nobody is favoured) and 0.0 for an empty slice.
///
/// # Examples
///
/// ```
/// use gmt_analysis::tracesum::jain_fairness;
/// assert_eq!(jain_fairness(&[1.0, 1.0, 1.0]), 1.0);
/// assert_eq!(jain_fairness(&[1.0, 0.0]), 0.5);
/// assert_eq!(jain_fairness(&[]), 0.0);
/// ```
pub fn jain_fairness(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (values.len() as f64 * sum_sq)
}

/// Prediction accuracy per window: `(window start ns, graded, accuracy)`
/// for every window that graded at least one prediction.
///
/// The Fig. 9 capture tabulates this as accuracy-over-time (the intra-run
/// view behind Fig. 9's end-of-run number).
pub fn prediction_accuracy_over_time(records: &[TraceRecord], width: Dur) -> Vec<(u64, u64, f64)> {
    summarize_windows(records, width)
        .into_iter()
        .filter_map(|w| {
            w.counters
                .prediction_accuracy()
                .map(|acc| (w.start_ns, w.counters.predictions, acc))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_core::{Gmt, GmtConfig};
    use gmt_gpu::{Executor, ExecutorConfig};
    use gmt_mem::{PageId, TierGeometry, WarpAccess};
    use gmt_sim::trace::TraceSink;
    use gmt_sim::Time;

    fn rec(t: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: Time::from_nanos(t),
            vt: 0,
            tenant: None,
            event,
        }
    }

    fn traced_gmt_run(pages: u64) -> (Vec<TraceRecord>, TieringMetrics) {
        let mut gmt = Gmt::new(GmtConfig::new(TierGeometry::from_tier1(16, 4.0, 2.0)));
        let sink = gmt.enable_tracing(1 << 20);
        let trace = (0..pages).map(|p| WarpAccess::read(PageId(p % 40)));
        let out = Executor::new(ExecutorConfig::default()).run(gmt, trace);
        assert_eq!(sink.dropped(), 0, "ring must hold the whole run");
        (sink.snapshot(), out.backend.metrics())
    }

    #[test]
    fn counters_reconcile_with_gmt_metrics() {
        let (records, metrics) = traced_gmt_run(400);
        let counters = counters_from_trace(&records);
        counters
            .reconcile(&metrics)
            .expect("trace and metrics must agree");
        assert!(counters.t1_misses > 0);
    }

    #[test]
    fn reconcile_reports_the_differing_field() {
        let counters = counters_from_trace(&[rec(1, TraceEvent::Tier1Hit { page: 0 })]);
        let err = counters.reconcile(&TieringMetrics::default()).unwrap_err();
        assert!(err.contains("t1_hits"), "{err}");
    }

    #[test]
    fn windows_are_dense_and_sum_to_the_total() {
        let (records, _) = traced_gmt_run(400);
        let windows = summarize_windows(&records, Dur::from_micros(50));
        assert!(!windows.is_empty());
        for pair in windows.windows(2) {
            assert_eq!(
                pair[0].end_ns, pair[1].start_ns,
                "windows must tile the run"
            );
        }
        let total = counters_from_trace(&records);
        let mut summed = TraceCounters::default();
        for w in &windows {
            summed.t1_hits += w.counters.t1_hits;
            summed.t1_misses += w.counters.t1_misses;
            summed.ssd_reads += w.counters.ssd_reads;
        }
        assert_eq!(summed.t1_hits, total.t1_hits);
        assert_eq!(summed.t1_misses, total.t1_misses);
        assert_eq!(summed.ssd_reads, total.ssd_reads);
    }

    #[test]
    fn occupancy_respects_tier1_capacity() {
        let (records, _) = traced_gmt_run(400);
        let windows = summarize_windows(&records, Dur::from_micros(20));
        let peak = windows.iter().map(|w| w.t1_occupancy).max().unwrap();
        assert!(peak > 0);
        assert!(peak <= 16, "occupancy {peak} exceeds the 16-page Tier-1");
    }

    #[test]
    fn quiet_windows_carry_occupancy_forward() {
        let records = vec![
            rec(
                10,
                TraceEvent::Tier1Fill {
                    page: 1,
                    source: TierTag::Ssd,
                    ready_ns: 10,
                },
            ),
            rec(5_000, TraceEvent::Tier1Hit { page: 1 }),
        ];
        let windows = summarize_windows(&records, Dur::from_micros(1));
        assert_eq!(windows.len(), 6);
        for w in &windows {
            assert_eq!(w.t1_occupancy, 1, "window at {} lost occupancy", w.start_ns);
        }
    }

    #[test]
    fn hmm_prefetch_fill_pair_installs_once() {
        let records = vec![
            rec(1, TraceEvent::Prefetch { page: 9 }),
            rec(
                1,
                TraceEvent::Tier1Fill {
                    page: 9,
                    source: TierTag::Ssd,
                    ready_ns: 2,
                },
            ),
        ];
        let windows = summarize_windows(&records, Dur::from_micros(1));
        assert_eq!(windows.last().unwrap().t1_occupancy, 1);
    }

    #[test]
    fn depth_percentiles_are_order_statistics() {
        let records: Vec<TraceRecord> = (1..=100u32)
            .map(|d| {
                rec(
                    d as u64,
                    TraceEvent::SsdSubmit {
                        device: 0,
                        write: false,
                        bytes: 4096,
                        queue_depth: d,
                    },
                )
            })
            .collect();
        let p = queue_depth_percentiles(&records, &[50.0, 99.0, 100.0]);
        assert_eq!(p, vec![50, 99, 100]);
        assert!(queue_depth_percentiles(&[], &[50.0]).is_empty());
    }

    #[test]
    fn ring_and_warp_events_are_counted_not_swallowed() {
        let records = vec![
            rec(
                1,
                TraceEvent::WarpAccess {
                    page: 3,
                    write: false,
                },
            ),
            rec(
                2,
                TraceEvent::WarpAccess {
                    page: 4,
                    write: true,
                },
            ),
            rec(
                3,
                TraceEvent::RingSubmit {
                    cid: 1,
                    write: false,
                    queue_depth: 4,
                },
            ),
            rec(
                4,
                TraceEvent::RingComplete {
                    cid: 1,
                    queue_depth: 3,
                },
            ),
        ];
        let c = counters_from_trace(&records);
        assert_eq!(c.warp_reads, 1);
        assert_eq!(c.warp_writes, 1);
        assert_eq!(c.ring_submits, 1);
        assert_eq!(c.ring_completes, 1);
    }

    fn tenant_rec(t: u64, tenant: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: Time::from_nanos(t),
            vt: 0,
            tenant: Some(tenant),
            event,
        }
    }

    /// `records` emitted into a trace ring, tenant stamps included, as
    /// the runtimes emit them.
    fn ring_of(records: &[TraceRecord]) -> TraceSink {
        let sink = TraceSink::bounded(records.len().max(1));
        for r in records {
            sink.set_tenant(r.tenant);
            sink.emit(r.at, r.event.clone());
        }
        sink
    }

    fn fold_tenants(records: &[TraceRecord]) -> Vec<TenantTraceSummary> {
        let mut builder = TenantSummaryBuilder::new();
        ring_of(records).visit(|r| builder.observe(r));
        builder.finish()
    }

    fn fold_slo_classes(records: &[TraceRecord]) -> Vec<SloClassSummary> {
        let mut builder = SloSummaryBuilder::new();
        ring_of(records).visit(|r| builder.observe(r));
        builder.finish()
    }

    #[test]
    fn nearest_rank_pins_its_ends_and_a_single_sample() {
        let sorted = [10u64, 20, 30, 40];
        assert_eq!(nearest_rank(&sorted, 0.0), Some(10), "p = 0 is the minimum");
        assert_eq!(nearest_rank(&sorted, 25.0), Some(10));
        assert_eq!(nearest_rank(&sorted, 25.1), Some(20));
        assert_eq!(
            nearest_rank(&sorted, 100.0),
            Some(40),
            "p = 100 is the maximum"
        );
        for p in [0.0, 50.0, 99.9, 100.0] {
            assert_eq!(nearest_rank(&[7u32], p), Some(7), "p = {p}");
        }
        assert_eq!(nearest_rank::<u64>(&[], 50.0), None);
    }

    #[test]
    #[should_panic(expected = "outside [0, 100]")]
    fn nearest_rank_rejects_a_percentile_above_100() {
        nearest_rank(&[1u64], 100.5);
    }

    #[test]
    fn tenant_summaries_split_by_stamp_and_skip_untagged() {
        let records = vec![
            tenant_rec(1, 0, TraceEvent::Tier1Hit { page: 0 }),
            tenant_rec(
                2,
                1,
                TraceEvent::Tier1Miss {
                    page: 7,
                    resident: TierTag::Ssd,
                },
            ),
            tenant_rec(
                2,
                1,
                TraceEvent::Tier1Fill {
                    page: 7,
                    source: TierTag::Ssd,
                    ready_ns: 1_502,
                },
            ),
            tenant_rec(9, 0, TraceEvent::Tier1Hit { page: 1 }),
            rec(10, TraceEvent::Tier1Hit { page: 2 }),
        ];
        let summaries = fold_tenants(&records);
        assert_eq!(summaries.len(), 2, "untagged record must not be a tenant");
        assert_eq!(summaries[0].tenant, 0);
        assert_eq!(summaries[0].counters.t1_hits, 2);
        assert_eq!(summaries[0].t1_hit_rate(), 1.0);
        assert_eq!(summaries[0].miss_service_percentile(99.0), None);
        assert_eq!(summaries[1].tenant, 1);
        assert_eq!(summaries[1].counters.t1_misses, 1);
        assert_eq!(summaries[1].miss_service_ns, vec![1_500]);
        assert_eq!(summaries[1].miss_service_percentile(50.0), Some(1_500));
    }

    #[test]
    fn tenant_counters_sum_to_the_global_aggregate() {
        let records = vec![
            tenant_rec(1, 0, TraceEvent::Tier1Hit { page: 0 }),
            tenant_rec(
                2,
                1,
                TraceEvent::Tier1Miss {
                    page: 7,
                    resident: TierTag::Ssd,
                },
            ),
            tenant_rec(3, 2, TraceEvent::Tier1Hit { page: 3 }),
            tenant_rec(4, 1, TraceEvent::Tier1Hit { page: 7 }),
        ];
        let total = counters_from_trace(&records);
        let summaries = fold_tenants(&records);
        let (hits, misses) = summaries.iter().fold((0, 0), |(h, m), s| {
            (h + s.counters.t1_hits, m + s.counters.t1_misses)
        });
        assert_eq!(hits, total.t1_hits);
        assert_eq!(misses, total.t1_misses);
    }

    #[test]
    fn jain_fairness_brackets() {
        assert_eq!(jain_fairness(&[5.0, 5.0, 5.0, 5.0]), 1.0);
        let skewed = jain_fairness(&[10.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12, "one-taker index is 1/n");
        assert_eq!(
            jain_fairness(&[0.0, 0.0]),
            1.0,
            "all-zero is trivially fair"
        );
        let mid = jain_fairness(&[4.0, 2.0]);
        assert!(mid > 0.25 && mid < 1.0);
    }

    #[test]
    fn accuracy_over_time_skips_quiet_windows() {
        let records = vec![
            rec(
                100,
                TraceEvent::PredictionGraded {
                    page: 1,
                    predicted: TierTag::Host,
                    actual: TierTag::Host,
                    correct: true,
                },
            ),
            rec(5_000, TraceEvent::Tier1Hit { page: 1 }),
        ];
        let series = prediction_accuracy_over_time(&records, Dur::from_micros(1));
        assert_eq!(series, vec![(0, 1, 1.0)]);
    }

    #[test]
    fn slo_summaries_split_by_class_and_count_every_decision() {
        use gmt_sim::trace::FlushReason;
        let records = vec![
            rec(
                1,
                TraceEvent::FrontAdmit {
                    conn: 0,
                    class: SloClass::Interactive,
                    queued: 0,
                },
            ),
            rec(
                2,
                TraceEvent::FrontDefer {
                    conn: 1,
                    class: SloClass::Batch,
                    queued: 1,
                },
            ),
            rec(
                3,
                TraceEvent::FrontAdmit {
                    conn: 1,
                    class: SloClass::Batch,
                    queued: 0,
                },
            ),
            rec(
                4,
                TraceEvent::FrontShed {
                    conn: 2,
                    class: SloClass::Batch,
                    queued: 4,
                },
            ),
            rec(
                5,
                TraceEvent::FrontFlush {
                    class: SloClass::Interactive,
                    reason: FlushReason::Timer,
                    pages: 3,
                    bytes: 12288,
                    zero_copy: false,
                },
            ),
            rec(
                6,
                TraceEvent::FrontComplete {
                    conn: 0,
                    class: SloClass::Interactive,
                    latency_ns: 900,
                },
            ),
            rec(
                7,
                TraceEvent::FrontComplete {
                    conn: 1,
                    class: SloClass::Batch,
                    latency_ns: 44,
                },
            ),
            rec(8, TraceEvent::Tier1Hit { page: 0 }),
        ];
        let summaries = fold_slo_classes(&records);
        assert_eq!(summaries.len(), 2, "only classes that appeared");
        let interactive = &summaries[0];
        assert_eq!(interactive.class, SloClass::Interactive);
        assert_eq!(interactive.admits, 1);
        assert_eq!(interactive.flushes, 1);
        assert_eq!(interactive.flush_pages, 3);
        assert_eq!(interactive.completes(), 1);
        interactive.check_conservation().expect("balanced");
        let batch = &summaries[1];
        assert_eq!(batch.class, SloClass::Batch);
        assert_eq!(batch.defers, 1);
        assert_eq!(batch.sheds, 1);
        assert_eq!(batch.admits, 1);
        assert_eq!(batch.latency_ns, vec![44]);
    }

    #[test]
    fn slo_percentiles_are_monotone_and_violations_form_a_suffix() {
        let mut s = SloClassSummary::empty(SloClass::Interactive);
        s.latency_ns = (1..=1000u64).map(|i| i * 10_000).collect();
        let (p50, p99, p999) = (
            s.p50_ns().unwrap(),
            s.p99_ns().unwrap(),
            s.p999_ns().unwrap(),
        );
        assert!(p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
        assert_eq!(p50, 5_000_000);
        // 10 ms max, 2 ms target: exactly the samples above 2 ms violate.
        let expected = s.latency_ns.iter().filter(|&&l| l > 2_000_000).count() as f64
            / s.latency_ns.len() as f64;
        assert!((s.violation_rate() - expected).abs() < 1e-12);
        let empty = SloClassSummary::empty(SloClass::Batch);
        assert_eq!(empty.violation_rate(), 0.0);
        assert_eq!(empty.p99_ns(), None);
    }

    #[test]
    fn slo_conservation_flags_an_unbalanced_class() {
        let records = vec![rec(
            1,
            TraceEvent::FrontAdmit {
                conn: 0,
                class: SloClass::Standard,
                queued: 0,
            },
        )];
        let summaries = fold_slo_classes(&records);
        let err = summaries[0].check_conservation().unwrap_err();
        assert!(err.contains("standard"), "{err}");
    }
}
