//! The tiering engine: one 3-tier memory manager behind a tenant table.

use std::collections::VecDeque;

use gmt_gpu::MemoryBackend;
use gmt_mem::{ClockList, PageId, PageTable, Tier, WarpAccess};
use gmt_pcie::{HostLink, TransferBatch};
use gmt_reuse::{MarkovPredictor, PageHistory, SamplingRegression, TierClassifier};
use gmt_sim::trace::{LinkDir, TierTag, TraceEvent, TraceSink};
use gmt_sim::Time;
use gmt_ssd::array::{ArrayConfig, SsdArray};
use gmt_ssd::host_io::{HostIo, HostIoConfig};
use rand::rngs::StdRng;
use rand::Rng;

use crate::tier2::Tier2Cache;
use crate::{
    ConfigError, GmtConfig, MarkovScope, PartitionPolicy, PolicyKind, PredictorKind, TenantId,
    TenantSlice, Tier2Insert, TieringMetrics,
};

/// Per-page state maintained by the runtime. Ownership is implicit in
/// the page's address range (see [`TenantSlice`]).
#[derive(Debug, Clone)]
struct PageMeta {
    /// Which tier currently holds the page.
    tier: Tier,
    /// Whether the page has been modified since it last left the SSD.
    dirty: bool,
    /// When the page's in-flight transfer (if any) completes.
    ready_at: Time,
    /// The owner's virtual-timestamp value at the page's last Tier-1
    /// eviction, used to compute the actual RVTD when the page returns
    /// (§2.1.3 step 2).
    evicted_at_vt: Option<u64>,
    /// Page touches since the page last entered Tier-1 (1 = the demand
    /// fill itself). Distinguishes streaming pages from reused ones when
    /// no eviction history exists yet.
    touches_since_load: u32,
    /// The tier GMT-Reuse predicted at the last eviction (for Fig. 9).
    predicted: Option<Tier>,
    /// Last two known correct tiers (drives the Markov predictor).
    history: PageHistory,
}

impl Default for PageMeta {
    fn default() -> PageMeta {
        PageMeta {
            tier: Tier::Ssd,
            dirty: false,
            ready_at: Time::ZERO,
            evicted_at_vt: None,
            touches_since_load: 0,
            predicted: None,
            history: PageHistory::default(),
        }
    }
}

/// Sliding window over recent eviction predictions for the 80 %
/// Tier-3-pressure heuristic (§2.2), kept per tenant so one tenant's
/// streaming phase cannot force another tenant's victims into Tier-2.
#[derive(Debug, Clone)]
struct BypassWindow {
    recent: VecDeque<bool>,
    t3_count: usize,
    capacity: usize,
}

impl BypassWindow {
    fn new(capacity: usize) -> BypassWindow {
        BypassWindow {
            recent: VecDeque::with_capacity(capacity),
            t3_count: 0,
            capacity,
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "len == capacity > 0 guarantees a front element"
    )]
    fn push(&mut self, predicted_t3: bool) {
        if self.recent.len() == self.capacity && self.recent.pop_front().expect("window non-empty")
        {
            self.t3_count -= 1;
        }
        self.recent.push_back(predicted_t3);
        if predicted_t3 {
            self.t3_count += 1;
        }
    }

    /// Fraction of recent evictions predicted Tier-3; `None` until the
    /// window has filled once.
    fn t3_fraction(&self) -> Option<f64> {
        (self.recent.len() == self.capacity).then(|| self.t3_count as f64 / self.capacity as f64)
    }
}

/// Everything the engine keeps *per tenant*: its slice of the address
/// space and of Tier-1, its reuse machinery (sampler, classifier, Markov
/// chain, bypass window) and its counters. Device queues and PCIe links
/// are shared, so contention crosses tenants even when capacity does not.
#[derive(Debug)]
struct Tenant {
    slice: TenantSlice,
    /// This tenant's virtual-timestamp stream (§2.1.3): one tick per
    /// coalesced touch *by this tenant*, so RVTDs measure the tenant's
    /// own reuse distance and are immune to other tenants' access rates.
    vt: u64,
    sampler: SamplingRegression,
    classifier: TierClassifier,
    markov: MarkovPredictor,
    bypass: BypassWindow,
    metrics: TieringMetrics,
    /// Pages currently resident in Tier-1.
    resident: usize,
}

/// How Tier-1's clocks are organized.
#[derive(Debug)]
enum Tier1 {
    /// One clock over all of Tier-1, shared by every tenant.
    Shared(ClockList),
    /// One clock per tenant (the partitioned policies).
    PerTenant(Vec<ClockList>),
}

impl Tier1 {
    /// The clock tenant `t`'s pages live on.
    fn clock_mut(&mut self, t: usize) -> &mut ClockList {
        match self {
            Tier1::Shared(clock) => clock,
            Tier1::PerTenant(clocks) => &mut clocks[t],
        }
    }

    /// Pages resident across every clock.
    fn len(&self) -> usize {
        match self {
            Tier1::Shared(clock) => clock.len(),
            Tier1::PerTenant(clocks) => clocks.iter().map(ClockList::len).sum(),
        }
    }
}

/// A chosen Tier-1 victim and where it goes.
struct Victim {
    page: PageId,
    owner: usize,
    target: Tier,
    predicted: Tier,
}

/// Histograms of miss-service latencies, per source tier.
///
/// The paper's §3.4 grounds its analysis in two numbers — a host-memory
/// fetch costs ≈50 µs and an SSD fetch ≈130 µs. These distributions are
/// the simulated equivalents, measured per miss at the warp's
/// observation point (including queueing).
#[derive(Debug, Clone, Default)]
pub struct LatencyBreakdown {
    /// Service time of Tier-1 misses satisfied from host memory (ns).
    pub tier2_fetch_ns: gmt_sim::stats::Histogram,
    /// Service time of Tier-1 misses satisfied from the SSD (ns).
    pub ssd_fetch_ns: gmt_sim::stats::Histogram,
}

/// A consistency snapshot of the runtime's tier state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierSnapshot {
    /// Pages resident in Tier-1 (GPU memory).
    pub tier1_pages: usize,
    /// Pages resident in Tier-2 (host memory).
    pub tier2_pages: usize,
    /// Pages resident only on the SSD.
    pub ssd_pages: usize,
    /// Dirty pages in Tier-1.
    pub dirty_tier1: usize,
    /// Dirty pages in Tier-2 (not yet written back).
    pub dirty_tier2: usize,
}

/// The GMT runtime (paper §2).
///
/// Implements [`MemoryBackend`]: feed it coalesced warp accesses via
/// [`gmt_gpu::Executor`] and read the [`TieringMetrics`] afterwards.
///
/// One engine serves a tenant table. [`Gmt::new`] builds the paper's
/// single-tenant runtime: one tenant spanning the address space on one
/// shared clock, whose trace records carry no tenant stamp.
/// [`Gmt::with_tenants`] builds a multi-tenant hierarchy: each tenant
/// owns a page range, its own reuse machinery and counters, and a share
/// of Tier-1 set by the [`PartitionPolicy`]; Tier-2, the SSD array and
/// both PCIe directions are shared.
///
/// Like the paper's measurements, a run ends when the last access's data
/// is available: dirty pages still resident in Tier-1/Tier-2 are *not*
/// flushed at the end (the same convention applies to BaM and HMM, so
/// comparisons stay like-for-like; `snapshot()` exposes the residual
/// dirty state).
///
/// An access must fit where it is served: serving one wider than Tier-1
/// (under `StrictQuota`, than its tenant's quota) panics with the error
/// [`GmtConfig::check_access_width`] returns, so call that first to
/// handle it.
///
/// # Examples
///
/// ```
/// use gmt_core::{Gmt, GmtConfig, PolicyKind};
/// use gmt_gpu::{Executor, ExecutorConfig};
/// use gmt_mem::{PageId, TierGeometry, WarpAccess};
///
/// let geometry = TierGeometry::from_tier1(64, 4.0, 2.0);
/// let gmt = Gmt::new(GmtConfig::new(geometry).with_policy(PolicyKind::Reuse));
/// let trace = (0..3u64).flat_map(|_| (0..640).map(|p| WarpAccess::read(PageId(p))));
/// let out = Executor::new(ExecutorConfig::default()).run(gmt, trace);
/// let metrics = out.backend.metrics();
/// assert!(metrics.t1_misses > 0);
/// ```
#[derive(Debug)]
pub struct Gmt {
    config: GmtConfig,
    tier2_insert: Tier2Insert,
    /// What GMT-Reuse evicts once `max_skips` short-reuse candidates
    /// have been kept. A tenant table on one shared clock evicts the next
    /// candidate on its own prediction, so a short-reuse victim takes the
    /// bypass path to Tier-3. Every other engine (the single-tenant
    /// runtime, per-tenant clocks) evicts the clock's pick into Tier-2.
    follow_prediction_when_exhausted: bool,
    partition: PartitionPolicy,
    /// The tenant table, ascending by base page.
    tenants: Vec<Tenant>,
    /// Whether records emitted while serving an access carry the
    /// tenant's id. Only engines built with a tenant table stamp, so
    /// single-tenant traces keep the pre-tenant schema.
    stamp_tenants: bool,
    /// Tier-1 clocks: one per tenant under a partitioned policy, else a
    /// single clock shared by every tenant.
    tier1: Tier1,
    tier2: Tier2Cache,
    table: PageTable<PageMeta>,
    /// Per-page matrices when [`MarkovScope::PerPage`] is configured.
    per_page_markov: Option<Vec<MarkovPredictor>>,
    ssd: SsdArray,
    /// Host userspace I/O for Tier-2 → Tier-3 write-backs (libnvm, §2.3).
    host_io: HostIo,
    /// Host → device path (fetches from Tier-2).
    to_gpu: HostLink,
    /// Device → host path (evictions into Tier-2).
    to_host: HostLink,
    rng: StdRng,
    latency: LatencyBreakdown,
    trace: TraceSink,
    /// Reused per-access miss buffers: `access` runs once per simulated
    /// event, so allocating these there would churn the allocator on the
    /// hottest path (A1). Taken with `mem::take` for the duration of the
    /// call and put back cleared, capacity intact.
    scratch_tier2: Vec<PageId>,
    scratch_ssd: Vec<PageId>,
}

/// Panics with `err`'s message: the documented panic of the engine's
/// paths whose typed-error counterparts are [`GmtConfig::validate`] and
/// [`GmtConfig::check_access_width`].
#[cold]
#[expect(
    clippy::panic,
    reason = "documented panic; GmtConfig's checks are the typed-error path"
)]
fn invalid_config(err: ConfigError) -> ! {
    panic!("invalid GMT configuration: {err}");
}

/// Index of the tenant whose range holds `page`.
#[expect(
    clippy::expect_used,
    reason = "documented panic for pages below every tenant range"
)]
fn owner_of(tenants: &[Tenant], page: PageId) -> usize {
    let i = match tenants.len() {
        // A lone tenant: the range check below is the whole lookup.
        1 => 0,
        _ => tenants
            .partition_point(|t| t.slice.base <= page.0)
            .checked_sub(1)
            .expect("page below every tenant base"),
    };
    let s = &tenants[i].slice;
    assert!(
        page.0.wrapping_sub(s.base) < s.span as u64,
        "page {page} outside the configured address space (tenant {i}'s range)"
    );
    i
}

/// Predicts the tier an eviction candidate's next reuse falls into,
/// from its history and `matrix`, the Markov chain of its owner (or its
/// own, under [`MarkovScope::PerPage`]).
///
/// With history, this is the Markov chain's heaviest transition out of
/// the last correct tier (§2.1.3 step 2). A page with no completed round
/// trip falls back to a default strategy (the paper proceeds with a
/// default until enough signal accumulates): pages that were never
/// re-touched during their Tier-1 residency look like streams and
/// default to the long-reuse class; anything with observed reuse
/// defaults to Tier-2, TierOrder-style.
fn predict_tier(predictor: PredictorKind, meta: &PageMeta, matrix: &MarkovPredictor) -> Tier {
    match meta.history.last() {
        Some(last) => match predictor {
            PredictorKind::Markov => matrix.predict(last),
            PredictorKind::LastTier => last,
            PredictorKind::AlwaysHost => Tier::Host,
        },
        None if meta.touches_since_load <= 1 => Tier::Ssd,
        None => Tier::Host,
    }
}

/// Maps the memory model's [`Tier`] onto the trace vocabulary.
fn tier_tag(tier: Tier) -> TierTag {
    match tier {
        Tier::Gpu => TierTag::Gpu,
        Tier::Host => TierTag::Host,
        Tier::Ssd => TierTag::Ssd,
    }
}

impl Gmt {
    /// Builds the single-tenant runtime from `config`.
    ///
    /// # Panics
    ///
    /// Panics with the [`crate::ConfigError`]'s message if
    /// [`GmtConfig::validate`] rejects `config` (zero-capacity tiers,
    /// prefetch degree overflowing Tier-1, out-of-range bypass
    /// threshold, ...). Call [`GmtConfig::validate`] first to handle
    /// the error instead.
    pub fn new(config: GmtConfig) -> Gmt {
        if let Err(err) = config.validate() {
            invalid_config(err);
        }
        let whole = TenantSlice {
            base: 0,
            span: config.geometry.total_pages,
            quota_pages: config.geometry.tier1_pages,
            weight: 1,
            floor_pages: 0,
        };
        Gmt::build(config, PartitionPolicy::FullyShared, &[whole], false)
    }

    /// Builds an engine serving `tenants`, with Tier-1 divided per
    /// `partition`. Records emitted while serving an access are stamped
    /// with the owning tenant's id, and every warp access must stay
    /// within one tenant's range. On a shared clock (the unpartitioned
    /// policies), GMT-Reuse evicts the next candidate on its own
    /// prediction once `max_skips` short-reuse candidates have been
    /// kept, instead of the single-tenant rule of evicting the clock's
    /// pick into Tier-2.
    ///
    /// Admission checks (positive weights, quotas that fit, floors that
    /// sum below Tier-1) belong to the caller.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] if `config` is degenerate.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty, or if the ranges overlap, descend
    /// or run past the address space.
    pub fn with_tenants(
        config: GmtConfig,
        partition: PartitionPolicy,
        tenants: &[TenantSlice],
    ) -> Result<Gmt, ConfigError> {
        config.validate()?;
        assert!(!tenants.is_empty(), "the tenant table needs a tenant");
        let mut end = 0u64;
        for t in tenants {
            assert!(t.base >= end, "tenant ranges must ascend without overlap");
            end = t.base + t.span as u64;
        }
        assert!(
            end <= config.geometry.total_pages as u64,
            "tenant ranges ({end} pages) exceed the address space ({} pages)",
            config.geometry.total_pages
        );
        Ok(Gmt::build(config, partition, tenants, true))
    }

    fn build(
        config: GmtConfig,
        partition: PartitionPolicy,
        slices: &[TenantSlice],
        stamp_tenants: bool,
    ) -> Gmt {
        let g = &config.geometry;
        // One root RNG seeds every stochastic component: child streams are
        // drawn from it (always, so the root stream does not depend on
        // which components happen to be stochastic in this configuration).
        let mut rng = gmt_sim::rng::seeded(config.seed);
        let tier2_seed: u64 = rng.gen();
        let tenants = slices
            .iter()
            .map(|&slice| {
                // Strict quotas shrink the tenant's *effective* Tier-1, so
                // Eq. 1 classifies against the slice, not the machine.
                let t1 = match partition {
                    PartitionPolicy::StrictQuota => slice.quota_pages,
                    _ => g.tier1_pages,
                } as u64;
                Tenant {
                    slice,
                    vt: 0,
                    sampler: SamplingRegression::new(config.reuse.sampler),
                    classifier: TierClassifier::new(t1, (g.tier2_pages as u64).max(t1)),
                    markov: MarkovPredictor::new(),
                    bypass: BypassWindow::new(config.reuse.bypass_window.max(1)),
                    metrics: TieringMetrics::default(),
                    resident: 0,
                }
            })
            .collect();
        let tier1 = match partition {
            PartitionPolicy::StrictQuota => Tier1::PerTenant(
                slices
                    .iter()
                    .map(|s| ClockList::new(s.quota_pages))
                    .collect(),
            ),
            // Each tenant may grow into all of Tier-1; the engine caps
            // the global population.
            PartitionPolicy::WeightedShares => Tier1::PerTenant(
                slices
                    .iter()
                    .map(|_| ClockList::new(g.tier1_pages))
                    .collect(),
            ),
            _ => Tier1::Shared(ClockList::new(g.tier1_pages)),
        };
        Gmt {
            tier2_insert: config.effective_tier2_insert(),
            follow_prediction_when_exhausted: stamp_tenants && matches!(tier1, Tier1::Shared(_)),
            partition,
            tenants,
            stamp_tenants,
            tier1,
            tier2: match config.effective_tier2_insert() {
                Tier2Insert::EvictClock => Tier2Cache::clock(g.tier2_pages),
                Tier2Insert::EvictRandom => Tier2Cache::random(g.tier2_pages, tier2_seed),
                _ => Tier2Cache::fifo(g.tier2_pages),
            },
            table: PageTable::new(g.total_pages),
            per_page_markov: (config.reuse.markov_scope == MarkovScope::PerPage)
                .then(|| vec![MarkovPredictor::new(); g.total_pages]),
            ssd: SsdArray::new(ArrayConfig {
                device: config.ssd,
                devices: config.ssd_devices.max(1),
                stripe_bytes: g.page_bytes,
            }),
            host_io: HostIo::new(HostIoConfig::default()),
            to_gpu: HostLink::new(config.host_link),
            to_host: HostLink::new(config.host_link),
            rng,
            latency: LatencyBreakdown::default(),
            trace: TraceSink::disabled(),
            scratch_tier2: Vec::new(),
            scratch_ssd: Vec::new(),
            config,
        }
    }

    /// Turns on decision tracing into a fresh ring of `capacity` records
    /// and wires every component (SSD devices, both PCIe directions) into
    /// it. Returns a handle to the shared sink — clone it into an
    /// [`gmt_gpu::Executor`] via `attach_trace` to also capture warp
    /// issues.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_tracing(&mut self, capacity: usize) -> TraceSink {
        let sink = TraceSink::bounded(capacity);
        self.trace = sink.clone();
        self.ssd.attach_trace(&sink);
        self.to_gpu.attach_trace(&sink, LinkDir::ToGpu);
        self.to_host.attach_trace(&sink, LinkDir::ToHost);
        sink
    }

    /// The runtime's trace sink (disabled unless
    /// [`Gmt::enable_tracing`] was called).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &GmtConfig {
        &self.config
    }

    /// Counters accumulated so far, summed over every tenant.
    pub fn metrics(&self) -> TieringMetrics {
        let mut total = TieringMetrics::default();
        for t in &self.tenants {
            total.merge(&t.metrics);
        }
        total
    }

    /// Number of tenants in the table (1 for a single-tenant runtime).
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The tenant owning `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside every tenant's range.
    pub fn tenant_of(&self, page: PageId) -> TenantId {
        TenantId(owner_of(&self.tenants, page) as u32)
    }

    /// Counters accumulated for one tenant.
    pub fn tenant_metrics(&self, tenant: TenantId) -> TieringMetrics {
        self.tenants[tenant.index()].metrics
    }

    /// Pages a tenant currently holds in Tier-1.
    pub fn tenant_resident(&self, tenant: TenantId) -> usize {
        self.tenants[tenant.index()].resident
    }

    /// Pages resident in Tier-1 across every tenant.
    pub fn tier1_resident(&self) -> usize {
        self.tenants.iter().map(|t| t.resident).sum()
    }

    /// Miss-service latency distributions (the §3.4 numbers, measured).
    pub fn latency_breakdown(&self) -> &LatencyBreakdown {
        &self.latency
    }

    /// The SSD device's own statistics (bytes, command counts).
    pub fn ssd_stats(&self) -> gmt_ssd::SsdStats {
        self.ssd.stats()
    }

    /// Pages currently resident in Tier-2.
    pub fn tier2_occupancy(&self) -> usize {
        self.tier2.len()
    }

    /// Takes a consistency snapshot of where every page lives.
    pub fn snapshot(&self) -> TierSnapshot {
        let mut snap = TierSnapshot::default();
        for (_, meta) in self.table.iter() {
            match meta.tier {
                Tier::Gpu => {
                    snap.tier1_pages += 1;
                    snap.dirty_tier1 += meta.dirty as usize;
                }
                Tier::Host => {
                    snap.tier2_pages += 1;
                    snap.dirty_tier2 += meta.dirty as usize;
                }
                Tier::Ssd => snap.ssd_pages += 1,
            }
        }
        snap
    }

    /// Verifies the runtime's structural invariants: the page table, the
    /// Tier-1 clocks and the Tier-2 residency structure agree, every page
    /// lives in exactly one tier, per-tenant resident counters match the
    /// clocks, and Tier-1 holds no more than its capacity. Strict quotas
    /// follow, since a strict-quota tenant's clock is sized to its quota.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant. Intended
    /// for tests and debugging; O(total pages).
    pub fn check_invariants(&self) -> Result<(), String> {
        let snap = self.snapshot();
        let in_clocks = self.tier1.len();
        if snap.tier1_pages != in_clocks {
            return Err(format!(
                "page table says {} Tier-1 pages but the clocks hold {in_clocks}",
                snap.tier1_pages
            ));
        }
        if snap.tier2_pages != self.tier2.len() {
            return Err(format!(
                "page table says {} Tier-2 pages but tier-2 holds {}",
                snap.tier2_pages,
                self.tier2.len()
            ));
        }
        if snap.tier1_pages + snap.tier2_pages + snap.ssd_pages != self.table.len() {
            return Err("tiers do not partition the address space".into());
        }
        if in_clocks > self.config.geometry.tier1_pages {
            return Err(format!(
                "{in_clocks} Tier-1 residents exceed the {}-page capacity",
                self.config.geometry.tier1_pages
            ));
        }
        // Record the first violation and format it outside the loops so
        // the sweeps stay allocation-free (A1).
        let mut drifted: Option<(usize, usize, usize)> = None;
        for (i, t) in self.tenants.iter().enumerate() {
            let held = match &self.tier1 {
                Tier1::PerTenant(clocks) => clocks[i].len(),
                Tier1::Shared(clock) => clock
                    .iter()
                    .filter(|&p| owner_of(&self.tenants, p) == i)
                    .count(),
            };
            if held != t.resident {
                drifted = Some((i, t.resident, held));
                break;
            }
        }
        if let Some((i, resident, held)) = drifted {
            return Err(format!(
                "tenant {i} resident counter {resident} but its clock holds {held}"
            ));
        }
        let mut bad: Option<(PageId, &'static str)> = None;
        for (page, meta) in self.table.iter() {
            let in_clock = self.in_tier1_clock(page);
            let in_tier2 = self.tier2.contains(page);
            let what = match meta.tier {
                Tier::Gpu if !in_clock => Some("marked Tier-1 but absent from its clock"),
                Tier::Host if !in_tier2 => Some("marked Tier-2 but absent from tier-2"),
                Tier::Ssd if in_clock || in_tier2 => {
                    Some("marked SSD but resident in a memory tier")
                }
                _ if in_clock && in_tier2 => Some("duplicated across tiers"),
                _ => None,
            };
            if let Some(what) = what {
                bad = Some((page, what));
                break;
            }
        }
        if let Some((page, what)) = bad {
            return Err(format!("{page} {what}"));
        }
        Ok(())
    }

    /// Panics with the [`ConfigError`] naming why an access of `width`
    /// pages cannot be served: it is wider than Tier-1, or under
    /// `StrictQuota` than a tenant's quota, so making room for its misses
    /// could run out of pages to evict.
    #[cold]
    fn reject_access_width(&self, width: usize) {
        let quotas: Vec<usize> = match self.partition {
            PartitionPolicy::StrictQuota => {
                self.tenants.iter().map(|t| t.slice.quota_pages).collect()
            }
            _ => Vec::new(),
        };
        if let Err(err) = self.config.check_access_width(width, &quotas) {
            invalid_config(err);
        }
    }

    /// Whether `page` sits on its owner's Tier-1 clock.
    fn in_tier1_clock(&self, page: PageId) -> bool {
        match &self.tier1 {
            Tier1::Shared(clock) => clock.contains(page),
            Tier1::PerTenant(clocks) => {
                let i = self.tenants.partition_point(|t| t.slice.base <= page.0);
                i > 0 && clocks[i - 1].contains(page)
            }
        }
    }

    fn page_bytes(&self) -> u64 {
        self.config.geometry.page_bytes
    }

    fn ssd_offset(&self, page: PageId) -> u64 {
        page.0 * self.page_bytes()
    }

    /// Free Tier-1 slots available to faulting tenant `t`.
    fn free_slots(&self, t: usize) -> usize {
        match (&self.tier1, self.partition) {
            (Tier1::Shared(clock), _) => clock.capacity() - clock.len(),
            (_, PartitionPolicy::StrictQuota) => {
                let tenant = &self.tenants[t];
                tenant.slice.quota_pages - tenant.resident
            }
            _ => self.config.geometry.tier1_pages - self.tier1_resident(),
        }
    }

    /// Installs `page` into tenant `t`'s Tier-1 clock.
    fn install(&mut self, t: usize, page: PageId) {
        self.tier1.clock_mut(t).insert(page);
        self.tenants[t].resident += 1;
    }

    /// Lands a demand fetch of `page` from `source` in tenant `t`'s
    /// Tier-1, readable at `done`.
    fn fill(&mut self, now: Time, t: usize, page: PageId, source: TierTag, done: Time) {
        self.install(t, page);
        self.on_refill(now, t, page);
        if self.trace.is_enabled() {
            self.trace.emit(
                now,
                TraceEvent::Tier1Fill {
                    page: page.0,
                    source,
                    ready_ns: done.as_nanos(),
                },
            );
        }
        let meta = self.table.get_mut(page);
        meta.tier = Tier::Gpu;
        meta.ready_at = done;
        meta.touches_since_load = 1;
    }

    /// Bookkeeping when `page` re-enters owner `t`'s Tier-1: its actual
    /// RVTD since the last eviction is now known, so the correct tier can
    /// be computed (Eq. 1 over the regression-projected RRD), the Markov
    /// chain trained, and the old prediction graded (Fig. 9).
    fn on_refill(&mut self, now: Time, t: usize, page: PageId) {
        let fit = self.tenants[t].sampler.fit();
        let vt = self.tenants[t].vt;
        let classifier = self.tenants[t].classifier;
        let meta = self.table.get_mut(page);
        if let Some(evicted_vt) = meta.evicted_at_vt.take() {
            let rvtd = vt.saturating_sub(evicted_vt);
            let correct = classifier.classify_rvtd(rvtd, &fit);
            if let Some(predicted) = meta.predicted.take() {
                let metrics = &mut self.tenants[t].metrics;
                metrics.predictions += 1;
                if predicted == correct {
                    metrics.predictions_correct += 1;
                }
                self.trace.emit(
                    now,
                    TraceEvent::PredictionGraded {
                        page: page.0,
                        predicted: tier_tag(predicted),
                        actual: tier_tag(correct),
                        correct: predicted == correct,
                    },
                );
            }
            let mut history = self.table.get(page).history;
            let matrix = match &mut self.per_page_markov {
                Some(per_page) => &mut per_page[page.index()],
                None => &mut self.tenants[t].markov,
            };
            history.observe(correct, matrix);
            self.table.get_mut(page).history = history;
        }
    }

    /// The weighted-shares victim tenant: the one furthest above its
    /// weighted share (largest resident-per-weight), among tenants that
    /// hold anything at all. Work-conserving: idle tenants' capacity is
    /// reclaimed from whoever borrowed the most.
    #[expect(
        clippy::expect_used,
        reason = "weights are validated non-zero, so ratios are never NaN; eviction only \
                  runs once tier-1 is full, so a tenant has pages"
    )]
    fn most_over_share(&self) -> usize {
        self.tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| t.resident > 0)
            .max_by(|(_, a), (_, b)| {
                let ka = a.resident as f64 / a.slice.weight as f64;
                let kb = b.resident as f64 / b.slice.weight as f64;
                ka.partial_cmp(&kb).expect("ratios are finite")
            })
            .map(|(i, _)| i)
            .expect("eviction requested from an empty tier-1")
    }

    /// Picks a Tier-1 victim on behalf of faulting tenant `t` and decides
    /// where it goes.
    ///
    /// The scanned clock is `t`'s own under a strict quota, that of the
    /// tenant furthest above its weighted share under weighted shares,
    /// and the shared clock otherwise; that tenant (or `t`, on the shared
    /// clock) is charged the skips and owns the bypass window. Under
    /// [`PartitionPolicy::SharedQos`], candidates owned by another tenant
    /// at or below its floor are passed over. GMT-Reuse keeps up to
    /// `max_skips` short-reuse candidates, then evicts per
    /// `follow_prediction_when_exhausted`, and the 80 % heuristic can
    /// force predicted-Tier-3 victims into Tier-2.
    ///
    /// Termination: every candidate not passed over for its floor is
    /// either kept as short-reuse, at most `max_skips` times, or evicted.
    /// Admission guarantees `Σ floors < tier1_pages`, so a full Tier-1
    /// always holds a page owned by an above-floor tenant (or by the
    /// faulting tenant itself, whose net residency is unchanged by a
    /// self-eviction-plus-fill). The clock returns that page within two
    /// laps, so a run of 4 laps of consecutive floor skips is far above
    /// any reachable case.
    fn select_victim(&mut self, t: usize) -> Victim {
        let account = match self.partition {
            PartitionPolicy::WeightedShares => self.most_over_share(),
            _ => t,
        };
        let Gmt {
            config,
            follow_prediction_when_exhausted,
            partition,
            tenants,
            tier1,
            table,
            per_page_markov,
            rng,
            ..
        } = self;
        let clock = tier1.clock_mut(account);
        let qos = *partition == PartitionPolicy::SharedQos;
        let reuse = &config.reuse;
        let mut reuse_skips = 0usize;
        let mut floor_skips = 0usize;
        loop {
            #[expect(
                clippy::expect_used,
                reason = "eviction only runs once the scanned clock is full, so it is non-empty"
            )]
            let candidate = clock.candidate().expect("tier-1 clock is non-empty");
            let owner = owner_of(tenants, candidate);
            if qos && owner != t && tenants[owner].resident <= tenants[owner].slice.floor_pages {
                floor_skips += 1;
                assert!(
                    floor_skips <= 4 * config.geometry.tier1_pages,
                    "no evictable page found; admission floors must be violated"
                );
                clock.skip_candidate();
                continue;
            }
            floor_skips = 0;
            let (target, predicted) = match config.policy {
                PolicyKind::TierOrder => (Tier::Host, Tier::Host),
                PolicyKind::Random => {
                    let tier = if rng.gen_bool(0.5) {
                        Tier::Host
                    } else {
                        Tier::Ssd
                    };
                    (tier, tier)
                }
                PolicyKind::Reuse
                    if reuse_skips == reuse.max_skips && !*follow_prediction_when_exhausted =>
                {
                    // Everything looked short-reuse: evict the clock's
                    // pick anyway.
                    tenants[account].bypass.push(false);
                    (Tier::Host, Tier::Gpu)
                }
                PolicyKind::Reuse => {
                    let matrix = match per_page_markov {
                        Some(per_page) => &per_page[candidate.index()],
                        None => &tenants[owner].markov,
                    };
                    let predicted = predict_tier(reuse.predictor, table.get(candidate), matrix);
                    if predicted == Tier::Gpu && reuse_skips < reuse.max_skips {
                        reuse_skips += 1;
                        tenants[account].metrics.short_reuse_keeps += 1;
                        clock.skip_candidate();
                        continue;
                    }
                    let tenant = &mut tenants[account];
                    tenant.bypass.push(predicted == Tier::Ssd);
                    let forced = predicted == Tier::Ssd
                        && tenant
                            .bypass
                            .t3_fraction()
                            .is_some_and(|f| f > reuse.bypass_threshold);
                    if forced {
                        tenant.metrics.forced_t2_placements += 1;
                        (Tier::Host, predicted)
                    } else {
                        (predicted, predicted)
                    }
                }
            };
            let page = clock.evict_candidate();
            debug_assert_eq!(page, candidate);
            return Victim {
                page,
                owner,
                target,
                predicted,
            };
        }
    }

    /// Evicts one Tier-1 page on behalf of faulting tenant `t`; returns
    /// when the evicting warp is done with the transfer.
    fn evict_one(&mut self, now: Time, t: usize) -> Time {
        let Victim {
            page: victim,
            owner,
            target,
            predicted,
        } = self.select_victim(t);
        self.tenants[owner].resident -= 1;
        self.tenants[t].metrics.t1_evictions += 1;
        let reuse = self.config.policy == PolicyKind::Reuse;
        {
            let vt = self.tenants[owner].vt;
            let meta = self.table.get_mut(victim);
            meta.evicted_at_vt = Some(vt);
            meta.predicted = reuse.then_some(predicted);
        }
        if self.trace.is_enabled() {
            self.trace.emit(
                now,
                TraceEvent::Eviction {
                    page: victim.0,
                    predicted: reuse.then(|| tier_tag(predicted)),
                    target: tier_tag(target),
                    dirty: self.table.get(victim).dirty,
                },
            );
        }
        match target {
            Tier::Host => self.place_in_tier2(now, t, victim),
            _ => self.bypass_to_ssd(now, t, victim),
        }
    }

    /// Places `victim` into Tier-2, spilling or rejecting per the
    /// configured insertion mode. Returns the eviction's critical-path
    /// completion time.
    fn place_in_tier2(&mut self, now: Time, t: usize, victim: PageId) -> Time {
        let inserted = match self.tier2_insert {
            Tier2Insert::RejectWhenFull => self.tier2.insert_if_room(victim),
            _ => {
                if let Some(t2_victim) = self.tier2.insert_evicting(victim) {
                    self.drop_from_tier2(now, t, t2_victim);
                }
                true
            }
        };
        if !inserted {
            return self.bypass_to_ssd(now, t, victim);
        }
        self.tenants[t].metrics.t2_placements += 1;
        if self.trace.is_enabled() {
            self.trace.emit(
                now,
                TraceEvent::Tier2Place {
                    page: victim.0,
                    dirty: self.table.get(victim).dirty,
                },
            );
        }
        let batch = TransferBatch {
            pages: 1,
            page_bytes: self.page_bytes(),
            threads: 32,
        };
        let done = self.to_host.transfer(now, batch, self.config.transfer);
        let meta = self.table.get_mut(victim);
        meta.tier = Tier::Host;
        meta.ready_at = done;
        done
    }

    /// Handles a page leaving Tier-2 (spill): dirty pages are written
    /// back by host userspace I/O, off the GPU's critical path.
    fn drop_from_tier2(&mut self, now: Time, t: usize, t2_victim: PageId) {
        let dirty = {
            let meta = self.table.get_mut(t2_victim);
            let dirty = meta.dirty;
            meta.tier = Tier::Ssd;
            meta.dirty = false;
            dirty
        };
        self.trace.emit(
            now,
            TraceEvent::Tier2Spill {
                page: t2_victim.0,
                dirty,
            },
        );
        if dirty {
            self.tenants[t].metrics.t2_writebacks += 1;
            let offset = self.ssd_offset(t2_victim);
            let bytes = self.page_bytes();
            // Host userspace I/O: off the GPU's critical path (§2.3).
            self.host_io.write(now, &mut self.ssd, offset, bytes);
        } else {
            self.tenants[t].metrics.t2_drops += 1;
        }
    }

    /// Bypasses `victim` straight to Tier-3: clean pages are simply
    /// dropped (their content is already on the SSD), dirty pages are
    /// written by the evicting warp through the GPU-direct NVMe path.
    fn bypass_to_ssd(&mut self, now: Time, t: usize, victim: PageId) -> Time {
        let dirty = {
            let meta = self.table.get_mut(victim);
            let dirty = meta.dirty;
            meta.tier = Tier::Ssd;
            meta.dirty = false;
            dirty
        };
        if dirty {
            self.tenants[t].metrics.ssd_writes += 1;
            self.trace
                .emit(now, TraceEvent::SsdWriteBack { page: victim.0 });
            let offset = self.ssd_offset(victim);
            let bytes = self.page_bytes();
            self.ssd.write(now, offset, bytes)
        } else {
            self.tenants[t].metrics.discards += 1;
            self.trace
                .emit(now, TraceEvent::EvictDiscard { page: victim.0 });
            now
        }
    }

    /// Speculatively pulls `page` from the SSD into tenant `t`'s Tier-1
    /// without gating any warp. No-op if the page is outside the tenant's
    /// range, already off the SSD, or Tier-1 churn would be required and
    /// the clock's candidate is busy — prefetching never forces an
    /// eviction beyond what the policy would do anyway.
    fn prefetch(&mut self, now: Time, t: usize, page: PageId) {
        let slice = self.tenants[t].slice;
        if page.0 - slice.base >= slice.span as u64 || self.table.get(page).tier != Tier::Ssd {
            return;
        }
        if self.free_slots(t) == 0 {
            self.evict_one(now, t);
        }
        self.tenants[t].metrics.prefetches += 1;
        self.trace.emit(now, TraceEvent::Prefetch { page: page.0 });
        let offset = self.ssd_offset(page);
        let bytes = self.page_bytes();
        let done = self.ssd.read(now, offset, bytes);
        self.install(t, page);
        self.on_refill(now, t, page);
        let meta = self.table.get_mut(page);
        meta.tier = Tier::Gpu;
        meta.ready_at = done;
        meta.touches_since_load = 0;
    }
}

impl MemoryBackend for Gmt {
    fn access(&mut self, now: Time, access: &WarpAccess) -> Time {
        let t = owner_of(&self.tenants, access.pages.first());
        if access.pages.len() > self.tier1.clock_mut(t).capacity() {
            self.reject_access_width(access.pages.len());
        }
        if self.stamp_tenants {
            // Stamp every record emitted while serving this access: the
            // per-tenant reports are distilled from these stamps.
            self.trace.set_tenant(Some(t as u32));
        }
        let tenant = &mut self.tenants[t];
        let clock = self.tier1.clock_mut(t);
        tenant.metrics.accesses += 1;
        let TenantSlice { base, span, .. } = tenant.slice;
        let mut ready = now;
        // Scratch buffers live on the struct; `take` swaps in empties
        // (no allocation) and the tail of this fn puts them back.
        let mut tier2_fetches: Vec<PageId> = std::mem::take(&mut self.scratch_tier2);
        let mut ssd_fetches: Vec<PageId> = std::mem::take(&mut self.scratch_ssd);
        for page in access.pages.iter() {
            assert!(
                page.0.wrapping_sub(base) < span as u64,
                "page {page} outside the configured address space of tenant {t} \
                 (a warp access may not span tenants)"
            );
            // One coalesced transaction per distinct page: the virtual
            // timestamp advances per transaction (§2.1.3), keeping RVTD in
            // the same distinct-touch units the regression is trained on.
            tenant.vt += 1;
            self.trace.set_vt(tenant.vt);
            if !tenant.sampler.is_complete() {
                tenant.sampler.observe(page);
            }
            let meta = self.table.get(page);
            match meta.tier {
                Tier::Gpu => {
                    ready = ready.max(meta.ready_at);
                    clock.touch(page);
                    tenant.metrics.t1_hits += 1;
                    self.table.get_mut(page).touches_since_load += 1;
                    self.trace.emit(now, TraceEvent::Tier1Hit { page: page.0 });
                }
                tier => {
                    self.trace.emit(
                        now,
                        TraceEvent::Tier1Miss {
                            page: page.0,
                            resident: tier_tag(tier),
                        },
                    );
                    match tier {
                        Tier::Host => tier2_fetches.push(page),
                        _ => ssd_fetches.push(page),
                    }
                }
            }
        }

        let missing = tier2_fetches.len() + ssd_fetches.len();
        tenant.metrics.t1_misses += missing as u64;

        // Make room in Tier-1 — one eviction per incoming page beyond the
        // free slots. The evicting warp performs the transfer, so its
        // completion gates the warp, but it proceeds in parallel with the
        // fetch (opposite PCIe direction / staging buffers).
        for _ in 0..missing.saturating_sub(self.free_slots(t)) {
            let done = self.evict_one(now, t);
            if !self.config.async_eviction {
                ready = ready.max(done);
            }
        }

        // Every miss probes Tier-2 before touching the SSD (§3.4).
        let probe_done = now + self.to_gpu.lookup_cost();

        if !tier2_fetches.is_empty() {
            self.tenants[t].metrics.t2_hits += tier2_fetches.len() as u64;
            let mut start = probe_done;
            for &page in &tier2_fetches {
                self.trace.emit(now, TraceEvent::Tier2Hit { page: page.0 });
                // An in-flight placement must land before it can be read.
                start = start.max(self.table.get(page).ready_at);
                self.tier2.remove(page);
            }
            let batch = TransferBatch {
                pages: tier2_fetches.len(),
                page_bytes: self.page_bytes(),
                threads: 32,
            };
            let done = self.to_gpu.transfer(start, batch, self.config.transfer);
            self.latency
                .tier2_fetch_ns
                .record(done.since(now).as_nanos());
            for &page in &tier2_fetches {
                self.fill(now, t, page, TierTag::Host, done);
            }
            ready = ready.max(done);
        }

        for &page in &ssd_fetches {
            let metrics = &mut self.tenants[t].metrics;
            metrics.wasteful_lookups += 1;
            metrics.ssd_reads += 1;
            self.trace
                .emit(now, TraceEvent::WastefulLookup { page: page.0 });
            let offset = self.ssd_offset(page);
            let bytes = self.page_bytes();
            let done = self.ssd.read(probe_done, offset, bytes);
            self.latency.ssd_fetch_ns.record(done.since(now).as_nanos());
            self.fill(now, t, page, TierTag::Ssd, done);
            ready = ready.max(done);
        }

        // Sequential prefetch (extension, off by default): pull the pages
        // following each demand SSD fetch in the background.
        if self.config.prefetch_degree > 0 {
            let degree = self.config.prefetch_degree as u64;
            for &p in &ssd_fetches {
                for d in 1..=degree {
                    self.prefetch(now, t, PageId(p.0 + d));
                }
            }
        }

        if access.write {
            for page in access.pages.iter() {
                self.table.get_mut(page).dirty = true;
            }
        }
        if self.stamp_tenants {
            self.trace.set_tenant(None);
        }
        tier2_fetches.clear();
        ssd_fetches.clear();
        self.scratch_tier2 = tier2_fetches;
        self.scratch_ssd = ssd_fetches;
        ready
    }

    fn finish(&mut self, now: Time) -> Time {
        // Reap the trailing SSD completion events into the trace.
        self.ssd.flush_trace(now);
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_mem::TierGeometry;

    fn tiny_config(policy: PolicyKind) -> GmtConfig {
        GmtConfig::new(TierGeometry::from_tier1(8, 2.0, 2.0)).with_policy(policy)
    }

    fn read(gmt: &mut Gmt, now: Time, page: u64) -> Time {
        gmt.access(now, &WarpAccess::read(PageId(page)))
    }

    fn write(gmt: &mut Gmt, now: Time, page: u64) -> Time {
        gmt.access(now, &WarpAccess::write(PageId(page)))
    }

    #[test]
    fn cold_miss_goes_to_ssd_then_hits() {
        let mut gmt = Gmt::new(tiny_config(PolicyKind::Reuse));
        let t1 = read(&mut gmt, Time::ZERO, 0);
        assert!(t1 > Time::ZERO, "cold miss must cost SSD latency");
        let m = gmt.metrics();
        assert_eq!(m.ssd_reads, 1);
        assert_eq!(m.t1_misses, 1);
        let t2 = read(&mut gmt, t1, 0);
        assert_eq!(t2, t1, "hit in tier-1 is free");
        assert_eq!(gmt.metrics().t1_hits, 1);
    }

    #[test]
    fn tierorder_places_every_victim_in_tier2() {
        let mut gmt = Gmt::new(tiny_config(PolicyKind::TierOrder));
        // Fill tier-1 (8 pages) and stream 8 more: 8 evictions, all to T2.
        let mut now = Time::ZERO;
        for p in 0..16 {
            now = read(&mut gmt, now, p);
        }
        let m = gmt.metrics();
        assert_eq!(m.t1_evictions, 8);
        assert_eq!(m.t2_placements, 8);
        assert_eq!(gmt.tier2_occupancy(), 8);
    }

    #[test]
    fn tier2_hit_is_cheaper_than_ssd_read() {
        let mut gmt = Gmt::new(tiny_config(PolicyKind::TierOrder));
        let mut now = Time::ZERO;
        for p in 0..16 {
            now = read(&mut gmt, now, p);
        }
        // Page 0 was evicted to Tier-2. Re-reading it is a T2 hit.
        let before = now;
        let after_t2 = read(&mut gmt, before, 0);
        assert_eq!(gmt.metrics().t2_hits, 1);
        // Compare with a fresh SSD fetch at the same instant.
        let after_ssd = read(&mut gmt, before, 30);
        let t2_cost = after_t2.since(before);
        let ssd_cost = after_ssd.since(before);
        assert!(
            t2_cost.as_nanos() * 3 < ssd_cost.as_nanos(),
            "t2 {t2_cost:?} vs ssd {ssd_cost:?}"
        );
    }

    #[test]
    fn exclusive_tiers_no_duplication() {
        let mut gmt = Gmt::new(tiny_config(PolicyKind::TierOrder));
        let mut now = Time::ZERO;
        for p in 0..16 {
            now = read(&mut gmt, now, p);
        }
        // Promote page 0 back to Tier-1: it must leave Tier-2 (the
        // concurrent eviction refills the freed slot, so occupancy stays 8).
        now = read(&mut gmt, now, 0);
        assert!(
            !gmt.tier2.contains(PageId(0)),
            "no duplication across tiers"
        );
        assert_eq!(gmt.tier2_occupancy(), 8);
        // And it is now a Tier-1 hit.
        let hits_before = gmt.metrics().t1_hits;
        read(&mut gmt, now, 0);
        assert_eq!(gmt.metrics().t1_hits, hits_before + 1);
    }

    #[test]
    fn random_policy_splits_between_tiers() {
        let mut gmt = Gmt::new(tiny_config(PolicyKind::Random));
        let mut now = Time::ZERO;
        for p in 0..24 {
            now = read(&mut gmt, now, p);
        }
        let m = gmt.metrics();
        assert_eq!(m.t1_evictions, 16);
        assert!(m.t2_placements > 0, "some victims must go to tier-2");
        assert!(m.discards > 0, "some clean victims must be discarded");
        assert_eq!(m.t2_placements + m.discards + m.ssd_writes, 16);
    }

    #[test]
    fn dirty_bypass_writes_to_ssd() {
        let mut gmt = Gmt::new(tiny_config(PolicyKind::Random));
        let mut now = Time::ZERO;
        for p in 0..8 {
            now = write(&mut gmt, now, p);
        }
        for p in 8..24 {
            now = read(&mut gmt, now, p);
        }
        let m = gmt.metrics();
        assert!(
            m.ssd_writes > 0,
            "dirty victims bypassing tier-2 must be written"
        );
    }

    #[test]
    fn wasteful_lookups_counted_on_ssd_fallthrough() {
        let mut gmt = Gmt::new(tiny_config(PolicyKind::Reuse));
        let mut now = Time::ZERO;
        for p in 0..8 {
            now = read(&mut gmt, now, p);
        }
        let m = gmt.metrics();
        assert_eq!(
            m.wasteful_lookups, 8,
            "all cold misses probe tier-2 in vain"
        );
    }

    #[test]
    fn reuse_trains_predictor_on_round_trips() {
        let geometry = TierGeometry::from_tier1(8, 2.0, 2.0);
        let mut gmt = Gmt::new(GmtConfig::new(geometry).with_policy(PolicyKind::Reuse));
        // Cyclic scan over 24 pages: every page round-trips repeatedly.
        let mut now = Time::ZERO;
        for _ in 0..6 {
            for p in 0..24 {
                now = read(&mut gmt, now, p);
            }
        }
        let m = gmt.metrics();
        assert!(m.predictions > 0, "round trips must grade predictions");
        assert!(
            gmt.tenants[0].markov.total() > 0,
            "markov chain must have trained"
        );
    }

    #[test]
    fn reuse_metrics_are_consistent() {
        let geometry = TierGeometry::from_tier1(16, 4.0, 2.0);
        let mut gmt = Gmt::new(GmtConfig::new(geometry).with_policy(PolicyKind::Reuse));
        let mut now = Time::ZERO;
        let mut rng = gmt_sim::rng::seeded(3);
        for _ in 0..2_000 {
            let p = rng.gen_range(0..geometry.total_pages as u64);
            now = read(&mut gmt, now, p);
        }
        let m = gmt.metrics();
        assert_eq!(m.t1_hits + m.t1_misses, 2_000);
        assert_eq!(m.t2_hits + m.wasteful_lookups, m.t1_misses);
        assert_eq!(
            m.t2_placements + m.discards + m.ssd_writes,
            m.t1_evictions,
            "every eviction must have exactly one destination"
        );
        // Tier-2 never exceeds capacity.
        assert!(gmt.tier2_occupancy() <= geometry.tier2_pages);
    }

    #[test]
    fn bypass_window_tracks_fraction() {
        let mut w = BypassWindow::new(4);
        assert_eq!(w.t3_fraction(), None);
        for _ in 0..3 {
            w.push(true);
        }
        assert_eq!(w.t3_fraction(), None, "window not yet full");
        w.push(false);
        assert_eq!(w.t3_fraction(), Some(0.75));
        w.push(true); // evicts the oldest `true`
        assert_eq!(w.t3_fraction(), Some(0.75));
        w.push(false);
        w.push(false);
        w.push(false);
        assert_eq!(w.t3_fraction(), Some(0.25));
    }

    #[test]
    fn scattered_access_faults_all_pages() {
        let mut gmt = Gmt::new(tiny_config(PolicyKind::Reuse));
        let access = WarpAccess::scattered(vec![PageId(0), PageId(1), PageId(2)], false);
        gmt.access(Time::ZERO, &access);
        let m = gmt.metrics();
        assert_eq!(m.t1_misses, 3);
        assert_eq!(m.ssd_reads, 3);
    }

    #[test]
    #[should_panic(expected = "outside the configured address space")]
    fn out_of_range_page_panics() {
        let mut gmt = Gmt::new(tiny_config(PolicyKind::Reuse));
        let total = gmt.config().geometry.total_pages as u64;
        read(&mut gmt, Time::ZERO, total);
    }

    #[test]
    fn latency_breakdown_reflects_the_tier_gap() {
        // §3.4: host fetches (~50 us) must be well below SSD fetches
        // (~130 us) in the measured distributions. Size the working set
        // to fit Tier-1 + Tier-2 so a cyclic scan produces Tier-2 hits
        // even under FIFO.
        let geometry = TierGeometry::from_tier1(8, 2.0, 0.9);
        let mut gmt = Gmt::new(GmtConfig::new(geometry).with_policy(PolicyKind::TierOrder));
        let mut now = Time::ZERO;
        for _ in 0..4 {
            for p in 0..geometry.total_pages as u64 {
                now = read(&mut gmt, now, p);
            }
        }
        let lat = gmt.latency_breakdown();
        assert!(
            lat.tier2_fetch_ns.count() > 0,
            "some tier-2 fetches must occur"
        );
        assert!(lat.ssd_fetch_ns.count() > 0, "some SSD fetches must occur");
        assert!(
            lat.tier2_fetch_ns.mean() * 2.0 < lat.ssd_fetch_ns.mean(),
            "tier-2 mean {} ns vs ssd mean {} ns",
            lat.tier2_fetch_ns.mean(),
            lat.ssd_fetch_ns.mean()
        );
    }

    #[test]
    fn forced_t2_heuristic_fires_under_tier3_pressure() {
        // A cyclic scan over >> T1+T2 pages: every RRD classifies long, so
        // without the 80% heuristic nothing would enter Tier-2.
        let geometry = TierGeometry::from_tier1(16, 2.0, 4.0);
        let mut gmt = Gmt::new(GmtConfig::new(geometry));
        let mut now = Time::ZERO;
        for _ in 0..6 {
            for p in 0..geometry.total_pages as u64 {
                now = read(&mut gmt, now, p);
            }
        }
        let m = gmt.metrics();
        assert!(
            m.forced_t2_placements > 0,
            "heuristic must fire on a long-RRD scan"
        );
        assert!(m.t2_hits > 0, "forced placements must convert into hits");
    }

    #[test]
    fn prefetch_stops_at_the_address_space_edge() {
        let geometry = TierGeometry::from_tier1(8, 2.0, 2.0);
        let mut config = GmtConfig::new(geometry);
        config.prefetch_degree = 7;
        let mut gmt = Gmt::new(config);
        // Touch the last page: prefetch targets beyond the space must be
        // ignored without panicking.
        let last = geometry.total_pages as u64 - 1;
        read(&mut gmt, Time::ZERO, last);
        assert_eq!(gmt.metrics().prefetches, 0);
        gmt.check_invariants().expect("invariants hold at the edge");
    }

    #[test]
    fn tierorder_churn_writes_dirty_tier2_spills_via_host_io() {
        let geometry = TierGeometry::from_tier1(4, 2.0, 4.0);
        let mut gmt = Gmt::new(GmtConfig::new(geometry).with_policy(PolicyKind::TierOrder));
        let mut now = Time::ZERO;
        // Dirty everything, then churn far past T1+T2 capacity so Tier-2's
        // FIFO must spill dirty pages to the SSD.
        for p in 0..geometry.total_pages as u64 {
            now = write(&mut gmt, now, p);
        }
        for p in 0..geometry.total_pages as u64 {
            now = read(&mut gmt, now, p);
        }
        let m = gmt.metrics();
        assert!(m.t2_writebacks > 0, "dirty spills must be written back");
        gmt.check_invariants().expect("invariants hold after churn");
    }

    #[test]
    fn prefetch_turns_sequential_misses_into_hits() {
        let geometry = TierGeometry::from_tier1(16, 4.0, 2.0);
        let mut plain = Gmt::new(GmtConfig::new(geometry));
        let mut config = GmtConfig::new(geometry);
        config.prefetch_degree = 4;
        let mut prefetching = Gmt::new(config);
        let mut now_a = Time::ZERO;
        let mut now_b = Time::ZERO;
        for p in 0..64 {
            now_a = read(&mut plain, now_a, p);
            now_b = read(&mut prefetching, now_b, p);
        }
        let a = plain.metrics();
        let b = prefetching.metrics();
        assert_eq!(a.prefetches, 0);
        assert!(
            b.prefetches > 0,
            "prefetcher must fire on a sequential scan"
        );
        assert!(
            b.t1_hits > a.t1_hits,
            "prefetched pages must convert misses into hits ({} vs {})",
            b.t1_hits,
            a.t1_hits
        );
    }

    #[test]
    fn async_eviction_never_slows_the_warp() {
        let geometry = TierGeometry::from_tier1(8, 2.0, 2.0);
        let sync_cfg = GmtConfig::new(geometry).with_policy(PolicyKind::TierOrder);
        let mut async_cfg = sync_cfg;
        async_cfg.async_eviction = true;
        let mut sync_gmt = Gmt::new(sync_cfg);
        let mut async_gmt = Gmt::new(async_cfg);
        let mut now_s = Time::ZERO;
        let mut now_a = Time::ZERO;
        for p in 0..48 {
            now_s = write(&mut sync_gmt, now_s, p);
            now_a = write(&mut async_gmt, now_a, p);
        }
        assert!(
            now_a <= now_s,
            "background eviction must not add critical-path time"
        );
    }

    #[test]
    fn skip_budget_beyond_four_laps_still_evicts() {
        // Two Tier-1 pages, the default budget of 8 skips (four laps), and
        // every resident page predicting short-reuse: the scan must spend
        // the whole budget and then evict. The single-tenant runtime sends
        // the clock's pick to Tier-2; a tenant table on a shared clock
        // follows the prediction, bypassing the clean victim to Tier-3.
        let geometry = TierGeometry::from_tier1(2, 2.0, 2.0);
        let mut config = GmtConfig::new(geometry).with_policy(PolicyKind::Reuse);
        config.reuse.predictor = PredictorKind::LastTier;
        assert!(config.reuse.max_skips >= 4 * geometry.tier1_pages);
        let whole = TenantSlice {
            base: 0,
            span: geometry.total_pages,
            quota_pages: geometry.tier1_pages,
            weight: 1,
            floor_pages: 0,
        };
        for tenant_table in [false, true] {
            let mut gmt = match tenant_table {
                false => Gmt::new(config),
                true => Gmt::with_tenants(config, PartitionPolicy::FullyShared, &[whole])
                    .expect("valid"),
            };
            let mut now = Time::ZERO;
            for p in 0..2 {
                now = read(&mut gmt, now, p);
                let mut history = PageHistory::default();
                history.observe(Tier::Gpu, &mut MarkovPredictor::new());
                gmt.table.get_mut(PageId(p)).history = history;
            }
            read(&mut gmt, now, 2);
            let m = gmt.metrics();
            assert_eq!(m.short_reuse_keeps, config.reuse.max_skips as u64);
            assert_eq!(m.t1_evictions, 1);
            assert_eq!(m.t2_placements, u64::from(!tenant_table));
            assert_eq!(m.discards, u64::from(tenant_table));
            gmt.check_invariants().expect("invariants hold");
        }
    }

    /// One warp access touching `pages` distinct pages from `base` on.
    fn wide_access(base: u64, pages: u64) -> WarpAccess {
        WarpAccess::scattered((base..base + pages).map(PageId).collect(), false)
    }

    #[test]
    #[should_panic(expected = "tier-1 (29 pages) is narrower than the widest access (32 pages)")]
    fn an_access_wider_than_tier1_is_named_not_a_clock_panic() {
        let mut gmt = Gmt::new(GmtConfig::new(TierGeometry::from_tier1(29, 4.0, 2.0)));
        gmt.access(Time::ZERO, &wide_access(0, 32));
    }

    #[test]
    #[should_panic(
        expected = "tenant 1's tier-1 quota (24 pages) is narrower than the widest \
                               access (32 pages)"
    )]
    fn an_access_wider_than_its_strict_quota_is_named() {
        let geometry = TierGeometry::from_tier1(64, 2.0, 2.0);
        let slice = |base, quota_pages| TenantSlice {
            base,
            span: 64,
            quota_pages,
            weight: 1,
            floor_pages: 0,
        };
        let tenants = [slice(0, 40), slice(64, 24)];
        let mut gmt = Gmt::with_tenants(
            GmtConfig::new(geometry),
            PartitionPolicy::StrictQuota,
            &tenants,
        )
        .expect("valid configuration");
        gmt.access(Time::ZERO, &wide_access(0, 32));
        gmt.access(Time::ZERO, &wide_access(64, 32));
    }

    #[test]
    fn floor_skips_between_short_reuse_keeps_do_not_end_the_scan() {
        // SharedQos with one tenant sitting at a floor of all but one
        // Tier-1 page. The other tenant's only resident page predicts
        // short-reuse, so each of its 8 keeps is followed by a lap of floor
        // skips: ~9 laps in all, more than 4 laps of floor skips in total.
        let geometry = TierGeometry::from_tier1(16, 2.0, 2.0);
        let mut config = GmtConfig::new(geometry).with_policy(PolicyKind::Reuse);
        config.reuse.predictor = PredictorKind::LastTier;
        let half = geometry.total_pages / 2;
        let floored = TenantSlice {
            base: 0,
            span: half,
            quota_pages: geometry.tier1_pages,
            weight: 1,
            floor_pages: geometry.tier1_pages - 1,
        };
        let faulting = TenantSlice {
            base: half as u64,
            floor_pages: 0,
            ..floored
        };
        let mut gmt = Gmt::with_tenants(config, PartitionPolicy::SharedQos, &[floored, faulting])
            .expect("valid");
        let mut now = Time::ZERO;
        let pages = (0..geometry.tier1_pages as u64 - 1).chain([half as u64]);
        for p in pages {
            now = read(&mut gmt, now, p);
            let mut history = PageHistory::default();
            history.observe(Tier::Gpu, &mut MarkovPredictor::new());
            gmt.table.get_mut(PageId(p)).history = history;
        }
        read(&mut gmt, now, half as u64 + 1);
        let m = gmt.metrics();
        assert_eq!(m.short_reuse_keeps, config.reuse.max_skips as u64);
        assert_eq!(m.t1_evictions, 1);
        gmt.check_invariants().expect("invariants hold");
    }
}
