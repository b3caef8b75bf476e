//! The shared tiered hierarchy serving every tenant.

use gmt_analysis::tracesum::TenantSummaryBuilder;
use gmt_core::{
    Gmt, GmtConfig, PartitionPolicy, TenantId, TenantSlice, Tier2Insert, TieringMetrics,
};
use gmt_gpu::{Executor, ExecutorConfig, MemoryBackend, RunOutcome};
use gmt_mem::WarpAccess;
use gmt_sim::trace::TraceSink;
use gmt_sim::{Dur, Time};

use crate::report::ServeReport;
use crate::TenantRegistry;

/// Configuration of the serving hierarchy: the underlying GMT substrate
/// plus how its Tier-1 is partitioned.
///
/// Left unset, Tier-2 spills FIFO-style ([`Tier2Insert::EvictFifo`])
/// under every policy, matching every serving result produced so far.
/// On the shared clock of [`PartitionPolicy::SharedQos`] and
/// [`PartitionPolicy::FullyShared`], a spent short-reuse skip budget
/// evicts the next candidate on its own prediction (see
/// [`Gmt::with_tenants`]).
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// The tier geometry, device calibration, placement policy and reuse
    /// machinery knobs. `geometry.total_pages` must cover every admitted
    /// tenant's range.
    pub gmt: GmtConfig,
    /// How Tier-1 is divided among tenants.
    pub partition: PartitionPolicy,
}

/// The multi-tenant serving hierarchy: the admitted [`TenantRegistry`]
/// on one tiering engine ([`Gmt::with_tenants`]), which shares Tier-2,
/// the SSD array and the PCIe path among tenants and divides Tier-1 per
/// the configured [`PartitionPolicy`].
///
/// Implements [`MemoryBackend`], so an interleaved multi-tenant arrival
/// schedule (see [`TieredService::offered_load`]) replays through
/// [`Executor::run_arrivals`] exactly like a single-tenant trace.
///
/// # Examples
///
/// ```
/// use gmt_core::GmtConfig;
/// use gmt_mem::TierGeometry;
/// use gmt_serve::{
///     ArrivalSchedule, PartitionPolicy, ServeConfig, SloClass, TenantRegistry, TenantSpec,
///     TieredService,
/// };
/// use gmt_workloads::synthetic::ZipfLoop;
/// use gmt_workloads::WorkloadScale;
///
/// let mut registry = TenantRegistry::new(64, PartitionPolicy::StrictQuota);
/// for (i, name) in ["a", "b"].iter().enumerate() {
///     registry
///         .admit(TenantSpec {
///             name: (*name).into(),
///             workload: Box::new(ZipfLoop::new(&WorkloadScale::tiny(), 1.0, 0.1, 500)),
///             arrival: ArrivalSchedule::Uniform { gap_ns: 300 },
///             quota_pages: 32,
///             weight: 1,
///             floor_pages: 8,
///             slo: SloClass::Standard,
///             seed: i as u64,
///         })
///         .expect("admitted");
/// }
/// let geometry = TierGeometry::from_tier1(64, 4.0, 4.0);
/// let config = ServeConfig {
///     gmt: GmtConfig::new(geometry),
///     partition: PartitionPolicy::StrictQuota,
/// };
/// let service = TieredService::new(&config, registry).expect("valid");
/// let outcome = service.serve(Default::default(), 1 << 20);
/// assert_eq!(outcome.report.tenants.len(), 2);
/// ```
#[derive(Debug)]
pub struct TieredService {
    config: ServeConfig,
    engine: Gmt,
    /// The specs, retained to generate the offered load.
    registry: TenantRegistry,
}

/// The result of serving one multi-tenant schedule to completion.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Total simulated time until the last access's data was ready.
    pub elapsed: Dur,
    /// Warp accesses served across all tenants.
    pub accesses: u64,
    /// Per-tenant report (hit rates, latency percentiles, fairness).
    pub report: ServeReport,
    /// Per-tenant counters, in tenant-id order.
    pub per_tenant: Vec<TieringMetrics>,
    /// Sum of every tenant's counters.
    pub aggregate: TieringMetrics,
}

impl TieredService {
    /// Builds the hierarchy for an admitted tenant population.
    ///
    /// # Errors
    ///
    /// Returns the [`gmt_core::ConfigError`] if the substrate
    /// configuration is degenerate.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's address space does not cover every
    /// tenant's page range, or if the registry's policy/Tier-1 capacity
    /// disagree with `config` (the admission checks would be void).
    pub fn new(
        config: &ServeConfig,
        registry: TenantRegistry,
    ) -> Result<TieredService, gmt_core::ConfigError> {
        assert_eq!(
            registry.policy(),
            config.partition,
            "registry admitted tenants under a different policy"
        );
        assert_eq!(
            registry.tier1_pages(),
            config.gmt.geometry.tier1_pages,
            "registry partitioned a different tier-1 capacity"
        );
        let slices: Vec<TenantSlice> = registry
            .specs()
            .iter()
            .zip(registry.bases())
            .map(|(spec, &base)| TenantSlice {
                base,
                span: spec.workload.total_pages(),
                quota_pages: spec.quota_pages,
                weight: spec.weight,
                floor_pages: spec.floor_pages,
            })
            .collect();
        let mut gmt = config.gmt;
        gmt.tier2_insert.get_or_insert(Tier2Insert::EvictFifo);
        Ok(TieredService {
            engine: Gmt::with_tenants(gmt, config.partition, &slices)?,
            config: *config,
            registry,
        })
    }

    /// The service's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Number of tenants being served.
    pub fn tenant_count(&self) -> usize {
        self.engine.tenant_count()
    }

    /// The tenant owning `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside every tenant's range.
    pub fn tenant_of(&self, page: gmt_mem::PageId) -> TenantId {
        self.engine.tenant_of(page)
    }

    /// Counters accumulated for one tenant.
    pub fn metrics(&self, tenant: TenantId) -> TieringMetrics {
        self.engine.tenant_metrics(tenant)
    }

    /// Every tenant's counters merged — the hierarchy-wide aggregate.
    pub fn aggregate_metrics(&self) -> TieringMetrics {
        self.engine.metrics()
    }

    /// Pages a tenant currently holds in Tier-1.
    pub fn tenant_t1_resident(&self, tenant: TenantId) -> usize {
        self.engine.tenant_resident(tenant)
    }

    /// Pages resident in Tier-1 across every tenant — the occupancy the
    /// front-end's admission backpressure compares against capacity.
    pub fn tier1_resident_total(&self) -> usize {
        self.engine.tier1_resident()
    }

    /// A tenant's eviction-exempt floor (shared-QoS), in pages.
    pub fn tenant_floor(&self, tenant: TenantId) -> usize {
        self.registry.specs()[tenant.index()].floor_pages
    }

    /// A tenant's strict-quota budget, in pages.
    pub fn tenant_budget(&self, tenant: TenantId) -> usize {
        self.registry.specs()[tenant.index()].quota_pages
    }

    /// A tenant's declared service-level-objective class.
    pub fn tenant_slo(&self, tenant: TenantId) -> gmt_sim::trace::SloClass {
        self.registry.specs()[tenant.index()].slo
    }

    /// A tenant's global page range as `(first_page, span_in_pages)`.
    pub fn tenant_range(&self, tenant: TenantId) -> (u64, usize) {
        let i = tenant.index();
        (
            self.registry.bases()[i],
            self.registry.specs()[i].workload.total_pages(),
        )
    }

    /// Turns on decision tracing into a fresh ring of `capacity`
    /// records, wiring in the shared SSD array and both PCIe
    /// directions. Records emitted while serving a tenant's access are
    /// stamped with that tenant's id (see
    /// [`gmt_analysis::tracesum::TenantSummaryBuilder`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_tracing(&mut self, capacity: usize) -> TraceSink {
        self.engine.enable_tracing(capacity)
    }

    /// The interleaved open-arrival schedule of every tenant: each
    /// tenant's workload trace is relocated to its global range, paired
    /// with its arrival times, and merged by `(arrival, tenant, seq)` —
    /// fully deterministic for a fixed registry.
    pub fn offered_load(&self) -> Vec<(Time, WarpAccess)> {
        let mut merged: Vec<(Time, u32, usize, WarpAccess)> = Vec::new();
        for (i, (spec, &base)) in self
            .registry
            .specs()
            .iter()
            .zip(self.registry.bases())
            .enumerate()
        {
            let trace = spec.workload.trace(spec.seed);
            let times = spec
                .arrival
                .times(trace.len(), gmt_sim::rng::derive(spec.seed, 0x4152_5256));
            for (seq, (at, mut access)) in times.into_iter().zip(trace).enumerate() {
                // Relocation mutates the owned trace in place: no
                // per-access page-vector rebuild.
                access.relocate(base);
                merged.push((at, i as u32, seq, access));
            }
        }
        merged.sort_by_key(|(at, tenant, seq, _)| (at.as_nanos(), *tenant, *seq));
        merged
            .into_iter()
            .map(|(at, _, _, access)| (at, access))
            .collect()
    }

    /// Serves the whole offered load to completion: enables tracing,
    /// replays the merged schedule through
    /// [`Executor::run_arrivals`], and distills the per-tenant report.
    ///
    /// # Panics
    ///
    /// Panics if `trace_capacity` is zero or the ring overflows (the
    /// report would silently undercount; size the ring to the run).
    pub fn serve(mut self, executor: ExecutorConfig, trace_capacity: usize) -> ServeOutcome {
        let sink = self.enable_tracing(trace_capacity);
        let schedule = self.offered_load();
        let policy = self.config.partition;
        let out: RunOutcome<TieredService> = Executor::new(executor).run_arrivals(self, schedule);
        assert_eq!(
            sink.dropped(),
            0,
            "trace ring overflowed; raise trace_capacity"
        );
        let service = out.backend;
        let per_tenant: Vec<TieringMetrics> = (0..service.tenant_count())
            .map(|t| service.metrics(TenantId(t as u32)))
            .collect();
        let aggregate = service.aggregate_metrics();
        let names: Vec<String> = service
            .registry
            .specs()
            .iter()
            .map(|s| s.name.clone())
            .collect();
        // Fold the trace straight out of the ring: a full run buffers
        // millions of records, and materializing them as one Vec only to
        // summarize and drop them costs more than the summary itself.
        let mut builder = TenantSummaryBuilder::new();
        sink.visit(|r| builder.observe(r));
        let report = ServeReport::from_summaries(policy, &names, &builder.finish(), &per_tenant);
        ServeOutcome {
            elapsed: out.elapsed,
            accesses: out.accesses,
            report,
            per_tenant,
            aggregate,
        }
    }

    /// Verifies the engine's structural invariants: clocks, Tier-2 and
    /// the page table agree; resident counters match clock populations;
    /// strict quotas are respected.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.engine.check_invariants()
    }
}

impl MemoryBackend for TieredService {
    fn access(&mut self, now: Time, access: &WarpAccess) -> Time {
        self.engine.access(now, access)
    }

    fn finish(&mut self, now: Time) -> Time {
        self.engine.finish(now)
    }
}
