//! Differential test: a one-tenant `StrictQuota` service whose quota is
//! all of Tier-1 and a plain single-tenant [`Gmt`] on a matching
//! configuration must make the same decisions, under every placement
//! policy. The service stamps its records with tenant 0 and the
//! single-tenant engine never stamps, so traces are compared record by
//! record with the stamp cleared; counters and finishing times must
//! match exactly.

use gmt_core::{Gmt, GmtConfig, PolicyKind, Tier2Insert};
use gmt_gpu::{Executor, ExecutorConfig};
use gmt_mem::TierGeometry;
use gmt_serve::{
    ArrivalSchedule, PartitionPolicy, ServeConfig, SloClass, TenantId, TenantRegistry, TenantSpec,
    TieredService,
};
use gmt_sim::trace::TraceRecord;
use gmt_workloads::synthetic::ZipfLoop;
use gmt_workloads::{Workload, WorkloadScale};

const TIER1: usize = 48;
const SEED: u64 = 9;

fn geometry() -> TierGeometry {
    TierGeometry::from_tier1(TIER1, 1.5, 2.0)
}

/// Covers the whole address space, so the tenant's range is the engine's.
fn workload() -> ZipfLoop {
    ZipfLoop::new(&WorkloadScale::for_geometry(&geometry()), 0.8, 0.3, 4_000)
}

/// The service's FIFO Tier-2 default, spelled out so the single-tenant
/// engine runs the same rule.
fn config(policy: PolicyKind) -> GmtConfig {
    let mut gmt = GmtConfig::new(geometry()).with_policy(policy);
    gmt.tier2_insert = Some(Tier2Insert::EvictFifo);
    gmt
}

fn unstamped(mut records: Vec<TraceRecord>) -> Vec<TraceRecord> {
    for r in &mut records {
        r.tenant = None;
    }
    records
}

fn check(policy: PolicyKind) {
    let mut registry = TenantRegistry::new(TIER1, PartitionPolicy::StrictQuota);
    registry
        .admit(TenantSpec {
            name: "solo".into(),
            workload: Box::new(workload()),
            arrival: ArrivalSchedule::Poisson { mean_gap_ns: 500 },
            quota_pages: TIER1,
            weight: 1,
            floor_pages: 0,
            slo: SloClass::Standard,
            seed: SEED,
        })
        .expect("admitted");
    let serve_config = ServeConfig {
        gmt: config(policy),
        partition: PartitionPolicy::StrictQuota,
    };
    let mut service = TieredService::new(&serve_config, registry).expect("valid");
    let service_sink = service.enable_tracing(1 << 20);
    let schedule = service.offered_load();

    let mut gmt = Gmt::new(config(policy));
    let gmt_sink = gmt.enable_tracing(1 << 20);

    let executor = Executor::new(ExecutorConfig::default());
    let served = executor.run_arrivals(service, schedule.clone());
    let replayed = executor.run_arrivals(gmt, schedule);

    assert_eq!(service_sink.dropped(), 0, "{policy}");
    assert_eq!(gmt_sink.dropped(), 0, "{policy}");
    let service_records = service_sink.snapshot();
    assert!(
        service_records.iter().any(|r| r.tenant == Some(0)),
        "{policy}: the service stamps its records with its only tenant"
    );
    let replayed_trace = gmt_sink.snapshot();
    assert!(
        replayed_trace.iter().all(|r| r.tenant.is_none()),
        "{policy}: the single-tenant engine never stamps"
    );
    let served_trace = unstamped(service_records);
    if let Some(i) = (0..served_trace.len().max(replayed_trace.len()))
        .find(|&i| served_trace.get(i) != replayed_trace.get(i))
    {
        panic!(
            "{policy}: decision traces diverge at record {i}: service {:?} vs engine {:?}",
            served_trace.get(i),
            replayed_trace.get(i)
        );
    }
    let metrics = replayed.backend.metrics();
    assert_eq!(served.backend.metrics(TenantId(0)), metrics, "{policy}");
    assert_eq!(served.elapsed, replayed.elapsed, "{policy}");
    assert_eq!(served.accesses, workload().trace(SEED).len() as u64);
    if policy == PolicyKind::Reuse {
        assert!(
            metrics.short_reuse_keeps > 0,
            "the run must exercise short-reuse skips"
        );
    }
}

#[test]
fn one_tenant_service_matches_the_single_tenant_engine() {
    for policy in PolicyKind::ALL {
        check(policy);
    }
}
