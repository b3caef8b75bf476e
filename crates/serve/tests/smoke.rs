//! End-to-end smoke tests: every policy serves a small multi-tenant
//! mix to completion, determinism holds, and the per-tenant counters
//! decompose the aggregate exactly.

use gmt_core::{GmtConfig, TieringMetrics};
use gmt_gpu::ExecutorConfig;
use gmt_mem::TierGeometry;
use gmt_serve::{
    ArrivalSchedule, PartitionPolicy, ServeConfig, ServeOutcome, SloClass, TenantRegistry,
    TenantSpec, TieredService,
};
use gmt_workloads::synthetic::{SequentialScan, ZipfLoop};
use gmt_workloads::WorkloadScale;

const TIER1: usize = 64;

fn mix(policy: PartitionPolicy) -> TenantRegistry {
    let mut registry = TenantRegistry::new(TIER1, policy);
    registry
        .admit(TenantSpec {
            name: "zipf".into(),
            workload: Box::new(ZipfLoop::new(&WorkloadScale::tiny(), 1.1, 0.2, 800)),
            arrival: ArrivalSchedule::Poisson { mean_gap_ns: 900 },
            quota_pages: 40,
            weight: 3,
            floor_pages: 24,
            slo: SloClass::Interactive,
            seed: 5,
        })
        .expect("zipf admitted");
    registry
        .admit(TenantSpec {
            name: "scan".into(),
            workload: Box::new(SequentialScan::new(&WorkloadScale::pages(256), 2)),
            arrival: ArrivalSchedule::Bursty {
                burst: 16,
                gap_ns: 120,
                idle_ns: 4_000,
            },
            quota_pages: 24,
            weight: 1,
            floor_pages: 8,
            slo: SloClass::Batch,
            seed: 6,
        })
        .expect("scan admitted");
    registry
}

fn serve(policy: PartitionPolicy) -> ServeOutcome {
    let config = ServeConfig {
        gmt: GmtConfig::new(TierGeometry::from_tier1(TIER1, 4.0, 2.0)),
        partition: policy,
    };
    let service = TieredService::new(&config, mix(policy)).expect("valid config");
    service.serve(ExecutorConfig::default(), 1 << 18)
}

#[test]
fn every_policy_serves_the_mix_to_completion() {
    for policy in PartitionPolicy::ALL {
        let out = serve(policy);
        assert_eq!(out.accesses, 800 + 512, "{policy}: all accesses replayed");
        assert!(out.elapsed.as_nanos() > 0, "{policy}: time advanced");
        assert_eq!(out.report.tenants.len(), 2);
        let zipf = out.report.tenant("zipf").expect("zipf reported");
        assert!(
            zipf.t1_hit_rate > 0.0,
            "{policy}: a skewed loop must land some Tier-1 hits"
        );
        let scan = out.report.tenant("scan").expect("scan reported");
        assert!(
            scan.t1_misses > 0 && scan.p99_miss_service_ns.is_some(),
            "{policy}: a 4x-of-tier-1 scan must miss and report latency"
        );
        assert!(
            out.report.jain_hit_rate > 0.0 && out.report.jain_hit_rate <= 1.0 + 1e-12,
            "{policy}: jain index in range"
        );
    }
}

#[test]
fn per_tenant_metrics_sum_exactly_to_the_aggregate() {
    for policy in PartitionPolicy::ALL {
        let out = serve(policy);
        let mut summed = TieringMetrics::default();
        for m in &out.per_tenant {
            summed.merge(m);
        }
        assert_eq!(
            summed, out.aggregate,
            "{policy}: tenant counters must partition the hierarchy totals"
        );
        // And the decomposition is non-trivial: both tenants were charged.
        assert!(out.per_tenant.iter().all(|m| m.accesses > 0));
    }
}

#[test]
fn serving_is_deterministic() {
    for policy in [PartitionPolicy::StrictQuota, PartitionPolicy::FullyShared] {
        let a = serve(policy);
        let b = serve(policy);
        assert_eq!(a.report, b.report, "{policy}: same seed, same report");
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.per_tenant, b.per_tenant);
    }
}

#[test]
fn structural_invariants_hold_after_a_full_run() {
    use gmt_gpu::{Executor, MemoryBackend};

    for policy in PartitionPolicy::ALL {
        let config = ServeConfig {
            gmt: GmtConfig::new(TierGeometry::from_tier1(TIER1, 4.0, 2.0)),
            partition: policy,
        };
        let service = TieredService::new(&config, mix(policy)).expect("valid config");
        let schedule = service.offered_load();
        let out = Executor::new(ExecutorConfig::default()).run_arrivals(service, schedule);
        let mut service = out.backend;
        service.check_invariants().expect("invariants after run");
        let done = out.elapsed;
        service.finish(gmt_sim::Time::ZERO + done);
    }
}

#[test]
fn placement_policies_and_prefetch_apply_to_every_partition() {
    use gmt_core::PolicyKind;
    use gmt_gpu::Executor;

    for partition in PartitionPolicy::ALL {
        for policy in PolicyKind::ALL {
            let mut gmt = GmtConfig::new(TierGeometry::from_tier1(TIER1, 4.0, 2.0));
            gmt.policy = policy;
            gmt.prefetch_degree = 2;
            let config = ServeConfig { gmt, partition };
            let service = TieredService::new(&config, mix(partition)).expect("valid config");
            let schedule = service.offered_load();
            let out = Executor::new(ExecutorConfig::default()).run_arrivals(service, schedule);
            let service = out.backend;
            let case = format!("{partition} / {policy}");
            // Prefetches stay inside the faulting tenant's range, or the
            // per-tenant residency counters would drift from the clocks.
            service.check_invariants().expect(&case);
            let per_tenant: Vec<TieringMetrics> = (0..service.tenant_count())
                .map(|t| service.metrics(gmt_serve::TenantId(t as u32)))
                .collect();
            assert!(
                per_tenant[1].prefetches > 0,
                "{case}: the sequential scan triggers the prefetcher"
            );
            if policy != PolicyKind::Reuse {
                assert!(
                    per_tenant.iter().all(|m| m.predictions == 0),
                    "{case}: only GMT-Reuse predicts"
                );
            }
            let mut summed = TieringMetrics::default();
            per_tenant.iter().for_each(|m| summed.merge(m));
            assert_eq!(summed, service.aggregate_metrics(), "{case}");
        }
    }
}

#[test]
fn offered_load_is_sorted_and_covers_every_tenant() {
    let config = ServeConfig {
        gmt: GmtConfig::new(TierGeometry::from_tier1(TIER1, 4.0, 2.0)),
        partition: PartitionPolicy::FullyShared,
    };
    let service =
        TieredService::new(&config, mix(PartitionPolicy::FullyShared)).expect("valid config");
    let load = service.offered_load();
    assert_eq!(load.len(), 800 + 512);
    for pair in load.windows(2) {
        assert!(pair[0].0 <= pair[1].0, "arrivals sorted");
    }
    let tenants: std::collections::BTreeSet<u32> = load
        .iter()
        .map(|(_, a)| service.tenant_of(a.pages.first()).0)
        .collect();
    assert_eq!(tenants.into_iter().collect::<Vec<_>>(), vec![0, 1]);
}

#[test]
fn mismatched_registry_is_rejected() {
    let config = ServeConfig {
        gmt: GmtConfig::new(TierGeometry::from_tier1(TIER1, 4.0, 2.0)),
        partition: PartitionPolicy::StrictQuota,
    };
    let registry = mix(PartitionPolicy::FullyShared);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        TieredService::new(&config, registry)
    }));
    assert!(result.is_err(), "policy mismatch must panic loudly");
}

#[test]
fn degenerate_substrate_config_is_refused() {
    let mut gmt = GmtConfig::new(TierGeometry::from_tier1(TIER1, 4.0, 2.0));
    gmt.reuse.bypass_threshold = 7.0;
    let config = ServeConfig {
        gmt,
        partition: PartitionPolicy::FullyShared,
    };
    assert!(TieredService::new(&config, mix(PartitionPolicy::FullyShared)).is_err());
}
