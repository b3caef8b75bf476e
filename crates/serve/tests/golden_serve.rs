//! Golden serving runs: a fixed two-tenant mix under every partitioning
//! policy must reproduce the committed decision-trace fingerprint, record
//! count, finishing time and per-tenant counters exactly. They pin the
//! multi-tenant eviction path (victim selection, floors, Tier-2 spills,
//! write-backs, prediction grading) byte for byte, as the single-tenant
//! golden traces pin the paper runtime. An intentional model change
//! re-records them:
//!
//! ```sh
//! cargo test -p gmt-serve --test golden_serve -- --nocapture
//! ```
//!
//! and copies the printed `actual` lines over the `GOLDEN` table.

use gmt_core::GmtConfig;
use gmt_gpu::{Executor, ExecutorConfig};
use gmt_mem::TierGeometry;
use gmt_serve::{
    ArrivalSchedule, PartitionPolicy, ServeConfig, SloClass, TenantId, TenantRegistry, TenantSpec,
    TieredService,
};
use gmt_sim::trace::to_jsonl;
use gmt_workloads::synthetic::{SequentialScan, ZipfLoop};
use gmt_workloads::WorkloadScale;

const TIER1: usize = 64;

/// `(policy, jsonl FNV-1a, records, elapsed ns, per-tenant counters FNV-1a)`.
#[rustfmt::skip]
const GOLDEN: [(&str, u64, usize, u64, u64); 4] = [
    ("strict-quota", 0x57b53126a302ec17, 12659, 26920280, 0xd3af20a67d18fec6),
    ("weighted-shares", 0x47339f20ac36783a, 12147, 25322840, 0xd2ad7b8b8bad3152),
    ("shared-qos", 0x00e11b5c4d182358, 11845, 24483160, 0x8e338388cefb4f65),
    ("fully-shared", 0x89a9a5b55645c073, 11310, 21001560, 0x55ccfd9300da872a),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A write-heavy skewed loop against a sequential scan, on a Tier-2 no
/// larger than Tier-1 so FIFO spills and dirty write-backs both occur.
fn registry(policy: PartitionPolicy) -> TenantRegistry {
    let mut registry = TenantRegistry::new(TIER1, policy);
    registry
        .admit(TenantSpec {
            name: "zipf".into(),
            workload: Box::new(ZipfLoop::new(&WorkloadScale::tiny(), 0.9, 0.3, 1_500)),
            arrival: ArrivalSchedule::Poisson { mean_gap_ns: 700 },
            quota_pages: 40,
            weight: 3,
            floor_pages: 24,
            slo: SloClass::Interactive,
            seed: 21,
        })
        .expect("zipf admitted");
    registry
        .admit(TenantSpec {
            name: "scan".into(),
            workload: Box::new(SequentialScan::new(&WorkloadScale::pages(256), 3)),
            arrival: ArrivalSchedule::Bursty {
                burst: 16,
                gap_ns: 120,
                idle_ns: 3_000,
            },
            quota_pages: 24,
            weight: 1,
            floor_pages: 8,
            slo: SloClass::Batch,
            seed: 22,
        })
        .expect("scan admitted");
    registry
}

fn fingerprint(policy: PartitionPolicy) -> (u64, usize, u64, u64) {
    let config = ServeConfig {
        gmt: GmtConfig::new(TierGeometry::from_tier1(TIER1, 1.0, 4.0)),
        partition: policy,
    };
    let mut service = TieredService::new(&config, registry(policy)).expect("valid config");
    let sink = service.enable_tracing(1 << 20);
    let schedule = service.offered_load();
    let out = Executor::new(ExecutorConfig::default()).run_arrivals(service, schedule);
    assert_eq!(sink.dropped(), 0, "the ring holds the whole run");
    out.backend
        .check_invariants()
        .expect("invariants hold after the run");
    let records = sink.snapshot();
    let counters: String = (0..out.backend.tenant_count())
        .map(|t| format!("{:?};", out.backend.metrics(TenantId(t as u32))))
        .collect();
    (
        fnv1a(to_jsonl(&records).as_bytes()),
        records.len(),
        out.elapsed.as_nanos(),
        fnv1a(counters.as_bytes()),
    )
}

#[test]
fn every_policy_reproduces_its_golden_run() {
    let mut drifted = Vec::new();
    for (policy, golden) in PartitionPolicy::ALL.into_iter().zip(GOLDEN) {
        assert_eq!(policy.name(), golden.0);
        let (trace, records, elapsed, counters) = fingerprint(policy);
        println!(
            "actual: (\"{}\", 0x{trace:016x}, {records}, {elapsed}, 0x{counters:016x}),",
            policy.name()
        );
        if (trace, records, elapsed, counters) != (golden.1, golden.2, golden.3, golden.4) {
            drifted.push(policy.name());
        }
    }
    assert!(
        drifted.is_empty(),
        "golden serving runs drifted: {drifted:?}"
    );
}
