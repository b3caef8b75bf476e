//! Golden front-end runs: two small seeded `Frontend` runs, one at the
//! default knobs and one at tight thresholds that defer and shed, must
//! reproduce the committed decision-trace fingerprint, record count,
//! finishing time and request counts exactly. They pin request
//! generation, admission, batching and flushing byte for byte, down to
//! the seeded draws each connection makes. An intentional model change
//! re-records them:
//!
//! ```sh
//! cargo test -p gmt-frontend --test golden_frontend -- --nocapture
//! ```
//!
//! and copies the printed `actual` lines over the `GOLDEN` table.

use gmt_core::GmtConfig;
use gmt_frontend::Frontend;
use gmt_mem::TierGeometry;
use gmt_serve::{
    ArrivalSchedule, PartitionPolicy, ServeConfig, SloClass, TenantRegistry, TenantSpec,
    TieredService,
};
use gmt_sim::trace::to_jsonl;
use gmt_workloads::synthetic::ZipfLoop;
use gmt_workloads::WorkloadScale;

const TIER1: usize = 64;

/// `(run, jsonl FNV-1a, records, elapsed ns, generated, shed)`.
#[rustfmt::skip]
const GOLDEN: [(&str, u64, usize, u64, u64, u64); 2] = [
    ("default", 0x4a97a6e2051b599d, 3397, 51435257, 1200, 1046),
    ("tight", 0x7804460006b4aef0, 1749, 3434760, 1600, 1593),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(mean gap ns, defer threshold, shed threshold)` on top of four
/// connections, 6-page requests and a 50 µs max delay.
fn service(mean_gap_ns: u64, defer_threshold: usize, shed_threshold: usize) -> TieredService {
    let mut registry = TenantRegistry::new(TIER1, PartitionPolicy::SharedQos);
    for (name, pages, class, floor, seed) in [
        ("lookup", 128usize, SloClass::Interactive, 24usize, 5u64),
        ("churn", 256, SloClass::Batch, 0, 6),
    ] {
        registry
            .admit(TenantSpec {
                name: name.into(),
                workload: Box::new(ZipfLoop::new(&WorkloadScale::pages(pages), 1.0, 0.1, 1)),
                arrival: ArrivalSchedule::Uniform { gap_ns: 1 },
                quota_pages: 0,
                weight: 1,
                floor_pages: floor,
                slo: class,
                seed,
            })
            .expect("golden tenants fit");
    }
    let mut gmt = GmtConfig::new(TierGeometry::from_tier1(TIER1, 2.0, 2.0));
    gmt.frontend.connections = 4;
    gmt.frontend.mean_interarrival_ns = mean_gap_ns;
    gmt.frontend.max_request_pages = 6;
    gmt.frontend.max_delay_ns = 50_000;
    gmt.frontend.defer_threshold = defer_threshold;
    gmt.frontend.shed_threshold = shed_threshold;
    let config = ServeConfig {
        gmt,
        partition: PartitionPolicy::SharedQos,
    };
    TieredService::new(&config, registry).expect("valid golden config")
}

fn fingerprint(service: TieredService, seed: u64, requests: u32) -> (u64, usize, u64, u64, u64) {
    let out = Frontend::new(service, seed, requests, 1 << 19).run();
    let records = out.sink.snapshot();
    (
        fnv1a(to_jsonl(&records).as_bytes()),
        records.len(),
        out.elapsed.as_nanos(),
        out.generated,
        out.shed,
    )
}

#[test]
fn every_run_reproduces_its_golden_fingerprint() {
    let runs = [
        ("default", fingerprint(service(5_000, 16, 64), 77, 300)),
        ("tight", fingerprint(service(300, 2, 4), 13, 400)),
    ];
    let mut drifted = Vec::new();
    for ((name, actual), golden) in runs.into_iter().zip(GOLDEN) {
        assert_eq!(name, golden.0);
        let (trace, records, elapsed, generated, shed) = actual;
        println!(
            "actual: (\"{name}\", 0x{trace:016x}, {records}, {elapsed}, {generated}, {shed}),"
        );
        if actual != (golden.1, golden.2, golden.3, golden.4, golden.5) {
            drifted.push(name);
        }
    }
    assert!(
        drifted.is_empty(),
        "golden front-end runs drifted: {drifted:?}"
    );
}
