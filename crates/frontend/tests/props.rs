//! Property tests for the front-end satellites: latency percentiles are
//! monotone, and per-class counts reconcile exactly against the
//! hierarchy's counters for arbitrary knob settings.

use gmt_core::GmtConfig;
use gmt_frontend::Frontend;
use gmt_mem::TierGeometry;
use gmt_serve::{
    ArrivalSchedule, PartitionPolicy, ServeConfig, SloClass, TenantRegistry, TenantSpec,
    TieredService,
};
use gmt_sim::trace::{TraceEvent, TraceSink};
use gmt_sim::Time;
use gmt_workloads::synthetic::ZipfLoop;
use gmt_workloads::WorkloadScale;
use proptest::prelude::*;

fn class_of(byte: u8) -> SloClass {
    match byte % 3 {
        0 => SloClass::Interactive,
        1 => SloClass::Standard,
        _ => SloClass::Batch,
    }
}

proptest! {
    // p50 ≤ p99 ≤ p999 for arbitrary completion-latency streams, and
    // the violation rate is exactly the fraction of samples past the
    // class target.
    #[test]
    fn latency_percentiles_are_monotone(
        latencies in proptest::collection::vec(0u64..400_000_000, 1..300),
        class_byte in 0u8..3,
    ) {
        let class = class_of(class_byte);
        let sink = TraceSink::bounded(latencies.len() + 1);
        for (i, &l) in latencies.iter().enumerate() {
            sink.emit(
                Time::from_nanos(i as u64 + 1),
                TraceEvent::FrontComplete { conn: 0, class, latency_ns: l },
            );
        }
        let mut builder = gmt_analysis::tracesum::SloSummaryBuilder::new();
        sink.visit(|r| builder.observe(r));
        let summaries = builder.finish();
        prop_assert_eq!(summaries.len(), 1);
        let s = &summaries[0];
        let (p50, p99, p999) = (
            s.p50_ns().expect("samples"),
            s.p99_ns().expect("samples"),
            s.p999_ns().expect("samples"),
        );
        prop_assert!(p50 <= p99, "p50 {} > p99 {}", p50, p99);
        prop_assert!(p99 <= p999, "p99 {} > p999 {}", p99, p999);
        let over = latencies.iter().filter(|&&l| l > class.target_p99_ns()).count();
        let expected = over as f64 / latencies.len() as f64;
        prop_assert!(
            (s.violation_rate() - expected).abs() < 1e-12,
            "violation rate {} != {}", s.violation_rate(), expected
        );
    }

    // For arbitrary seeds and backpressure knobs, a full run's
    // per-class counts reconcile exactly against [`gmt_core::TieringMetrics`]
    // and every generated request is accounted for.
    #[test]
    fn per_class_counts_reconcile_for_arbitrary_knobs(
        seed in 0u64..1_000_000,
        mean_gap_ns in 200u64..20_000,
        max_request_pages in 1usize..10,
        defer_threshold in 1usize..12,
        extra_shed in 0usize..12,
    ) {
        let tier1 = 48;
        let mut registry = TenantRegistry::new(tier1, PartitionPolicy::FullyShared);
        for (name, pages, class, seed) in [
            ("i", 96usize, SloClass::Interactive, 1u64),
            ("b", 128, SloClass::Batch, 2),
        ] {
            registry
                .admit(TenantSpec {
                    name: name.into(),
                    workload: Box::new(ZipfLoop::new(&WorkloadScale::pages(pages), 1.0, 0.1, 1)),
                    arrival: ArrivalSchedule::Uniform { gap_ns: 1 },
                    quota_pages: 0,
                    weight: 1,
                    floor_pages: 0,
                    slo: class,
                    seed,
                })
                .expect("tenants fit");
        }
        let mut gmt = GmtConfig::new(TierGeometry::from_tier1(tier1, 2.0, 2.0));
        gmt.frontend.connections = 3;
        gmt.frontend.mean_interarrival_ns = mean_gap_ns;
        gmt.frontend.max_request_pages = max_request_pages;
        gmt.frontend.defer_threshold = defer_threshold;
        gmt.frontend.shed_threshold = defer_threshold + extra_shed;
        let config = ServeConfig { gmt, partition: PartitionPolicy::FullyShared };
        let service = TieredService::new(&config, registry).expect("valid");
        // run() internally asserts conservation, reconciliation and
        // hierarchy invariants; re-check the identities explicitly.
        let out = Frontend::new(service, seed, 40, 1 << 16).run();
        prop_assert!(out.report.check_conservation().is_ok());
        prop_assert!(out.report.reconcile(&out.tenant_classes, &out.per_tenant).is_ok());
        let completes: u64 = out.report.classes.iter().map(|s| s.completes()).sum();
        prop_assert_eq!(out.generated, completes + out.shed);
        prop_assert_eq!(out.generated, 3 * 40);
        let flush_pages: u64 = out.report.classes.iter().map(|s| s.flush_pages).sum();
        let touched: u64 = out.aggregate.t1_hits + out.aggregate.t1_misses;
        prop_assert_eq!(flush_pages, touched);
    }
}
