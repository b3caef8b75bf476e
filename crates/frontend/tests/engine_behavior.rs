//! End-to-end behavior of the serving engine: determinism down to the
//! trace bytes, backpressure engagement, every flush reason reachable,
//! and global request accounting.

use gmt_core::GmtConfig;
use gmt_frontend::Frontend;
use gmt_mem::TierGeometry;
use gmt_serve::{
    ArrivalSchedule, PartitionPolicy, ServeConfig, SloClass, TenantRegistry, TenantSpec,
    TieredService,
};
use gmt_sim::trace::{to_jsonl, FlushReason, TraceEvent};
use gmt_workloads::synthetic::ZipfLoop;
use gmt_workloads::WorkloadScale;

const TIER1: usize = 64;

struct Knobs {
    connections: usize,
    mean_gap_ns: u64,
    max_request_pages: usize,
    max_delay_ns: u64,
    defer_threshold: usize,
    shed_threshold: usize,
}

impl Default for Knobs {
    fn default() -> Knobs {
        Knobs {
            connections: 4,
            mean_gap_ns: 5_000,
            max_request_pages: 6,
            max_delay_ns: 50_000,
            defer_threshold: 16,
            shed_threshold: 64,
        }
    }
}

/// Two tenants (interactive + batch) on a small hierarchy.
fn service(knobs: &Knobs) -> TieredService {
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
            .expect("test tenants fit");
    }
    let mut gmt = GmtConfig::new(TierGeometry::from_tier1(TIER1, 2.0, 2.0));
    gmt.frontend.connections = knobs.connections;
    gmt.frontend.mean_interarrival_ns = knobs.mean_gap_ns;
    gmt.frontend.max_request_pages = knobs.max_request_pages;
    gmt.frontend.max_delay_ns = knobs.max_delay_ns;
    gmt.frontend.defer_threshold = knobs.defer_threshold;
    gmt.frontend.shed_threshold = knobs.shed_threshold;
    let config = ServeConfig {
        gmt,
        partition: PartitionPolicy::SharedQos,
    };
    TieredService::new(&config, registry).expect("valid test config")
}

#[test]
fn identically_seeded_runs_are_byte_identical() {
    let run = || {
        let out = Frontend::new(service(&Knobs::default()), 77, 300, 1 << 18).run();
        (
            to_jsonl(&out.sink.snapshot()),
            out.report.render_json(),
            out.elapsed,
        )
    };
    let (trace_a, report_a, elapsed_a) = run();
    let (trace_b, report_b, elapsed_b) = run();
    assert_eq!(trace_a, trace_b, "traces must match byte for byte");
    assert_eq!(report_a, report_b, "reports must match byte for byte");
    assert_eq!(elapsed_a, elapsed_b);
    assert!(trace_a.lines().count() > 1_000, "the run actually traced");
}

#[test]
fn every_request_is_completed_or_shed_and_counts_reconcile() {
    let out = Frontend::new(service(&Knobs::default()), 9, 500, 1 << 19).run();
    // run() itself asserts conservation and reconciliation; check the
    // global accounting identity on top.
    let completes: u64 = out.report.classes.iter().map(|s| s.completes()).sum();
    assert_eq!(
        out.generated,
        completes + out.shed,
        "every generated request either completed or was shed"
    );
    assert_eq!(out.generated, 4 * 500, "4 connections x 500 requests");
    out.report
        .check_conservation()
        .expect("admits == completes");
    out.report
        .reconcile(&out.tenant_classes, &out.per_tenant)
        .expect("trace and hierarchy agree");
    assert!(out.aggregate.accesses > 0, "flushes reached the hierarchy");
}

#[test]
fn tight_thresholds_engage_backpressure_without_breaking_accounting() {
    let knobs = Knobs {
        mean_gap_ns: 300, // hot arrivals: occupancy builds up
        defer_threshold: 2,
        shed_threshold: 4,
        ..Knobs::default()
    };
    let out = Frontend::new(service(&knobs), 13, 400, 1 << 19).run();
    let defers: u64 = out.report.classes.iter().map(|s| s.defers).sum();
    assert!(defers > 0, "tight thresholds must defer something");
    assert!(out.shed > 0, "a 4-deep shed threshold must drop something");
    let batch = out.report.class(SloClass::Batch).expect("batch ran");
    let interactive = out
        .report
        .class(SloClass::Interactive)
        .expect("interactive ran");
    assert!(
        batch.defers > interactive.defers,
        "backpressure must land on the class with latency slack \
         (batch {} vs interactive {})",
        batch.defers,
        interactive.defers
    );
    let completes: u64 = out.report.classes.iter().map(|s| s.completes()).sum();
    assert_eq!(out.generated, completes + out.shed);
}

#[test]
fn slow_arrivals_flush_on_the_timer_and_fast_ones_on_size() {
    // Slow: requests far apart, batches never reach the crossover.
    let slow = Knobs {
        connections: 1,
        mean_gap_ns: 500_000, // >> max_delay: every batch waits out its timer
        max_request_pages: 2, // far below the 8-page crossover
        ..Knobs::default()
    };
    let out = Frontend::new(service(&slow), 21, 50, 1 << 16).run();
    let mut reasons = [0u64; 3];
    out.sink.visit(|r| {
        if let TraceEvent::FrontFlush {
            reason, zero_copy, ..
        } = r.event
        {
            reasons[reason as usize] += 1;
            assert!(
                !zero_copy,
                "2-page batches sit below the crossover: DMA territory"
            );
        }
    });
    assert_eq!(
        reasons[FlushReason::Size as usize],
        0,
        "never reaches 8 pages"
    );
    assert!(reasons[FlushReason::Timer as usize] > 0, "timers must fire");

    // Fast: large requests pile up pages before any timer expires.
    let fast = Knobs {
        mean_gap_ns: 200,
        max_request_pages: 6,
        max_delay_ns: 10_000_000,
        ..Knobs::default()
    };
    let out = Frontend::new(service(&fast), 21, 200, 1 << 18).run();
    let mut size_flushes = 0u64;
    let mut zero_copy_size_flushes = 0u64;
    out.sink.visit(|r| {
        if let TraceEvent::FrontFlush {
            reason: FlushReason::Size,
            pages,
            zero_copy,
            ..
        } = r.event
        {
            size_flushes += 1;
            assert!(pages >= 8, "a size flush crossed the 8-page crossover");
            zero_copy_size_flushes += u64::from(zero_copy);
        }
    });
    assert!(size_flushes > 0, "dense arrivals must hit the size trigger");
    assert_eq!(
        size_flushes, zero_copy_size_flushes,
        "every size flush is zero-copy by definition of the crossover"
    );
}

#[test]
fn deferred_requests_pay_their_queueing_delay_in_latency() {
    let knobs = Knobs {
        mean_gap_ns: 300,
        defer_threshold: 2,
        shed_threshold: 40,
        ..Knobs::default()
    };
    let out = Frontend::new(service(&knobs), 31, 400, 1 << 19).run();
    let batch = out.report.class(SloClass::Batch).expect("batch ran");
    let interactive = out
        .report
        .class(SloClass::Interactive)
        .expect("interactive ran");
    assert!(batch.defers > 0, "scenario must defer batch requests");
    assert!(
        batch.defers >= 10 * interactive.defers.max(1),
        "deferrals must overwhelmingly land on batch \
         (batch {} vs interactive {})",
        batch.defers,
        interactive.defers
    );
    // Deferred requests carry their queueing delay into the latency
    // sample, so the deferred class's tail must stretch past the
    // never-deferred class's.
    let batch_p999 = batch.p999_ns().expect("completions");
    let interactive_p999 = interactive.p999_ns().expect("completions");
    assert!(
        batch_p999 > interactive_p999,
        "queueing should stretch the deferred class's tail \
         (batch p999 {batch_p999}, interactive p999 {interactive_p999})"
    );
}

#[test]
#[should_panic(expected = "tier-1 (64 pages) is narrower than the widest access (66 pages)")]
fn a_flush_wider_than_tier1_is_rejected_at_construction() {
    // Seven pages short of the crossover plus one 59-page request.
    let knobs = Knobs {
        max_request_pages: 59,
        ..Knobs::default()
    };
    Frontend::new(service(&knobs), 1, 1, 16);
}
