//! `serve_frontend`: the online serving front-end (the `frontend_slo`
//! configuration), open loop in simulated time.
//!
//! A pass builds the tenant registry, the tiered service and the
//! front-end (set-up), then runs every connection's stream to completion,
//! which folds the per-class report, drains the decision trace and
//! exports it as JSONL (run). The traced pass times `Frontend::run`,
//! `FrontendReport::from_sink`, `TraceSink::drain` and `trace::to_jsonl`
//! one by one.

use std::time::Instant;

use gmt_core::GmtConfig;
use gmt_frontend::{Frontend, FrontendOutcome, FrontendReport};
use gmt_mem::TierGeometry;
use gmt_serve::{
    ArrivalSchedule, PartitionPolicy, ServeConfig, SloClass, TenantRegistry, TenantSpec,
    TieredService,
};
use gmt_sim::trace::{self, TraceEvent, TraceRecord};
use gmt_workloads::synthetic::ZipfLoop;
use gmt_workloads::WorkloadScale;

use crate::check::{self, Tally};
use crate::metrics::{
    self, put_bench, put_gmt_counters, ratio, DepthHistogram, Metrics, PcieCounts,
};
use crate::{Outcome, Plan};

/// Tier-1 pages shared by the three tenants.
const TIER1_PAGES: usize = 256;
/// Trace ring capacity; a run that overflows it fails.
const TRACE_CAPACITY: usize = 1 << 22;
/// Requests each connection sends.
const REQUESTS_PER_CONN: u32 = 8_000;
/// Requests each connection sends under [`Plan::quick`].
const QUICK_REQUESTS_PER_CONN: u32 = 800;
/// Modelled client connections, assigned round-robin to tenants.
const CONNECTIONS: usize = 6;
/// Passes a run makes even when they outlast `--seconds`.
const MIN_PASSES: usize = 3;
/// Set-up timings per end-to-end run, and set-ups per timing.
const SETUP_REPS: usize = 15;
const SETUP_BATCH: usize = 20;

/// Builds the registry, service and front-end: everything before the
/// first simulated access.
fn build(seed: u64, requests_per_conn: u32) -> Frontend {
    let mut registry = TenantRegistry::new(TIER1_PAGES, PartitionPolicy::SharedQos);
    for (name, pages, slo, floor_pages, weight, tenant_seed) in [
        ("interactive", 192, SloClass::Interactive, 128, 3, 11),
        ("standard", 256, SloClass::Standard, 32, 2, 12),
        ("batch", 512, SloClass::Batch, 0, 1, 13),
    ] {
        registry
            .admit(TenantSpec {
                name: name.into(),
                workload: Box::new(ZipfLoop::new(&WorkloadScale::pages(pages), 1.0, 0.05, 1)),
                arrival: ArrivalSchedule::Uniform { gap_ns: 1 },
                quota_pages: 0,
                weight,
                floor_pages,
                slo,
                seed: tenant_seed,
            })
            .expect("the three tenants fit under SharedQos");
    }
    let mut gmt = GmtConfig::new(TierGeometry::from_tier1(TIER1_PAGES, 2.0, 2.0));
    gmt.frontend.connections = CONNECTIONS;
    gmt.frontend.mean_interarrival_ns = 800_000;
    gmt.frontend.max_request_pages = 12;
    gmt.frontend.max_delay_ns = 30_000;
    gmt.frontend.defer_threshold = 24;
    gmt.frontend.shed_threshold = 96;
    let config = ServeConfig {
        gmt,
        partition: PartitionPolicy::SharedQos,
    };
    let service = TieredService::new(&config, registry).expect("the serving config is valid");
    Frontend::new(service, seed, requests_per_conn, TRACE_CAPACITY)
}

/// One pass's outputs, reduced to what is compared: `(label, fields)`
/// lines for the aggregate and for each class.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Summary {
    lines: Vec<(String, String)>,
    generated: u64,
    shed: u64,
    touches: u64,
    ssd_ios: u64,
    elapsed_ns: u64,
}

fn summarize(out: &FrontendOutcome, records: &[TraceRecord], jsonl: &str) -> Summary {
    let m = &out.aggregate;
    let mut lines = vec![(
        "aggregate".to_string(),
        format!(
            "elapsed_ns={} generated={} shed={} trace_records={} export_bytes={} \
             export_fnv={:016x} {}",
            out.elapsed.as_nanos(),
            out.generated,
            out.shed,
            records.len(),
            jsonl.len(),
            check::fnv1a(jsonl.as_bytes()),
            check::metrics_fields(m)
        ),
    )];
    for s in &out.report.classes {
        lines.push((
            format!("class/{}", s.class.label()),
            format!(
                "admits={} defers={} sheds={} completes={} flushes={} flush_pages={} \
                 zero_copy_flushes={} p50_ns={:?} p99_ns={:?} p999_ns={:?} latency_sum_ns={}",
                s.admits,
                s.defers,
                s.sheds,
                s.completes(),
                s.flushes,
                s.flush_pages,
                s.zero_copy_flushes,
                s.p50_ns(),
                s.p99_ns(),
                s.p999_ns(),
                s.latency_ns.iter().sum::<u64>()
            ),
        ));
    }
    Summary {
        lines,
        generated: out.generated,
        shed: out.shed,
        touches: m.t1_hits + m.t1_misses,
        ssd_ios: m.ssd_ios(),
        elapsed_ns: out.elapsed.as_nanos(),
    }
}

/// Checks one pass: the first against the committed reference (when
/// `pinned`), later ones against the first. Requests shed by admission
/// count as failed.
fn judge(
    result: Result<Summary, String>,
    pinned: bool,
    requests: u32,
    first: &mut Option<Summary>,
    tally: &mut Tally,
) {
    let s = match result {
        Ok(s) => s,
        Err(why) => return tally.record(CONNECTIONS as u64 * u64::from(requests), Err(why)),
    };
    let verdict = match first.as_ref() {
        None if pinned => s.lines.iter().try_for_each(|(label, fields)| {
            check::against_reference("serve_frontend", label, fields)
                .map_err(|e| format!("{label}: {e}"))
        }),
        None => Ok(()),
        Some(f) if *f == s => Ok(()),
        Some(_) => Err("differs from the first untraced pass".into()),
    };
    let clean = verdict.is_ok();
    tally.record(s.generated, verdict);
    if clean && s.shed > 0 {
        tally.fail(s.shed, format!("{} requests shed by admission", s.shed));
    }
    first.get_or_insert(s);
}

/// Host time of one traced pass, by span.
#[derive(Debug, Default, Clone, Copy)]
struct Spans {
    /// `Frontend::run`: front-end, serving runtime, event calendar,
    /// trace emission and one report fold.
    run: f64,
    /// `FrontendReport::from_sink`, repeated outside `Frontend::run`.
    fold: f64,
    drain: f64,
    export: f64,
    total: f64,
}

/// Runs `serve_frontend` under `plan`.
pub fn run(plan: &Plan) -> Outcome {
    let requests = if plan.quick {
        QUICK_REQUESTS_PER_CONN
    } else {
        REQUESTS_PER_CONN
    };
    println!(
        "open loop in simulated time: {CONNECTIONS} connections x {requests} requests, \
         exponential inter-arrival with mean 800 us each (~7,500 req/s offered), \
         three tenants (interactive, standard, batch) on SharedQos"
    );
    println!(
        "seed {}: reaches every connection's arrival gaps, request sizes, page draws and \
         wire chunking",
        plan.seed
    );
    let pinned = !plan.quick && plan.seed == check::DEFAULT_SEED;
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut first: Option<Summary> = None;

    let (setup_s, _) = metrics::time_setup(SETUP_REPS, SETUP_BATCH, || build(plan.seed, requests));
    // A traced run splits its seconds between the untraced and the traced
    // passes.
    let seconds = if plan.trace {
        plan.seconds / 2.0
    } else {
        plan.seconds
    };
    let mut run_samples = Vec::new();
    let mut passes = 0;
    let start = Instant::now();
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        passes += 1;
        let result = check::catch(|| {
            let frontend = build(plan.seed, requests);
            let t1 = Instant::now();
            let out = frontend.run();
            let records = out.sink.drain();
            let jsonl = trace::to_jsonl(&records);
            run_samples.push(t1.elapsed().as_secs_f64());
            summarize(&out, &records, &jsonl)
        });
        judge(result, pinned, requests, &mut first, &mut tally);
    }
    let reference = first
        .as_ref()
        .map(|s| {
            s.lines
                .iter()
                .map(|(label, fields)| format!("{label} {fields}"))
                .collect()
        })
        .unwrap_or_default();
    // A first pass exists only if one succeeded, and it timed its run.
    let Some(summary) = first.clone() else {
        return Outcome {
            tally,
            metrics: m,
            reference,
        };
    };
    metrics::describe("untraced run", &run_samples);
    let run_s = metrics::median(&run_samples);

    if !plan.trace {
        m.put("setup_s", setup_s);
        m.put("run_s", run_s);
        m.put("touches_per_s", summary.touches as f64 / run_s);
        m.put("peak_rss_mib", metrics::peak_rss_mib());
        m.put("sim_time_s", summary.elapsed_ns as f64 / 1e9);
        m.put("sim_ssd_ios", summary.ssd_ios as f64);
        return Outcome {
            tally,
            metrics: m,
            reference,
        };
    }

    let mut traced: Vec<Spans> = Vec::new();
    let mut passes = 0;
    let start = Instant::now();
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        passes += 1;
        let want_layers = traced.is_empty();
        let result = check::catch(|| {
            let frontend = build(plan.seed, requests);
            let t1 = Instant::now();
            let out = frontend.run();
            let t2 = Instant::now();
            let report = FrontendReport::from_sink(&out.sink);
            let t3 = Instant::now();
            let dropped = out.sink.dropped();
            let records = out.sink.drain();
            let t4 = Instant::now();
            let jsonl = trace::to_jsonl(&records);
            let t5 = Instant::now();
            if report.render_json() != out.report.render_json() {
                return Err("a second fold of the ring disagrees with the run's report".into());
            }
            if dropped > 0 {
                return Err(format!("trace ring dropped {dropped} records"));
            }
            if want_layers {
                put_layers(&mut m, &out, &records, jsonl.len(), dropped);
            }
            traced.push(Spans {
                run: (t2 - t1).as_secs_f64(),
                fold: (t3 - t2).as_secs_f64(),
                drain: (t4 - t3).as_secs_f64(),
                export: (t5 - t4).as_secs_f64(),
                total: (t5 - t1).as_secs_f64(),
            });
            Ok(summarize(&out, &records, &jsonl))
        })
        .and_then(|r| r);
        judge(result, pinned, requests, &mut first, &mut tally);
    }
    if traced.is_empty() {
        return Outcome {
            tally,
            metrics: m,
            reference,
        };
    }
    let totals: Vec<f64> = traced.iter().map(|s| s.total).collect();
    metrics::describe("traced run", &totals);
    let spans = traced[metrics::median_index(&totals)];
    m.put("frontend.run_s", spans.run - spans.fold);
    m.put("analysis.fold_s", spans.fold);
    m.put("sim.trace_drain_s", spans.drain);
    m.put("sim.trace_export_s", spans.export);
    put_bench(
        &mut m,
        run_s,
        spans.total,
        spans.run + spans.fold + spans.drain + spans.export,
    );
    println!(
        "frontend.run_s is Frontend::run less analysis.fold_s: the run folds the report once \
         inside, and the benchmark times an identical fold outside; unattributed: clock reads"
    );
    Outcome {
        tally,
        metrics: m,
        reference,
    }
}

/// Records the counts of one front-end run (`frontend`, `serve`, `sim`
/// and the GMT-side layers the serving runtime exercises).
fn put_layers(
    m: &mut Metrics,
    out: &FrontendOutcome,
    records: &[TraceRecord],
    export_bytes: usize,
    dropped: u64,
) {
    let classes = &out.report.classes;
    let generated = out.generated as f64;
    let sum = |f: &dyn Fn(&gmt_analysis::tracesum::SloClassSummary) -> u64| -> f64 {
        classes.iter().map(f).sum::<u64>() as f64
    };
    let p99_ms = |class: SloClass| {
        out.report
            .class(class)
            .and_then(|s| s.p99_ns())
            .map_or(0.0, |ns| ns as f64 / 1e6)
    };
    let violators = sum(&|s| {
        let target = s.class.target_p99_ns();
        s.latency_ns.iter().filter(|&&l| l > target).count() as u64
    });
    m.put("frontend.requests", generated);
    m.put("frontend.defer_frac", ratio(sum(&|s| s.defers), generated));
    m.put("frontend.shed_frac", ratio(out.shed as f64, generated));
    m.put(
        "frontend.zero_copy_flush_frac",
        ratio(sum(&|s| s.zero_copy_flushes), sum(&|s| s.flushes)),
    );
    m.put("frontend.interactive_p99_ms", p99_ms(SloClass::Interactive));
    m.put("frontend.batch_p99_ms", p99_ms(SloClass::Batch));
    m.put(
        "frontend.slo_violation_frac",
        ratio(violators, sum(&|s| s.completes())),
    );
    m.put("serve.accesses", out.aggregate.accesses as f64);
    m.put("serve.t1_hit_rate", out.aggregate.t1_hit_rate());
    m.put("sim.trace_records", records.len() as f64);
    m.put("sim.trace_dropped", dropped as f64);
    m.put("sim.export_bytes", export_bytes as f64);
    put_gmt_counters(m, &out.aggregate);
    let mut depth = DepthHistogram::default();
    let mut pcie = PcieCounts::default();
    for r in records {
        match r.event {
            TraceEvent::SsdSubmit { queue_depth, .. }
            | TraceEvent::SsdComplete { queue_depth, .. } => depth.record(queue_depth),
            _ => pcie.observe(r),
        }
    }
    m.put("ssd.queue_depth_p99", depth.percentile(99.0));
    pcie.put(m);
}
