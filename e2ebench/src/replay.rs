//! `paper_suite` and `gmt_replay`: closed-loop replay of whole
//! applications, as the figure binaries run them.
//!
//! Three kinds of pass run over the same `(application, system)` pairs:
//!
//! * **untraced**: `run_system`, exactly as `fig14` calls it. This is
//!   what `run_s` times.
//! * **traced**: `run_system` taken apart into `Workload::trace`, backend
//!   construction as `run_system_with` does it, and `Executor::run` over a
//!   [`Timed`] wrapper backend, each timed from outside the model crates.
//! * **counting**: the same replay with the program's own decision trace
//!   on (`enable_tracing` / `attach_trace`), each ring folded in place into
//!   queue, ring and PCIe distributions before the next replay.
//!
//! All three must produce the same simulated statistics bit for bit.

use std::time::{Duration, Instant};

use gmt_analysis::runner::{geo_mean, geometry_for, run_system, RunResult, SystemKind};
use gmt_baselines::{Bam, BamConfig, Hmm, HmmConfig};
use gmt_bench::{prepared_suite, Prepared};
use gmt_core::{Gmt, GmtConfig, PolicyKind, TieringMetrics};
use gmt_gpu::{Executor, ExecutorConfig, MemoryBackend};
use gmt_mem::WarpAccess;
use gmt_sim::stats::Histogram;
use gmt_sim::trace::{TraceEvent, TraceRecord, TraceSink};
use gmt_sim::{Dur, Time};
use gmt_ssd::SsdStats;
use gmt_workloads::{non_graph_suite, WorkloadScale};

use crate::check::{self, Tally};
use crate::metrics::{
    self, put_bench, put_gmt_counters, ratio, DepthHistogram, Metrics, PcieCounts,
};
use crate::{Outcome, Plan};

/// Tier-1 pages of `paper_suite`: the figure binaries' default scale.
const PAPER_TIER1: usize = 1024;
/// Tier-1 pages `gmt_replay` sizes its apps for; every app's derived
/// Tier-1 is at least 8192 pages, so page table and clock outgrow L2.
const REPLAY_TIER1: usize = 8600;
/// Tier-1 pages of both suites under [`Plan::quick`].
const QUICK_TIER1: usize = 128;
/// Tier-2:Tier-1 capacity ratio (the paper's default).
const RATIO: f64 = 4.0;
/// Over-subscription: working set ÷ (Tier-1 + Tier-2).
const OVERSUB: f64 = 2.0;
/// Records one counting replay may hold; overflowing it fails the replay.
const COUNTING_CAPACITY: usize = 1 << 26;
/// Applications whose trace reads the seed. The three RMAT graphs use
/// fixed seeds and the other generators ignore it.
pub const SEEDED_APPS: [&str; 2] = ["lavaMD", "SSSP"];

const GMT_REUSE: SystemKind = SystemKind::Gmt(PolicyKind::Reuse);

/// The two replay workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// Fig. 14: the nine Table-2 apps on BaM, HMM and GMT-Reuse.
    Paper,
    /// GMT-Reuse alone on the six non-graph apps at a large Tier-1.
    GmtOnly,
}

impl Suite {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Paper => "paper_suite",
            Suite::GmtOnly => "gmt_replay",
        }
    }

    fn systems(self) -> &'static [SystemKind] {
        match self {
            Suite::Paper => &[SystemKind::Bam, SystemKind::Hmm, GMT_REUSE],
            Suite::GmtOnly => &[GMT_REUSE],
        }
    }

    /// Builds the applications and their geometries: everything before
    /// the first simulated access.
    fn setup(self, quick: bool) -> Vec<Prepared> {
        match self {
            Suite::Paper => prepared_suite(
                if quick { QUICK_TIER1 } else { PAPER_TIER1 },
                RATIO,
                OVERSUB,
            ),
            Suite::GmtOnly => {
                let tier1 = if quick { QUICK_TIER1 } else { REPLAY_TIER1 };
                let pages = (tier1 as f64 * (1.0 + RATIO) * OVERSUB).round() as usize;
                non_graph_suite(&WorkloadScale::pages(pages))
                    .into_iter()
                    .map(|workload| {
                        let geometry = geometry_for(workload.as_ref(), RATIO, OVERSUB);
                        Prepared { workload, geometry }
                    })
                    .collect()
            }
        }
    }

    /// Setups timed per end-to-end run, and how many run back to back
    /// inside one timing (so a microsecond setup is still measurable).
    fn setup_reps(self) -> (usize, usize) {
        match self {
            Suite::Paper => (2, 1),
            Suite::GmtOnly => (15, 200),
        }
    }

    /// Passes a run makes even when they outlast `--seconds`.
    fn min_passes(self) -> usize {
        match self {
            Suite::Paper => 1,
            Suite::GmtOnly => 3,
        }
    }

    fn seed_note(self) -> &'static str {
        match self {
            Suite::Paper => {
                "the seed reaches only the lavaMD and SSSP traces; the three RMAT graphs use \
                 fixed seeds (0xB_F5, 0x9A6E, 0x555) and the other generators ignore it, so a \
                 held-out seed checks lavaMD and SSSP only"
            }
            Suite::GmtOnly => {
                "the seed reaches only the lavaMD trace; the other five generators ignore it"
            }
        }
    }
}

/// The simulated statistics of one replay: all of `RunResult` but its
/// names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SimStats {
    elapsed: Dur,
    metrics: TieringMetrics,
    ssd: SsdStats,
}

impl SimStats {
    fn of(r: &RunResult) -> SimStats {
        SimStats {
            elapsed: r.elapsed,
            metrics: r.metrics,
            ssd: r.ssd,
        }
    }

    fn line(&self) -> String {
        format!(
            "elapsed_ns={} {} dev_reads={} dev_writes={} dev_bytes_read={} dev_bytes_written={}",
            self.elapsed.as_nanos(),
            check::metrics_fields(&self.metrics),
            self.ssd.reads,
            self.ssd.writes,
            self.ssd.bytes_read,
            self.ssd.bytes_written
        )
    }

    fn touches(&self) -> u64 {
        self.metrics.t1_hits + self.metrics.t1_misses
    }
}

/// One `(application, system)` replay of a pass.
struct Pair {
    app: usize,
    system: SystemKind,
    label: String,
    /// Whether the committed reference pins this replay at this seed.
    pinned: bool,
}

type PassResults = Vec<Result<SimStats, String>>;

/// Runs `suite` under `plan`.
pub fn run(suite: Suite, plan: &Plan) -> Outcome {
    println!("closed loop: 1024 warp slots, 150 ns of compute per access, decision trace off");
    println!("seed {}: {}", plan.seed, suite.seed_note());
    let mut tally = Tally::default();
    let mut m = Metrics::default();

    let (reps, batch) = if plan.trace {
        (1, 1)
    } else {
        suite.setup_reps()
    };
    let (setup_s, apps) = metrics::time_setup(reps, batch, || suite.setup(plan.quick));
    let min_tier1 = apps
        .iter()
        .map(|p| p.geometry.tier1_pages)
        .min()
        .unwrap_or(0);
    println!(
        "{} applications x {} systems, Tier-1 >= {min_tier1} pages, ratio {RATIO}, \
         over-subscription {OVERSUB}",
        apps.len(),
        suite.systems().len()
    );
    let pairs: Vec<Pair> = apps
        .iter()
        .enumerate()
        .flat_map(|(app, p)| {
            let name = p.workload.name();
            let pinned =
                !plan.quick && (plan.seed == check::DEFAULT_SEED || !SEEDED_APPS.contains(&name));
            suite.systems().iter().map(move |&system| Pair {
                app,
                system,
                label: format!("{name}/{}", system.name()),
                pinned,
            })
        })
        .collect();

    // Untraced passes: the end-to-end measurement. A traced run splits
    // its seconds between these and the traced passes.
    let seconds = if plan.trace {
        plan.seconds / 2.0
    } else {
        plan.seconds
    };
    let mut run_samples = Vec::new();
    let mut first: Option<Vec<Option<SimStats>>> = None;
    let start = Instant::now();
    while run_samples.len() < suite.min_passes() || start.elapsed().as_secs_f64() < seconds {
        let (secs, pass) = untraced_pass(&apps, &pairs, plan.seed);
        run_samples.push(secs);
        judge(suite, &pairs, &pass, first.as_deref(), &mut tally);
        first.get_or_insert_with(|| pass.into_iter().map(Result::ok).collect());
    }
    let first = first.expect("at least one pass ran");
    let reference = pairs
        .iter()
        .zip(&first)
        .filter_map(|(p, s)| s.map(|s| format!("{} {}", p.label, s.line())))
        .collect();
    metrics::describe("untraced run", &run_samples);
    let run_s = metrics::median(&run_samples);
    let all: Vec<SimStats> = first.iter().flatten().copied().collect();
    let gmt: Vec<SimStats> = pairs
        .iter()
        .zip(&first)
        .filter(|(p, _)| p.system == GMT_REUSE)
        .filter_map(|(_, s)| *s)
        .collect();
    let touches: u64 = all.iter().map(SimStats::touches).sum();
    if suite == Suite::Paper {
        print_accuracy(&apps, &pairs, &first);
    }

    if !plan.trace {
        m.put("setup_s", setup_s);
        m.put("run_s", run_s);
        m.put("touches_per_s", touches as f64 / run_s);
        m.put("peak_rss_mib", metrics::peak_rss_mib());
        m.put(
            "sim_time_s",
            gmt.iter().map(|s| s.elapsed.as_secs_f64()).sum(),
        );
        m.put(
            "sim_ssd_ios",
            gmt.iter().map(|s| s.metrics.ssd_ios()).sum::<u64>() as f64,
        );
        return Outcome {
            tally,
            metrics: m,
            reference,
        };
    }

    // Traced passes: the same replays, decomposed and timed by layer.
    let mut traced = Vec::new();
    let start = Instant::now();
    while traced.len() < suite.min_passes() || start.elapsed().as_secs_f64() < seconds {
        let (secs, spans, pass) = traced_pass(&apps, &pairs, plan.seed);
        judge(suite, &pairs, &pass, Some(&first), &mut tally);
        traced.push((secs, spans));
    }
    let traced_samples: Vec<f64> = traced.iter().map(|(s, _)| *s).collect();
    metrics::describe("traced run", &traced_samples);
    let (traced_s, spans) = &traced[metrics::median_index(&traced_samples)];

    // Counting pass: the program's own trace, one ring per replay.
    let mut counts = Counts::default();
    let pass = counting_pass(&apps, &pairs, plan.seed, &mut counts);
    judge(suite, &pairs, &pass, Some(&first), &mut tally);

    let mut gmt_total = TieringMetrics::default();
    for s in &gmt {
        gmt_total.merge(&s.metrics);
    }
    let gmt_touches = (gmt_total.t1_hits + gmt_total.t1_misses) as f64;
    let bam_touches: u64 = pairs
        .iter()
        .zip(&first)
        .filter(|(p, _)| p.system == SystemKind::Bam)
        .filter_map(|(_, s)| s.map(|s| s.touches()))
        .sum();
    let access_s = spans.gmt_access + spans.bam_access + spans.hmm_access;
    m.put("workloads.build_s", setup_s);
    m.put("workloads.trace_s", spans.trace);
    m.put("workloads.accesses", spans.accesses as f64);
    m.put("workloads.touches", touches as f64);
    m.put(
        "workloads.write_frac",
        ratio(spans.writes as f64, spans.accesses as f64),
    );
    m.put("baselines.build_s", spans.baseline_build);
    m.put("baselines.bam_access_s", spans.bam_access);
    m.put("baselines.hmm_access_s", spans.hmm_access);
    m.put(
        "baselines.bam_ns_per_touch",
        ratio(spans.bam_access * 1e9, bam_touches as f64),
    );
    m.put("gpu.self_s", spans.exec - access_s);
    m.put(
        "gpu.ns_per_access",
        ratio((spans.exec - access_s) * 1e9, spans.accesses as f64),
    );
    m.put("core.build_s", spans.core_build);
    m.put("core.access_s", spans.gmt_access);
    m.put(
        "core.ns_per_touch",
        ratio(spans.gmt_access * 1e9, gmt_touches),
    );
    put_gmt_counters(&mut m, &gmt_total);
    m.put(
        "core.tier2_fetch_p99_us",
        metrics::histogram_percentile(&spans.tier2_fetch_ns, 99.0) / 1e3,
    );
    m.put(
        "core.ssd_fetch_p99_us",
        metrics::histogram_percentile(&spans.ssd_fetch_ns, 99.0) / 1e3,
    );
    m.put("ssd.queue_depth_p99", counts.queue_depth.percentile(99.0));
    m.put("ssd.ring_depth_p99", counts.ring_depth.percentile(99.0));
    counts.pcie.put(&mut m);
    let covered = spans.trace + spans.core_build + spans.baseline_build + spans.exec;
    put_bench(&mut m, run_s, *traced_s, covered);
    println!(
        "unattributed: backend teardown (dropping page tables, rings and the consumed \
         trace), RunResult assembly and loop overhead"
    );
    Outcome {
        tally,
        metrics: m,
        reference,
    }
}

/// Checks one pass: the first against the committed reference, later ones
/// against the first.
fn judge(
    suite: Suite,
    pairs: &[Pair],
    pass: &[Result<SimStats, String>],
    first: Option<&[Option<SimStats>]>,
    tally: &mut Tally,
) {
    for (i, (pair, result)) in pairs.iter().zip(pass).enumerate() {
        let verdict = result.clone().and_then(|s| match first {
            None if pair.pinned => check::against_reference(suite.name(), &pair.label, &s.line()),
            None => Ok(()),
            Some(first) if first[i] == Some(s) => Ok(()),
            Some(_) => Err("differs from the first untraced pass".into()),
        });
        tally.record(1, verdict.map_err(|e| format!("{}: {e}", pair.label)));
    }
}

fn untraced_pass(apps: &[Prepared], pairs: &[Pair], seed: u64) -> (f64, PassResults) {
    let start = Instant::now();
    let results = pairs
        .iter()
        .map(|pair| {
            let app = &apps[pair.app];
            check::catch(|| {
                SimStats::of(&run_system(
                    app.workload.as_ref(),
                    pair.system,
                    &app.geometry,
                    seed,
                ))
            })
        })
        .collect();
    (start.elapsed().as_secs_f64(), results)
}

/// Host time of one traced pass, by span.
#[derive(Debug, Default)]
struct Spans {
    trace: f64,
    core_build: f64,
    baseline_build: f64,
    /// `Executor::run`, backend calls included.
    exec: f64,
    gmt_access: f64,
    bam_access: f64,
    hmm_access: f64,
    accesses: u64,
    writes: u64,
    /// Miss-service latencies of the GMT runs (`LatencyBreakdown`).
    tier2_fetch_ns: Histogram,
    ssd_fetch_ns: Histogram,
}

/// A backend wrapper accumulating the host time spent inside `access` and
/// `finish`.
struct Timed<B> {
    inner: B,
    busy: Duration,
}

impl<B: MemoryBackend> MemoryBackend for Timed<B> {
    fn access(&mut self, now: Time, access: &WarpAccess) -> Time {
        let start = Instant::now();
        let ready = self.inner.access(now, access);
        self.busy += start.elapsed();
        ready
    }

    fn finish(&mut self, now: Time) -> Time {
        let start = Instant::now();
        let done = self.inner.finish(now);
        self.busy += start.elapsed();
        done
    }
}

/// What the benchmark reads from each system's backend.
trait Backend: MemoryBackend + Sized {
    /// Construction as `run_system_with` does it.
    fn build(config: GmtConfig) -> Self;
    fn enable_tracing(&mut self, capacity: usize) -> TraceSink;
    fn counters(&self) -> (TieringMetrics, SsdStats);
    /// Checks invariants and collects what only this backend exposes.
    fn inspect(&self, _spans: &mut Spans) -> Result<(), String> {
        Ok(())
    }
}

impl Backend for Bam {
    fn build(config: GmtConfig) -> Bam {
        Bam::new(BamConfig::from(config))
    }
    fn enable_tracing(&mut self, capacity: usize) -> TraceSink {
        Bam::enable_tracing(self, capacity)
    }
    fn counters(&self) -> (TieringMetrics, SsdStats) {
        (self.metrics(), self.ssd_stats())
    }
}

impl Backend for Hmm {
    fn build(config: GmtConfig) -> Hmm {
        Hmm::new(HmmConfig::from(config))
    }
    fn enable_tracing(&mut self, capacity: usize) -> TraceSink {
        Hmm::enable_tracing(self, capacity)
    }
    fn counters(&self) -> (TieringMetrics, SsdStats) {
        (self.metrics(), self.ssd_stats())
    }
}

impl Backend for Gmt {
    fn build(config: GmtConfig) -> Gmt {
        Gmt::new(config)
    }
    fn enable_tracing(&mut self, capacity: usize) -> TraceSink {
        Gmt::enable_tracing(self, capacity)
    }
    fn counters(&self) -> (TieringMetrics, SsdStats) {
        (self.metrics(), self.ssd_stats())
    }
    fn inspect(&self, spans: &mut Spans) -> Result<(), String> {
        let latency = self.latency_breakdown();
        spans.tier2_fetch_ns.merge(&latency.tier2_fetch_ns);
        spans.ssd_fetch_ns.merge(&latency.ssd_fetch_ns);
        self.check_invariants()
    }
}

/// Host time of one traced replay's backend phases.
struct ReplayTimes {
    build: f64,
    exec: f64,
    busy: f64,
    /// The benchmark's own checks, excluded from the pass's run time.
    bench_only: f64,
}

fn timed_replay<B: Backend>(
    config: GmtConfig,
    trace: Vec<WarpAccess>,
    spans: &mut Spans,
) -> (Result<SimStats, String>, ReplayTimes) {
    let t0 = Instant::now();
    let backend = B::build(config);
    let executor = Executor::new(ExecutorConfig::default());
    let t1 = Instant::now();
    let out = executor.run(
        Timed {
            inner: backend,
            busy: Duration::ZERO,
        },
        trace,
    );
    let t2 = Instant::now();
    let (metrics, ssd) = out.backend.inner.counters();
    let t3 = Instant::now();
    let inspected = out.backend.inner.inspect(spans);
    let times = ReplayTimes {
        build: (t1 - t0).as_secs_f64(),
        exec: (t2 - t1).as_secs_f64(),
        busy: out.backend.busy.as_secs_f64(),
        bench_only: t3.elapsed().as_secs_f64(),
    };
    let stats = SimStats {
        elapsed: out.elapsed,
        metrics,
        ssd,
    };
    (inspected.map(|()| stats), times)
}

/// One traced pass; returns its run time (the benchmark's own checks
/// excluded), its spans and its results.
fn traced_pass(apps: &[Prepared], pairs: &[Pair], seed: u64) -> (f64, Spans, PassResults) {
    let mut spans = Spans::default();
    let mut bench_only = 0.0;
    let mut results = Vec::with_capacity(pairs.len());
    let start = Instant::now();
    for pair in pairs {
        let app = &apps[pair.app];
        let result = check::catch(|| {
            let t0 = Instant::now();
            let trace = app.workload.trace(seed);
            let t1 = Instant::now();
            spans.trace += (t1 - t0).as_secs_f64();
            spans.accesses += trace.len() as u64;
            spans.writes += trace.iter().filter(|a| a.write).count() as u64;
            bench_only += t1.elapsed().as_secs_f64();
            let config = GmtConfig::new(app.geometry);
            let (result, times) = match pair.system {
                SystemKind::Bam => timed_replay::<Bam>(config, trace, &mut spans),
                SystemKind::Hmm => timed_replay::<Hmm>(config, trace, &mut spans),
                SystemKind::Gmt(policy) => {
                    timed_replay::<Gmt>(config.with_policy(policy), trace, &mut spans)
                }
            };
            let (build, access) = match pair.system {
                SystemKind::Bam => (&mut spans.baseline_build, &mut spans.bam_access),
                SystemKind::Hmm => (&mut spans.baseline_build, &mut spans.hmm_access),
                SystemKind::Gmt(_) => (&mut spans.core_build, &mut spans.gmt_access),
            };
            *build += times.build;
            *access += times.busy;
            spans.exec += times.exec;
            bench_only += times.bench_only;
            result
        })
        .and_then(|r| r);
        results.push(result);
    }
    (start.elapsed().as_secs_f64() - bench_only, spans, results)
}

/// Distributions folded from the program's own decision traces.
#[derive(Debug, Default)]
struct Counts {
    queue_depth: DepthHistogram,
    ring_depth: DepthHistogram,
    /// PCIe batches of the GMT-side runs.
    pcie: PcieCounts,
}

/// Replays with tracing on into a ring that must not drop a record, then
/// folds every record in place with `fold`.
fn counting_replay<B: Backend>(
    config: GmtConfig,
    trace: Vec<WarpAccess>,
    mut fold: impl FnMut(&TraceRecord),
) -> Result<SimStats, String> {
    let issued = trace.len() as u64;
    let mut backend = B::build(config);
    let sink = backend.enable_tracing(COUNTING_CAPACITY);
    let mut executor = Executor::new(ExecutorConfig::default());
    executor.attach_trace(&sink);
    let out = executor.run(backend, trace);
    let (metrics, ssd) = out.backend.counters();
    let stats = SimStats {
        elapsed: out.elapsed,
        metrics,
        ssd,
    };
    drop(out);
    if sink.dropped() > 0 {
        return Err(format!("trace ring dropped {} records", sink.dropped()));
    }
    let mut warps = 0;
    sink.visit(|r| {
        warps += u64::from(matches!(r.event, TraceEvent::WarpAccess { .. }));
        fold(r);
    });
    if warps != issued {
        return Err(format!("{warps} warp_access records for {issued} accesses"));
    }
    Ok(stats)
}

fn counting_pass(apps: &[Prepared], pairs: &[Pair], seed: u64, counts: &mut Counts) -> PassResults {
    pairs
        .iter()
        .map(|pair| {
            let app = &apps[pair.app];
            check::catch(|| {
                let trace = app.workload.trace(seed);
                let config = GmtConfig::new(app.geometry);
                let system = pair.system;
                let fold = |r: &TraceRecord| match (system, &r.event) {
                    (
                        SystemKind::Gmt(_),
                        TraceEvent::SsdSubmit { queue_depth, .. }
                        | TraceEvent::SsdComplete { queue_depth, .. },
                    ) => counts.queue_depth.record(*queue_depth),
                    (
                        SystemKind::Bam,
                        TraceEvent::RingSubmit { queue_depth, .. }
                        | TraceEvent::RingComplete { queue_depth, .. },
                    ) => counts.ring_depth.record(*queue_depth),
                    (SystemKind::Gmt(_), _) => counts.pcie.observe(r),
                    _ => {}
                };
                match system {
                    SystemKind::Bam => counting_replay::<Bam>(config, trace, fold),
                    SystemKind::Hmm => counting_replay::<Hmm>(config, trace, fold),
                    SystemKind::Gmt(p) => {
                        counting_replay::<Gmt>(config.with_policy(p), trace, fold)
                    }
                }
            })
            .and_then(|r| r)
        })
        .collect()
}

/// Prints the paper's three Fig. 14 comparisons next to what this run
/// simulated.
fn print_accuracy(apps: &[Prepared], pairs: &[Pair], first: &[Option<SimStats>]) {
    let elapsed = |app: usize, system: SystemKind| {
        pairs
            .iter()
            .zip(first)
            .find(|(p, _)| p.app == app && p.system == system)
            .and_then(|(_, s)| s.map(|s| s.elapsed.as_secs_f64()))
    };
    let mut vs_bam = Vec::new();
    let mut vs_hmm = Vec::new();
    let mut hmm_slower = 0;
    for app in 0..apps.len() {
        let (Some(bam), Some(hmm), Some(gmt)) = (
            elapsed(app, SystemKind::Bam),
            elapsed(app, SystemKind::Hmm),
            elapsed(app, GMT_REUSE),
        ) else {
            println!("accuracy: skipped, a replay failed");
            return;
        };
        vs_bam.push(bam / gmt);
        vs_hmm.push(hmm / gmt);
        hmm_slower += usize::from(hmm > bam);
    }
    let (vs_bam, vs_hmm) = (geo_mean(vs_bam), geo_mean(vs_hmm));
    println!("accuracy against the paper (simulated time, every tier starts empty):");
    println!(
        "  GMT-Reuse vs BaM  geo-mean {vs_bam:.2}x  paper 1.50x  error {:+.1}%",
        (vs_bam / 1.50 - 1.0) * 100.0
    );
    println!(
        "  GMT-Reuse vs HMM  geo-mean {vs_hmm:.2}x  paper 4.57x  error {:+.1}%",
        (vs_hmm / 4.57 - 1.0) * 100.0
    );
    println!(
        "  HMM slower than BaM on {hmm_slower}/{} apps  paper {}/{}",
        apps.len(),
        apps.len(),
        apps.len()
    );
}
