//! The committed hot-path benchmark harness behind `BENCH_hotpath.json`.
//!
//! Every PR regenerates `BENCH_hotpath.json` at the repo root with the
//! `hotpath` binary, committing the events/sec trajectory of the
//! simulator's hottest paths (ROADMAP item 1). Scenarios are fixed —
//! fixed seeds, fixed workload shapes — so the only thing that moves
//! between PRs is the implementation under test:
//!
//! | Scenario | Hot path exercised |
//! |---|---|
//! | `serve_sweep` | the `serve_isolation` sweep: multi-tenant replay, clocks, sampler, trace ring, report |
//! | `replay_gmt` / `replay_bam` / `replay_hmm` | single-tenant executor replay per system |
//! | `trace_export` | trace ring fill + JSONL/CSV export |
//! | `event_calendar` | `EventQueue` schedule/cancel/pop storm |
//! | `page_structures` | `ClockList`/`FifoCache`/`Tier2Cache` churn |
//! | `frontend_slo` | online front-end: seeded arrivals, admission, Fig. 6 batching, SLO grading |
//!
//! Wall time is host time (this crate is outside the D1 no-wall-clock
//! boundary); *event counts* are purely virtual and must be identical
//! across runs of the same mode — the harness asserts it across reps
//! and `cargo test` asserts it across whole-suite runs.

use std::time::Instant;

use gmt_mem::{ClockList, FifoCache, PageId};
use gmt_sim::events::EventQueue;
use gmt_sim::trace::{self, TierTag, TraceEvent, TraceSink};
use gmt_sim::Time;
use gmt_workloads::srad::Srad;
use gmt_workloads::synthetic::ZipfLoop;
use gmt_workloads::WorkloadScale;
use rand::Rng;

use gmt_analysis::runner::{geometry_for, run_system, SystemKind};
use gmt_core::PolicyKind;
use gmt_serve::ServeOutcome;

use crate::serving;

/// Schema tag written into (and expected from) `BENCH_hotpath.json`.
pub const SCHEMA: &str = "gmt-bench-hotpath/1";

/// Default regression tolerance for [`check_regression`]: fail when a
/// scenario delivers less than 80 % of the committed events/sec.
pub const DEFAULT_TOLERANCE: f64 = 0.20;

/// Benchmark scale: `Full` is what `BENCH_hotpath.json` commits; `Quick`
/// is the CI smoke / `cargo test` scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Committed scale.
    Full,
    /// Smoke-test scale.
    Quick,
}

impl Mode {
    /// The string written into the JSON `mode` field.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::Quick => "quick",
        }
    }
}

/// One measured scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Stable scenario name (JSON key, `--check` join key).
    pub name: &'static str,
    /// Seed the scenario ran under.
    pub seed: u64,
    /// Timed repetitions (best-of wall time is reported).
    pub reps: u32,
    /// Virtual events processed per repetition — identical across reps
    /// by construction (asserted).
    pub events: u64,
    /// Best-of-reps wall time, nanoseconds.
    pub wall_ns: u64,
    /// `events / wall`, the committed throughput figure.
    pub events_per_sec: f64,
}

/// Runs `body` `reps` times, asserting the virtual event count is
/// identical every time, and keeps the best wall time.
fn timed(
    name: &'static str,
    seed: u64,
    reps: u32,
    mut body: impl FnMut() -> u64,
) -> ScenarioResult {
    assert!(reps > 0, "at least one repetition");
    let mut best_ns = u64::MAX;
    let mut events = 0u64;
    for rep in 0..reps {
        let start = Instant::now();
        let e = body();
        let ns = (start.elapsed().as_nanos() as u64).max(1);
        assert!(e > 0, "{name}: scenario produced no events");
        if rep == 0 {
            events = e;
        } else {
            assert_eq!(e, events, "{name}: event count drifted across reps");
        }
        best_ns = best_ns.min(ns);
    }
    ScenarioResult {
        name,
        seed,
        reps,
        events,
        wall_ns: best_ns,
        events_per_sec: events as f64 / (best_ns as f64 / 1e9),
    }
}

/// Page-touch decisions made by one serve run: every warp access plus
/// every per-page tiering decision distilled from the counters.
fn serve_events(out: &ServeOutcome) -> u64 {
    let m = &out.aggregate;
    out.accesses + m.t1_hits + m.t1_misses + m.t2_hits + m.t1_evictions
}

/// The isolation sweep of [`serving::isolation`]: the Zipf protagonist
/// solo, then against the scan antagonist under all four partitioning
/// policies.
fn serve_sweep(mode: Mode, seed: u64, reps: u32) -> ScenarioResult {
    let (zipf_accesses, scan_passes) = match mode {
        Mode::Full => (6_000, 132),
        Mode::Quick => (1_200, 26),
    };
    timed("serve_sweep", seed, reps, || {
        let sweep = serving::isolation(zipf_accesses, scan_passes, seed);
        let paired = sweep.paired.iter().map(|(_, out)| serve_events(out));
        serve_events(&sweep.solo) + paired.sum::<u64>()
    })
}

/// Single-tenant replay of the Srad workload on one system.
fn replay(
    name: &'static str,
    system: SystemKind,
    mode: Mode,
    seed: u64,
    reps: u32,
) -> ScenarioResult {
    let pages = match mode {
        Mode::Full => 2_000,
        Mode::Quick => 500,
    };
    let workload = Srad::with_scale(&WorkloadScale::pages(pages));
    let geometry = geometry_for(&workload, 4.0, 2.0);
    timed(name, seed, reps, || {
        let r = run_system(&workload, system, &geometry, seed);
        r.metrics.accesses + r.metrics.t1_hits + r.metrics.t1_misses + r.metrics.t1_evictions
    })
}

/// Fills a bounded ring with a representative event mix, then exports
/// JSONL and CSV — the byte-deterministic paths the golden tests pin.
fn trace_export(mode: Mode, seed: u64, reps: u32) -> ScenarioResult {
    let records = match mode {
        Mode::Full => 400_000usize,
        Mode::Quick => 40_000,
    };
    timed("trace_export", seed, reps, || {
        let sink = TraceSink::bounded(records);
        let mut vt = 0u64;
        for i in 0..records as u64 {
            vt += 1;
            sink.set_vt(vt);
            let at = Time::from_nanos(i * 3);
            match i % 5 {
                0 => sink.emit(at, TraceEvent::Tier1Hit { page: i % 4096 }),
                1 => sink.emit(
                    at,
                    TraceEvent::Tier1Miss {
                        page: i % 4096,
                        resident: TierTag::Host,
                    },
                ),
                2 => sink.emit(
                    at,
                    TraceEvent::Tier1Fill {
                        page: i % 4096,
                        source: TierTag::Ssd,
                        ready_ns: i * 3 + 900,
                    },
                ),
                3 => sink.emit(
                    at,
                    TraceEvent::Eviction {
                        page: i % 4096,
                        predicted: Some(TierTag::Host),
                        target: TierTag::Host,
                        dirty: i % 2 == 0,
                    },
                ),
                _ => sink.emit(
                    at,
                    TraceEvent::Tier2Place {
                        page: i % 4096,
                        dirty: i % 2 == 1,
                    },
                ),
            }
        }
        let snapshot = sink.drain();
        assert_eq!(snapshot.len(), records);
        let jsonl = trace::to_jsonl(&snapshot);
        let csv = trace::to_csv(&snapshot);
        // Count: one emit + one JSONL line + one CSV line per record.
        (records * 3) as u64 + (jsonl.len() as u64 % 2) + (csv.len() as u64 % 2)
    })
}

/// Schedule/cancel/pop storm on the event calendar.
fn event_calendar(mode: Mode, seed: u64, reps: u32) -> ScenarioResult {
    let ops = match mode {
        Mode::Full => 400_000usize,
        Mode::Quick => 50_000,
    };
    timed("event_calendar", seed, reps, || {
        let mut rng = gmt_sim::rng::seeded(seed ^ 0xCAFE);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut live: Vec<gmt_sim::events::EventId> = Vec::new();
        let mut events = 0u64;
        for i in 0..ops as u64 {
            let at = Time::from_nanos(q.now().as_nanos() + rng.gen_range(0..10_000u64));
            live.push(q.schedule(at, i));
            events += 1;
            if i % 3 == 0 && q.pop().is_some() {
                events += 1;
            }
            if i % 7 == 0 && !live.is_empty() {
                let pick = rng.gen_range(0..live.len());
                let id = live.swap_remove(pick);
                if q.cancel(id) {
                    events += 1;
                }
            }
        }
        while q.pop().is_some() {
            events += 1;
        }
        events
    })
}

/// Tier-structure churn: a Zipf page stream hammering the Tier-1 clock
/// and the Tier-2 FIFO directly, without the executor in the way — the
/// purest view of the page-lookup/eviction data layout.
fn page_structures(mode: Mode, seed: u64, reps: u32) -> ScenarioResult {
    let touches = match mode {
        Mode::Full => 2_000_000usize,
        Mode::Quick => 200_000,
    };
    const CAP: usize = 1 << 12;
    const SPACE: u64 = 1 << 14;
    timed("page_structures", seed, reps, || {
        let zipf = gmt_sim::Zipf::new(SPACE, 0.9);
        let mut rng = gmt_sim::rng::seeded(seed ^ 0xBEEF);
        let mut clock = ClockList::new(CAP);
        let mut fifo = FifoCache::new(CAP);
        let mut events = 0u64;
        for _ in 0..touches {
            let page = PageId(zipf.sample(&mut rng));
            if !clock.touch(page) {
                // A Tier-1 miss: promote from the FIFO if present, then
                // install, spilling the clock victim into the FIFO.
                if fifo.remove(page) {
                    events += 1;
                }
                if clock.is_full() {
                    let victim = clock.replace_candidate(page);
                    if fifo.insert_evicting(victim).is_some() {
                        events += 1;
                    }
                } else {
                    clock.insert(page);
                }
            }
            events += 2;
        }
        events
    })
}

/// The online serving front-end end to end: seeded arrivals through
/// admission control, Fig. 6 batching and SLO-graded completion over
/// the tiered hierarchy. The service is [`serving::frontend_service`]
/// with e2ebench `serve_frontend`'s tenants: its batch tenant is a Zipf
/// loop, where the `frontend_slo` capture's scans.
fn frontend_slo(mode: Mode, seed: u64, reps: u32) -> ScenarioResult {
    let requests_per_conn: u32 = match mode {
        Mode::Full => 8_000,
        Mode::Quick => 1_600,
    };
    timed("frontend_slo", seed, reps, || {
        let batch = ZipfLoop::new(&WorkloadScale::pages(512), 1.0, 0.05, 1);
        let service = serving::frontend_service(Box::new(batch));
        let out = gmt_frontend::Frontend::new(
            service,
            seed ^ 0xF10,
            requests_per_conn,
            serving::TRACE_CAPACITY,
        )
        .run();
        let m = &out.aggregate;
        let decisions: u64 = out
            .report
            .classes
            .iter()
            .map(|s| s.admits + s.defers + s.sheds)
            .sum();
        out.generated + decisions + m.accesses + m.t1_hits + m.t1_misses + m.t1_evictions
    })
}

/// Runs the whole suite in `mode`; order is the committed JSON order.
pub fn run_suite(mode: Mode, seed: u64) -> Vec<ScenarioResult> {
    let reps = match mode {
        Mode::Full => 3,
        Mode::Quick => 2,
    };
    vec![
        serve_sweep(mode, seed, reps),
        replay(
            "replay_gmt",
            SystemKind::Gmt(PolicyKind::Reuse),
            mode,
            seed,
            reps,
        ),
        replay("replay_bam", SystemKind::Bam, mode, seed, reps),
        replay("replay_hmm", SystemKind::Hmm, mode, seed, reps),
        trace_export(mode, seed, reps),
        event_calendar(mode, seed, reps),
        page_structures(mode, seed, reps),
        frontend_slo(mode, seed, reps),
    ]
}

/// A `(name, events, events_per_sec)` row parsed from a committed file.
#[derive(Debug, Clone, PartialEq)]
pub struct CommittedScenario {
    /// Scenario name.
    pub name: String,
    /// Committed event count.
    pub events: u64,
    /// Committed throughput.
    pub events_per_sec: f64,
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

fn extract_num(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses the scenario rows out of a `BENCH_hotpath.json` document
/// (one scenario object per line — the format [`render_json`] writes).
/// Rows inside the `"baseline"` block are skipped.
pub fn parse_scenarios(doc: &str) -> Vec<CommittedScenario> {
    let mut out = Vec::new();
    let mut in_baseline = false;
    for line in doc.lines() {
        if line.contains("\"baseline\":") {
            in_baseline = true;
        }
        if in_baseline && line.trim_start().starts_with(']') {
            in_baseline = false;
            continue;
        }
        if in_baseline {
            continue;
        }
        let (Some(name), Some(events), Some(eps)) = (
            extract_str(line, "name"),
            extract_num(line, "events"),
            extract_num(line, "events_per_sec"),
        ) else {
            continue;
        };
        out.push(CommittedScenario {
            name,
            events: events as u64,
            events_per_sec: eps,
        });
    }
    out
}

/// Validates a rendered document: schema tag, mode, and well-formed
/// scenario rows with positive counts and rates.
///
/// # Errors
///
/// Returns a description of the first malformed element.
pub fn validate_schema(doc: &str) -> Result<(), String> {
    if !doc.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("missing or wrong schema tag (want {SCHEMA})"));
    }
    if extract_str(doc, "mode").is_none() {
        return Err("missing mode field".into());
    }
    let rows = parse_scenarios(doc);
    if rows.is_empty() {
        return Err("no scenario rows found".into());
    }
    for r in &rows {
        if r.events == 0 {
            return Err(format!("{}: zero events", r.name));
        }
        if !(r.events_per_sec.is_finite() && r.events_per_sec > 0.0) {
            return Err(format!("{}: non-positive events/sec", r.name));
        }
    }
    Ok(())
}

fn render_row(indent: &str, r: &ScenarioResult) -> String {
    format!(
        "{indent}{{\"name\": \"{}\", \"seed\": {}, \"reps\": {}, \"events\": {}, \"wall_ns\": {}, \"events_per_sec\": {:.1}}}",
        r.name, r.seed, r.reps, r.events, r.wall_ns, r.events_per_sec
    )
}

/// Renders the committed JSON document. `baseline` embeds the
/// pre-overhaul numbers (another suite run) plus per-scenario speedups.
pub fn render_json(
    mode: Mode,
    seed: u64,
    results: &[ScenarioResult],
    baseline: Option<(&str, &[CommittedScenario])>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"mode\": \"{}\",\n", mode.name()));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&render_row("    ", r));
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
    if let Some((label, rows)) = baseline {
        out.push_str(",\n");
        out.push_str(&format!(
            "  \"baseline\": {{\n    \"label\": \"{label}\",\n    \"rows\": [\n"
        ));
        for (i, b) in rows.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"scenario\": \"{}\", \"base_events\": {}, \"base_events_per_sec\": {:.1}}}",
                b.name, b.events, b.events_per_sec
            ));
            out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("    ]\n  },\n");
        out.push_str("  \"speedup_vs_baseline\": [\n");
        let mut lines = Vec::new();
        for r in results {
            if let Some(b) = rows.iter().find(|b| b.name == r.name) {
                lines.push(format!(
                    "    {{\"scenario\": \"{}\", \"x\": {:.2}}}",
                    r.name,
                    r.events_per_sec / b.events_per_sec
                ));
            }
        }
        out.push_str(&lines.join(",\n"));
        out.push_str("\n  ]\n");
    } else {
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

/// Compares a fresh suite run against a committed document; a scenario
/// regresses when it delivers less than `1 - tolerance` of the
/// committed events/sec. Event-count drift in the same mode is also an
/// error — counts are virtual and must be deterministic.
///
/// # Errors
///
/// Returns every regressed or drifted scenario, one per line.
pub fn check_regression(
    current: &[ScenarioResult],
    committed_doc: &str,
    tolerance: f64,
) -> Result<(), String> {
    let committed = parse_scenarios(committed_doc);
    if committed.is_empty() {
        return Err("committed document has no scenario rows".into());
    }
    let mut failures = Vec::new();
    for c in &committed {
        let Some(r) = current.iter().find(|r| r.name == c.name) else {
            failures.push(format!("{}: scenario missing from current suite", c.name));
            continue;
        };
        if r.events != c.events {
            failures.push(format!(
                "{}: event count drifted (committed {}, current {})",
                c.name, c.events, r.events
            ));
        }
        let floor = c.events_per_sec * (1.0 - tolerance);
        if r.events_per_sec < floor {
            failures.push(format!(
                "{}: {:.0} events/sec is below {:.0} ({}% tolerance on committed {:.0})",
                c.name,
                r.events_per_sec,
                floor,
                (tolerance * 100.0) as u32,
                c.events_per_sec
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(name: &'static str, events: u64, eps: f64) -> ScenarioResult {
        ScenarioResult {
            name,
            seed: 1,
            reps: 1,
            events,
            wall_ns: (events as f64 / eps * 1e9) as u64,
            events_per_sec: eps,
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let results = [fake("a", 100, 1e6), fake("b", 200, 2.5e7)];
        let doc = render_json(Mode::Quick, 1, &results, None);
        validate_schema(&doc).expect("fresh render validates");
        let rows = parse_scenarios(&doc);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "a");
        assert_eq!(rows[0].events, 100);
        assert!((rows[1].events_per_sec - 2.5e7).abs() < 1.0);
    }

    #[test]
    fn baseline_rows_are_not_parsed_as_current() {
        let results = [fake("a", 100, 1e6)];
        let base = [CommittedScenario {
            name: "a".into(),
            events: 100,
            events_per_sec: 1e5,
        }];
        let doc = render_json(Mode::Full, 1, &results, Some(("pre", &base)));
        let rows = parse_scenarios(&doc);
        assert_eq!(rows.len(), 1, "baseline block must be skipped:\n{doc}");
        assert!((rows[0].events_per_sec - 1e6).abs() < 1.0);
        assert!(doc.contains("\"x\": 10.00"), "speedup row:\n{doc}");
    }

    #[test]
    fn regression_gate_fires_on_slowdown_and_drift() {
        let committed = render_json(Mode::Full, 1, &[fake("a", 100, 1e6)], None);
        let ok = [fake("a", 100, 0.9e6)];
        assert!(check_regression(&ok, &committed, 0.20).is_ok());
        let slow = [fake("a", 100, 0.5e6)];
        assert!(check_regression(&slow, &committed, 0.20).is_err());
        let drift = [fake("a", 99, 1e6)];
        let err = check_regression(&drift, &committed, 0.20).unwrap_err();
        assert!(err.contains("drifted"), "{err}");
    }

    #[test]
    fn schema_validation_rejects_malformed_documents() {
        assert!(validate_schema("{}").is_err());
        let doc = render_json(Mode::Quick, 1, &[fake("a", 100, 1e6)], None);
        assert!(validate_schema(&doc.replace("gmt-bench-hotpath/1", "nope")).is_err());
    }
}
