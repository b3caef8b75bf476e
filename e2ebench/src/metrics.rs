//! Metric names and units, small statistics helpers and the result line.
//!
//! Every metric a workload can report is listed here once, with its unit.
//! A run prints every end-to-end metric (`--trace 0`) or every per-layer
//! metric (`--trace 1`); a metric a workload does not exercise reads 0.

use std::collections::BTreeMap;

use gmt_core::TieringMetrics;
use gmt_sim::stats::Histogram;
use gmt_sim::trace::{TraceEvent, TraceRecord};

use crate::check::Tally;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("touches_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("sim_time_s", "sim_s"),
    ("sim_ssd_ios", "count"),
];

/// Per-layer metrics (layer = crate): `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("workloads.trace_s", "s"),
    ("workloads.accesses", "count"),
    ("workloads.touches", "count"),
    ("workloads.write_frac", "frac"),
    ("baselines.build_s", "s"),
    ("baselines.bam_access_s", "s"),
    ("baselines.hmm_access_s", "s"),
    ("baselines.bam_ns_per_touch", "ns"),
    ("gpu.self_s", "s"),
    ("gpu.ns_per_access", "ns"),
    ("core.build_s", "s"),
    ("core.access_s", "s"),
    ("core.ns_per_touch", "ns"),
    ("core.t2_hit_rate", "frac"),
    ("core.wasteful_lookup_rate", "frac"),
    ("core.tier2_fetch_p99_us", "us"),
    ("core.ssd_fetch_p99_us", "us"),
    ("mem.t1_hit_rate", "frac"),
    ("mem.t1_evictions", "count"),
    ("mem.t2_placements", "count"),
    ("mem.discards", "count"),
    ("reuse.predictions", "count"),
    ("reuse.prediction_accuracy", "frac"),
    ("reuse.short_reuse_keeps", "count"),
    ("reuse.forced_t2_placements", "count"),
    ("ssd.reads", "count"),
    ("ssd.writes", "count"),
    ("ssd.t2_writebacks", "count"),
    ("ssd.queue_depth_p99", "count"),
    ("ssd.ring_depth_p99", "count"),
    ("pcie.batches", "count"),
    ("pcie.bytes", "B"),
    ("pcie.zero_copy_frac", "frac"),
    ("pcie.batch_latency_p99_us", "us"),
    ("frontend.run_s", "s"),
    ("frontend.requests", "count"),
    ("frontend.defer_frac", "frac"),
    ("frontend.shed_frac", "frac"),
    ("frontend.zero_copy_flush_frac", "frac"),
    ("frontend.interactive_p99_ms", "ms"),
    ("frontend.batch_p99_ms", "ms"),
    ("frontend.slo_violation_frac", "frac"),
    ("serve.accesses", "count"),
    ("serve.t1_hit_rate", "frac"),
    ("sim.trace_records", "count"),
    ("sim.trace_dropped", "count"),
    ("sim.trace_drain_s", "s"),
    ("sim.trace_export_s", "s"),
    ("sim.export_bytes", "B"),
    ("analysis.fold_s", "s"),
    ("bench.untraced_run_s", "s"),
    ("bench.traced_run_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.span_coverage_frac", "frac"),
    ("bench.trace_overhead_frac", "frac"),
];

/// The values one run measured, keyed by metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under `name`, which must be listed in
    /// [`END_TO_END`] or [`PER_LAYER`].
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Prints `table`'s metrics one per line with their units.
    pub fn print(&self, table: &[(&str, &str)]) {
        for (name, unit) in table {
            println!(
                "  {name:<32} {:>18} {unit}",
                format!("{}", self.get(name).unwrap_or(0.0))
            );
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of `table`.
    pub fn result_json(&self, table: &[(&str, &str)], tally: &Tally) -> String {
        let body: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed == 0,
            tally.attempted,
            tally.failed,
            body.join(", ")
        )
    }
}

/// Records the counters every GMT-side run exposes (`core`, `mem`,
/// `reuse` and the `ssd` array counts).
pub fn put_gmt_counters(m: &mut Metrics, gmt: &TieringMetrics) {
    m.put("core.t2_hit_rate", gmt.t2_hit_rate());
    m.put("core.wasteful_lookup_rate", gmt.wasteful_lookup_rate());
    m.put("mem.t1_hit_rate", gmt.t1_hit_rate());
    m.put("mem.t1_evictions", gmt.t1_evictions as f64);
    m.put("mem.t2_placements", gmt.t2_placements as f64);
    m.put("mem.discards", gmt.discards as f64);
    m.put("reuse.predictions", gmt.predictions as f64);
    m.put("reuse.prediction_accuracy", gmt.prediction_accuracy());
    m.put("reuse.short_reuse_keeps", gmt.short_reuse_keeps as f64);
    m.put(
        "reuse.forced_t2_placements",
        gmt.forced_t2_placements as f64,
    );
    m.put("ssd.reads", gmt.ssd_reads as f64);
    m.put("ssd.writes", gmt.ssd_writes as f64);
    m.put("ssd.t2_writebacks", gmt.t2_writebacks as f64);
}

/// Records the benchmark's own coverage and overhead figures.
pub fn put_bench(m: &mut Metrics, untraced_s: f64, traced_s: f64, covered_s: f64) {
    m.put("bench.untraced_run_s", untraced_s);
    m.put("bench.traced_run_s", traced_s);
    m.put("bench.unattributed_s", traced_s - covered_s);
    m.put("bench.span_coverage_frac", ratio(covered_s, traced_s));
    m.put("bench.trace_overhead_frac", traced_s / untraced_s - 1.0);
    let coverage = ratio(covered_s, traced_s);
    if coverage < 0.9 {
        println!(
            "warning: spans cover {:.1}% of traced run_s (< 90%)",
            coverage * 100.0
        );
    }
}

/// `PcieBatch` events folded.
#[derive(Debug, Default)]
pub struct PcieCounts {
    batches: u64,
    bytes: u64,
    zero_copy: u64,
    latency_ns: Vec<u64>,
}

impl PcieCounts {
    /// Folds one record in; other events are skipped.
    pub fn observe(&mut self, r: &TraceRecord) {
        if let TraceEvent::PcieBatch {
            bytes,
            zero_copy,
            latency_ns,
            ..
        } = r.event
        {
            self.batches += 1;
            self.bytes += bytes;
            self.zero_copy += u64::from(zero_copy);
            self.latency_ns.push(latency_ns);
        }
    }

    /// Records the `pcie` layer's metrics.
    pub fn put(&mut self, m: &mut Metrics) {
        m.put("pcie.batches", self.batches as f64);
        m.put("pcie.bytes", self.bytes as f64);
        m.put(
            "pcie.zero_copy_frac",
            ratio(self.zero_copy as f64, self.batches as f64),
        );
        m.put(
            "pcie.batch_latency_p99_us",
            percentile(&mut self.latency_ns, 99.0) / 1e3,
        );
    }
}

/// Median of `samples` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Prints how `samples` of `what` spread.
pub fn describe(what: &str, samples: &[f64]) {
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(0.0, f64::max);
    println!(
        "{what}: median {:.6} s, min {min:.6} s, max {max:.6} s over {} passes",
        median(samples),
        samples.len()
    );
}

/// Times `setup` in `reps` timings of `batch` back-to-back calls each and
/// returns the per-call median in seconds, with the last call's result.
///
/// # Panics
///
/// Panics if `reps` or `batch` is zero.
pub fn time_setup<T>(reps: usize, batch: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    assert!(reps > 0 && batch > 0, "time at least one set-up");
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let start = std::time::Instant::now();
        for _ in 0..batch {
            last = Some(setup());
        }
        samples.push(start.elapsed().as_secs_f64() / batch as f64);
    }
    (median(&samples), last.expect("reps > 0"))
}

/// Index of the median sample (the lower middle one for an even count).
pub fn median_index(samples: &[f64]) -> usize {
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by(|&a, &b| samples[a].total_cmp(&samples[b]));
    order[(samples.len() - 1) / 2]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Exact distribution of small non-negative integers (queue depths).
#[derive(Debug, Default, Clone)]
pub struct DepthHistogram {
    counts: Vec<u64>,
}

impl DepthHistogram {
    /// Records one sample.
    pub fn record(&mut self, depth: u32) {
        let d = depth as usize;
        if self.counts.len() <= d {
            self.counts.resize(d + 1, 0);
        }
        self.counts[d] += 1;
    }

    /// Nearest-rank `p`-th percentile, 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let n: u64 = self.counts.iter().sum();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (depth, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return depth as f64;
            }
        }
        (self.counts.len() - 1) as f64
    }
}

/// Nearest-rank `p`-th percentile of `samples`, 0 when empty. Sorts in
/// place.
pub fn percentile(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)] as f64
}

/// `p`-th percentile of a log2-bucketed [`Histogram`], interpolating
/// uniformly inside the bucket that holds the rank (so it is exact only
/// to within a factor of two). 0 when empty.
pub fn histogram_percentile(h: &Histogram, p: f64) -> f64 {
    let n = h.count();
    let Some(max) = h.max() else { return 0.0 };
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (lo, c) in h.buckets() {
        if seen + c >= rank {
            let hi = if lo == 0 { 2 } else { lo * 2 };
            let within = (rank - seen) as f64 / c as f64;
            return (lo as f64 + within * (hi - lo) as f64).min(max as f64);
        }
        seen += c;
    }
    max as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_index(&[5.0, 1.0, 3.0]), 2);
        let mut samples: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut samples, 99.0), 99.0);
        let mut depths = DepthHistogram::default();
        for d in 0..100 {
            depths.record(d);
        }
        assert_eq!(depths.percentile(99.0), 98.0);
        assert_eq!(DepthHistogram::default().percentile(99.0), 0.0);
        let mut h = Histogram::new();
        for v in [100u64; 99].into_iter().chain([1000]) {
            h.record(v);
        }
        let p99 = histogram_percentile(&h, 99.0);
        assert!((64.0..=128.0).contains(&p99), "{p99}");
        assert_eq!(histogram_percentile(&h, 100.0), 1000.0);
    }

    #[test]
    fn result_line_lists_every_metric_of_its_table() {
        let mut m = Metrics::default();
        m.put("run_s", 1.25);
        let tally = Tally {
            attempted: 3,
            ..Tally::default()
        };
        let line = m.result_json(END_TO_END, &tally);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")), "{name} missing");
        }
        assert!(!line.contains("core."), "per-layer metrics stay out");
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        Metrics::default().put("nope", 1.0);
    }
}
