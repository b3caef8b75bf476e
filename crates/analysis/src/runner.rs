//! One-call execution of any workload on any system, with the paired
//! comparisons every figure reports.

use gmt_baselines::{Bam, BamConfig, Hmm, HmmConfig};
use gmt_core::{Gmt, GmtConfig, PolicyKind, TieringMetrics};
use gmt_gpu::{Executor, ExecutorConfig};
use gmt_mem::TierGeometry;
use gmt_sim::Dur;
use gmt_ssd::SsdStats;
use gmt_workloads::Workload;

/// The systems the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// BaM (Qureshi et al.): GPU-orchestrated, 2 tiers.
    Bam,
    /// Linux HMM: CPU-orchestrated, 3 tiers.
    Hmm,
    /// GMT with the given placement policy.
    Gmt(PolicyKind),
}

impl SystemKind {
    /// The display name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Bam => "BaM",
            SystemKind::Hmm => "HMM",
            SystemKind::Gmt(p) => p.name(),
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One workload × system execution.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The workload's name.
    pub workload: String,
    /// The system that ran it.
    pub system: SystemKind,
    /// Simulated execution time.
    pub elapsed: Dur,
    /// Runtime counters.
    pub metrics: TieringMetrics,
    /// SSD device statistics.
    pub ssd: SsdStats,
}

impl RunResult {
    /// Speedup of this run relative to `baseline` (>1 means faster).
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        baseline.elapsed.as_secs_f64() / self.elapsed.as_secs_f64()
    }

    /// This run's SSD I/O operations relative to `baseline`'s.
    pub fn io_ratio_vs(&self, baseline: &RunResult) -> f64 {
        let base = baseline.metrics.ssd_ios().max(1);
        self.metrics.ssd_ios() as f64 / base as f64
    }
}

/// Runs `workload` on `system` over `geometry` and returns the result.
///
/// All systems replay the identical trace (same seed) through the
/// identical executor so results are directly comparable.
///
/// # Examples
///
/// ```
/// use gmt_analysis::runner::{run_system, SystemKind};
/// use gmt_core::PolicyKind;
/// use gmt_mem::TierGeometry;
/// use gmt_workloads::{srad::Srad, Workload, WorkloadScale};
///
/// let w = Srad::with_scale(&WorkloadScale::tiny());
/// let g = TierGeometry::from_total(w.total_pages(), 4.0, 2.0);
/// let bam = run_system(&w, SystemKind::Bam, &g, 1);
/// let gmt = run_system(&w, SystemKind::Gmt(PolicyKind::Reuse), &g, 1);
/// assert!(gmt.speedup_over(&bam) > 0.0);
/// ```
pub fn run_system(
    workload: &dyn Workload,
    system: SystemKind,
    geometry: &TierGeometry,
    seed: u64,
) -> RunResult {
    run_system_with(workload, system, &GmtConfig::new(*geometry), seed)
}

/// Like [`run_system`], but with full control of the GMT configuration
/// (transfer method, bypass threshold, sampler, …). BaM/HMM extract their
/// shared device parameters from the same configuration.
///
/// # Panics
///
/// Panics with the [`gmt_core::ConfigError`]'s message if GMT's Tier-1 is
/// narrower than one of the trace's accesses
/// ([`GmtConfig::check_access_width`]).
pub fn run_system_with(
    workload: &dyn Workload,
    system: SystemKind,
    config: &GmtConfig,
    seed: u64,
) -> RunResult {
    let trace = workload.trace(seed);
    let executor = Executor::new(ExecutorConfig::default());
    let (elapsed, metrics, ssd) = match system {
        SystemKind::Bam => {
            let out = executor.run(Bam::new(BamConfig::from(*config)), trace);
            (out.elapsed, out.backend.metrics(), out.backend.ssd_stats())
        }
        SystemKind::Hmm => {
            let out = executor.run(Hmm::new(HmmConfig::from(*config)), trace);
            (out.elapsed, out.backend.metrics(), out.backend.ssd_stats())
        }
        SystemKind::Gmt(policy) => {
            let out = executor.run(Gmt::new(config.with_policy(policy)), trace);
            (out.elapsed, out.backend.metrics(), out.backend.ssd_stats())
        }
    };
    RunResult {
        workload: workload.name().to_string(),
        system,
        elapsed,
        metrics,
        ssd,
    }
}

/// Derives the geometry for a workload the way the paper does: non-graph
/// workloads are generated *to fill* a geometry, so any consistent pair
/// works; graph workloads are fixed-size, so the geometry is derived from
/// the graph (§3.5). This helper always derives from the workload's
/// actual extent, which covers both cases.
pub fn geometry_for(workload: &dyn Workload, ratio: f64, os: f64) -> TierGeometry {
    TierGeometry::from_total(workload.total_pages(), ratio, os)
}

/// The §3.6 "optimistic HMM" estimate: HMM's execution time if its hit
/// rates were as good as GMT-Reuse's, with I/O time lowered accordingly.
///
/// Every SSD read HMM would have avoided at GMT-Reuse's Tier-2 hit rate
/// is credited back at the SSD/host service-time difference. This is
/// generous to HMM (the paper notes much of that I/O may already overlap
/// compute).
pub fn optimistic_hmm_elapsed(
    hmm: &RunResult,
    gmt_reuse: &RunResult,
    ssd_read: Dur,
    host_read: Dur,
) -> Dur {
    let hmm_misses = hmm.metrics.t1_misses.max(1);
    let reuse_t2_rate = gmt_reuse.metrics.t2_hit_rate();
    let target_ssd_reads = ((1.0 - reuse_t2_rate) * hmm_misses as f64) as u64;
    let avoided = hmm.metrics.ssd_reads.saturating_sub(target_ssd_reads);
    let per_read_saving = ssd_read.saturating_sub(host_read);
    hmm.elapsed.saturating_sub(per_read_saving * avoided)
}

/// Geometric mean of an iterator of positive ratios (how the paper
/// averages per-app speedups).
pub fn geo_mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0f64;
    let mut n = 0u32;
    for v in values {
        assert!(v > 0.0, "geo_mean needs positive values");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (log_sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_workloads::srad::Srad;
    use gmt_workloads::WorkloadScale;

    fn srad_runs() -> (RunResult, RunResult) {
        let w = Srad::with_scale(&WorkloadScale::pages(600));
        let g = geometry_for(&w, 4.0, 2.0);
        let bam = run_system(&w, SystemKind::Bam, &g, 1);
        let gmt = run_system(&w, SystemKind::Gmt(PolicyKind::Reuse), &g, 1);
        (bam, gmt)
    }

    #[test]
    fn gmt_reuse_beats_bam_on_srad() {
        // Srad is the paper's poster child for Tier-2 (133% speedup).
        let (bam, gmt) = srad_runs();
        let speedup = gmt.speedup_over(&bam);
        assert!(
            speedup > 1.2,
            "GMT-Reuse speedup over BaM on Srad: {speedup}"
        );
        assert!(gmt.io_ratio_vs(&bam) < 0.8, "GMT must cut SSD I/O on Srad");
    }

    #[test]
    fn hmm_is_slowest_on_srad() {
        let w = Srad::with_scale(&WorkloadScale::pages(600));
        let g = geometry_for(&w, 4.0, 2.0);
        let bam = run_system(&w, SystemKind::Bam, &g, 1);
        let hmm = run_system(&w, SystemKind::Hmm, &g, 1);
        assert!(
            hmm.speedup_over(&bam) < 1.0,
            "HMM must lose to BaM (paper Fig. 14), got {}",
            hmm.speedup_over(&bam)
        );
    }

    #[test]
    fn optimistic_hmm_is_faster_than_hmm_but_bounded() {
        let w = Srad::with_scale(&WorkloadScale::pages(600));
        let g = geometry_for(&w, 4.0, 2.0);
        let hmm = run_system(&w, SystemKind::Hmm, &g, 1);
        let gmt = run_system(&w, SystemKind::Gmt(PolicyKind::Reuse), &g, 1);
        let opt = optimistic_hmm_elapsed(&hmm, &gmt, Dur::from_micros(130), Dur::from_micros(50));
        assert!(opt <= hmm.elapsed);
        assert!(opt > Dur::ZERO);
    }

    #[test]
    fn geo_mean_basics() {
        assert!((geo_mean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geo_mean(std::iter::empty()), 0.0);
    }

    #[test]
    fn run_results_carry_metrics() {
        let (bam, gmt) = srad_runs();
        assert!(bam.metrics.ssd_reads > 0);
        assert_eq!(bam.metrics.t2_hits, 0);
        assert!(gmt.metrics.t2_hits > 0, "srad must hit tier-2 under GMT");
        assert_eq!(gmt.ssd.reads, gmt.metrics.ssd_reads);
    }
}
