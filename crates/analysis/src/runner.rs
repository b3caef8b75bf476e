//! One-call execution of any workload on any system, with the paired
//! comparisons every figure reports.

#[expect(
    clippy::disallowed_types,
    reason = "the shared slot; see `Recorded::recording`"
)]
use std::sync::{Arc, Mutex};
use std::sync::{MutexGuard, PoisonError};

use gmt_baselines::{Bam, BamConfig, Hmm, HmmConfig};
use gmt_core::{Gmt, GmtConfig, PolicyKind, TieringMetrics};
use gmt_gpu::{Executor, ExecutorConfig, MemoryBackend, RunOutcome};
use gmt_mem::trace::Recording;
use gmt_mem::{TierGeometry, WarpAccess};
use gmt_sim::{Dur, Time};
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
#[derive(Debug, Clone, PartialEq)]
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
    let executor = Executor::new(ExecutorConfig::default());
    let (elapsed, metrics, ssd) = match system {
        SystemKind::Bam => {
            let out = replay(
                &executor,
                Bam::new(BamConfig::from(*config)),
                workload,
                seed,
            );
            (out.elapsed, out.backend.metrics(), out.backend.ssd_stats())
        }
        SystemKind::Hmm => {
            let out = replay(
                &executor,
                Hmm::new(HmmConfig::from(*config)),
                workload,
                seed,
            );
            (out.elapsed, out.backend.metrics(), out.backend.ssd_stats())
        }
        SystemKind::Gmt(policy) => {
            let gmt = Gmt::new(config.with_policy(policy));
            let out = replay(&executor, gmt, workload, seed);
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

/// Replays `workload`'s trace at `seed` through `backend`, an access at a
/// time as the workload hands them out
/// ([`Workload::for_each_access`]), in a closed loop.
pub(crate) fn replay<B: MemoryBackend>(
    executor: &Executor,
    backend: B,
    workload: &dyn Workload,
    seed: u64,
) -> RunOutcome<B> {
    let mut replay = executor.replay(backend);
    workload.for_each_access(seed, &mut |access| replay.issue(Time::ZERO, access));
    replay.finish()
}

/// A workload that generates its trace once per seed and replays it from
/// a [`Recording`] on every later call with that seed.
///
/// A figure replays each app on several systems over one seed, and
/// [`run_system`] asks the workload for its accesses each time. For a
/// graph app, generating them is a traversal of its graph (0.07–0.25 s
/// at the default scale on a 2-core VM). Here [`Workload::for_each_access`]
/// instead decodes the recording in place, with no allocation per
/// access, and [`Workload::trace`] rebuilds the trace's `Vec` from it.
/// The recording holds one seed: a call with another seed generates and
/// records again.
///
/// # Examples
///
/// ```
/// use gmt_analysis::runner::Recorded;
/// use gmt_workloads::{bfs::Bfs, Workload, WorkloadScale};
///
/// let bfs = Recorded::new(Box::new(Bfs::with_scale(&WorkloadScale::tiny())));
/// let first = bfs.trace(1); // generated and recorded
/// assert_eq!(bfs.trace(1), first); // rebuilt from the recording
/// let mut replayed = 0;
/// bfs.for_each_access(1, &mut |_| replayed += 1); // decoded in place
/// assert_eq!(replayed, first.len());
/// assert_eq!(bfs.name(), "BFS");
/// ```
pub struct Recorded {
    inner: Box<dyn Workload>,
    /// The last seed generated, and its recording.
    #[expect(
        clippy::disallowed_types,
        reason = "`Workload` is `Sync`: threads replaying one app share its recording, \
                  and a replay clones the `Arc` so the lock is not held while it runs"
    )]
    recording: Mutex<Option<(u64, Arc<Recording>)>>,
}

impl Recorded {
    /// Wraps `inner`; nothing is generated until the first `trace` call.
    #[expect(
        clippy::disallowed_types,
        reason = "the shared slot; see `Recorded::recording`"
    )]
    pub fn new(inner: Box<dyn Workload>) -> Recorded {
        Recorded {
            inner,
            recording: Mutex::new(None),
        }
    }

    /// `workload` wrapped in a [`Recorded`] if it is one of the graph
    /// apps (BFS, PageRank, SSSP), and unchanged otherwise. The other six
    /// apps generate their traces in a millisecond or less, and their
    /// traces grow with the scale. A graph is capped at 2^20 vertices,
    /// which it reaches at the default scale, so a graph app's recording
    /// never outgrows its default-scale size of 2.2–9.3 MB.
    pub fn graph_app(workload: Box<dyn Workload>) -> Box<dyn Workload> {
        if GRAPH_APPS.contains(&workload.name()) {
            Box::new(Recorded::new(workload))
        } else {
            workload
        }
    }

    /// The recording of `seed`, if it is the one held. The handle is
    /// cloned and the lock released before it is returned, so threads
    /// sharing the workload replay in parallel.
    #[expect(
        clippy::disallowed_types,
        reason = "the shared slot; see `Recorded::recording`"
    )]
    fn recorded(&self, seed: u64) -> Option<Arc<Recording>> {
        self.slot()
            .as_ref()
            .filter(|(recorded_seed, _)| *recorded_seed == seed)
            .map(|(_, recording)| Arc::clone(recording))
    }

    /// Generates the trace of `seed`, records it in place of the one
    /// held, and returns it.
    #[expect(
        clippy::disallowed_types,
        reason = "the shared slot; see `Recorded::recording`"
    )]
    fn record(&self, seed: u64) -> Vec<WarpAccess> {
        let trace = self.inner.trace(seed);
        *self.slot() = Some((seed, Arc::new(Recording::new(&trace))));
        trace
    }

    #[expect(
        clippy::disallowed_types,
        reason = "the shared slot; see `Recorded::recording`"
    )]
    fn slot(&self) -> MutexGuard<'_, Option<(u64, Arc<Recording>)>> {
        // The slot is written whole, so a panic elsewhere cannot leave it
        // half-updated.
        self.recording
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// The names of the graph apps, whose traces [`Recorded::graph_app`]
/// records.
const GRAPH_APPS: [&str; 3] = ["BFS", "PageRank", "SSSP"];

impl Workload for Recorded {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn total_pages(&self) -> usize {
        self.inner.total_pages()
    }

    fn trace(&self, seed: u64) -> Vec<WarpAccess> {
        match self.recorded(seed) {
            Some(recording) => recording.to_trace(),
            None => self.record(seed),
        }
    }

    fn for_each_access(&self, seed: u64, visit: &mut dyn FnMut(&WarpAccess)) {
        match self.recorded(seed) {
            Some(recording) => recording.for_each(visit),
            None => self.record(seed).iter().for_each(visit),
        }
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
    use gmt_workloads::{non_graph_suite, suite, WorkloadScale};

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
    fn recorded_returns_the_inner_trace_across_seed_switches() {
        let scale = WorkloadScale::tiny();
        for (plain, wrapped) in suite(&scale).into_iter().zip(suite(&scale)) {
            let recorded = Recorded::new(wrapped);
            assert_eq!(recorded.name(), plain.name());
            assert_eq!(recorded.total_pages(), plain.total_pages());
            let (one, two) = (plain.trace(1), plain.trace(2));
            for (step, seed, want) in [
                ("first call", 1, &one),
                ("repeat", 1, &one),
                ("switch to seed 2", 2, &two),
                ("repeat at seed 2", 2, &two),
                ("switch back to seed 1", 1, &one),
                ("repeat after switching back", 1, &one),
            ] {
                assert_eq!(&recorded.trace(seed), want, "{}: {step}", plain.name());
            }
        }
    }

    #[test]
    fn recorded_runs_equal_plain_runs() {
        let scale = WorkloadScale::pages(600);
        for (plain, wrapped) in suite(&scale).into_iter().zip(suite(&scale)) {
            let recorded = Recorded::new(wrapped);
            let g = geometry_for(plain.as_ref(), 4.0, 2.0);
            for system in [
                SystemKind::Bam,
                SystemKind::Hmm,
                SystemKind::Gmt(PolicyKind::Reuse),
            ] {
                assert_eq!(
                    run_system(&recorded, system, &g, 3),
                    run_system(plain.as_ref(), system, &g, 3),
                    "{} on {system}",
                    plain.name()
                );
            }
        }
    }

    #[test]
    fn only_graph_apps_are_recorded() {
        let scale = WorkloadScale::tiny();
        let regular: Vec<_> = non_graph_suite(&scale).iter().map(|w| w.name()).collect();
        for w in suite(&scale) {
            let name = w.name();
            assert_eq!(
                GRAPH_APPS.contains(&name),
                !regular.contains(&name),
                "{name}"
            );
            let pages = w.total_pages();
            let w = Recorded::graph_app(w);
            assert_eq!((w.name(), w.total_pages()), (name, pages));
        }
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
