//! Warm-up timelines: metrics snapshots over the course of one run.
//!
//! The paper argues (§2.1.3) that pipelining regression batches to the
//! CPU "results in better placement for the early part of the execution".
//! Seeing that requires intra-run resolution, which the one-shot runner
//! cannot provide; [`run_gmt_timeline`] replays a trace through the GMT
//! runtime with periodic metric snapshots.

use gmt_core::{Gmt, GmtConfig, TieringMetrics};
use gmt_gpu::{Executor, ExecutorConfig};
use gmt_sim::{Dur, Time};
use gmt_workloads::Workload;

/// One snapshot along a run.
#[derive(Debug, Clone, Copy)]
pub struct TimelinePoint {
    /// Warp accesses completed when the snapshot was taken.
    pub accesses: u64,
    /// Simulated time elapsed at the snapshot.
    pub elapsed: Dur,
    /// Cumulative metrics at the snapshot.
    pub metrics: TieringMetrics,
}

/// Replays `workload` through a [`Gmt`] runtime, snapshotting cumulative
/// metrics `snapshots` times at even access intervals.
///
/// The replay is [`gmt_gpu::Executor`]'s own ([`Executor::replay`]), so
/// the final point agrees with a normal run up to the backend's drain at
/// the end ([`gmt_gpu::MemoryBackend::finish`]), which no point includes.
///
/// # Examples
///
/// ```
/// use gmt_analysis::runner::geometry_for;
/// use gmt_analysis::timeline::run_gmt_timeline;
/// use gmt_core::GmtConfig;
/// use gmt_gpu::ExecutorConfig;
/// use gmt_workloads::{srad::Srad, WorkloadScale};
///
/// let w = Srad::with_scale(&WorkloadScale::tiny());
/// let config = GmtConfig::new(geometry_for(&w, 4.0, 2.0));
/// let points = run_gmt_timeline(&w, &config, &ExecutorConfig::default(), 1, 4);
/// assert_eq!(points.len(), 4);
/// assert!(points.windows(2).all(|p| p[0].accesses < p[1].accesses));
/// ```
///
/// # Panics
///
/// Panics if `snapshots` is zero or the trace is empty.
pub fn run_gmt_timeline(
    workload: &dyn Workload,
    config: &GmtConfig,
    executor: &ExecutorConfig,
    seed: u64,
    snapshots: usize,
) -> Vec<TimelinePoint> {
    assert!(snapshots > 0, "need at least one snapshot");
    let trace = workload.trace(seed);
    assert!(!trace.is_empty(), "cannot profile an empty trace");
    let interval = (trace.len() / snapshots).max(1);
    let executor = Executor::new(*executor);
    let mut replay = executor.replay(Gmt::new(*config));
    let mut points = Vec::with_capacity(snapshots + 1);
    for (i, access) in trace.iter().enumerate() {
        replay.issue(Time::ZERO, access);
        let done = i + 1;
        if done % interval == 0 || done == trace.len() {
            points.push(TimelinePoint {
                accesses: done as u64,
                elapsed: replay.horizon().since(Time::ZERO),
                metrics: replay.backend().metrics(),
            });
            if points.len() == snapshots && done != trace.len() {
                // Keep the final point aligned with the trace end.
                points.pop();
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::geometry_for;
    use gmt_workloads::srad::Srad;
    use gmt_workloads::WorkloadScale;

    fn srad_timeline(pipelined: bool, snapshots: usize) -> Vec<TimelinePoint> {
        let w = Srad::with_scale(&WorkloadScale::pages(1_000));
        let mut config = GmtConfig::new(geometry_for(&w, 4.0, 2.0));
        config.reuse.sampler.pipelined = pipelined;
        run_gmt_timeline(&w, &config, &ExecutorConfig::default(), 1, snapshots)
    }

    #[test]
    fn timeline_is_monotone() {
        let points = srad_timeline(true, 8);
        for pair in points.windows(2) {
            assert!(pair[0].accesses < pair[1].accesses);
            assert!(pair[0].elapsed <= pair[1].elapsed);
            assert!(pair[0].metrics.t1_misses <= pair[1].metrics.t1_misses);
        }
    }

    #[test]
    fn final_point_matches_one_shot_run() {
        let w = Srad::with_scale(&WorkloadScale::pages(1_000));
        let config = GmtConfig::new(geometry_for(&w, 4.0, 2.0));
        let points = run_gmt_timeline(&w, &config, &ExecutorConfig::default(), 1, 4);
        let one_shot = crate::runner::run_system_with(
            &w,
            crate::runner::SystemKind::Gmt(gmt_core::PolicyKind::Reuse),
            &config,
            1,
        );
        let last = points.last().unwrap();
        assert_eq!(last.metrics, one_shot.metrics);
        assert_eq!(last.elapsed, one_shot.elapsed);
    }

    #[test]
    fn pipelining_does_not_hurt_early_hit_rate() {
        // The §2.1.3 claim, weak form: over the first half of the run the
        // pipelined sampler's Tier-2 hit rate is at least the withheld
        // sampler's.
        let piped = srad_timeline(true, 8);
        let held = srad_timeline(false, 8);
        let early = |points: &[TimelinePoint]| points[points.len() / 2 - 1].metrics.t2_hit_rate();
        assert!(
            early(&piped) + 1e-9 >= early(&held),
            "pipelined early hit rate {} < withheld {}",
            early(&piped),
            early(&held)
        );
    }
}
