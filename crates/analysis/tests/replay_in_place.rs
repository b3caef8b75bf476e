//! `run_system` replays a workload an access at a time, from the
//! workload's own `for_each_access`: a recorded graph app decodes its
//! recording in place. Every such run must equal replaying the workload's
//! whole `trace(seed)` with `Executor::run`, on the call that records, on
//! a call that replays the recording and on one that records another seed.

use gmt_analysis::runner::{geometry_for, run_system, Recorded, RunResult, SystemKind};
use gmt_baselines::{Bam, BamConfig, Hmm, HmmConfig};
use gmt_core::{Gmt, GmtConfig, PolicyKind};
use gmt_gpu::{Executor, ExecutorConfig};
use gmt_mem::{TierGeometry, WarpAccess, WARP_PAGES};
use gmt_workloads::{suite, Workload, WorkloadScale, APPS};

const SYSTEMS: [SystemKind; 3] = [
    SystemKind::Bam,
    SystemKind::Hmm,
    SystemKind::Gmt(PolicyKind::Reuse),
];

/// The calls in order: the first records, the second replays the
/// recording, the third records another seed.
const SEEDS: [(&str, u64); 3] = [("record", 1), ("replay", 1), ("re-record", 2)];

/// The paper's geometry for `workload`, with Tier-1 widened to hold a
/// whole warp access: at this scale a graph's derived Tier-1 is narrower.
fn geometry(workload: &dyn Workload) -> TierGeometry {
    let derived = geometry_for(workload, 4.0, 2.0);
    if derived.tier1_pages >= WARP_PAGES {
        derived
    } else {
        TierGeometry::from_tier1(WARP_PAGES, 4.0, 2.0)
    }
}

/// `run_system`'s result computed the long way: the whole trace, built
/// as a `Vec`, through `Executor::run`.
fn replayed_whole(workload: &dyn Workload, system: SystemKind, seed: u64) -> RunResult {
    let config = GmtConfig::new(geometry(workload));
    let trace = workload.trace(seed);
    let executor = Executor::new(ExecutorConfig::default());
    let (elapsed, metrics, ssd) = match system {
        SystemKind::Bam => {
            let out = executor.run(Bam::new(BamConfig::from(config)), trace);
            (out.elapsed, out.backend.metrics(), out.backend.ssd_stats())
        }
        SystemKind::Hmm => {
            let out = executor.run(Hmm::new(HmmConfig::from(config)), trace);
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

#[test]
fn run_system_equals_replaying_the_whole_trace() {
    let scale = WorkloadScale::tiny();
    for (_, build) in APPS {
        let plain = build(&scale);
        let geometry = geometry(plain.as_ref());
        for system in SYSTEMS {
            // A fresh wrapper per system, so its first call records.
            let wrapped = Recorded::graph_app(build(&scale));
            let want: Vec<_> = SEEDS
                .iter()
                .map(|&(_, seed)| replayed_whole(plain.as_ref(), system, seed))
                .collect();
            for (workload, kind) in [(plain.as_ref(), "plain"), (wrapped.as_ref(), "wrapped")] {
                for (&(call, seed), want) in SEEDS.iter().zip(&want) {
                    assert_eq!(
                        &run_system(workload, system, &geometry, seed),
                        want,
                        "{} ({kind}) on {system}: {call} call",
                        plain.name()
                    );
                }
            }
        }
    }
}

#[test]
fn for_each_access_visits_exactly_the_trace() {
    let scale = WorkloadScale::tiny();
    for (plain, twin) in suite(&scale).into_iter().zip(suite(&scale)) {
        let recorded = Recorded::new(twin);
        for (workload, kind) in [
            (plain.as_ref(), "plain"),
            (&recorded as &dyn Workload, "recorded"),
        ] {
            for (call, seed) in SEEDS {
                let mut visited: Vec<WarpAccess> = Vec::new();
                workload.for_each_access(seed, &mut |access| visited.push(access.clone()));
                assert_eq!(
                    visited,
                    plain.trace(seed),
                    "{} ({kind}): {call} call",
                    plain.name()
                );
            }
        }
    }
}
