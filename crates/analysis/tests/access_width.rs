//! Every replay path names a Tier-1 narrower than the trace's widest
//! access with the configuration error, not a panic deep in eviction.

use gmt_analysis::runner::{run_system, SystemKind};
use gmt_analysis::timeline::run_gmt_timeline;
use gmt_analysis::tracesum::run_gmt_traced;
use gmt_core::{GmtConfig, PolicyKind};
use gmt_gpu::ExecutorConfig;
use gmt_mem::{PageId, TierGeometry, WarpAccess, WARP_PAGES};
use gmt_workloads::Workload;

/// One warp access touching 32 distinct pages, as a divergent BFS
/// frontier expansion does.
struct OneWideAccess;

impl Workload for OneWideAccess {
    fn name(&self) -> &'static str {
        "one-wide-access"
    }

    fn total_pages(&self) -> usize {
        64
    }

    fn trace(&self, _seed: u64) -> Vec<WarpAccess> {
        let pages = (0..WARP_PAGES as u64).map(PageId).collect();
        vec![WarpAccess::scattered(pages, false)]
    }
}

fn config(tier1_pages: usize) -> GmtConfig {
    GmtConfig::new(TierGeometry::from_tier1(tier1_pages, 4.0, 2.0))
}

#[test]
#[should_panic(expected = "tier-1 (29 pages) is narrower than the widest access (32 pages)")]
fn run_system_names_a_narrow_tier1() {
    let geometry = config(29).geometry;
    run_system(
        &OneWideAccess,
        SystemKind::Gmt(PolicyKind::Reuse),
        &geometry,
        1,
    );
}

#[test]
#[should_panic(expected = "tier-1 (29 pages) is narrower than the widest access (32 pages)")]
fn a_traced_run_names_a_narrow_tier1() {
    run_gmt_traced(&OneWideAccess, &config(29), 1, 1 << 10);
}

#[test]
#[should_panic(expected = "tier-1 (29 pages) is narrower than the widest access (32 pages)")]
fn a_timeline_names_a_narrow_tier1() {
    run_gmt_timeline(
        &OneWideAccess,
        &config(29),
        &ExecutorConfig::default(),
        1,
        1,
    );
}

#[test]
fn a_tier1_as_wide_as_the_trace_runs() {
    let r = run_system(
        &OneWideAccess,
        SystemKind::Gmt(PolicyKind::Reuse),
        &config(32).geometry,
        1,
    );
    assert_eq!(r.metrics.t1_misses, 32);
    let traced = run_gmt_traced(&OneWideAccess, &config(32), 1, 1 << 10);
    assert_eq!(traced.metrics.t1_misses, 32);
}
