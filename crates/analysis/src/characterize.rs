//! Workload characterization: reuse %, RRD distributions, VTD↔RD pairs.

use std::collections::BTreeMap;

use gmt_mem::{ClockList, PageId, Tier, TierGeometry};
use gmt_reuse::{ReuseTracker, TierClassifier};
use gmt_sim::stats::Histogram;
use gmt_workloads::Workload;

/// The Table-2 / Fig.-7 profile of one workload on one geometry.
#[derive(Debug, Clone)]
pub struct Characterization {
    /// Workload name.
    pub name: String,
    /// Address-space extent in pages.
    pub total_pages: usize,
    /// Coalesced accesses in the trace.
    pub accesses: u64,
    /// Individual page touches.
    pub page_touches: u64,
    /// Fraction of touched pages that were touched more than once
    /// (Table 2's "Reuse % of a Page").
    pub reuse_pct: f64,
    /// Total data the trace demands, in bytes (Table 2's "Total I/O"
    /// analogue: every page touch that cannot be a Tier-1 hit moves a
    /// page).
    pub demand_bytes: u64,
    /// Histogram of Remaining Reuse Distances measured at Tier-1
    /// evictions (Fig. 7's distribution).
    pub rrd_histogram: Histogram,
    /// Fraction of eviction-time RRDs classified per Eq. 1 into each tier
    /// (Fig. 7's vertical-line split).
    pub tier_bias: [f64; 3],
}

impl Characterization {
    /// The tier holding the bulk of eviction-time RRDs.
    pub fn dominant_tier(&self) -> Tier {
        let mut best = Tier::Gpu;
        for t in Tier::ALL {
            if self.tier_bias[t.index()] > self.tier_bias[best.index()] {
                best = t;
            }
        }
        best
    }
}

/// Replays `workload` against an instrumented Tier-1 clock of
/// `geometry.tier1_pages` and measures its reuse profile.
///
/// The instrumentation mirrors what the paper's postmortem analysis does:
/// every Tier-1 eviction snapshots the access-stream position; when the
/// evicted page is touched again, the number of distinct pages accessed
/// in between is its RRD.
///
/// # Examples
///
/// ```
/// use gmt_mem::TierGeometry;
/// use gmt_workloads::{hotspot::Hotspot, Workload, WorkloadScale};
///
/// let w = Hotspot::with_scale(&WorkloadScale::tiny());
/// let geometry = TierGeometry::from_total(w.total_pages(), 4.0, 2.0);
/// let profile = gmt_analysis::characterize(&w, &geometry, 1);
/// assert!(profile.reuse_pct > 0.5); // hotspot re-touches everything
/// ```
pub fn characterize(
    workload: &dyn Workload,
    geometry: &TierGeometry,
    seed: u64,
) -> Characterization {
    let classifier = TierClassifier::from_geometry(geometry);
    let mut tracker = ReuseTracker::new();
    let mut clock = ClockList::new(geometry.tier1_pages);
    let mut pending_eviction: BTreeMap<PageId, u64> = BTreeMap::new();
    let mut touches: BTreeMap<PageId, u32> = BTreeMap::new();
    let mut rrd_histogram = Histogram::new();
    let mut tier_counts = [0u64; 3];
    let mut accesses = 0u64;
    let mut page_touches = 0u64;

    workload.for_each_access(seed, &mut |access| {
        accesses += 1;
        for page in access.pages.iter() {
            page_touches += 1;
            *touches.entry(page).or_default() += 1;
            tracker.record(page);
            if let Some(evicted_at) = pending_eviction.remove(&page) {
                // Exclude the page's own re-access from the count.
                let rrd = tracker.distinct_since(evicted_at).saturating_sub(1);
                rrd_histogram.record(rrd);
                tier_counts[classifier.classify(rrd).index()] += 1;
            }
            if clock.touch(page) {
                continue;
            }
            if clock.is_full() {
                let victim = clock.evict_candidate();
                pending_eviction.insert(victim, tracker.position());
            }
            clock.insert(page);
        }
    });

    let touched = touches.len() as u64;
    let reused = touches.values().filter(|&&c| c > 1).count() as u64;
    let evicted_rrds = tier_counts.iter().sum::<u64>().max(1);
    Characterization {
        name: workload.name().to_string(),
        total_pages: workload.total_pages(),
        accesses,
        page_touches,
        reuse_pct: if touched == 0 {
            0.0
        } else {
            reused as f64 / touched as f64
        },
        demand_bytes: page_touches * geometry.page_bytes,
        rrd_histogram,
        tier_bias: [
            tier_counts[0] as f64 / evicted_rrds as f64,
            tier_counts[1] as f64 / evicted_rrds as f64,
            tier_counts[2] as f64 / evicted_rrds as f64,
        ],
    }
}

/// Collects up to `limit` (VTD, RD) pairs from a workload's access stream
/// (the scatter data of Fig. 4a).
pub fn vtd_rd_pairs(workload: &dyn Workload, seed: u64, limit: usize) -> Vec<(u64, u64)> {
    let mut tracker = ReuseTracker::new();
    let mut pairs = Vec::with_capacity(limit.min(4096));
    for access in workload.trace(seed) {
        for page in access.pages.iter() {
            let d = tracker.record(page);
            if let (Some(vtd), Some(rd)) = (d.vtd.finite(), d.rd.finite()) {
                pairs.push((vtd, rd));
                if pairs.len() >= limit {
                    return pairs;
                }
            }
        }
    }
    pairs
}

/// Pearson correlation coefficient of a set of pairs (Fig. 4a's
/// linearity evidence).
///
/// Returns 0 for degenerate inputs.
pub fn correlation(pairs: &[(u64, u64)]) -> f64 {
    let n = pairs.len() as f64;
    if pairs.len() < 2 {
        return 0.0;
    }
    let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
    for &(x, y) in pairs {
        let (x, y) = (x as f64, y as f64);
        sx += x;
        sy += y;
        sxx += x * x;
        syy += y * y;
        sxy += x * y;
    }
    let cov = n * sxy - sx * sy;
    let var = (n * sxx - sx * sx) * (n * syy - sy * sy);
    if var <= 0.0 {
        0.0
    } else {
        cov / var.sqrt()
    }
}

/// Per-page RRD sequences across successive Tier-1 evictions (Fig. 4b/4c).
///
/// Only pages with at least `min_evictions` completed round trips are
/// returned, keyed by page, each value the chronological RRD sequence.
pub fn eviction_rrd_series(
    workload: &dyn Workload,
    geometry: &TierGeometry,
    seed: u64,
    min_evictions: usize,
) -> BTreeMap<PageId, Vec<u64>> {
    let mut tracker = ReuseTracker::new();
    let mut clock = ClockList::new(geometry.tier1_pages);
    let mut pending: BTreeMap<PageId, u64> = BTreeMap::new();
    let mut series: BTreeMap<PageId, Vec<u64>> = BTreeMap::new();
    workload.for_each_access(seed, &mut |access| {
        for page in access.pages.iter() {
            tracker.record(page);
            if let Some(evicted_at) = pending.remove(&page) {
                let rrd = tracker.distinct_since(evicted_at).saturating_sub(1);
                series.entry(page).or_default().push(rrd);
            }
            if clock.touch(page) {
                continue;
            }
            if clock.is_full() {
                let victim = clock.evict_candidate();
                pending.insert(victim, tracker.position());
            }
            clock.insert(page);
        }
    });
    series.retain(|_, v| v.len() >= min_evictions);
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_workloads::multivectoradd::MultiVectorAdd;
    use gmt_workloads::srad::Srad;
    use gmt_workloads::WorkloadScale;

    fn geometry_for(w: &dyn Workload) -> TierGeometry {
        TierGeometry::from_total(w.total_pages(), 4.0, 2.0)
    }

    #[test]
    fn srad_profile_is_high_reuse_tier2_biased() {
        let w = Srad::with_scale(&WorkloadScale::pages(1000));
        let g = geometry_for(&w);
        let c = characterize(&w, &g, 1);
        assert!(c.reuse_pct > 0.9, "srad reuse {}", c.reuse_pct);
        assert_eq!(c.dominant_tier(), Tier::Host, "tier bias {:?}", c.tier_bias);
    }

    #[test]
    fn mva_profile_is_medium_reuse() {
        let w = MultiVectorAdd::with_scale(&WorkloadScale::pages(1000));
        let g = geometry_for(&w);
        let c = characterize(&w, &g, 1);
        assert!(
            c.reuse_pct > 0.1 && c.reuse_pct < 0.5,
            "mva reuse {}",
            c.reuse_pct
        );
        assert!(
            c.tier_bias[Tier::Host.index()] > 0.5,
            "tier bias {:?}",
            c.tier_bias
        );
    }

    #[test]
    fn vtd_rd_pairs_are_strongly_correlated() {
        let w = Srad::with_scale(&WorkloadScale::pages(500));
        let pairs = vtd_rd_pairs(&w, 1, 20_000);
        assert!(!pairs.is_empty());
        let r = correlation(&pairs);
        assert!(r > 0.9, "correlation {r} too weak for Fig. 4a's claim");
    }

    #[test]
    fn mva_eviction_rrds_are_constant_per_page() {
        // The Fig. 4b signature: each page sees the same RRD at every
        // eviction.
        let w = MultiVectorAdd::with_scale(&WorkloadScale::pages(1000));
        let g = geometry_for(&w);
        let series = eviction_rrd_series(&w, &g, 1, 2);
        assert!(!series.is_empty(), "mva pages must round-trip");
        let mut constant = 0usize;
        for rrds in series.values() {
            let spread = rrds.iter().max().unwrap() - rrds.iter().min().unwrap();
            let mean = rrds.iter().sum::<u64>() / rrds.len() as u64;
            if spread <= mean / 5 + 2 {
                constant += 1;
            }
        }
        assert!(
            constant * 10 >= series.len() * 9,
            "only {constant}/{} pages have constant RRD",
            series.len()
        );
    }

    #[test]
    fn correlation_handles_degenerate_input() {
        assert_eq!(correlation(&[]), 0.0);
        assert_eq!(correlation(&[(1, 1)]), 0.0);
        assert_eq!(correlation(&[(1, 1), (1, 1)]), 0.0);
    }
}
