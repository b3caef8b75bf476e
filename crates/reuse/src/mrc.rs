//! Miss-ratio curves from exact reuse distances (Mattson's stack
//! algorithm).
//!
//! Because LRU obeys the stack-inclusion property, one pass collecting
//! exact reuse distances yields the miss ratio of *every* capacity at
//! once: an access with reuse distance `d` hits any LRU cache with more
//! than `d` slots. The paper's Fig. 7 intuition — "what fraction of reuse
//! falls within Tier-1 / Tier-1+Tier-2" — is exactly two points on this
//! curve, so the MRC makes tier-capacity planning quantitative.

use gmt_mem::PageId;

use crate::olken::ReuseTracker;

/// A miss-ratio curve built from one trace pass.
///
/// # Examples
///
/// ```
/// use gmt_mem::PageId;
/// use gmt_reuse::mrc::MissRatioCurve;
///
/// // Cyclic scan over 10 pages: caches smaller than 10 always miss,
/// // caches of 10+ only take cold misses.
/// let trace = (0..5).flat_map(|_| (0..10u64).map(PageId));
/// let mrc = MissRatioCurve::from_trace(trace);
/// assert_eq!(mrc.miss_ratio(5), 1.0);
/// assert!(mrc.miss_ratio(10) < 0.25);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MissRatioCurve {
    /// `hits_below[c]`: accesses with a finite reuse distance below `c`,
    /// for `c` from 0 to one past the largest such distance. A reuse
    /// distance is below the number of distinct pages, so the curve takes
    /// one counter per page where a list of distances takes one per touch.
    hits_below: Vec<u64>,
    /// First-touch (compulsory) misses.
    cold: u64,
    /// Total accesses.
    total: u64,
}

impl MissRatioCurve {
    /// Builds the curve from a page-touch stream.
    pub fn from_trace(trace: impl IntoIterator<Item = PageId>) -> MissRatioCurve {
        let mut tracker = ReuseTracker::new();
        // `at_rd[d]`: accesses whose reuse distance is exactly `d`.
        let mut at_rd: Vec<u64> = Vec::new();
        let mut cold = 0u64;
        let mut total = 0u64;
        for page in trace {
            total += 1;
            match tracker.record(page).rd.finite() {
                Some(rd) => {
                    let rd = rd as usize;
                    if rd >= at_rd.len() {
                        at_rd.resize(rd + 1, 0);
                    }
                    at_rd[rd] += 1;
                }
                None => cold += 1,
            }
        }
        let mut hits_below = Vec::with_capacity(at_rd.len() + 1);
        hits_below.push(0);
        let mut hits = 0;
        for n in at_rd {
            hits += n;
            hits_below.push(hits);
        }
        MissRatioCurve {
            hits_below,
            cold,
            total,
        }
    }

    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.total
    }

    /// Compulsory (first-touch) misses.
    pub fn cold_misses(&self) -> u64 {
        self.cold
    }

    /// Misses an LRU cache of `capacity` pages would take on this trace.
    ///
    /// An access with reuse distance `d` hits iff `d < capacity`.
    pub fn misses_at(&self, capacity: usize) -> u64 {
        let largest = self.hits_below.len() - 1;
        self.total - self.hits_below[capacity.min(largest)]
    }

    /// Miss ratio at `capacity` (1.0 for an empty trace).
    pub fn miss_ratio(&self, capacity: usize) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.misses_at(capacity) as f64 / self.total as f64
    }

    /// `(capacity, miss_ratio)` points at the given capacities.
    pub fn sample(&self, capacities: &[usize]) -> Vec<(usize, f64)> {
        capacities
            .iter()
            .map(|&c| (c, self.miss_ratio(c)))
            .collect()
    }

    /// The smallest capacity achieving at most `target` miss ratio, if
    /// any capacity can (cold misses set the floor).
    pub fn capacity_for(&self, target: f64) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        let floor = self.cold as f64 / self.total as f64;
        if target < floor {
            return None;
        }
        // Miss ratio is non-increasing in capacity: binary search over the
        // distinct reuse distances.
        let max_needed = self.hits_below.len() - 1;
        let (mut lo, mut hi) = (0usize, max_needed);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.miss_ratio(mid) <= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        (self.miss_ratio(lo) <= target).then_some(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cyclic(pages: u64, rounds: usize) -> Vec<PageId> {
        (0..rounds).flat_map(|_| (0..pages).map(PageId)).collect()
    }

    #[test]
    fn cyclic_scan_is_a_step_function() {
        let mrc = MissRatioCurve::from_trace(cyclic(20, 10));
        assert_eq!(mrc.miss_ratio(19), 1.0, "LRU thrashes below the loop size");
        // At exactly 20 pages the distances (19) fit: only colds miss.
        let at_ws = mrc.miss_ratio(20);
        assert!((at_ws - 0.1).abs() < 1e-9, "cold misses only: {at_ws}");
    }

    #[test]
    fn monotone_non_increasing() {
        let mut trace = cyclic(8, 3);
        trace.extend(cyclic(40, 2));
        let mrc = MissRatioCurve::from_trace(trace);
        let mut prev = 1.0f64;
        for c in 0..64 {
            let r = mrc.miss_ratio(c);
            assert!(r <= prev + 1e-12, "capacity {c}: {r} > {prev}");
            prev = r;
        }
    }

    #[test]
    fn capacity_for_finds_the_knee() {
        let mrc = MissRatioCurve::from_trace(cyclic(16, 20));
        // Cold ratio = 16/320 = 0.05; reachable just at the loop size.
        assert_eq!(mrc.capacity_for(0.06), Some(16));
        assert_eq!(mrc.capacity_for(0.01), None, "below the cold floor");
    }

    #[test]
    fn counts_are_consistent() {
        let mrc = MissRatioCurve::from_trace(cyclic(4, 5));
        assert_eq!(mrc.accesses(), 20);
        assert_eq!(mrc.cold_misses(), 4);
        assert_eq!(mrc.misses_at(usize::MAX), 4);
        assert_eq!(mrc.misses_at(0), 20);
    }

    #[test]
    fn misses_match_an_lru_stack() {
        let trace: Vec<PageId> = (0..600u64)
            .map(|i| PageId((i * 7919 + i / 3) % 30))
            .collect();
        let mrc = MissRatioCurve::from_trace(trace.iter().copied());
        for capacity in 0..35 {
            // Most recent first: a page's index is its reuse distance.
            let mut stack: Vec<PageId> = Vec::new();
            let mut misses = 0;
            for &page in &trace {
                match stack.iter().position(|&q| q == page) {
                    Some(rd) => {
                        misses += u64::from(rd >= capacity);
                        stack.remove(rd);
                    }
                    None => misses += 1,
                }
                stack.insert(0, page);
            }
            assert_eq!(mrc.misses_at(capacity), misses, "capacity {capacity}");
        }
    }

    #[test]
    fn empty_trace_is_total_miss() {
        let mrc = MissRatioCurve::from_trace(std::iter::empty());
        assert_eq!(mrc.miss_ratio(100), 1.0);
        assert_eq!(mrc.capacity_for(0.5), None);
    }

    #[test]
    fn sample_returns_requested_points() {
        let mrc = MissRatioCurve::from_trace(cyclic(10, 4));
        let points = mrc.sample(&[5, 10, 20]);
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].0, 5);
        assert!(points[2].1 <= points[0].1);
    }
}
