//! Counters and histograms for collecting experiment metrics.

use std::fmt;

/// A saturating event counter.
///
/// # Examples
///
/// ```
/// use gmt_sim::stats::Counter;
/// let mut hits = Counter::default();
/// hits.add(3);
/// hits.incr();
/// assert_eq!(hits.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` events.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Adds one event.
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A log2-bucketed histogram of `u64` values.
///
/// Bucket `i` holds values `v` with `floor(log2(v)) == i` (bucket 0 also
/// holds 0). Used for reuse-distance and RRD distributions (paper Fig. 7),
/// where the quantities span many orders of magnitude.
///
/// # Examples
///
/// ```
/// use gmt_sim::stats::Histogram;
/// let mut h = Histogram::new();
/// h.record(1);
/// h.record(1000);
/// assert_eq!(h.count(), 2);
/// assert!(h.mean() > 400.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let bucket = if value <= 1 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value.
    ///
    /// Returns `None` if the histogram is empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value.
    ///
    /// Returns `None` if the histogram is empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Returns `(bucket_lower_bound, count)` pairs for non-empty buckets.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (if i == 0 { 0 } else { 1u64 << i }, *c))
    }

    /// Fraction of recorded values that are `< threshold`.
    ///
    /// Exact at bucket boundaries; within a bucket the mass is assumed
    /// uniform. Used to split an RRD distribution at tier-capacity lines.
    pub fn fraction_below(&self, threshold: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mut below = 0.0f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lo = if i == 0 { 0u64 } else { 1u64 << i };
            let hi = 1u64 << (i + 1); // exclusive
            if hi <= threshold {
                below += c as f64;
            } else if lo < threshold {
                let span = (hi - lo) as f64;
                below += c as f64 * (threshold - lo) as f64 / span;
            }
        }
        below / self.count as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Streaming mean/min/max summary of `f64` observations.
///
/// # Examples
///
/// ```
/// use gmt_sim::stats::Summary;
/// let mut s = Summary::new();
/// s.observe(1.0);
/// s.observe(3.0);
/// assert_eq!(s.mean(), 2.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Summary {
        Summary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of observations (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates() {
        let mut c = Counter::new();
        c.add(u64::MAX);
        c.incr();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets, vec![(0, 2), (2, 2), (1024, 1)]);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1024));
    }

    #[test]
    fn fraction_below_exact_at_boundaries() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 4, 8, 16, 32, 64, 128] {
            h.record(v);
        }
        // 1 is in bucket 0; threshold 2 puts exactly bucket 0 below.
        assert!((h.fraction_below(2) - 1.0 / 8.0).abs() < 1e-9);
        assert!((h.fraction_below(256) - 1.0).abs() < 1e-9);
        assert_eq!(h.fraction_below(0), 0.0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Some(500));
        assert_eq!(a.min(), Some(5));
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.fraction_below(100), 0.0);
    }

    #[test]
    fn summary_tracks_extremes() {
        let mut s = Summary::new();
        for v in [3.0, -1.0, 10.0] {
            s.observe(v);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 4.0);
        assert_eq!(s.min(), Some(-1.0));
        assert_eq!(s.max(), Some(10.0));
    }
}
