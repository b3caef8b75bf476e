//! Log-bucketed histograms for collecting experiment metrics.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
