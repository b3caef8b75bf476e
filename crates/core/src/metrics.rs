//! Runtime counters backing every evaluation figure.

/// Counters collected by the tiering runtimes (GMT, BaM, HMM share this
/// shape so figures compare like for like).
///
/// The mapping to paper artifacts:
///
/// * Fig. 8b — `ssd_reads + ssd_writes (+ t2_writebacks)` vs BaM's,
/// * Fig. 9 — `predictions_correct / predictions`,
/// * Fig. 10a — `wasteful_lookups / t1_misses`,
/// * Fig. 10b — `t2_placements` and `t2_hits` vs BaM's SSD transfers.
///
/// # Examples
///
/// ```
/// use gmt_core::TieringMetrics;
/// let m = TieringMetrics {
///     t1_hits: 90,
///     t1_misses: 10,
///     t2_hits: 6,
///     wasteful_lookups: 4,
///     ..TieringMetrics::default()
/// };
/// assert_eq!(m.t1_hit_rate(), 0.9);
/// assert_eq!(m.t2_hit_rate(), 0.6);
/// assert_eq!(m.wasteful_lookup_rate(), 0.4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TieringMetrics {
    /// Coalesced warp accesses serviced.
    pub accesses: u64,
    /// Page touches that hit Tier-1.
    pub t1_hits: u64,
    /// Page touches that missed Tier-1.
    pub t1_misses: u64,
    /// Tier-1 misses satisfied from Tier-2 (useful lookups).
    pub t2_hits: u64,
    /// Tier-1 misses that probed Tier-2 and fell through to the SSD
    /// (unsuccessful lookups adding ~50 ns to the critical path, §3.4).
    pub wasteful_lookups: u64,
    /// Pages read from the SSD into Tier-1.
    pub ssd_reads: u64,
    /// Dirty pages written from Tier-1 to the SSD (bypass write-backs).
    pub ssd_writes: u64,
    /// Pages evicted from Tier-1 (any destination).
    pub t1_evictions: u64,
    /// Tier-1 victims placed into Tier-2.
    pub t2_placements: u64,
    /// Tier-1 victims bypassed to Tier-3 while clean (no I/O at all).
    pub discards: u64,
    /// Dirty Tier-2 victims written to the SSD by host I/O (off the
    /// GPU's critical path).
    pub t2_writebacks: u64,
    /// Clean Tier-2 victims dropped.
    pub t2_drops: u64,
    /// Eviction candidates kept in Tier-1 because GMT-Reuse predicted
    /// short reuse.
    pub short_reuse_keeps: u64,
    /// Predicted-Tier-3 victims forced into Tier-2 by the 80 % heuristic
    /// (§2.2).
    pub forced_t2_placements: u64,
    /// Pages speculatively fetched by the sequential prefetcher
    /// (0 unless `prefetch_degree > 0`).
    pub prefetches: u64,
    /// GMT-Reuse tier predictions whose correctness became known.
    pub predictions: u64,
    /// ... of which matched the correct tier (Fig. 9).
    pub predictions_correct: u64,
}

impl TieringMetrics {
    /// Tier-1 hit rate over page touches.
    pub fn t1_hit_rate(&self) -> f64 {
        ratio(self.t1_hits, self.t1_hits + self.t1_misses)
    }

    /// Fraction of Tier-1 misses satisfied from Tier-2.
    pub fn t2_hit_rate(&self) -> f64 {
        ratio(self.t2_hits, self.t1_misses)
    }

    /// Fraction of Tier-1 misses whose Tier-2 probe was wasted (Fig. 10a).
    pub fn wasteful_lookup_rate(&self) -> f64 {
        ratio(self.wasteful_lookups, self.t1_misses)
    }

    /// GMT-Reuse prediction accuracy (Fig. 9).
    pub fn prediction_accuracy(&self) -> f64 {
        ratio(self.predictions_correct, self.predictions)
    }

    /// Total SSD I/O operations on the GPU's critical path plus host
    /// write-backs (Fig. 8b compares this against BaM).
    pub fn ssd_ios(&self) -> u64 {
        self.ssd_reads + self.ssd_writes + self.t2_writebacks
    }

    /// Pages moved between Tier-1 and Tier-2 in either direction
    /// (Fig. 10b's PCIe-traffic numerator).
    pub fn tier12_transfers(&self) -> u64 {
        self.t2_placements + self.t2_hits
    }

    /// Adds every counter of `other` into `self`.
    ///
    /// Multi-tenant runtimes keep one `TieringMetrics` per tenant;
    /// merging them all reconstitutes the hierarchy-wide aggregate, so
    /// per-tenant accounting loses nothing relative to a single global
    /// bookkeeper.
    ///
    /// # Examples
    ///
    /// ```
    /// use gmt_core::TieringMetrics;
    /// let mut total = TieringMetrics { t1_hits: 1, ..TieringMetrics::default() };
    /// total.merge(&TieringMetrics { t1_hits: 2, t1_misses: 1, ..TieringMetrics::default() });
    /// assert_eq!(total.t1_hits, 3);
    /// assert_eq!(total.t1_misses, 1);
    /// ```
    pub fn merge(&mut self, other: &TieringMetrics) {
        let TieringMetrics {
            accesses,
            t1_hits,
            t1_misses,
            t2_hits,
            wasteful_lookups,
            ssd_reads,
            ssd_writes,
            t1_evictions,
            t2_placements,
            discards,
            t2_writebacks,
            t2_drops,
            short_reuse_keeps,
            forced_t2_placements,
            prefetches,
            predictions,
            predictions_correct,
        } = other;
        self.accesses += accesses;
        self.t1_hits += t1_hits;
        self.t1_misses += t1_misses;
        self.t2_hits += t2_hits;
        self.wasteful_lookups += wasteful_lookups;
        self.ssd_reads += ssd_reads;
        self.ssd_writes += ssd_writes;
        self.t1_evictions += t1_evictions;
        self.t2_placements += t2_placements;
        self.discards += discards;
        self.t2_writebacks += t2_writebacks;
        self.t2_drops += t2_drops;
        self.short_reuse_keeps += short_reuse_keeps;
        self.forced_t2_placements += forced_t2_placements;
        self.prefetches += prefetches;
        self.predictions += predictions;
        self.predictions_correct += predictions_correct;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_zero_on_empty_metrics() {
        let m = TieringMetrics::default();
        assert_eq!(m.t1_hit_rate(), 0.0);
        assert_eq!(m.t2_hit_rate(), 0.0);
        assert_eq!(m.prediction_accuracy(), 0.0);
        assert_eq!(m.wasteful_lookup_rate(), 0.0);
    }

    #[test]
    fn derived_rates() {
        let m = TieringMetrics {
            t1_hits: 75,
            t1_misses: 25,
            t2_hits: 10,
            wasteful_lookups: 15,
            predictions: 20,
            predictions_correct: 18,
            ..TieringMetrics::default()
        };
        assert_eq!(m.t1_hit_rate(), 0.75);
        assert_eq!(m.t2_hit_rate(), 0.4);
        assert_eq!(m.wasteful_lookup_rate(), 0.6);
        assert_eq!(m.prediction_accuracy(), 0.9);
    }

    #[test]
    fn merge_sums_every_field() {
        let a = TieringMetrics {
            accesses: 1,
            t1_hits: 2,
            t1_misses: 3,
            t2_hits: 4,
            wasteful_lookups: 5,
            ssd_reads: 6,
            ssd_writes: 7,
            t1_evictions: 8,
            t2_placements: 9,
            discards: 10,
            t2_writebacks: 11,
            t2_drops: 12,
            short_reuse_keeps: 13,
            forced_t2_placements: 14,
            prefetches: 15,
            predictions: 16,
            predictions_correct: 17,
        };
        let mut merged = a;
        merged.merge(&a);
        assert_eq!(merged.accesses, 2);
        assert_eq!(merged.t1_hits, 4);
        assert_eq!(merged.wasteful_lookups, 10);
        assert_eq!(merged.short_reuse_keeps, 26);
        assert_eq!(merged.predictions_correct, 34);
        let mut identity = TieringMetrics::default();
        identity.merge(&a);
        assert_eq!(identity, a, "merging into zero is the identity");
    }

    #[test]
    fn io_totals() {
        let m = TieringMetrics {
            ssd_reads: 5,
            ssd_writes: 3,
            t2_writebacks: 2,
            t2_placements: 7,
            t2_hits: 4,
            ..TieringMetrics::default()
        };
        assert_eq!(m.ssd_ios(), 10);
        assert_eq!(m.tier12_transfers(), 11);
    }
}
