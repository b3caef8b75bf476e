//! Eq. 1: classifying a Remaining Reuse Distance onto a tier.
//!
//! ```text
//! T(RRD) = short-reuse   if RRD <  |Tier1|
//!          medium-reuse  if |Tier1| <= RRD < |Tier2|
//!          long-reuse    if RRD >= |Tier2|
//! ```
//!
//! short-reuse pages stay in Tier-1, medium-reuse victims go to host
//! memory, long-reuse victims go to (or stay on) the SSD.

use gmt_mem::{Tier, TierGeometry};

use crate::LinearFit;

/// The Eq. 1 classifier, parameterized by tier capacities in pages.
///
/// # Examples
///
/// ```
/// use gmt_mem::Tier;
/// use gmt_reuse::TierClassifier;
///
/// let c = TierClassifier::new(1024, 4096);
/// assert_eq!(c.classify(100), Tier::Gpu);
/// assert_eq!(c.classify(2048), Tier::Host);
/// assert_eq!(c.classify(100_000), Tier::Ssd);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierClassifier {
    tier1_pages: u64,
    tier2_pages: u64,
}

impl TierClassifier {
    /// Creates a classifier from tier capacities in pages.
    ///
    /// # Panics
    ///
    /// Panics if `tier1_pages` is zero or `tier2_pages < tier1_pages`
    /// would invert the class boundaries.
    pub fn new(tier1_pages: u64, tier2_pages: u64) -> TierClassifier {
        assert!(tier1_pages > 0, "tier-1 must hold at least one page");
        assert!(
            tier2_pages >= tier1_pages,
            "Eq. 1 assumes tier-2 is at least as large as tier-1"
        );
        TierClassifier {
            tier1_pages,
            tier2_pages,
        }
    }

    /// Builds the classifier from a [`TierGeometry`].
    pub fn from_geometry(geometry: &TierGeometry) -> TierClassifier {
        TierClassifier::new(geometry.tier1_pages as u64, geometry.tier2_pages as u64)
    }

    /// Classifies an RRD (in pages) onto its tier (Eq. 1).
    pub fn classify(&self, rrd: u64) -> Tier {
        if rrd < self.tier1_pages {
            Tier::Gpu
        } else if rrd < self.tier2_pages {
            Tier::Host
        } else {
            Tier::Ssd
        }
    }

    /// Classifies a *remaining VTD* by first projecting it to an RRD with
    /// the fitted linear relation (§2.1.3 step 1: `RRD = m·RVTD + b`).
    pub fn classify_rvtd(&self, rvtd: u64, fit: &LinearFit) -> Tier {
        self.classify(fit.predict(rvtd as f64).round() as u64)
    }

    /// Tier-1 capacity boundary (pages).
    pub fn tier1_pages(&self) -> u64 {
        self.tier1_pages
    }

    /// Tier-1+Tier-2 boundary used for the long-reuse class (pages).
    pub fn tier2_pages(&self) -> u64 {
        self.tier2_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_are_half_open() {
        let c = TierClassifier::new(10, 100);
        assert_eq!(c.classify(9), Tier::Gpu);
        assert_eq!(c.classify(10), Tier::Host);
        assert_eq!(c.classify(99), Tier::Host);
        assert_eq!(c.classify(100), Tier::Ssd);
    }

    #[test]
    fn rvtd_projection_applies_fit() {
        let c = TierClassifier::new(10, 100);
        // Fit halves the RVTD: an RVTD of 18 is an RRD of 9 -> Tier-1.
        let fit = LinearFit {
            slope: 0.5,
            intercept: 0.0,
        };
        assert_eq!(c.classify_rvtd(18, &fit), Tier::Gpu);
        assert_eq!(c.classify_rvtd(20, &fit), Tier::Host);
    }

    #[test]
    fn from_geometry_uses_page_counts() {
        let g = TierGeometry::from_tier1(100, 4.0, 2.0);
        let c = TierClassifier::from_geometry(&g);
        assert_eq!(c.tier1_pages(), 100);
        assert_eq!(c.tier2_pages(), 400);
    }

    #[test]
    #[should_panic(expected = "tier-2 is at least as large")]
    fn inverted_capacities_rejected() {
        let _ = TierClassifier::new(100, 10);
    }
}
