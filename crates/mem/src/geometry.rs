//! Tier capacities and over-subscription arithmetic.

/// Capacities of the three tiers, in pages.
///
/// The paper's evaluation is parameterized entirely by ratios: the
/// Tier-2:Tier-1 capacity ratio (default 4, §3.1) and the
/// *over-subscription factor* — the application working set divided by
/// Tier-1 + Tier-2 capacity (default 2, footnote 2). `TierGeometry`
/// preserves those ratios while letting experiments scale absolute sizes
/// down from the paper's 16 GB/64 GB.
///
/// # Examples
///
/// ```
/// use gmt_mem::TierGeometry;
///
/// let g = TierGeometry::paper_default(6); // capacities >> 6
/// assert_eq!(g.tier2_pages, 4 * g.tier1_pages);
/// assert!((g.oversubscription() - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierGeometry {
    /// Bytes per page (64 KB in the paper, §2 common parameter 1).
    pub page_bytes: u64,
    /// Tier-1 (GPU memory) capacity in pages.
    pub tier1_pages: usize,
    /// Tier-2 (host memory) capacity in pages.
    pub tier2_pages: usize,
    /// Application working-set size in pages (the address-space extent).
    pub total_pages: usize,
}

/// 64 KB, the UVM page size the paper adopts.
pub const PAGE_BYTES: u64 = 64 * 1024;

/// Pages in 16 GB of Tier-1 at 64 KB granularity (the paper's default cap).
const PAPER_TIER1_PAGES: usize = (16u64 << 30) as usize / PAGE_BYTES as usize;

impl TierGeometry {
    /// The paper's default configuration (Tier-1 = 16 GB, Tier-2 = 64 GB,
    /// over-subscription 2), with all capacities divided by
    /// `2^scale_shift`.
    ///
    /// `scale_shift = 0` reproduces the paper's absolute page counts
    /// (262 144 Tier-1 pages); the benchmarks default to `6`
    /// (4 096 Tier-1 pages) to keep runs minutes-scale.
    ///
    /// # Panics
    ///
    /// Panics if the shift would reduce Tier-1 below one page.
    pub fn paper_default(scale_shift: u32) -> TierGeometry {
        TierGeometry::scaled(scale_shift, 4.0, 2.0)
    }

    /// A scaled geometry with explicit Tier-2:Tier-1 `ratio` and
    /// over-subscription factor `os` (paper §3.5 sweeps both).
    ///
    /// # Panics
    ///
    /// Panics if `ratio` or `os` is not strictly positive, or if the
    /// shift would reduce Tier-1 below one page.
    pub fn scaled(scale_shift: u32, ratio: f64, os: f64) -> TierGeometry {
        assert!(
            ratio > 0.0 && os > 0.0,
            "ratio and over-subscription must be positive"
        );
        let tier1_pages = PAPER_TIER1_PAGES >> scale_shift;
        assert!(tier1_pages > 0, "scale shift too large");
        TierGeometry::from_tier1(tier1_pages, ratio, os)
    }

    /// Builds a geometry from an explicit Tier-1 page count, a
    /// Tier-2:Tier-1 `ratio` and an over-subscription factor `os`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive.
    pub fn from_tier1(tier1_pages: usize, ratio: f64, os: f64) -> TierGeometry {
        assert!(tier1_pages > 0, "tier-1 must hold at least one page");
        assert!(
            ratio > 0.0 && os > 0.0,
            "ratio and over-subscription must be positive"
        );
        let tier2_pages = ((tier1_pages as f64) * ratio).round() as usize;
        let total_pages = (((tier1_pages + tier2_pages) as f64) * os).round() as usize;
        TierGeometry {
            page_bytes: PAGE_BYTES,
            tier1_pages,
            tier2_pages,
            total_pages,
        }
    }

    /// Builds a geometry *backwards* from a fixed working-set size, the way
    /// the paper handles graph applications (§3.5: the graph is what it
    /// is; Tier-1/Tier-2 capacities are scaled around it).
    ///
    /// # Panics
    ///
    /// Panics if the derived Tier-1 capacity would be zero.
    pub fn from_total(total_pages: usize, ratio: f64, os: f64) -> TierGeometry {
        assert!(
            ratio > 0.0 && os > 0.0,
            "ratio and over-subscription must be positive"
        );
        let tier1_pages = (total_pages as f64 / (os * (1.0 + ratio))).round() as usize;
        assert!(
            tier1_pages > 0,
            "working set too small for this ratio/over-subscription"
        );
        let tier2_pages = ((tier1_pages as f64) * ratio).round() as usize;
        TierGeometry {
            page_bytes: PAGE_BYTES,
            tier1_pages,
            tier2_pages,
            total_pages,
        }
    }

    /// The over-subscription factor: working set / (Tier-1 + Tier-2).
    pub fn oversubscription(&self) -> f64 {
        self.total_pages as f64 / (self.tier1_pages + self.tier2_pages) as f64
    }

    /// The Tier-2:Tier-1 capacity ratio.
    pub fn ratio(&self) -> f64 {
        self.tier2_pages as f64 / self.tier1_pages as f64
    }

    /// Tier-1 capacity in bytes.
    pub fn tier1_bytes(&self) -> u64 {
        self.tier1_pages as u64 * self.page_bytes
    }

    /// Tier-2 capacity in bytes.
    pub fn tier2_bytes(&self) -> u64 {
        self.tier2_pages as u64 * self.page_bytes
    }

    /// Working-set size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_pages as u64 * self.page_bytes
    }
}

impl Default for TierGeometry {
    /// The benchmark default: the paper's ratios at a 1/64 scale.
    fn default() -> TierGeometry {
        TierGeometry::paper_default(6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_unscaled_matches_paper_capacities() {
        let g = TierGeometry::paper_default(0);
        assert_eq!(g.tier1_bytes(), 16u64 << 30);
        assert_eq!(g.tier2_bytes(), 64u64 << 30);
        assert_eq!(g.total_bytes(), 160u64 << 30);
    }

    #[test]
    fn ratios_survive_scaling() {
        for shift in [0u32, 3, 6, 9] {
            let g = TierGeometry::paper_default(shift);
            assert!((g.ratio() - 4.0).abs() < 1e-9, "shift {shift}");
            assert!((g.oversubscription() - 2.0).abs() < 1e-9, "shift {shift}");
        }
    }

    #[test]
    fn custom_ratio_and_os() {
        let g = TierGeometry::from_tier1(1024, 2.0, 4.0);
        assert_eq!(g.tier2_pages, 2048);
        assert_eq!(g.total_pages, 4 * (1024 + 2048));
    }

    #[test]
    fn from_total_inverts_from_tier1() {
        let g = TierGeometry::from_total(6144, 4.0, 2.0);
        assert_eq!(g.total_pages, 6144);
        assert!((g.oversubscription() - 2.0).abs() < 0.01);
        assert!((g.ratio() - 4.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "scale shift too large")]
    fn absurd_shift_panics() {
        let _ = TierGeometry::paper_default(40);
    }

    #[test]
    fn default_is_small_but_proportional() {
        let g = TierGeometry::default();
        assert_eq!(g.tier1_pages, 4096);
        assert_eq!(g.tier2_pages, 16384);
    }
}
