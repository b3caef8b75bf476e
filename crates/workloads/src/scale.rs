//! Sizing workloads relative to the memory hierarchy.

use gmt_mem::TierGeometry;

/// How large a workload's data set is, in pages.
///
/// The paper sizes non-graph datasets so the working set over-subscribes
/// Tier-1 + Tier-2 by a chosen factor (2 by default, 4 in Fig. 11). A
/// `WorkloadScale` carries that resolved page count plus the geometry it
/// came from so graph workloads can size their synthetic graph
/// proportionally.
///
/// # Examples
///
/// ```
/// use gmt_mem::TierGeometry;
/// use gmt_workloads::WorkloadScale;
///
/// let geometry = TierGeometry::from_tier1(512, 4.0, 2.0);
/// let scale = WorkloadScale::for_geometry(&geometry);
/// assert_eq!(scale.total_pages, geometry.total_pages);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadScale {
    /// Pages the data set should span (the trace address-space extent).
    pub total_pages: usize,
}

impl WorkloadScale {
    /// The fewest pages a workload can meaningfully partition.
    pub const MIN_PAGES: usize = 64;

    /// Sizes the working set to fill the geometry's configured
    /// over-subscription.
    pub fn for_geometry(geometry: &TierGeometry) -> WorkloadScale {
        WorkloadScale {
            total_pages: geometry.total_pages,
        }
    }

    /// An explicit page count.
    ///
    /// # Panics
    ///
    /// Panics if `total_pages` is below [`WorkloadScale::MIN_PAGES`].
    pub fn pages(total_pages: usize) -> WorkloadScale {
        assert!(
            total_pages >= WorkloadScale::MIN_PAGES,
            "workloads need at least 64 pages to partition"
        );
        WorkloadScale { total_pages }
    }

    /// A documentation/test scale: small enough for doctests, large enough
    /// for every workload's array partitioning to be non-degenerate.
    pub fn tiny() -> WorkloadScale {
        WorkloadScale { total_pages: 128 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_geometry_matches_total() {
        let g = TierGeometry::from_tier1(100, 4.0, 2.0);
        assert_eq!(WorkloadScale::for_geometry(&g).total_pages, 1000);
    }

    #[test]
    #[should_panic(expected = "at least 64 pages")]
    fn degenerate_scale_rejected() {
        let _ = WorkloadScale::pages(10);
    }
}
