//! Pages and tiers.

use std::fmt;

/// Identifier of one page in the application's address space.
///
/// GMT manages data at 64 KB page granularity (the UVM default the paper
/// adopts, §2 common parameter 1). Page ids are dense: workloads number
/// their pages `0..total_pages`, which lets every per-page table be a flat
/// vector.
///
/// # Examples
///
/// ```
/// use gmt_mem::PageId;
/// let p = PageId(42);
/// assert_eq!(p.index(), 42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(pub u64);

impl PageId {
    /// The page id as a `usize` index into dense per-page tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u64> for PageId {
    fn from(v: u64) -> PageId {
        PageId(v)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// One level of the three-tier hierarchy.
///
/// The discriminant ordering (GPU < Host < Ssd) matches "distance from the
/// GPU cores" and is what the reuse classifier (paper Eq. 1) maps RRDs onto:
/// short-reuse → [`Tier::Gpu`], medium-reuse → [`Tier::Host`], long-reuse →
/// [`Tier::Ssd`].
///
/// # Examples
///
/// ```
/// use gmt_mem::Tier;
/// assert!(Tier::Gpu < Tier::Ssd);
/// assert_eq!(Tier::Host.index(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Tier-1: GPU device memory (HBM).
    Gpu,
    /// Tier-2: host DRAM, reached over PCIe.
    Host,
    /// Tier-3: the NVMe SSD.
    Ssd,
}

impl Tier {
    /// All tiers, nearest first.
    pub const ALL: [Tier; 3] = [Tier::Gpu, Tier::Host, Tier::Ssd];

    /// Dense index (0, 1, 2) for small per-tier arrays.
    pub fn index(self) -> usize {
        match self {
            Tier::Gpu => 0,
            Tier::Host => 1,
            Tier::Ssd => 2,
        }
    }

    /// The inverse of [`Tier::index`].
    ///
    /// # Panics
    ///
    /// Panics if `i > 2`.
    pub fn from_index(i: usize) -> Tier {
        Tier::ALL[i]
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Tier::Gpu => "Tier-1(GPU)",
            Tier::Host => "Tier-2(Host)",
            Tier::Ssd => "Tier-3(SSD)",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_index_roundtrip() {
        for t in Tier::ALL {
            assert_eq!(Tier::from_index(t.index()), t);
        }
    }

    #[test]
    fn tier_ordering_is_distance_from_gpu() {
        assert!(Tier::Gpu < Tier::Host);
        assert!(Tier::Host < Tier::Ssd);
    }

    #[test]
    fn page_display() {
        assert_eq!(PageId(7).to_string(), "P7");
        assert_eq!(Tier::Gpu.to_string(), "Tier-1(GPU)");
    }

    #[test]
    fn page_from_u64() {
        let p: PageId = 9u64.into();
        assert_eq!(p, PageId(9));
    }
}
