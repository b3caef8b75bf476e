//! Coalesced warp accesses.

use std::fmt;

use crate::PageId;

/// The set of distinct pages touched by one coalesced warp instruction.
///
/// On NVIDIA GPUs a warp's 32 lanes issue one coalesced memory transaction;
/// after coalescing, a unit-stride access touches a single page while a
/// scattered (graph/pointer) access can touch up to 32. `PageSet` stores the
/// single-page case inline so million-entry traces stay compact.
///
/// # Examples
///
/// ```
/// use gmt_mem::{PageId, PageSet};
/// let one = PageSet::from(PageId(3));
/// assert_eq!(one.len(), 1);
/// let many = PageSet::from(vec![PageId(1), PageId(2)]);
/// assert_eq!(many.iter().count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PageSet {
    /// A fully-coalesced access touching a single page (the common case).
    One(PageId),
    /// A divergent access touching several distinct pages.
    Many(Box<[PageId]>),
}

impl PageSet {
    /// Number of distinct pages touched.
    pub fn len(&self) -> usize {
        match self {
            PageSet::One(_) => 1,
            PageSet::Many(pages) => pages.len(),
        }
    }

    /// Whether the set is empty (only possible for an empty `Many`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the touched pages.
    pub fn iter(&self) -> impl Iterator<Item = PageId> + '_ {
        match self {
            PageSet::One(p) => std::slice::from_ref(p).iter().copied(),
            PageSet::Many(pages) => pages.iter().copied(),
        }
    }

    /// The touched pages, to overwrite in place.
    pub(crate) fn ids_mut(&mut self) -> &mut [PageId] {
        match self {
            PageSet::One(p) => std::slice::from_mut(p),
            PageSet::Many(pages) => pages,
        }
    }

    /// The first page in the set.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn first(&self) -> PageId {
        self.iter().next().expect("page set is empty")
    }

    /// Shifts every page id by `offset` in place (no reallocation).
    ///
    /// Multi-tenant runtimes use this to relocate a tenant's trace into
    /// its global page range without rebuilding every access.
    pub fn relocate(&mut self, offset: u64) {
        for p in self.ids_mut() {
            p.0 += offset;
        }
    }
}

impl From<PageId> for PageSet {
    fn from(p: PageId) -> PageSet {
        PageSet::One(p)
    }
}

impl From<Vec<PageId>> for PageSet {
    fn from(mut pages: Vec<PageId>) -> PageSet {
        if pages.len() == 1 {
            PageSet::One(pages.pop().expect("len checked"))
        } else {
            PageSet::Many(pages.into_boxed_slice())
        }
    }
}

/// The most distinct pages one warp instruction touches: one per thread
/// of a 32-thread warp, each lane on a page of its own.
pub const WARP_PAGES: usize = 32;

/// One coalesced memory instruction issued by a GPU warp.
///
/// This is the unit the whole pipeline operates on: workload generators
/// produce streams of `WarpAccess`es, the executor replays them through a
/// memory backend, and GMT's virtual timestamp counter increments once per
/// `WarpAccess` (paper §2.1.3: "a counter that is updated on each coalesced
/// access").
///
/// # Examples
///
/// ```
/// use gmt_mem::{PageId, WarpAccess};
/// let a = WarpAccess::read(PageId(5));
/// assert!(!a.write);
/// let w = WarpAccess::write(PageId(5));
/// assert!(w.write);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpAccess {
    /// Distinct pages touched by the coalesced instruction.
    pub pages: PageSet,
    /// Whether the instruction stores (dirties the pages).
    pub write: bool,
}

impl WarpAccess {
    /// A coalesced read of a single page.
    pub fn read(page: PageId) -> WarpAccess {
        WarpAccess {
            pages: PageSet::One(page),
            write: false,
        }
    }

    /// A coalesced write of a single page.
    pub fn write(page: PageId) -> WarpAccess {
        WarpAccess {
            pages: PageSet::One(page),
            write: true,
        }
    }

    /// A divergent access touching several pages.
    pub fn scattered(pages: Vec<PageId>, write: bool) -> WarpAccess {
        WarpAccess {
            pages: PageSet::from(pages),
            write,
        }
    }

    /// Shifts every touched page by `offset` in place.
    pub fn relocate(&mut self, offset: u64) {
        self.pages.relocate(offset);
    }
}

impl fmt::Display for WarpAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.write { "W" } else { "R" };
        write!(f, "{kind}[")?;
        for (i, p) in self.pages.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_page_is_inline() {
        let set = PageSet::from(vec![PageId(9)]);
        assert!(matches!(set, PageSet::One(PageId(9))));
    }

    #[test]
    fn many_preserves_order() {
        let set = PageSet::from(vec![PageId(3), PageId(1), PageId(2)]);
        let v: Vec<_> = set.iter().collect();
        assert_eq!(v, vec![PageId(3), PageId(1), PageId(2)]);
        assert_eq!(set.first(), PageId(3));
    }

    #[test]
    fn access_constructors() {
        let r = WarpAccess::read(PageId(1));
        let w = WarpAccess::write(PageId(1));
        let s = WarpAccess::scattered(vec![PageId(1), PageId(2)], true);
        assert!(!r.write && w.write && s.write);
        assert_eq!(s.pages.len(), 2);
    }

    #[test]
    fn relocate_shifts_every_variant() {
        let mut one = WarpAccess::read(PageId(3));
        one.relocate(100);
        assert_eq!(one.pages.first(), PageId(103));
        let mut many = WarpAccess::scattered(vec![PageId(1), PageId(2)], true);
        many.relocate(10);
        let v: Vec<_> = many.pages.iter().collect();
        assert_eq!(v, vec![PageId(11), PageId(12)]);
        assert!(many.write, "relocation keeps the access kind");
    }

    #[test]
    fn display_formats_compactly() {
        let s = WarpAccess::scattered(vec![PageId(1), PageId(2)], false);
        assert_eq!(s.to_string(), "R[P1,P2]");
    }

    #[test]
    fn small_footprint() {
        // The One variant must stay pointer-sized-ish so big traces fit in RAM.
        assert!(std::mem::size_of::<PageSet>() <= 24);
        assert!(std::mem::size_of::<WarpAccess>() <= 32);
    }
}
