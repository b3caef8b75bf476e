//! Shared trace-building helpers.

use gmt_mem::{PageId, WarpAccess};

/// The distinct pages one warp instruction touches, in first-occurrence
/// order, deduplicated as they arrive.
///
/// Page ids are dense integers below the workload's page count, so the
/// "seen" set is a stamp table indexed by page: a page is in the list iff
/// its stamp equals the current epoch. Emitting bumps the epoch, which
/// empties the set without touching the table. A list lives for a whole
/// trace, so building one access allocates nothing but its output.
#[derive(Debug)]
pub(crate) struct PageList {
    stamps: Vec<u32>,
    epoch: u32,
    pages: Vec<PageId>,
}

impl PageList {
    /// An empty list over pages `0..total_pages`.
    pub(crate) fn new(total_pages: usize) -> PageList {
        PageList {
            stamps: vec![0; total_pages],
            epoch: 1,
            pages: Vec::new(),
        }
    }

    /// Adds `page` unless the list already holds it.
    ///
    /// # Panics
    ///
    /// Panics if `page` is not below the list's page count.
    pub(crate) fn push(&mut self, page: PageId) {
        let stamp = &mut self.stamps[page.index()];
        if *stamp != self.epoch {
            *stamp = self.epoch;
            self.pages.push(page);
        }
    }

    /// Emits the kept pages as scattered warp accesses of at most 32
    /// pages each — the shape a divergent warp instruction produces after
    /// coalescing — and empties the list.
    pub(crate) fn emit(&mut self, out: &mut Vec<WarpAccess>, write: bool) {
        if self.pages.is_empty() {
            return;
        }
        for chunk in self.pages.chunks(32) {
            out.push(WarpAccess::scattered(chunk.to_vec(), write));
        }
        self.pages.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamps from 2^32 emits ago would read as current.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emitted(list: &mut PageList, write: bool) -> Vec<WarpAccess> {
        let mut out = Vec::new();
        list.emit(&mut out, write);
        out
    }

    #[test]
    fn dedup_and_chunking() {
        let mut list = PageList::new(35);
        (0..70).for_each(|i| list.push(PageId(i % 35)));
        let out = emitted(&mut list, false);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].pages.len(), 32);
        assert_eq!(out[1].pages.len(), 3);
        let order: Vec<PageId> = out.iter().flat_map(|a| a.pages.iter()).collect();
        assert_eq!(order, (0..35).map(PageId).collect::<Vec<_>>());
    }

    #[test]
    fn keeps_first_occurrence_order() {
        let mut list = PageList::new(10);
        [7, 2, 7, 9, 2, 0]
            .into_iter()
            .for_each(|p| list.push(PageId(p)));
        let out = emitted(&mut list, true);
        assert_eq!(
            out,
            [WarpAccess::scattered(
                vec![PageId(7), PageId(2), PageId(9), PageId(0)],
                true
            )]
        );
    }

    #[test]
    fn empty_list_emits_nothing() {
        let mut list = PageList::new(4);
        assert!(emitted(&mut list, true).is_empty());
    }

    #[test]
    fn emit_empties_the_list() {
        let mut list = PageList::new(4);
        list.push(PageId(3));
        assert_eq!(emitted(&mut list, false), [WarpAccess::read(PageId(3))]);
        assert!(emitted(&mut list, false).is_empty());
        list.push(PageId(3));
        assert_eq!(emitted(&mut list, true), [WarpAccess::write(PageId(3))]);
    }

    #[test]
    fn epoch_wrap_clears_stale_stamps() {
        let mut list = PageList::new(4);
        list.push(PageId(2)); // stamped with epoch 1
        emitted(&mut list, false);
        list.epoch = u32::MAX;
        list.push(PageId(1));
        emitted(&mut list, false);
        assert_eq!(list.epoch, 1, "the epoch wraps past 0 back to 1");
        list.push(PageId(2));
        list.push(PageId(1));
        let out = emitted(&mut list, false);
        assert_eq!(
            out[0].pages.iter().collect::<Vec<_>>(),
            [PageId(2), PageId(1)]
        );
    }
}
