//! Shared graph-building and trace-building helpers.

use std::ops::Range;

use gmt_mem::{PageId, WarpAccess, WARP_PAGES};

/// Fewest edges worth a thread of their own when building a graph or a
/// trace over one. Below this a part costs more to start than it saves,
/// so graphs below scale 16 (at edge factor 16) and their traces are
/// built by one thread.
const MIN_PART_EDGES: usize = 1 << 20;

/// How many parts a build over `edges` edges of work is split into: one
/// per core, but never so many that a part gets fewer than
/// [`MIN_PART_EDGES`] (see [`gmt_sim::parts::part_count`]).
pub(crate) fn part_count(edges: usize) -> usize {
    gmt_sim::parts::part_count(edges, MIN_PART_EDGES)
}

/// The integer `t` such that a draw `r = m / 2^53`, for the top 53 bits
/// `m` of one generator output, is below `p` exactly when `m < t`: the
/// value `ceil(p · 2^53)`, exact because scaling by a power of two is.
/// A coin flip then needs no conversion to `f64`.
pub(crate) fn unit_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Trace-building work of one vertex, in edges. Each vertex of a chunk
/// pushes its own pages and each chunk emits its accesses, so a run of
/// low-degree vertices costs more than its edge count. Measured at scale
/// 20 on a 2-core VM: weighing edges alone, the part holding the many
/// low-degree vertices took 1.6–1.9× as long as the hub part, and of
/// the weights 0, 8, 12 and 16, 12 built SSSP and PageRank fastest.
const VERTEX_EDGES: u64 = 12;

/// Cuts 32-vertex chunks into `parts` contiguous ranges of about equal
/// work. `edges_before[i]` counts the edges of chunks `0..i`, so it holds
/// one entry more than there are chunks; a chunk's work is its edges
/// plus [`VERTEX_EDGES`] for each of its (taken as 32) vertices. Ranges
/// may be empty.
pub(crate) fn chunk_ranges(edges_before: &[u64], parts: usize) -> Vec<Range<usize>> {
    let work: Vec<u64> = (0..)
        .zip(edges_before)
        .map(|(chunk, &edges)| edges + chunk * 32 * VERTEX_EDGES)
        .collect();
    let chunks = work.len() - 1;
    let mut start = 0;
    (1..=parts as u64)
        .map(|k| {
            let end = work.partition_point(|&w| w < k * work[chunks] / parts as u64);
            let range = start..end;
            start = end;
            range
        })
        .collect()
}

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

    /// Emits the kept pages as scattered warp accesses of at most
    /// `WARP_PAGES` pages each — the shape a divergent warp instruction
    /// produces after coalescing — and empties the list.
    pub(crate) fn emit(&mut self, out: &mut Vec<WarpAccess>, write: bool) {
        if self.pages.is_empty() {
            return;
        }
        for chunk in self.pages.chunks(WARP_PAGES) {
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

    #[test]
    fn unit_threshold_matches_the_float_compare() {
        for p in [0.0, 0.1, 0.25, 0.35, 0.6, 1.0] {
            let t = unit_threshold(p);
            for m in [0, 1, t.saturating_sub(1), t, t + 1, (1 << 53) - 1] {
                let m = m.min((1 << 53) - 1);
                let r = m as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(m < t, r < p, "p {p} m {m}");
            }
        }
        assert_eq!(unit_threshold(0.25), 1 << 51);
    }

    #[test]
    fn chunk_ranges_cover_every_chunk_once_in_order() {
        // Chunk 2 holds most of the edges.
        let edges_before = [0, 1, 2, 9000, 9001, 9002, 9100];
        for parts in 1..=8 {
            let ranges = chunk_ranges(&edges_before, parts);
            assert_eq!(ranges.len(), parts);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[parts - 1].end, 6);
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        }
        assert_eq!(chunk_ranges(&edges_before, 2), [0..3, 3..6]);
        assert_eq!(chunk_ranges(&[0], 3), [0..0, 0..0, 0..0]);
    }

    #[test]
    fn chunk_ranges_weigh_vertices_as_well_as_edges() {
        // Four chunks without edges: the vertices alone balance them.
        assert_eq!(chunk_ranges(&[0; 5], 2), [0..2, 2..4]);
        // 600 edges each in chunks 0 and 3: by edges alone the cut would
        // fall after chunk 0. With 384 for each chunk's vertices, chunks
        // 0..2 do 1368 of the 2736 units of work.
        assert_eq!(chunk_ranges(&[0, 600, 600, 600, 1200], 2), [0..2, 2..4]);
    }

    #[test]
    fn one_part_for_small_builds() {
        assert_eq!(part_count(0), 1);
        assert_eq!(part_count(MIN_PART_EDGES - 1), 1);
        assert!(part_count(usize::MAX) >= 1);
    }

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
