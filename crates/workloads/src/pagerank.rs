//! PageRank over a GAP-Kron graph (from the BaM evaluation).
//!
//! Power iterations: every iteration sweeps all vertices, reading CSR
//! offsets and edge targets plus the *old* rank of every neighbor
//! (scattered, data-dependent) and writing the vertex's new rank. Pages
//! are reused heavily (Table 2: 90.42 %) but mostly at full-sweep
//! distances — the Tier-3-biased profile of Fig. 7 — with the alternating
//! eviction-time RRD pattern of Fig. 4c (pages alternate between
//! intra-iteration hub reuse and cross-iteration sweep reuse).

use std::ops::Range;

use gmt_mem::{PageId, WarpAccess};
use gmt_sim::parts::in_parts;

use crate::kron::{scale_bits_for_pages, CsrLayout, KronConfig, KronGraph};
use crate::util::{chunk_ranges, part_count, PageList};
use crate::{Workload, WorkloadScale};

/// The PageRank workload.
///
/// # Examples
///
/// ```
/// use gmt_workloads::{pagerank::PageRank, Workload, WorkloadScale};
/// let w = PageRank::with_scale(&WorkloadScale::tiny());
/// assert_eq!(w.name(), "PageRank");
/// ```
#[derive(Debug, Clone)]
pub struct PageRank {
    graph: KronGraph,
    layout: CsrLayout,
    iterations: usize,
}

impl PageRank {
    /// Generates a GAP-Kron graph sized near the scale; 3 iterations.
    pub fn with_scale(scale: &WorkloadScale) -> PageRank {
        PageRank::on_graph(
            KronGraph::generate(
                KronConfig::gap(scale_bits_for_pages(scale.total_pages)),
                0x9A6E,
            ),
            3,
        )
    }

    /// Runs over an explicit graph.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero.
    pub fn on_graph(graph: KronGraph, iterations: usize) -> PageRank {
        assert!(iterations > 0, "pagerank needs at least one iteration");
        let layout = CsrLayout::for_graph(&graph);
        PageRank {
            graph,
            layout,
            iterations,
        }
    }
}

impl Workload for PageRank {
    fn name(&self) -> &'static str {
        "PageRank"
    }

    fn total_pages(&self) -> usize {
        self.layout.total_pages()
    }

    /// Every iteration touches the same pages in the same order, so one
    /// is built and then repeated; the seed plays no part.
    fn trace(&self, _seed: u64) -> Vec<WarpAccess> {
        self.trace_in_parts(part_count(self.graph.edges()))
    }
}

impl PageRank {
    /// [`Workload::trace`] with the iteration split into `parts`
    /// contiguous runs of 32-vertex chunks, balanced by work and built on
    /// their own threads. The part count never changes the trace.
    pub(crate) fn trace_in_parts(&self, parts: usize) -> Vec<WarpAccess> {
        let g = &self.graph;
        let first_vertex = |chunk: usize| g.vertices.min(chunk as u32 * 32);
        let edges_before: Vec<u64> = (0..=g.vertices.div_ceil(32) as usize)
            .map(|chunk| u64::from(g.offsets[first_vertex(chunk) as usize]))
            .collect();
        let pieces = in_parts(chunk_ranges(&edges_before, parts), |chunks| {
            self.sweep(first_vertex(chunks.start)..first_vertex(chunks.end))
        });
        let iteration: usize = pieces.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(iteration * self.iterations);
        pieces.into_iter().for_each(|piece| out.extend(piece));
        for _ in 1..self.iterations {
            out.extend_from_within(..iteration);
        }
        out
    }

    /// One iteration's accesses for vertices `vertices`, 32 to a chunk;
    /// the range starts on a chunk boundary.
    fn sweep(&self, vertices: Range<u32>) -> Vec<WarpAccess> {
        let g = &self.graph;
        let layout = &self.layout;
        let pages = layout.total_pages();
        let mut offset_pages = PageList::new(pages);
        let mut edge_pages = PageList::new(pages);
        let mut rank_reads = PageList::new(pages);
        let mut own_ranks = PageList::new(pages);
        let mut out = Vec::new();
        for first in vertices.clone().step_by(32) {
            let chunk = first..vertices.end.min(first + 32);
            for v in chunk.clone() {
                offset_pages.push(PageId(layout.offset_page(v)));
            }
            offset_pages.emit(&mut out, false);
            // The chunk's edges are one contiguous run of `targets`.
            let edges = g.edge_range(chunk.start).start..g.edge_range(chunk.end - 1).end;
            for page in layout.edge_pages(edges.clone()) {
                edge_pages.push(PageId(page));
            }
            edge_pages.emit(&mut out, false);
            for &u in &g.targets[edges.start as usize..edges.end as usize] {
                rank_reads.push(PageId(layout.value_page(u)));
            }
            rank_reads.emit(&mut out, false);
            for v in chunk {
                own_ranks.push(PageId(layout.value_page(v)));
            }
            own_ranks.emit(&mut out, true);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PageRank {
        PageRank::on_graph(KronGraph::generate(KronConfig::gap(12), 5), 2)
    }

    #[test]
    fn every_vertex_rank_is_written_each_iteration() {
        let w = small();
        let trace = w.trace(0);
        let writes: usize = trace
            .iter()
            .filter(|a| a.write)
            .map(|a| a.pages.len())
            .sum();
        // 32-vertex chunks usually share one value page, so counts are in
        // pages; each chunk writes at least one page per iteration.
        let chunks = w.graph.vertices.div_ceil(32) as usize;
        assert!(writes >= chunks * w.iterations);
    }

    #[test]
    fn hub_rank_pages_dominate_reads() {
        let w = small();
        let trace = w.trace(0);
        let hub_page = PageId(w.layout.value_page(0));
        let hub_reads = trace
            .iter()
            .filter(|a| !a.write && a.pages.iter().any(|p| p == hub_page))
            .count();
        assert!(
            hub_reads > w.iterations * 10,
            "hub page read only {hub_reads} times"
        );
    }

    #[test]
    fn iterations_multiply_trace_length() {
        let one = PageRank::on_graph(KronGraph::generate(KronConfig::gap(12), 5), 1);
        let two = small();
        assert_eq!(one.trace(0).len() * 2, two.trace(0).len());
    }

    #[test]
    fn part_count_never_changes_the_trace() {
        for (config, seed) in [(KronConfig::gap(12), 5), (KronConfig::gap_permuted(12), 3)] {
            let w = PageRank::on_graph(KronGraph::generate(config, seed), 3);
            let whole = w.trace_in_parts(1);
            for parts in [2, 3, 7] {
                assert!(
                    w.trace_in_parts(parts) == whole,
                    "{config:?} seed {seed} in {parts} parts"
                );
            }
        }
    }
}
