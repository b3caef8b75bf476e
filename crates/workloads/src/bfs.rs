//! BFS over a GAP-Kron graph, with data-dependent vertex/edge accesses
//! (from the BaM evaluation).
//!
//! Level-synchronous BFS from the highest-degree vertex: each frontier
//! chunk reads CSR offset pages (coalesced), edge-target pages
//! (scattered), and writes distance pages for newly discovered vertices.
//! Pages holding many vertices are revisited level after level at medium
//! distances, giving the paper's medium-reuse, Tier-2-biased profile
//! (Table 2: 32.86 %).

use std::cmp::Reverse;

use gmt_mem::{PageId, WarpAccess};

use crate::kron::{scale_bits_for_pages, CsrLayout, KronConfig, KronGraph};
use crate::util::PageList;
use crate::{Workload, WorkloadScale};

/// The BFS workload (graph generated at construction).
///
/// # Examples
///
/// ```
/// use gmt_workloads::{bfs::Bfs, Workload, WorkloadScale};
/// let w = Bfs::with_scale(&WorkloadScale::tiny());
/// assert!(w.total_pages() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Bfs {
    graph: KronGraph,
    layout: CsrLayout,
}

impl Bfs {
    /// Generates a GAP-Kron graph sized near the scale.
    pub fn with_scale(scale: &WorkloadScale) -> Bfs {
        Bfs::on_graph(KronGraph::generate(
            KronConfig::gap(scale_bits_for_pages(scale.total_pages)),
            0xB_F5,
        ))
    }

    /// Runs BFS over an explicit graph.
    pub fn on_graph(graph: KronGraph) -> Bfs {
        let layout = CsrLayout::for_graph(&graph);
        Bfs { graph, layout }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &KronGraph {
        &self.graph
    }
}

impl Workload for Bfs {
    fn name(&self) -> &'static str {
        "BFS"
    }

    fn total_pages(&self) -> usize {
        self.layout.total_pages()
    }

    fn trace(&self, _seed: u64) -> Vec<WarpAccess> {
        let g = &self.graph;
        let layout = &self.layout;
        let pages = layout.total_pages();
        let mut offset_pages = PageList::new(pages);
        let mut edge_pages = PageList::new(pages);
        let mut dist_pages = PageList::new(pages);
        let mut out = Vec::new();
        let mut visited = vec![false; g.vertices as usize];
        // The hub: highest out-degree, lowest id on ties.
        let source = (0..g.vertices)
            .max_by_key(|&v| (g.degree(v), Reverse(v)))
            .expect("a Kronecker graph has at least one vertex");
        visited[source as usize] = true;
        let mut frontier = vec![source];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for chunk in frontier.chunks(32) {
                // Read CSR offsets for the chunk.
                for &v in chunk {
                    offset_pages.push(PageId(layout.offset_page(v)));
                }
                offset_pages.emit(&mut out, false);
                // Read edge-target pages; discover neighbors and write
                // their distances.
                for &v in chunk {
                    for page in layout.edge_pages(g.edge_range(v)) {
                        edge_pages.push(PageId(page));
                    }
                    for &u in g.neighbors(v) {
                        if !visited[u as usize] {
                            visited[u as usize] = true;
                            dist_pages.push(PageId(layout.value_page(u)));
                            next.push(u);
                        }
                    }
                }
                edge_pages.emit(&mut out, false);
                dist_pages.emit(&mut out, true);
            }
            frontier = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Bfs {
        Bfs::on_graph(KronGraph::generate(KronConfig::gap(12), 5))
    }

    #[test]
    fn bfs_reaches_most_of_the_graph() {
        let w = small();
        let trace = w.trace(0);
        // Discovered vertices = distance writes; kron graphs are mostly one
        // giant connected component reachable from the hub.
        let discovered: usize = trace
            .iter()
            .filter(|a| a.write)
            .map(|a| a.pages.len())
            .sum::<usize>();
        assert!(discovered >= 1, "some vertices must be discovered");
        let reads = trace.iter().filter(|a| !a.write).count();
        assert!(reads > 0);
    }

    #[test]
    fn bfs_starts_from_the_hub_of_a_permuted_graph() {
        // Relabeling leaves vertex 0 with degree 0 on this graph, so a BFS
        // from vertex 0 would be a single offset read.
        let g = KronGraph::generate(KronConfig::gap_permuted(12), 3);
        assert_eq!(g.degree(0), 0);
        let hub = (0..g.vertices).max_by_key(|&v| g.degree(v)).unwrap();
        let mut seen = vec![false; g.vertices as usize];
        seen[hub as usize] = true;
        let (mut stack, mut reached) = (vec![hub], 1);
        while let Some(v) = stack.pop() {
            for &u in g.neighbors(v) {
                if !std::mem::replace(&mut seen[u as usize], true) {
                    reached += 1;
                    stack.push(u);
                }
            }
        }
        assert!(reached > g.vertices as usize / 2, "hub reaches {reached}");
        // All 4096 offsets share one page, and every frontier chunk of at
        // most 32 vertices reads it once.
        let offsets_page = PageId(CsrLayout::for_graph(&g).offset_page(0));
        let trace = Bfs::on_graph(g).trace(0);
        let chunks = trace
            .iter()
            .filter(|a| !a.write && a.pages.iter().any(|p| p == offsets_page))
            .count();
        assert!(
            chunks >= reached.div_ceil(32),
            "{chunks} frontier chunks cannot cover {reached} vertices"
        );
    }

    #[test]
    fn trace_has_scattered_accesses() {
        let w = small();
        let divergent = w.trace(0).iter().filter(|a| a.pages.len() > 1).count();
        assert!(
            divergent > 0,
            "graph traversal must produce divergent accesses"
        );
    }

    #[test]
    fn offset_pages_are_reused_across_levels() {
        let w = small();
        let trace = w.trace(0);
        let mut counts = std::collections::BTreeMap::new();
        for a in &trace {
            for p in a.pages.iter() {
                *counts.entry(p).or_insert(0u32) += 1;
            }
        }
        let reused = counts.values().filter(|&&c| c > 1).count();
        assert!(reused > 0, "CSR pages must be revisited");
    }
}
