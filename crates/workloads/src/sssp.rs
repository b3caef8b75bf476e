//! SSSP over a GAP-Kron graph (from the BaM evaluation).
//!
//! Bellman-Ford-style relaxation rounds: the first round touches every
//! vertex, subsequent rounds touch a shrinking active set (distances
//! stabilize). Relaxations write neighbors' distance pages. The profile
//! is high reuse (Table 2: 79.96 %) with Tier-3-biased cross-round
//! distances plus a Tier-1/Tier-2 component from hubs — slightly softer
//! than PageRank's, matching Fig. 7.

use gmt_mem::{PageId, WarpAccess};
use rand::Rng;

use crate::kron::{scale_bits_for_pages, CsrLayout, KronConfig, KronGraph};
use crate::util::PageList;
use crate::{Workload, WorkloadScale};

/// The SSSP workload.
///
/// # Examples
///
/// ```
/// use gmt_workloads::{sssp::Sssp, Workload, WorkloadScale};
/// let w = Sssp::with_scale(&WorkloadScale::tiny());
/// assert!(w.trace(0).iter().any(|a| a.write));
/// ```
#[derive(Debug, Clone)]
pub struct Sssp {
    graph: KronGraph,
    layout: CsrLayout,
    /// Fraction of vertices active in each relaxation round.
    round_activity: Vec<f64>,
}

impl Sssp {
    /// Generates a GAP-Kron graph sized near the scale; five relaxation
    /// rounds with geometrically shrinking activity.
    pub fn with_scale(scale: &WorkloadScale) -> Sssp {
        Sssp::on_graph(
            KronGraph::generate(
                KronConfig::gap(scale_bits_for_pages(scale.total_pages)),
                0x555,
            ),
            vec![1.0, 0.6, 0.35, 0.2, 0.1],
        )
    }

    /// Runs over an explicit graph with explicit per-round activity.
    ///
    /// # Panics
    ///
    /// Panics if `round_activity` is empty or has values outside `[0, 1]`.
    pub fn on_graph(graph: KronGraph, round_activity: Vec<f64>) -> Sssp {
        assert!(!round_activity.is_empty(), "sssp needs at least one round");
        assert!(
            round_activity.iter().all(|f| (0.0..=1.0).contains(f)),
            "activity fractions must be in [0, 1]"
        );
        let layout = CsrLayout::for_graph(&graph);
        Sssp {
            graph,
            layout,
            round_activity,
        }
    }
}

impl Workload for Sssp {
    fn name(&self) -> &'static str {
        "SSSP"
    }

    fn total_pages(&self) -> usize {
        self.layout.total_pages()
    }

    fn trace(&self, seed: u64) -> Vec<WarpAccess> {
        let g = &self.graph;
        let layout = &self.layout;
        let pages = layout.total_pages();
        let mut offset_pages = PageList::new(pages);
        let mut edge_pages = PageList::new(pages);
        let mut dist_reads = PageList::new(pages);
        let mut relaxations = PageList::new(pages);
        let mut rng = gmt_sim::rng::seeded(seed ^ 0x5550);
        let mut out = Vec::new();
        for &activity in &self.round_activity {
            let active: Vec<u32> = (0..g.vertices)
                .filter(|_| rng.gen::<f64>() < activity)
                .collect();
            for chunk in active.chunks(32) {
                for &v in chunk {
                    offset_pages.push(PageId(layout.offset_page(v)));
                }
                offset_pages.emit(&mut out, false);
                for &v in chunk {
                    for page in layout.edge_pages(g.edge_range(v)) {
                        edge_pages.push(PageId(page));
                    }
                    dist_reads.push(PageId(layout.value_page(v)));
                    for &u in g.neighbors(v) {
                        // A quarter of relaxations improve the neighbor's
                        // distance (a write); the rest only read it. Picking
                        // the list, not the push, keeps the coin flip off
                        // the branch predictor.
                        let list = if rng.gen::<f64>() < 0.25 {
                            &mut relaxations
                        } else {
                            &mut dist_reads
                        };
                        list.push(PageId(layout.value_page(u)));
                    }
                }
                edge_pages.emit(&mut out, false);
                dist_reads.emit(&mut out, false);
                relaxations.emit(&mut out, true);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Sssp {
        Sssp::on_graph(KronGraph::generate(KronConfig::gap(12), 5), vec![1.0, 0.5])
    }

    #[test]
    fn rounds_shrink() {
        let w = small();
        let full = Sssp::on_graph(KronGraph::generate(KronConfig::gap(12), 5), vec![1.0]);
        let trace_two = w.trace(1).len();
        let trace_one = full.trace(1).len();
        assert!(
            trace_two < trace_one * 2,
            "second round must be smaller than the first"
        );
        assert!(trace_two > trace_one, "second round must add accesses");
    }

    #[test]
    fn relaxations_write_distance_pages() {
        let w = small();
        let trace = w.trace(1);
        assert!(
            trace.iter().any(|a| a.write),
            "sssp must relax some distances"
        );
    }

    #[test]
    fn traces_vary_with_seed() {
        let w = small();
        assert_ne!(w.trace(1), w.trace(2), "active sets are seed-dependent");
    }
}
