//! SSSP over a GAP-Kron graph (from the BaM evaluation).
//!
//! Bellman-Ford-style relaxation rounds: the first round touches every
//! vertex, subsequent rounds touch a shrinking active set (distances
//! stabilize). Relaxations write neighbors' distance pages. The profile
//! is high reuse (Table 2: 79.96 %) with Tier-3-biased cross-round
//! distances plus a Tier-1/Tier-2 component from hubs — slightly softer
//! than PageRank's, matching Fig. 7.

use gmt_mem::{PageId, WarpAccess};
use gmt_sim::parts::{even_ranges, in_parts};
use rand::rngs::StdRng;
use rand::RngCore;

use crate::kron::{scale_bits_for_pages, CsrLayout, KronConfig, KronGraph};
use crate::util::{chunk_ranges, part_count, unit_threshold, PageList};
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
        self.trace_in_parts(seed, part_count(self.graph.edges()))
    }
}

impl Sssp {
    /// [`Workload::trace`] with each relaxation round split into `parts`
    /// threads: the activity draws by vertex range, then the relaxations
    /// by contiguous runs of 32-vertex chunks balanced by work. The part
    /// count never changes the trace.
    pub(crate) fn trace_in_parts(&self, seed: u64, parts: usize) -> Vec<WarpAccess> {
        let g = &self.graph;
        let mut rng = gmt_sim::rng::seeded(seed ^ 0x5550);
        let vertex_ranges = even_ranges(g.vertices as usize, parts);
        let mut pieces = Vec::new();
        for &activity in &self.round_activity {
            // One activity draw per vertex, so a vertex range's draws
            // start `range.start` draws into the round.
            let active_below = unit_threshold(activity);
            let picks = in_parts(vertex_ranges.iter().cloned(), |vertices| {
                let mut rng = rng.clone();
                rng.advance(vertices.start as u64);
                let mut picked = vec![0; vertices.len()];
                let mut kept = 0;
                for v in vertices {
                    // Written always, kept only if active: no branch on
                    // the draw.
                    picked[kept] = v as u32;
                    kept += usize::from(rng.next_u64() >> 11 < active_below);
                }
                picked.truncate(kept);
                (picked, rng)
            });
            let mut active = Vec::with_capacity(g.vertices as usize);
            for (picked, part_rng) in picks {
                active.extend(picked);
                rng = part_rng;
            }
            // Every relaxation draws once, so the draws before a chunk are
            // the edges of the active vertices before it.
            let mut edges_before = vec![0u64];
            for chunk in active.chunks(32) {
                let edges: u64 = chunk.iter().map(|&v| u64::from(g.degree(v))).sum();
                edges_before.push(edges_before[edges_before.len() - 1] + edges);
            }
            let round = in_parts(chunk_ranges(&edges_before, parts), |chunks| {
                let mut rng = rng.clone();
                rng.advance(edges_before[chunks.start]);
                let vertices = chunks.start * 32..active.len().min(chunks.end * 32);
                (self.relax(&active[vertices], &mut rng), rng)
            });
            // Each range's generator ends where the next one starts, so
            // the last one's has made every draw of the round.
            for (piece, part_rng) in round {
                pieces.push(piece);
                rng = part_rng;
            }
        }
        let mut out = Vec::with_capacity(pieces.iter().map(Vec::len).sum());
        pieces.into_iter().for_each(|piece| out.extend(piece));
        out
    }

    /// The accesses of one run of active vertices, 32 to a chunk, with
    /// one draw from `rng` per relaxed edge.
    fn relax(&self, active: &[u32], rng: &mut StdRng) -> Vec<WarpAccess> {
        let g = &self.graph;
        let layout = &self.layout;
        let pages = layout.total_pages();
        let mut offset_pages = PageList::new(pages);
        let mut edge_pages = PageList::new(pages);
        let mut dist_reads = PageList::new(pages);
        let mut relaxations = PageList::new(pages);
        let mut out = Vec::new();
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
                    // distance (a write); the rest only read it. A draw is
                    // below 0.25 exactly when its top two bits are clear.
                    // Picking the list, not the push, keeps the coin flip
                    // off the branch predictor.
                    let list = if rng.next_u64() < 1 << 62 {
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

    #[test]
    fn part_count_never_changes_the_trace() {
        for (config, graph_seed) in [(KronConfig::gap(12), 5), (KronConfig::gap_permuted(12), 3)] {
            let w = Sssp::on_graph(
                KronGraph::generate(config, graph_seed),
                vec![1.0, 0.6, 0.35, 0.2, 0.1],
            );
            for seed in [1, 2] {
                let whole = w.trace_in_parts(seed, 1);
                for parts in [2, 3, 7] {
                    assert!(
                        w.trace_in_parts(seed, parts) == whole,
                        "{config:?} seed {seed} in {parts} parts"
                    );
                }
            }
        }
    }
}
