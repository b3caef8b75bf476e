//! GAP-Kron synthetic graph generation (RMAT) and its page layout.
//!
//! The paper's three graph applications (BFS, SSSP, PageRank) run on the
//! GAP benchmark suite's Kronecker graph. We generate the same family of
//! graphs with the GAP parameters (A = 0.57, B = 0.19, C = 0.19,
//! edge factor 16) and lay the CSR arrays out over 64 KB pages so vertex
//! and edge accesses map to page accesses the way the BaM-modified
//! applications see them.

use std::ops::Range;

use gmt_sim::parts::in_parts;
use rand::{Rng, RngCore};

use crate::util::{part_count, unit_threshold};

/// RMAT generation parameters (defaults are GAP-Kron's).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KronConfig {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Directed edges per vertex.
    pub edge_factor: u32,
    /// RMAT quadrant probabilities (the fourth is the remainder).
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// Apply GAP's random vertex relabeling, which destroys the artificial
    /// id-locality of raw RMAT (hubs clustered at low ids). Off by
    /// default: the clustered layout is itself a realistic CSR-on-disk
    /// layout (hot vertices packed together by a preprocessing step).
    pub permute: bool,
}

impl KronConfig {
    /// GAP-Kron parameters at the given scale.
    pub fn gap(scale: u32) -> KronConfig {
        KronConfig {
            scale,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            permute: false,
        }
    }

    /// GAP parameters with the random vertex permutation applied.
    pub fn gap_permuted(scale: u32) -> KronConfig {
        KronConfig {
            permute: true,
            ..KronConfig::gap(scale)
        }
    }
}

/// `2^scale × edge_factor`.
///
/// # Panics
///
/// Panics if the count does not fit the `u32` CSR offsets.
fn edge_count(config: &KronConfig) -> usize {
    1u32.checked_shl(config.scale)
        .and_then(|vertices| vertices.checked_mul(config.edge_factor))
        .expect("edge count too large for u32 CSR offsets") as usize
}

/// A directed graph in CSR form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KronGraph {
    /// Number of vertices (a power of two).
    pub vertices: u32,
    /// CSR row offsets, length `vertices + 1`.
    pub offsets: Vec<u32>,
    /// CSR column indices (edge targets), length = edge count.
    pub targets: Vec<u32>,
}

impl KronGraph {
    /// Generates an RMAT graph.
    ///
    /// The build is split over the cores the process may run on, in
    /// parts of at least 2^20 edges, and yields the same graph on any
    /// core count.
    ///
    /// # Panics
    ///
    /// Panics if the edge count `2^scale × edge_factor` exceeds
    /// `u32::MAX` (the CSR offsets are `u32`) or the probabilities are not
    /// a sub-distribution. Both checks run before anything is allocated.
    pub fn generate(config: KronConfig, seed: u64) -> KronGraph {
        KronGraph::generate_in_parts(config, seed, part_count(edge_count(&config)))
    }

    /// [`KronGraph::generate`] split into `parts` threads, each drawing a
    /// contiguous run of edges and then placing the edges of a contiguous
    /// vertex range. The part count never changes the graph.
    pub(crate) fn generate_in_parts(config: KronConfig, seed: u64, parts: usize) -> KronGraph {
        #[cfg(test)]
        tests::count_generated();
        let edges = edge_count(&config);
        let (a, b, c) = (config.a, config.b, config.c);
        assert!(
            a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c <= 1.0,
            "invalid RMAT quadrants"
        );
        let vertices = 1u32 << config.scale;
        let mut rng = gmt_sim::rng::seeded(seed);
        // Optional GAP-style relabeling (a seeded Fisher-Yates shuffle).
        let relabel: Option<Vec<u32>> = config.permute.then(|| {
            let mut map: Vec<u32> = (0..vertices).collect();
            for i in (1..map.len()).rev() {
                map.swap(i, rng.gen_range(0..=i));
            }
            map
        });
        // One draw per level picks a quadrant: [0, a) top-left, [a, ab)
        // top-right, [ab, abc) bottom-left, the rest bottom-right, compared
        // on the draw's top 53 bits against exact integer thresholds. The
        // draws are close to random, so the bits are computed without
        // branches rather than through a mispredicted four-way chain.
        let (ta, tab, tabc) = (
            unit_threshold(a),
            unit_threshold(a + b),
            unit_threshold(a + b + c),
        );
        let per_part = edges.div_ceil(parts).max(1);
        let mut pairs = vec![(0u32, 0u32); edges];
        let relabel = relabel.as_deref();
        in_parts(pairs.chunks_mut(per_part).enumerate(), |(k, part)| {
            // Each part starts where the serial stream would reach its
            // first edge: `scale` draws per edge after the shuffle.
            let mut rng = rng.clone();
            rng.advance((k * per_part) as u64 * u64::from(config.scale));
            for pair in part {
                let (mut src, mut dst) = (0u32, 0u32);
                for _ in 0..config.scale {
                    let m = rng.next_u64() >> 11;
                    let dst_bit = (m >= ta) ^ (m >= tab) ^ (m >= tabc);
                    src = (src << 1) | u32::from(m >= tab);
                    dst = (dst << 1) | u32::from(dst_bit);
                }
                *pair = match relabel {
                    Some(map) => (map[src as usize], map[dst as usize]),
                    None => (src, dst),
                };
            }
        });
        // Counting-sort into CSR. The count is one pass over the pairs;
        // placement, the costlier pass, is split into contiguous vertex
        // ranges of about `edges / parts` edges each (RMAT degree is
        // skewed). Each part owns its vertices' slots, scans every pair in
        // order and places only its own, so per-vertex order is
        // generation order whatever the part count. Placing an edge
        // advances its source's offset, which leaves `offsets[v]` where
        // `v + 1` starts; one shift then restores the row starts.
        let mut offsets = vec![0u32; vertices as usize + 1];
        for &(src, _) in &pairs {
            offsets[src as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut targets = vec![0u32; edges];
        let mut cursors = &mut offsets[..vertices as usize];
        let mut slots = targets.as_mut_slice();
        let (mut first, mut placed) = (0, 0);
        let mut places = Vec::with_capacity(parts);
        for k in 1..=parts {
            let len = if k == parts {
                cursors.len()
            } else {
                cursors.partition_point(|&o| (o as usize) < k * edges / parts)
            };
            let (cursor, rest) = cursors.split_at_mut(len);
            cursors = rest;
            let end = cursors.first().map_or(edges, |&o| o as usize);
            let (mine, rest) = slots.split_at_mut(end - placed);
            slots = rest;
            places.push((cursor, mine, first, placed));
            (first, placed) = (first + len, end);
        }
        in_parts(places, |(cursor, mine, first, base)| {
            for &(src, dst) in &pairs {
                if let Some(c) = cursor.get_mut((src as usize).wrapping_sub(first)) {
                    mine[*c as usize - base] = dst;
                    *c += 1;
                }
            }
        });
        offsets.copy_within(..vertices as usize, 1);
        offsets[0] = 0;
        KronGraph {
            vertices,
            offsets,
            targets,
        }
    }

    /// Number of directed edges.
    pub fn edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: u32) -> u32 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Positions of `v`'s edges in `targets`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn edge_range(&self, v: u32) -> Range<u64> {
        u64::from(self.offsets[v as usize])..u64::from(self.offsets[v as usize + 1])
    }

    /// The neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }
}

/// The CSR arrays laid out contiguously over 64 KB pages, the way the
/// BaM-modified graph applications place them on the SSD:
/// `[offsets | per-vertex values | edge targets]`, 8 bytes per entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrLayout {
    vertices: u64,
    edges: u64,
    /// log2 of the entries per page: page lookups sit in the innermost
    /// trace loops, where a shift is several times cheaper than a divide.
    entries_shift: u32,
}

impl CsrLayout {
    /// Lays out a graph with the given counts on `page_bytes` pages.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two of at least 8.
    pub fn new(vertices: u64, edges: u64, page_bytes: u64) -> CsrLayout {
        assert!(page_bytes >= 8, "pages must hold at least one entry");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        CsrLayout {
            vertices,
            edges,
            entries_shift: (page_bytes / 8).trailing_zeros(),
        }
    }

    /// Lays out `graph` on 64 KB pages.
    pub fn for_graph(graph: &KronGraph) -> CsrLayout {
        CsrLayout::new(graph.vertices as u64, graph.edges() as u64, 64 * 1024)
    }

    fn offsets_pages(&self) -> u64 {
        self.vertices.div_ceil(self.entries_per_page()).max(1)
    }

    fn values_pages(&self) -> u64 {
        self.offsets_pages()
    }

    fn targets_pages(&self) -> u64 {
        self.edges.div_ceil(self.entries_per_page()).max(1)
    }

    /// Total pages the three arrays span.
    pub fn total_pages(&self) -> usize {
        (self.offsets_pages() + self.values_pages() + self.targets_pages()) as usize
    }

    /// Page holding vertex `v`'s CSR offset.
    pub fn offset_page(&self, v: u32) -> u64 {
        u64::from(v) >> self.entries_shift
    }

    /// Page holding vertex `v`'s per-vertex value (distance, rank, …).
    pub fn value_page(&self, v: u32) -> u64 {
        self.offsets_pages() + (u64::from(v) >> self.entries_shift)
    }

    /// Page holding the `i`-th edge target.
    pub fn edge_page(&self, i: u64) -> u64 {
        self.offsets_pages() + self.values_pages() + (i >> self.entries_shift)
    }

    /// Pages holding edge entries `edges`, each once and in order.
    pub fn edge_pages(&self, edges: Range<u64>) -> Range<u64> {
        if edges.is_empty() {
            return 0..0;
        }
        self.edge_page(edges.start)..self.edge_page(edges.end - 1) + 1
    }

    /// CSR entries per page (8192 for 8-byte entries on 64 KB pages).
    pub fn entries_per_page(&self) -> u64 {
        1 << self.entries_shift
    }
}

/// Picks the RMAT scale whose CSR footprint best approaches
/// `total_pages` 64 KB pages (clamped to keep generation tractable:
/// 2^12 – 2^20 vertices).
///
/// # Examples
///
/// ```
/// let bits = gmt_workloads::kron::scale_bits_for_pages(128);
/// assert!((12..=20).contains(&bits));
/// ```
pub fn scale_bits_for_pages(total_pages: usize) -> u32 {
    // One vertex costs 16 bytes of vertex arrays + 16 × 8 bytes of edges.
    let target_vertices = (total_pages as u64 * 64 * 1024 / 144).max(1);
    let bits = 63 - target_vertices.leading_zeros() as u64;
    (bits as u32).clamp(12, 20)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    #[expect(
        clippy::disallowed_types,
        reason = "the build counter; see `GENERATED`"
    )]
    use std::cell::Cell;

    thread_local! {
        #[expect(
            clippy::disallowed_types,
            reason = "counts graph builds on the test's own thread, \
                      so parallel tests do not interfere"
        )]
        static GENERATED: Cell<usize> = const { Cell::new(0) };
    }

    /// Graphs generated on this thread so far.
    #[expect(
        clippy::disallowed_types,
        reason = "the build counter; see `GENERATED`"
    )]
    pub(crate) fn graphs_generated() -> usize {
        GENERATED.with(Cell::get)
    }

    pub(super) fn count_generated() {
        GENERATED.with(|n| n.set(n.get() + 1));
    }

    #[test]
    fn scale_bits_are_clamped_and_monotone() {
        assert_eq!(scale_bits_for_pages(1), 12);
        assert_eq!(scale_bits_for_pages(10_000_000), 20);
        assert!(scale_bits_for_pages(128) <= scale_bits_for_pages(1024));
    }

    fn small() -> KronGraph {
        KronGraph::generate(KronConfig::gap(10), 1)
    }

    #[test]
    fn edge_count_matches_config() {
        let g = small();
        assert_eq!(g.vertices, 1024);
        assert_eq!(g.edges(), 1024 * 16);
        assert_eq!(*g.offsets.last().unwrap() as usize, g.edges());
    }

    #[test]
    fn csr_is_consistent() {
        let g = small();
        let mut total = 0u64;
        for v in 0..g.vertices {
            assert_eq!(g.neighbors(v).len() as u32, g.degree(v));
            total += g.degree(v) as u64;
        }
        assert_eq!(total as usize, g.edges());
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // RMAT without permutation concentrates degree on low vertex ids.
        let g = small();
        let low: u64 = (0..64).map(|v| g.degree(v) as u64).sum();
        let high: u64 = (g.vertices - 64..g.vertices)
            .map(|v| g.degree(v) as u64)
            .sum();
        assert!(low > high * 4, "low-id degree {low} vs high-id {high}");
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(small(), small());
        assert_ne!(
            KronGraph::generate(KronConfig::gap(10), 1).targets,
            KronGraph::generate(KronConfig::gap(10), 2).targets
        );
    }

    #[test]
    fn part_count_never_changes_the_graph() {
        for (config, seed) in [(KronConfig::gap(12), 5), (KronConfig::gap_permuted(12), 3)] {
            let whole = KronGraph::generate(config, seed);
            for parts in [1, 2, 3, 7] {
                assert_eq!(
                    KronGraph::generate_in_parts(config, seed, parts),
                    whole,
                    "{config:?} seed {seed} in {parts} parts"
                );
            }
        }
    }

    #[test]
    fn permutation_spreads_hub_degree() {
        let raw = KronGraph::generate(KronConfig::gap(12), 3);
        let permuted = KronGraph::generate(KronConfig::gap_permuted(12), 3);
        assert_eq!(raw.edges(), permuted.edges());
        let low_mass = |g: &KronGraph| -> u64 { (0..64).map(|v| g.degree(v) as u64).sum() };
        assert!(
            low_mass(&permuted) < low_mass(&raw) / 2,
            "permutation must break low-id hub clustering: {} vs {}",
            low_mass(&permuted),
            low_mass(&raw)
        );
        // Degree skew itself survives relabeling.
        let max_deg = (0..permuted.vertices)
            .map(|v| permuted.degree(v))
            .max()
            .unwrap();
        assert!(
            max_deg > 16 * 4,
            "hubs must survive relabeling, max degree {max_deg}"
        );
    }

    #[test]
    #[should_panic(expected = "edge count too large")]
    fn gap_28_overflows_the_offsets() {
        // Exactly 2^32 edges: one more than a u32 offset can hold.
        KronGraph::generate(KronConfig::gap(28), 1);
    }

    #[test]
    #[should_panic(expected = "edge count too large")]
    fn huge_edge_factor_panics_before_allocating() {
        // 2^22 × 1024 = 2^32 edges would need a 32 GB pair buffer.
        let config = KronConfig {
            edge_factor: 1024,
            ..KronConfig::gap(22)
        };
        KronGraph::generate(config, 1);
    }

    #[test]
    fn layout_partitions_do_not_overlap() {
        let layout = CsrLayout::new(10_000, 160_000, 64 * 1024);
        let last_offset = layout.offset_page(9_999);
        let first_value = layout.value_page(0);
        let last_value = layout.value_page(9_999);
        let first_edge = layout.edge_page(0);
        assert!(last_offset < first_value);
        assert!(last_value < first_edge);
        let last_edge = layout.edge_page(159_999);
        assert_eq!(layout.total_pages() as u64, last_edge + 1);
    }

    #[test]
    fn edge_pages_name_each_spanned_page_once() {
        let layout = CsrLayout::new(16, 64, 64); // 8 entries per page
        let base = layout.edge_page(0);
        assert!(layout.edge_pages(5..5).is_empty());
        assert_eq!(layout.edge_pages(3..8), base..base + 1);
        assert_eq!(layout.edge_pages(7..17), base..base + 3);
        assert_eq!(layout.entries_per_page(), 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn layout_rejects_odd_page_sizes() {
        CsrLayout::new(16, 64, 96);
    }

    #[test]
    fn layout_for_graph_covers_everything() {
        let g = small();
        let layout = CsrLayout::for_graph(&g);
        let total = layout.total_pages() as u64;
        assert!(layout.offset_page(g.vertices - 1) < total);
        assert!(layout.value_page(g.vertices - 1) < total);
        assert!(layout.edge_page(g.edges() as u64 - 1) < total);
    }
}
