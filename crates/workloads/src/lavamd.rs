//! LavaMD: particle simulation over a 3-D grid of boxes with cutoff-radius
//! neighbor interactions (Rodinia).
//!
//! Each box's particle data is streamed as the box is processed; only a
//! small fraction of boxes read a neighbor's page again shortly after the
//! neighbor was processed. The result is the paper's Table-2/Fig.-7
//! profile: very low page reuse (≈1 %) concentrated entirely in the
//! Tier-1 distance range — the workload where an extra tier helps least
//! (and where GMT-Reuse can even lose slightly for lack of history).

use gmt_mem::{PageId, WarpAccess};
use rand::Rng;

use crate::{Workload, WorkloadScale};

/// The LavaMD workload.
///
/// # Examples
///
/// ```
/// use gmt_workloads::{lavamd::LavaMd, Workload, WorkloadScale};
/// let w = LavaMd::with_scale(&WorkloadScale::tiny());
/// assert_eq!(w.name(), "lavaMD");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LavaMd {
    /// Boxes per grid dimension.
    dim: usize,
    /// Fraction of boxes that re-read a neighbor's page.
    neighbor_fraction: f64,
}

impl LavaMd {
    /// Sizes the box grid to fill the scale (2 pages per box).
    pub fn with_scale(scale: &WorkloadScale) -> LavaMd {
        LavaMd::new(scale, 0.05)
    }

    /// Explicit neighbor-interaction fraction (the cutoff radius knob).
    ///
    /// # Panics
    ///
    /// Panics if `neighbor_fraction` is outside `[0, 1]`.
    pub fn new(scale: &WorkloadScale, neighbor_fraction: f64) -> LavaMd {
        assert!(
            (0.0..=1.0).contains(&neighbor_fraction),
            "neighbor fraction must be in [0, 1]"
        );
        let boxes = scale.total_pages / 2;
        let dim = (boxes as f64).cbrt().floor() as usize;
        LavaMd {
            dim: dim.max(2),
            neighbor_fraction,
        }
    }

    fn boxes(&self) -> usize {
        self.dim * self.dim * self.dim
    }

    fn position_page(&self, b: usize) -> PageId {
        PageId((2 * b) as u64)
    }

    fn force_page(&self, b: usize) -> PageId {
        PageId((2 * b + 1) as u64)
    }
}

impl Workload for LavaMd {
    fn name(&self) -> &'static str {
        "lavaMD"
    }

    fn total_pages(&self) -> usize {
        2 * self.boxes()
    }

    fn trace(&self, seed: u64) -> Vec<WarpAccess> {
        let mut rng = gmt_sim::rng::seeded(seed);
        let mut out = Vec::with_capacity(3 * self.boxes());
        let plane = self.dim * self.dim;
        for b in 0..self.boxes() {
            out.push(WarpAccess::read(self.position_page(b)));
            // Cutoff-radius interactions: occasionally a recently-processed
            // neighbor box's positions are read again (x-, y- or z-adjacent,
            // all *behind* the sweep so the reuse distance stays short).
            if rng.gen::<f64>() < self.neighbor_fraction {
                let back = match rng.gen_range(0..3u8) {
                    0 => 1,
                    1 => self.dim,
                    _ => plane,
                };
                if b >= back {
                    out.push(WarpAccess::read(self.position_page(b - back)));
                }
            }
            out.push(WarpAccess::write(self.force_page(b)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn reuse_fraction(w: &LavaMd) -> f64 {
        let trace = w.trace(3);
        let mut touches: BTreeMap<u64, usize> = BTreeMap::new();
        for a in &trace {
            for p in a.pages.iter() {
                *touches.entry(p.0).or_default() += 1;
            }
        }
        let reused = touches.values().filter(|&&c| c > 1).count();
        reused as f64 / touches.len() as f64
    }

    #[test]
    fn page_reuse_is_very_low() {
        let w = LavaMd::with_scale(&WorkloadScale::pages(4_000));
        let fraction = reuse_fraction(&w);
        assert!(fraction < 0.06, "reuse fraction {fraction} not lavaMD-like");
    }

    #[test]
    fn neighbor_reads_look_backwards_only() {
        let w = LavaMd::with_scale(&WorkloadScale::tiny());
        let trace = w.trace(9);
        let mut max_seen: i64 = -1;
        for a in &trace {
            for p in a.pages.iter() {
                let b = (p.0 / 2) as i64;
                assert!(
                    b <= max_seen + 1,
                    "box {b} read before the sweep reached it (at {max_seen})"
                );
                max_seen = max_seen.max(b);
            }
        }
    }

    #[test]
    fn every_box_is_processed() {
        let w = LavaMd::with_scale(&WorkloadScale::tiny());
        let trace = w.trace(1);
        let writes = trace.iter().filter(|a| a.write).count();
        assert_eq!(writes, w.boxes());
    }
}
