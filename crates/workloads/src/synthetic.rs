//! Synthetic access patterns for calibration, testing and library users.
//!
//! The nine paper applications cover specific reuse profiles; these
//! generators let users dial in *arbitrary* profiles — skewed point
//! accesses and pure streams — to probe how a policy reacts to a pattern
//! before committing to a port.

use gmt_mem::{PageId, WarpAccess};
use gmt_sim::Zipf;
use rand::Rng;

use crate::{Workload, WorkloadScale};

/// Zipf-popular point accesses, optionally with writes.
///
/// # Examples
///
/// ```
/// use gmt_workloads::{synthetic::ZipfLoop, Workload, WorkloadScale};
/// let w = ZipfLoop::new(&WorkloadScale::tiny(), 0.9, 0.1, 1_000);
/// assert_eq!(w.trace(1).len(), 1_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfLoop {
    pages: u64,
    skew: f64,
    write_fraction: f64,
    accesses: usize,
}

impl ZipfLoop {
    /// A Zipf loop over the scale's pages.
    ///
    /// # Panics
    ///
    /// Panics if `skew` is negative or `write_fraction` is outside
    /// `[0, 1]`.
    pub fn new(scale: &WorkloadScale, skew: f64, write_fraction: f64, accesses: usize) -> ZipfLoop {
        assert!(skew >= 0.0, "skew must be non-negative");
        assert!(
            (0.0..=1.0).contains(&write_fraction),
            "write fraction must be in [0, 1]"
        );
        ZipfLoop {
            pages: scale.total_pages as u64,
            skew,
            write_fraction,
            accesses,
        }
    }
}

impl Workload for ZipfLoop {
    fn name(&self) -> &'static str {
        "ZipfLoop"
    }

    fn total_pages(&self) -> usize {
        self.pages as usize
    }

    fn trace(&self, seed: u64) -> Vec<WarpAccess> {
        let zipf = Zipf::new(self.pages, self.skew);
        let mut rng = gmt_sim::rng::seeded(seed);
        (0..self.accesses)
            .map(|_| {
                let page = PageId(zipf.sample(&mut rng));
                if rng.gen::<f64>() < self.write_fraction {
                    WarpAccess::write(page)
                } else {
                    WarpAccess::read(page)
                }
            })
            .collect()
    }
}

/// Repeated sequential sweeps over the whole address space — the
/// pathological stream every insertion policy must not cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SequentialScan {
    pages: usize,
    passes: usize,
}

impl SequentialScan {
    /// `passes` read-only sweeps over the scale's pages.
    pub fn new(scale: &WorkloadScale, passes: usize) -> SequentialScan {
        SequentialScan {
            pages: scale.total_pages,
            passes,
        }
    }
}

impl Workload for SequentialScan {
    fn name(&self) -> &'static str {
        "SequentialScan"
    }

    fn total_pages(&self) -> usize {
        self.pages
    }

    fn trace(&self, _seed: u64) -> Vec<WarpAccess> {
        (0..self.passes)
            .flat_map(|_| (0..self.pages as u64).map(|p| WarpAccess::read(PageId(p))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_loop_respects_write_fraction_extremes() {
        let scale = WorkloadScale::tiny();
        let all_reads = ZipfLoop::new(&scale, 0.5, 0.0, 500);
        assert!(all_reads.trace(1).iter().all(|a| !a.write));
        let all_writes = ZipfLoop::new(&scale, 0.5, 1.0, 500);
        assert!(all_writes.trace(1).iter().all(|a| a.write));
    }

    #[test]
    fn sequential_scan_touches_every_page_per_pass() {
        let w = SequentialScan::new(&WorkloadScale::tiny(), 3);
        let trace = w.trace(0);
        assert_eq!(trace.len(), 3 * w.total_pages());
        assert_eq!(trace[0].pages.first(), PageId(0));
    }

    #[test]
    fn zipf_skew_concentrates_touches() {
        let scale = WorkloadScale::pages(1_000);
        let skewed = ZipfLoop::new(&scale, 1.0, 0.0, 5_000);
        let trace = skewed.trace(3);
        let rank0_touches = trace
            .iter()
            .filter(|a| a.pages.first() == PageId(0))
            .count();
        assert!(
            rank0_touches > 200,
            "rank 0 touched only {rank0_touches} times"
        );
    }
}
