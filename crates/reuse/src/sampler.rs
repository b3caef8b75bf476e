//! The GPU→CPU sampling and regression pipeline (paper §2.1.3 step 1).
//!
//! Early in execution, the GPU pushes (page, access) samples into a queue
//! shared with the CPU; a dedicated host thread reconstructs true reuse
//! distances from them with the tree-based method and refines an OLS fit
//! of `RD = m·VTD + b`. The paper pipelines every 10 000 samples so the
//! GPU gets useful coefficients long before sampling completes.
//!
//! [`SamplingRegression`] models that pipeline synchronously and
//! deterministically: the simulation clock is virtual, so offloading to a
//! host thread is a timing annotation rather than a real thread, and
//! publishing intermediate fits at each batch boundary is
//! [`SamplerConfig::pipelined`].

use gmt_mem::PageId;
use serde::{Deserialize, Serialize};

use crate::olken::ReuseTracker;
use crate::{LinearFit, Ols};

/// Sampling-pipeline parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplerConfig {
    /// Stop refining after this many (VTD, RD) training pairs ("typically
    /// we collect hundreds of thousands", scaled down with capacity).
    pub sample_budget: usize,
    /// Refresh the fit every this many new pairs (paper: 10 000).
    pub batch_size: usize,
    /// Publish intermediate fits at every batch boundary (the paper's
    /// pipelined design, §2.1.3: "rather than wait until we get this
    /// final equation at the end of sampling"). Setting this to `false`
    /// withholds the fit until the budget completes — the ablation the
    /// paper argues against.
    pub pipelined: bool,
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig {
            sample_budget: 200_000,
            batch_size: 10_000,
            pipelined: true,
        }
    }
}

/// Synchronous sampling + regression.
///
/// Feed it every coalesced access during the sampling window; it maintains
/// the exact-reuse tree, accumulates (VTD, RD) pairs, and re-fits at every
/// batch boundary.
///
/// # Examples
///
/// ```
/// use gmt_mem::PageId;
/// use gmt_reuse::{SamplerConfig, SamplingRegression};
///
/// let mut s = SamplingRegression::new(SamplerConfig { sample_budget: 100, batch_size: 10, pipelined: true });
/// // A cyclic scan: RD and VTD are perfectly correlated.
/// for _ in 0..30 {
///     for p in 0..10u64 {
///         s.observe(PageId(p));
///     }
/// }
/// let fit = s.fit();
/// assert!(fit.slope > 0.0);
/// assert!(s.is_complete());
/// ```
#[derive(Debug)]
pub struct SamplingRegression {
    config: SamplerConfig,
    tracker: ReuseTracker,
    ols: Ols,
    pairs: usize,
    since_refresh: usize,
    fit: LinearFit,
}

impl SamplingRegression {
    /// Creates a pipeline with `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.batch_size` is zero.
    pub fn new(config: SamplerConfig) -> SamplingRegression {
        assert!(config.batch_size > 0, "batch size must be positive");
        SamplingRegression {
            config,
            tracker: ReuseTracker::new(),
            ols: Ols::new(),
            pairs: 0,
            since_refresh: 0,
            fit: LinearFit::identity(),
        }
    }

    /// Observes one coalesced access during the sampling window.
    ///
    /// Re-accesses produce a (VTD, RD) training pair; cold accesses only
    /// extend the tree. No-op once the budget is exhausted.
    pub fn observe(&mut self, page: PageId) {
        if self.is_complete() {
            return;
        }
        let d = self.tracker.record(page);
        if let (Some(rd), Some(vtd)) = (d.rd.finite(), d.vtd.finite()) {
            self.ols.add(vtd as f64, rd as f64);
            self.pairs += 1;
            self.since_refresh += 1;
            if self.since_refresh >= self.config.batch_size || self.is_complete() {
                self.refresh();
            }
        }
    }

    /// The best fit so far ([`LinearFit::identity`] before the first
    /// refresh).
    pub fn fit(&self) -> LinearFit {
        self.fit
    }

    /// Training pairs collected so far.
    pub fn pairs(&self) -> usize {
        self.pairs
    }

    /// Whether the sample budget has been exhausted.
    pub fn is_complete(&self) -> bool {
        self.pairs >= self.config.sample_budget
    }

    fn refresh(&mut self) {
        if self.config.pipelined || self.is_complete() {
            if let Some(fit) = self.ols.fit() {
                self.fit = fit;
            }
        }
        self.since_refresh = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cyclic_trace(pages: u64, rounds: usize) -> impl Iterator<Item = PageId> {
        (0..rounds).flat_map(move |_| (0..pages).map(PageId))
    }

    #[test]
    fn cyclic_scan_learns_proportional_fit() {
        // For a cyclic scan over N pages, every reuse has RD = N-1 and
        // VTD = N-1: slope 1 through that single point cluster is
        // degenerate, so mix two loop lengths.
        let mut s = SamplingRegression::new(SamplerConfig {
            sample_budget: 10_000,
            batch_size: 50,
            pipelined: true,
        });
        for _ in 0..20 {
            for p in cyclic_trace(10, 1) {
                s.observe(p);
            }
            for p in cyclic_trace(30, 1) {
                s.observe(p);
            }
        }
        let fit = s.fit();
        // Distinct-page distance is bounded by VTD, so slope <= 1.
        assert!(fit.slope > 0.0 && fit.slope <= 1.01, "slope {}", fit.slope);
    }

    #[test]
    fn identity_before_first_batch() {
        let mut s = SamplingRegression::new(SamplerConfig {
            sample_budget: 100,
            batch_size: 50,
            pipelined: true,
        });
        for p in cyclic_trace(5, 2).take(8) {
            s.observe(p);
        }
        assert_eq!(s.fit(), LinearFit::identity());
    }

    #[test]
    fn non_pipelined_withholds_intermediate_fits() {
        let config = SamplerConfig {
            sample_budget: 100,
            batch_size: 10,
            pipelined: false,
        };
        let mut s = SamplingRegression::new(config);
        let mut fed = 0;
        for round in 0..40 {
            for p in cyclic_trace(if round % 2 == 0 { 5 } else { 13 }, 1) {
                s.observe(p);
                fed += 1;
                if !s.is_complete() {
                    assert_eq!(
                        s.fit(),
                        LinearFit::identity(),
                        "fit leaked before budget at {fed} observations"
                    );
                }
            }
        }
        assert!(s.is_complete());
        assert_ne!(s.fit(), LinearFit::identity(), "final fit must publish");
    }

    #[test]
    fn budget_stops_collection() {
        let mut s = SamplingRegression::new(SamplerConfig {
            sample_budget: 10,
            batch_size: 2,
            pipelined: true,
        });
        for p in cyclic_trace(4, 100) {
            s.observe(p);
        }
        assert_eq!(s.pairs(), 10);
        assert!(s.is_complete());
    }
}
