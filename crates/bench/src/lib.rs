//! Shared harness for regenerating every table and figure of the paper.
//!
//! The `paper` binary writes one capture per artifact to
//! `results/figures/<id>.txt`, plus `REPORT.md`, in one run:
//!
//! | Capture | Paper artifact |
//! |---|---|
//! | `tab2` | Table 2 (application characteristics) |
//! | `fig4a` | Fig. 4a (VTD ↔ RD correlation) |
//! | `fig4bc` | Fig. 4b/4c (RRD at successive Tier-1 evictions) |
//! | `fig6a` | Fig. 6a (transfer efficiency vs batch size) |
//! | `fig6b` | Fig. 6b (delivered bandwidth vs Zipf skew) |
//! | `fig7` | Fig. 7 (RRD distributions + reuse %) |
//! | `fig8` | Fig. 8a/8b (speedup and I/O vs BaM) |
//! | `fig9` | Fig. 9 (GMT-Reuse prediction accuracy) |
//! | `fig10` | Fig. 10a/10b (Tier-2 overheads) |
//! | `fig11` | Fig. 11 (over-subscription 4) |
//! | `fig12` | Fig. 12 (Tier-2:Tier-1 ratio sweep) |
//! | `fig13` | Fig. 13 (Tier-1 = 32 GB, non-graph apps) |
//! | `fig14` | Fig. 14 + §3.6 (HMM, optimistic HMM) |
//! | `mrc` | miss-ratio curves at the tier capacities (extension) |
//! | `timeline` | §2.1.3 pipelined-regression warm-up study (extension) |
//! | `overheads` | §3.4 Tier-2 cost accounting |
//! | `ablate` | ablations of the design choices DESIGN.md calls out |
//! | `serve_isolation` | multi-tenant Tier-1 isolation under each partitioning policy (extension) |
//! | `serve_scaling` | 1–8 tenants × every partitioning policy (extension) |
//! | `frontend_slo` | the online front-end's per-class SLOs under backpressure (extension) |
//! | `REPORT.md` | one-page markdown report of the headline numbers |
//!
//! Absolute numbers come from the simulated substrate; the *shapes* are
//! the reproduction target (see `EXPERIMENTS.md`). Scale is controlled by
//! the `GMT_T1_PAGES` environment variable (default 1024 Tier-1 pages;
//! the paper's unscaled 16 GB is 262144); `ablate` and the three serving
//! captures run fixed sizes and seeds. The serving captures end in one
//! verdict line per acceptance threshold ([`serving`]).

#![warn(missing_docs)]

pub mod hotpath;
pub mod serving;

use gmt_analysis::runner::{geometry_for, Recorded};
use gmt_mem::TierGeometry;
use gmt_pcie::{HostLink, HostLinkConfig, TransferBatch, TransferMethod};
use gmt_sim::{Time, Zipf};
use gmt_workloads::{suite, Workload, WorkloadScale};

/// A workload paired with the geometry it runs over.
pub struct Prepared {
    /// The workload.
    pub workload: Box<dyn Workload>,
    /// Its per-app geometry (graph apps derive it from the graph, §3.5).
    pub geometry: TierGeometry,
}

/// Builds the nine-application suite with per-app geometries at the given
/// Tier-2:Tier-1 `ratio` and over-subscription `os`.
///
/// The graph apps come wrapped in [`Recorded`], so each generates its
/// trace once per seed however many systems replay it.
pub fn prepared_suite(tier1_pages: usize, ratio: f64, os: f64) -> Vec<Prepared> {
    let scale = WorkloadScale::pages(data_set_pages(tier1_pages, ratio, os));
    suite(&scale)
        .into_iter()
        .map(|workload| {
            let workload = Recorded::graph_app(workload);
            let geometry = geometry_for(workload.as_ref(), ratio, os);
            Prepared { workload, geometry }
        })
        .collect()
}

/// The data-set size, in pages, of [`prepared_suite`]'s apps: Tier-1
/// plus a Tier-2 of `ratio` × Tier-1, over-subscribed `os` times.
pub fn data_set_pages(tier1_pages: usize, ratio: f64, os: f64) -> usize {
    ((tier1_pages as f64) * (1.0 + ratio) * os).round() as usize
}

/// One data point of the Fig. 6b micro-benchmark: a small pool of copy
/// warps repeatedly draws 32 Zipf-distributed page addresses; lanes that
/// hit the resident set coalesce away, and the remaining *misses* form
/// the transfer batch. Returns delivered (unique) bandwidth in
/// bytes/second.
///
/// Modeling notes, matching the paper's setup (§2.3): higher skew means
/// more lanes hit resident pages, so batches shrink — "skewness closer
/// to 1.0 will involve fewer transfers". The threads employable for a
/// zero-copy batch are the *missing lanes* (a lane can only drive a
/// load/store stream for data it is waiting on), so small batches also
/// mean few threads — the regime where Hybrid-XT must fall back to DMA.
pub fn zipf_delivered_bandwidth(
    method: TransferMethod,
    skew: f64,
    pages: u64,
    iterations: usize,
    seed: u64,
) -> f64 {
    const PAGE_BYTES: u64 = 64 * 1024;
    const WARPS: usize = 8;
    let zipf = Zipf::new(pages, skew);
    let mut rng = gmt_sim::rng::seeded(seed);
    let mut link = HostLink::new(HostLinkConfig::default());
    let mut resident = gmt_mem::ClockList::new((pages as usize * 5 / 8).max(8));
    let mut warp_ready = [Time::ZERO; WARPS];
    let mut moved_bytes = 0u64;
    let mut makespan = Time::ZERO;

    for i in 0..iterations {
        let w = i % WARPS;
        let mut distinct: Vec<u64> = Vec::with_capacity(32);
        let mut miss_lanes = 0u32;
        for _ in 0..32 {
            let page = zipf.sample(&mut rng);
            if resident.touch(gmt_mem::PageId(page)) {
                continue; // lane hit a resident page: no transfer needed
            }
            miss_lanes += 1;
            if !distinct.contains(&page) {
                distinct.push(page);
            }
            if resident.is_full() {
                resident.replace_candidate(gmt_mem::PageId(page));
            } else {
                resident.insert(gmt_mem::PageId(page));
            }
        }
        if distinct.is_empty() {
            continue;
        }
        let batch = TransferBatch {
            pages: distinct.len(),
            page_bytes: PAGE_BYTES,
            threads: miss_lanes,
        };
        let done = link.transfer(warp_ready[w], batch, method);
        warp_ready[w] = done;
        moved_bytes += batch.bytes();
        makespan = makespan.max(done);
    }
    moved_bytes as f64 / makespan.since(Time::ZERO).as_secs_f64().max(1e-12)
}

/// Fig. 6a data point: time to move one batch of `n` non-contiguous
/// pages with a full warp, as achieved bandwidth (bytes/second).
pub fn batch_transfer_bandwidth(method: TransferMethod, n: usize) -> f64 {
    const PAGE_BYTES: u64 = 64 * 1024;
    let mut link = HostLink::new(HostLinkConfig::default());
    let batch = TransferBatch {
        pages: n,
        page_bytes: PAGE_BYTES,
        threads: 32,
    };
    let done = link.transfer(Time::ZERO, batch, method);
    batch.bytes() as f64 / done.since(Time::ZERO).as_secs_f64().max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6a_crossover_shape() {
        let dma_small = batch_transfer_bandwidth(TransferMethod::DmaAsync, 2);
        let zc_small = batch_transfer_bandwidth(TransferMethod::ZeroCopy, 2);
        let dma_big = batch_transfer_bandwidth(TransferMethod::DmaAsync, 48);
        let zc_big = batch_transfer_bandwidth(TransferMethod::ZeroCopy, 48);
        assert!(dma_small > zc_small, "DMA must win small batches");
        assert!(zc_big > dma_big, "zero-copy must win large batches");
    }

    #[test]
    fn fig6b_shapes() {
        let bw = |m: TransferMethod, s: f64| zipf_delivered_bandwidth(m, s, 4096, 2000, 3);
        // Zero-copy wins under uniform access but degrades with skew as
        // batches (and employable threads) shrink.
        let zc0 = bw(TransferMethod::ZeroCopy, 0.0);
        let zc99 = bw(TransferMethod::ZeroCopy, 0.99);
        let dma0 = bw(TransferMethod::DmaAsync, 0.0);
        let dma99 = bw(TransferMethod::DmaAsync, 0.99);
        assert!(
            zc0 > 1.3 * dma0,
            "ZC must clearly win at skew 0: {zc0:.2e} vs {dma0:.2e}"
        );
        assert!(
            zc99 < 0.8 * zc0,
            "ZC must degrade with skew: {zc99:.2e} vs {zc0:.2e}"
        );
        // DMA is flat: the engine is the bottleneck regardless of skew.
        assert!((dma0 - dma99).abs() < 0.1 * dma0, "DMA should be flat");
        // Every hybrid stays at least as good as pure DMA at every skew.
        for x in [8u32, 16, 32] {
            for &skew in &[0.0, 0.5, 0.99] {
                let h = bw(TransferMethod::hybrid(x), skew);
                let dma = bw(TransferMethod::DmaAsync, skew);
                assert!(h >= 0.95 * dma, "H{x}T below DMA at skew {skew}");
            }
        }
        // And the best hybrid recovers zero-copy's advantage at skew 0.
        let best_h0 = [8u32, 16, 32]
            .iter()
            .map(|&x| bw(TransferMethod::hybrid(x), 0.0))
            .fold(0.0f64, f64::max);
        assert!(best_h0 > 0.9 * zc0, "hybrids must track ZC at skew 0");
    }

    #[test]
    fn zipf_micro_bandwidth_drops_with_skew() {
        let uniform = zipf_delivered_bandwidth(TransferMethod::hybrid(8), 0.0, 4096, 2000, 3);
        let skewed = zipf_delivered_bandwidth(TransferMethod::hybrid(8), 0.99, 4096, 2000, 3);
        assert!(
            uniform > skewed,
            "fewer distinct pages must deliver less bandwidth"
        );
    }

    #[test]
    fn prepared_suite_covers_nine_apps() {
        let prepared = prepared_suite(128, 4.0, 2.0);
        let plain = suite(&WorkloadScale::pages(data_set_pages(128, 4.0, 2.0)));
        assert_eq!(prepared.len(), 9);
        for (p, w) in prepared.iter().zip(&plain) {
            assert_eq!(p.workload.name(), w.name());
            assert_eq!(p.workload.total_pages(), w.total_pages(), "{}", w.name());
            assert_eq!(
                p.geometry,
                geometry_for(w.as_ref(), 4.0, 2.0),
                "{}",
                w.name()
            );
            assert!(p.geometry.tier1_pages > 0);
        }
    }
}
