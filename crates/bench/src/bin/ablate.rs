//! Ablation study of the design choices DESIGN.md calls out: the
//! Tier-3-pressure bypass threshold (§2.2), the Tier-2 insertion mode,
//! the transfer method, the sampling budget, the prefetching extension,
//! the Markov scope, the predictor, and how generous HMM's driver must
//! be to catch BaM.
//!
//! Every arm is one seed-1 simulated run, so the output is deterministic;
//! `results/figures/ablate.txt` holds the committed capture.
//!
//! Run with `cargo run -p gmt-bench --release --bin ablate`.

use gmt_analysis::runner::{geometry_for, run_system, run_system_with, RunResult, SystemKind};
use gmt_baselines::{Hmm, HmmConfig};
use gmt_core::{GmtConfig, MarkovScope, PolicyKind, PredictorKind, Tier2Insert};
use gmt_gpu::{Executor, ExecutorConfig};
use gmt_pcie::TransferMethod;
use gmt_reuse::SamplerConfig;
use gmt_workloads::{hotspot::Hotspot, srad::Srad, Workload, WorkloadScale};

const SEED: u64 = 1;

fn main() {
    // GMT-Reuse on `workload` with the default configuration for its
    // geometry, after `tweak` has changed one knob.
    let reuse = |workload: &dyn Workload, tweak: &dyn Fn(&mut GmtConfig)| -> RunResult {
        let mut config = GmtConfig::new(geometry_for(workload, 4.0, 2.0));
        tweak(&mut config);
        run_system_with(workload, SystemKind::Gmt(PolicyKind::Reuse), &config, SEED)
    };
    let scale = WorkloadScale::pages(800);
    let hotspot = Hotspot::with_scale(&scale);
    let srad = Srad::with_scale(&scale);

    // The engine forces a Tier-2 placement only when the Tier-3 fraction
    // exceeds the threshold, so 1.0 turns the heuristic off.
    for threshold in [0.5f64, 0.8, 0.95, 1.0] {
        let r = reuse(&hotspot, &|c| c.reuse.bypass_threshold = threshold);
        println!(
            "ablate_bypass threshold={threshold:.2}: elapsed {} forced {}",
            r.elapsed, r.metrics.forced_t2_placements
        );
    }

    for (name, mode) in [
        ("reject_when_full", Tier2Insert::RejectWhenFull),
        ("evict_fifo", Tier2Insert::EvictFifo),
        ("evict_clock", Tier2Insert::EvictClock),
        ("evict_random", Tier2Insert::EvictRandom),
    ] {
        let r = reuse(&srad, &|c| c.tier2_insert = Some(mode));
        println!(
            "ablate_tier2_insert {name}: elapsed {} t2_hits {}",
            r.elapsed, r.metrics.t2_hits
        );
    }

    for (name, method) in [
        ("dma", TransferMethod::DmaAsync),
        ("zero_copy", TransferMethod::ZeroCopy),
        ("hybrid_32t", TransferMethod::hybrid_32t()),
    ] {
        let r = reuse(&srad, &|c| c.transfer = method);
        println!("ablate_transfer {name}: elapsed {}", r.elapsed);
    }

    for (name, sampler) in [
        (
            "tiny_budget",
            SamplerConfig {
                sample_budget: 1_000,
                batch_size: 100,
                pipelined: true,
            },
        ),
        (
            "end_of_sampling",
            SamplerConfig {
                pipelined: false,
                ..SamplerConfig::default()
            },
        ),
        ("paper_default", SamplerConfig::default()),
    ] {
        let r = reuse(&srad, &|c| c.reuse.sampler = sampler);
        println!(
            "ablate_sampling {name}: elapsed {} accuracy {:.3}",
            r.elapsed,
            r.metrics.prediction_accuracy()
        );
    }

    // Hotspot streams sequentially: the best case for the prefetching
    // extension (the paper's runtime is demand-only).
    for degree in [0usize, 2, 8] {
        let r = reuse(&hotspot, &|c| c.prefetch_degree = degree);
        println!(
            "ablate_prefetch degree={degree}: elapsed {} prefetches {} t1_hit {:.3}",
            r.elapsed,
            r.metrics.prefetches,
            r.metrics.t1_hit_rate()
        );
    }

    for (name, scope) in [
        ("global", MarkovScope::Global),
        ("per_page", MarkovScope::PerPage),
    ] {
        let r = reuse(&srad, &|c| c.reuse.markov_scope = scope);
        println!(
            "ablate_markov {name}: elapsed {} accuracy {:.3}",
            r.elapsed,
            r.metrics.prediction_accuracy()
        );
    }

    for (name, kind) in [
        ("markov", PredictorKind::Markov),
        ("last_tier", PredictorKind::LastTier),
        ("always_host", PredictorKind::AlwaysHost),
    ] {
        let r = reuse(&srad, &|c| c.reuse.predictor = kind);
        println!(
            "ablate_predictor {name}: elapsed {} accuracy {:.3}",
            r.elapsed,
            r.metrics.prediction_accuracy()
        );
    }

    // How much driver optimism does HMM need to catch BaM? Sweep fault
    // batching and UVM-style migration chunking; even the generous
    // configurations stay behind (the §3.6 conclusion).
    let geometry = geometry_for(&srad, 4.0, 2.0);
    let bam = run_system(&srad, SystemKind::Bam, &geometry, SEED);
    let trace = srad.trace(SEED);
    for (name, batch, chunk) in [
        ("stock", 1u32, 1usize),
        ("batched_drain", 8, 1),
        ("chunked_migration", 1, 8),
        ("both", 8, 8),
    ] {
        let mut config = HmmConfig::new(geometry);
        config.fault_batch = batch;
        config.migration_chunk_pages = chunk;
        let out =
            Executor::new(ExecutorConfig::default()).run(Hmm::new(config), trace.iter().cloned());
        println!(
            "ablate_hmm {name}: elapsed {} ({}x of BaM's {})",
            out.elapsed,
            out.elapsed.as_secs_f64() / bam.elapsed.as_secs_f64(),
            bam.elapsed
        );
    }
}
