//! Record once, replay everywhere: record an expensive trace (a BFS over
//! a generated graph) in a compact in-memory `Recording` and replay the
//! *identical* accesses through two systems — then capture one replay's
//! decision trace and export it as JSONL for offline analysis.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use gmt::analysis::runner::geometry_for;
use gmt::analysis::tracesum::counters_from_trace;
use gmt::baselines::{Bam, BamConfig};
use gmt::core::{Gmt, GmtConfig};
use gmt::gpu::{Executor, ExecutorConfig};
use gmt::mem::trace::Recording;
use gmt::sim::trace::to_jsonl;
use gmt::workloads::{bfs::Bfs, Workload, WorkloadScale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Expensive step: generate the graph and run BFS once.
    let workload = Bfs::with_scale(&WorkloadScale::pages(600));
    let accesses = workload.trace(11);
    println!(
        "BFS trace: {} warp accesses over {} pages",
        accesses.len(),
        workload.total_pages()
    );

    // Record it: a header byte per access and each page id in the few
    // bytes the largest id needs.
    let recording = Recording::new(&accesses);
    println!(
        "recorded: {} bytes ({:.1} B/access)",
        recording.byte_len(),
        recording.byte_len() as f64 / accesses.len() as f64
    );

    // Replay from the recording — no graph generation needed.
    let replayed = recording.to_trace();
    assert_eq!(replayed, accesses);

    let geometry = geometry_for(&workload, 4.0, 2.0);
    let exec = Executor::new(ExecutorConfig::default());
    let bam = exec.run(Bam::new(BamConfig::new(geometry)), replayed.iter().cloned());
    let gmt = exec.run(Gmt::new(GmtConfig::new(geometry)), replayed.iter().cloned());
    println!("BaM       : {}", bam.elapsed);
    println!("GMT-Reuse : {}", gmt.elapsed);
    println!(
        "speedup   : {:.2}x",
        bam.elapsed.as_secs_f64() / gmt.elapsed.as_secs_f64()
    );

    // Replay a slice once more with the decision trace on: every tiering
    // decision (miss, eviction, Tier-2 placement, SSD submission...)
    // lands in a shared ring as a typed, timestamped event. The ring is
    // sized to hold the whole slice so the counters reconcile exactly.
    let slice = 2_000.min(replayed.len());
    let mut traced = Gmt::new(GmtConfig::new(geometry));
    let sink = traced.enable_tracing(1 << 20);
    let out = exec.run(traced, replayed.iter().take(slice).cloned());
    let records = sink.snapshot();
    let counters = counters_from_trace(&records);
    counters
        .reconcile(&out.backend.metrics())
        .expect("the trace reconciles exactly with the runtime's own counters");
    println!(
        "decision trace: {} records ({} dropped), {} misses / {} Tier-2 hits",
        records.len(),
        sink.dropped(),
        counters.t1_misses,
        counters.t2_hits
    );

    // Export as line-delimited JSON — byte-identical for identical
    // configuration and seed, so diffs mean behavior changes.
    let jsonl = to_jsonl(&records);
    let path = std::env::temp_dir().join("gmt_decision_trace.jsonl");
    std::fs::write(&path, &jsonl)?;
    println!("wrote {} ({} bytes)", path.display(), jsonl.len());
    for line in jsonl.lines().take(3) {
        println!("  {line}");
    }
    Ok(())
}
