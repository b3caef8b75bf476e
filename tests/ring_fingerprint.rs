//! Pins BaM's NVMe ring trace: a traced run that fills the 1,023-deep
//! ring must keep producing the same record stream.
//!
//! The workload drives the ring through both kinds of reap batch:
//!
//! * **spin** — thousands of misses issued at one instant fill the ring,
//!   so each further submission waits for the earliest completion;
//! * **reap-only** — after a jump in time, every command already done is
//!   reaped at the submission instant, with no waiting.
//!
//! Two FNV-1a values are pinned. The masked one replaces each
//! `RingComplete` cid with 0, so it fixes everything but the order in
//! which completions reaped at one instant are listed. The full one also
//! fixes that order: `(done_at, submission)`.

use gmt::baselines::{Bam, BamConfig};
use gmt::gpu::MemoryBackend;
use gmt::mem::{PageId, TierGeometry, WarpAccess};
use gmt::sim::trace::{to_jsonl, TraceEvent, TraceRecord};
use gmt::sim::{Dur, Time};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn access(i: u64, total: u64) -> WarpAccess {
    let page = PageId(i.wrapping_mul(7_919) % total);
    if i.is_multiple_of(5) {
        WarpAccess::write(page)
    } else {
        WarpAccess::read(page)
    }
}

/// Runs the three phases and returns the full trace.
fn traced_ring_run() -> Vec<TraceRecord> {
    let geometry = TierGeometry::from_tier1(64, 4.0, 2.0);
    let total = geometry.total_pages as u64;
    let mut bam = Bam::new(BamConfig::new(geometry));
    let sink = bam.enable_tracing(1 << 20);
    let mut i = 0u64;
    // Spin: every miss issues at t = 0, so the ring fills and then waits.
    let mut last = Time::ZERO;
    for _ in 0..3_000 {
        last = last.max(bam.access(Time::ZERO, &access(i, total)));
        i += 1;
    }
    // Reap-only: well after everything finished, the first submission
    // reaps the whole ring at one instant.
    let later = last + Dur::from_millis(1);
    for _ in 0..2_048 {
        bam.access(later, &access(i, total));
        i += 1;
    }
    // Dependent accesses: each waits for its own fill, so every
    // submission reaps whatever finished in the meantime.
    let mut now = later;
    for _ in 0..2_000 {
        now = bam.access(now, &access(i, total));
        i += 1;
    }
    bam.finish(now);
    assert_eq!(sink.dropped(), 0, "the fingerprint needs every record");
    sink.snapshot()
}

#[test]
fn bam_ring_stream_fingerprint() {
    let records = traced_ring_run();
    let completes = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::RingComplete { .. }))
        .count();
    assert!(
        completes > 4_000,
        "the ring must fill and drain: {completes}"
    );
    let masked: Vec<TraceRecord> = records
        .iter()
        .cloned()
        .map(|mut r| {
            if let TraceEvent::RingComplete { cid, .. } = &mut r.event {
                *cid = 0;
            }
            r
        })
        .collect();
    let full = fnv1a(to_jsonl(&records).as_bytes());
    let masked = fnv1a(to_jsonl(&masked).as_bytes());
    println!("ring fingerprint: masked {masked:016x} full {full:016x}");
    assert_eq!(masked, 0x9ce0_a4b9_42f9_9bc1, "masked ring stream drifted");
    assert_eq!(full, 0x8a35_be32_1e82_2801, "ring stream drifted");
}
