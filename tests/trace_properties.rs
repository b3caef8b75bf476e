//! Property-based tests over the decision-trace subsystem: whatever the
//! access stream, a captured trace must be well-formed — time-ordered,
//! causally consistent (no eviction without a prior install, no
//! completion without a prior submission), and bounded by its ring.

use gmt::baselines::{Bam, BamConfig, BAM_QUEUE_SLOTS};
use gmt::core::{Gmt, GmtConfig, PolicyKind};
use gmt::gpu::MemoryBackend;
use gmt::mem::{PageId, TierGeometry, WarpAccess};
use gmt::sim::trace::{validate, TraceEvent, TraceRecord, TraceSink};
use gmt::sim::Time;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Replays `accesses` random touches through a traced GMT runtime and
/// returns the records plus the runtime (post-`finish`).
fn traced_random_run(seed: u64, policy_idx: usize, accesses: usize) -> (Vec<TraceRecord>, Gmt) {
    let geometry = TierGeometry::from_tier1(16, 4.0, 2.0);
    let policy = PolicyKind::ALL[policy_idx % PolicyKind::ALL.len()];
    let mut gmt = Gmt::new(GmtConfig::new(geometry).with_policy(policy));
    let sink = gmt.enable_tracing(1 << 18);
    let mut rng = gmt::sim::rng::seeded(seed);
    let mut now = Time::ZERO;
    use rand::Rng;
    for _ in 0..accesses {
        let page = PageId(rng.gen_range(0..geometry.total_pages as u64));
        let access = if rng.gen_bool(0.3) {
            WarpAccess::write(page)
        } else {
            WarpAccess::read(page)
        };
        now = gmt.access(now, &access);
    }
    gmt.finish(now);
    assert_eq!(sink.dropped(), 0);
    (sink.snapshot(), gmt)
}

proptest! {
    #[test]
    fn traces_are_time_ordered_under_random_traffic(
        seed in 0u64..500,
        policy_idx in 0usize..3,
    ) {
        let (records, _) = traced_random_run(seed, policy_idx, 400);
        if let Err(violation) = validate(&records) {
            return Err(TestCaseError::fail(violation));
        }
    }

    #[test]
    fn every_eviction_follows_an_install_of_that_page(
        seed in 0u64..500,
        policy_idx in 0usize..3,
    ) {
        let (records, _) = traced_random_run(seed, policy_idx, 400);
        let mut installed: BTreeSet<u64> = BTreeSet::new();
        for r in &records {
            match &r.event {
                TraceEvent::Tier1Fill { page, .. } | TraceEvent::Prefetch { page } => {
                    installed.insert(*page);
                }
                TraceEvent::Eviction { page, .. } => {
                    prop_assert!(
                        installed.contains(page),
                        "page {page} evicted before any install"
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn device_queue_depth_is_consistent_and_never_negative(
        seed in 0u64..500,
        policy_idx in 0usize..3,
    ) {
        let (records, _) = traced_random_run(seed, policy_idx, 400);
        let mut in_flight: BTreeMap<u32, i64> = Default::default();
        for r in &records {
            match r.event {
                TraceEvent::SsdSubmit { device, queue_depth, .. } => {
                    let depth = in_flight.entry(device).or_insert(0);
                    *depth += 1;
                    prop_assert_eq!(queue_depth as i64, *depth, "submit depth drifted");
                }
                TraceEvent::SsdComplete { device, queue_depth, .. } => {
                    let depth = in_flight.entry(device).or_insert(0);
                    *depth -= 1;
                    prop_assert!(*depth >= 0, "queue depth went negative");
                    prop_assert_eq!(queue_depth as i64, *depth, "complete depth drifted");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn trace_occupancy_matches_the_page_table_snapshot(
        seed in 0u64..500,
        policy_idx in 0usize..3,
    ) {
        let (records, gmt) = traced_random_run(seed, policy_idx, 400);
        let mut occupancy = gmt::analysis::tracesum::OccupancyTracker::default();
        for r in &records {
            occupancy.apply(&r.event);
        }
        let snap = gmt.snapshot();
        prop_assert_eq!(occupancy.tier1_pages(), snap.tier1_pages, "Tier-1 occupancy drifted");
        prop_assert_eq!(occupancy.tier2_pages(), snap.tier2_pages, "Tier-2 occupancy drifted");
    }

    #[test]
    fn bam_ring_completions_match_prior_submissions(
        seed in 0u64..500,
    ) {
        let geometry = TierGeometry::from_tier1(16, 4.0, 2.0);
        let mut bam = Bam::new(BamConfig::new(geometry));
        let sink = bam.enable_tracing(1 << 18);
        let mut rng = gmt::sim::rng::seeded(seed);
        let mut now = Time::ZERO;
        use rand::Rng;
        // Twice the ring's depth in misses, four accesses per instant, so
        // the ring fills and reaps batches of completions.
        while bam.metrics().t1_misses < 2 * BAM_QUEUE_SLOTS as u64 {
            let mut ready = now;
            for _ in 0..4 {
                let page = PageId(rng.gen_range(0..geometry.total_pages as u64));
                let access = if rng.gen_bool(0.3) {
                    WarpAccess::write(page)
                } else {
                    WarpAccess::read(page)
                };
                ready = ready.max(bam.access(now, &access));
            }
            now = ready;
        }
        bam.finish(now);
        prop_assert_eq!(sink.dropped(), 0);
        let mut outstanding: BTreeSet<u16> = BTreeSet::new();
        let mut completions = 0;
        for r in &sink.snapshot() {
            let depth = match r.event {
                TraceEvent::RingSubmit { cid, queue_depth, .. } => {
                    prop_assert!(outstanding.insert(cid), "cid {cid} doubly in flight");
                    queue_depth
                }
                TraceEvent::RingComplete { cid, queue_depth } => {
                    completions += 1;
                    prop_assert!(outstanding.remove(&cid), "cid {cid} completed unsubmitted");
                    queue_depth
                }
                _ => continue,
            };
            prop_assert_eq!(depth as usize, outstanding.len(), "ring depth drifted");
            prop_assert!(outstanding.len() < BAM_QUEUE_SLOTS, "ring overran its depth");
        }
        prop_assert!(completions > 0, "the ring never filled");
    }

    #[test]
    fn ring_is_bounded_and_counts_overflow(
        capacity in 1usize..64,
        events in 1usize..300,
    ) {
        let sink = TraceSink::bounded(capacity);
        for i in 0..events {
            sink.emit(Time::from_nanos(i as u64), TraceEvent::Tier1Hit { page: i as u64 });
        }
        prop_assert!(sink.len() <= capacity);
        prop_assert_eq!(sink.len() + sink.dropped() as usize, events);
        // The survivors are exactly the newest records, still in order.
        let records = sink.snapshot();
        if let Err(violation) = validate(&records) {
            return Err(TestCaseError::fail(violation));
        }
        if let Some(first) = records.first() {
            prop_assert_eq!(first.at.as_nanos() as usize, events - records.len());
        }
    }
}
