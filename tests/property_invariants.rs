//! Property-based tests over the core data structures and the full
//! runtime, using proptest.

use gmt::core::{Gmt, GmtConfig, PolicyKind};
use gmt::gpu::MemoryBackend;
use gmt::mem::{ClockList, FifoCache, PageId, Tier, TierGeometry, WarpAccess};
use gmt::reuse::{Distance, ReuseTracker, TierClassifier};
use gmt::sim::Time;
use proptest::prelude::*;

/// Brute-force unique reuse distance for cross-checking the Olken tree.
fn brute_force_rd(stream: &[u64], i: usize) -> Option<u64> {
    let p = stream[i];
    let last = stream[..i].iter().rposition(|&q| q == p)?;
    let mut distinct: Vec<u64> = stream[last + 1..i].to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    Some(distinct.len() as u64)
}

proptest! {
    #[test]
    fn olken_tree_matches_brute_force(stream in proptest::collection::vec(0u64..24, 1..300)) {
        let mut tracker = ReuseTracker::new();
        for (i, &p) in stream.iter().enumerate() {
            let d = tracker.record(PageId(p));
            match brute_force_rd(&stream, i) {
                None => prop_assert_eq!(d.rd, Distance::Cold),
                Some(rd) => prop_assert_eq!(d.rd, Distance::Finite(rd)),
            }
        }
    }

    #[test]
    fn clock_never_exceeds_capacity(
        capacity in 1usize..24,
        ops in proptest::collection::vec((0u64..48, 0u8..4), 1..400),
    ) {
        let mut clock = ClockList::new(capacity);
        for (page, op) in ops {
            let page = PageId(page);
            match op {
                0 => {
                    if !clock.contains(page) {
                        if clock.is_full() {
                            clock.replace_candidate(page);
                        } else {
                            clock.insert(page);
                        }
                    }
                }
                1 => { clock.touch(page); }
                2 => { clock.remove(page); }
                _ => {
                    if !clock.is_empty() {
                        clock.evict_candidate();
                    }
                }
            }
            prop_assert!(clock.len() <= clock.capacity());
            // The index and the slots always agree.
            prop_assert_eq!(clock.iter().count(), clock.len());
        }
    }

    #[test]
    fn clock_candidate_is_always_resident(
        pages in proptest::collection::vec(0u64..32, 1..200),
    ) {
        let mut clock = ClockList::new(8);
        for p in pages {
            let p = PageId(p);
            if clock.contains(p) {
                clock.touch(p);
            } else if clock.is_full() {
                let candidate = clock.candidate().expect("full clock has candidate");
                prop_assert!(clock.contains(candidate));
                let victim = clock.replace_candidate(p);
                prop_assert_eq!(victim, candidate);
                prop_assert!(!clock.contains(victim));
            } else {
                clock.insert(p);
            }
        }
    }

    #[test]
    fn fifo_cache_preserves_exclusivity_and_capacity(
        ops in proptest::collection::vec((0u64..64, any::<bool>()), 1..400),
    ) {
        let mut cache = FifoCache::new(12);
        for (page, remove) in ops {
            let page = PageId(page);
            if remove {
                cache.remove(page);
                prop_assert!(!cache.contains(page));
            } else if !cache.contains(page) {
                cache.insert_evicting(page);
                prop_assert!(cache.contains(page));
            }
            prop_assert!(cache.len() <= cache.capacity());
        }
    }

    #[test]
    fn classifier_is_monotone_in_rrd(
        t1 in 1u64..1000,
        extra in 1u64..4000,
        rrds in proptest::collection::vec(0u64..10_000, 1..64),
    ) {
        let classifier = TierClassifier::new(t1, t1 + extra);
        let mut sorted = rrds;
        sorted.sort_unstable();
        let tiers: Vec<Tier> = sorted.iter().map(|&r| classifier.classify(r)).collect();
        for pair in tiers.windows(2) {
            prop_assert!(pair[0] <= pair[1], "classification must be monotone");
        }
    }

    #[test]
    fn page_table_mirrors_a_model_map(
        total in 1usize..64,
        ops in proptest::collection::vec((0u64..64, 0u32..1000), 1..300),
    ) {
        use gmt::mem::PageTable;
        use std::collections::BTreeMap;
        let mut table: PageTable<u32> = PageTable::new(total);
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        prop_assert_eq!(table.len(), total);
        for (page, value) in ops {
            let page = page % total as u64;
            *table.get_mut(PageId(page)) = value;
            model.insert(page, value);
            prop_assert_eq!(*table.get(PageId(page)), value);
        }
        // The table agrees with the model everywhere, defaults included.
        prop_assert_eq!(table.iter().count(), total);
        for (page, meta) in table.iter() {
            prop_assert_eq!(*meta, model.get(&page.0).copied().unwrap_or_default());
        }
    }

    #[test]
    fn gmt_runtime_invariants_under_random_traffic(
        seed in 0u64..1000,
        policy_idx in 0usize..3,
    ) {
        let geometry = TierGeometry::from_tier1(16, 4.0, 2.0);
        let policy = PolicyKind::ALL[policy_idx];
        let mut gmt = Gmt::new(GmtConfig::new(geometry).with_policy(policy));
        let mut rng = gmt::sim::rng::seeded(seed);
        let mut now = Time::ZERO;
        use rand::Rng;
        for _ in 0..600 {
            let page = PageId(rng.gen_range(0..geometry.total_pages as u64));
            let write = rng.gen_bool(0.3);
            let access = if write { WarpAccess::write(page) } else { WarpAccess::read(page) };
            let done = gmt.access(now, &access);
            prop_assert!(done >= now, "time must not go backwards");
            now = done;
        }
        let m = gmt.metrics();
        prop_assert_eq!(m.t1_hits + m.t1_misses, 600);
        prop_assert_eq!(m.t2_hits + m.wasteful_lookups, m.t1_misses);
        prop_assert_eq!(m.t2_placements + m.discards + m.ssd_writes, m.t1_evictions);
        prop_assert!(gmt.tier2_occupancy() <= geometry.tier2_pages);
        prop_assert!(m.predictions_correct <= m.predictions);
        if let Err(violation) = gmt.check_invariants() {
            return Err(TestCaseError::fail(violation));
        }
        let snap = gmt.snapshot();
        prop_assert_eq!(
            snap.tier1_pages + snap.tier2_pages + snap.ssd_pages,
            geometry.total_pages
        );
    }

    #[test]
    fn zipf_stays_in_support_and_prefers_low_ranks(
        n in 2u64..1000,
        skew in 0.0f64..1.2,
        seed in 0u64..100,
    ) {
        let zipf = gmt::sim::Zipf::new(n, skew);
        let mut rng = gmt::sim::rng::seeded(seed);
        let mut low = 0u32;
        for _ in 0..200 {
            let rank = zipf.sample(&mut rng);
            prop_assert!(rank < n);
            if rank < n.div_ceil(2) {
                low += 1;
            }
        }
        // The lower half of ranks always carries at least ~its share.
        prop_assert!(low >= 60, "lower half drew only {low}/200");
    }
}
