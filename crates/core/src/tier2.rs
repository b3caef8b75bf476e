//! Tier-2 residency with pluggable eviction.
//!
//! The paper manages Tier-2 with FIFO eviction (§2.2) and, under
//! GMT-Reuse, prefers rejecting insertions into a full tier (§2.1.3).
//! [`Tier2Cache`] implements FIFO plus clock and random eviction variants
//! for the `ablate_tier2` study. Tiers are exclusive, so pages leave via
//! [`Tier2Cache::remove`] when promoted back to Tier-1.

use gmt_mem::{ClockList, FifoCache, PageId};
use rand::rngs::StdRng;
use rand::Rng;

/// Sentinel in the dense slot table marking a non-resident page.
const ABSENT: u32 = u32::MAX;

/// Grows the dense slot table on demand and records `page`'s slot.
fn set_slot(index: &mut Vec<u32>, page: PageId, slot: u32) {
    let i = page.0 as usize;
    if i >= index.len() {
        index.resize(i + 1, ABSENT);
    }
    index[i] = slot;
}

/// Tier-2 resident-set structure with a selectable eviction policy.
#[derive(Debug)]
pub(crate) enum Tier2Cache {
    /// FIFO eviction (the paper's §2.2 mechanism).
    Fifo(FifoCache),
    /// Clock eviction. With exclusive tiers pages are never "touched"
    /// while resident, so this degenerates towards FIFO — which is itself
    /// an ablation finding worth demonstrating.
    Clock(ClockList),
    /// Uniform-random eviction.
    Random {
        /// Dense storage of resident pages.
        resident: Vec<PageId>,
        /// Page → slot in `resident`, as a dense grow-on-demand table
        /// (`u32::MAX` = absent). Page ids are dense from zero, so this
        /// replaces a hash probe with one indexed load.
        index: Vec<u32>,
        /// Capacity in pages.
        capacity: usize,
        /// Victim-selection randomness.
        rng: StdRng,
    },
}

impl Tier2Cache {
    pub(crate) fn fifo(capacity: usize) -> Tier2Cache {
        Tier2Cache::Fifo(FifoCache::new(capacity))
    }

    pub(crate) fn clock(capacity: usize) -> Tier2Cache {
        Tier2Cache::Clock(ClockList::new(capacity))
    }

    pub(crate) fn random(capacity: usize, seed: u64) -> Tier2Cache {
        assert!(capacity > 0, "tier-2 capacity must be positive");
        Tier2Cache::Random {
            resident: Vec::with_capacity(capacity),
            index: Vec::new(),
            capacity,
            rng: gmt_sim::rng::seeded(seed),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Tier2Cache::Fifo(c) => c.len(),
            Tier2Cache::Clock(c) => c.len(),
            Tier2Cache::Random { resident, .. } => resident.len(),
        }
    }

    pub(crate) fn is_full(&self) -> bool {
        match self {
            Tier2Cache::Fifo(c) => c.is_full(),
            Tier2Cache::Clock(c) => c.is_full(),
            Tier2Cache::Random {
                resident, capacity, ..
            } => resident.len() == *capacity,
        }
    }

    pub(crate) fn contains(&self, page: PageId) -> bool {
        match self {
            Tier2Cache::Fifo(c) => c.contains(page),
            Tier2Cache::Clock(c) => c.contains(page),
            Tier2Cache::Random { index, .. } => {
                index.get(page.0 as usize).copied().unwrap_or(ABSENT) != ABSENT
            }
        }
    }

    /// Inserts `page`, evicting per the policy if full; returns the
    /// victim, if any.
    ///
    /// # Panics
    ///
    /// Panics if `page` is already resident.
    pub(crate) fn insert_evicting(&mut self, page: PageId) -> Option<PageId> {
        match self {
            Tier2Cache::Fifo(c) => c.insert_evicting(page),
            Tier2Cache::Clock(c) => {
                let victim = c.is_full().then(|| c.replace_candidate(page));
                if victim.is_none() {
                    c.insert(page);
                }
                victim
            }
            Tier2Cache::Random {
                resident,
                index,
                capacity,
                rng,
            } => {
                assert!(
                    index.get(page.0 as usize).copied().unwrap_or(ABSENT) == ABSENT,
                    "page {page} already resident in tier-2"
                );
                if resident.len() == *capacity {
                    let slot = rng.gen_range(0..resident.len());
                    let victim = resident[slot];
                    index[victim.0 as usize] = ABSENT;
                    resident[slot] = page;
                    set_slot(index, page, slot as u32);
                    Some(victim)
                } else {
                    set_slot(index, page, resident.len() as u32);
                    resident.push(page);
                    None
                }
            }
        }
    }

    /// Inserts only if a slot is free; returns whether it was inserted.
    ///
    /// # Panics
    ///
    /// Panics if `page` is already resident.
    pub(crate) fn insert_if_room(&mut self, page: PageId) -> bool {
        if self.is_full() {
            assert!(
                !self.contains(page),
                "page {page} already resident in tier-2"
            );
            return false;
        }
        self.insert_evicting(page);
        true
    }

    /// Removes `page` (promotion back to Tier-1); returns whether it was
    /// resident.
    pub(crate) fn remove(&mut self, page: PageId) -> bool {
        match self {
            Tier2Cache::Fifo(c) => c.remove(page),
            Tier2Cache::Clock(c) => c.remove(page),
            Tier2Cache::Random {
                resident, index, ..
            } => match index.get(page.0 as usize).copied() {
                Some(slot) if slot != ABSENT => {
                    let slot = slot as usize;
                    index[page.0 as usize] = ABSENT;
                    let last = resident.len() - 1;
                    resident.swap(slot, last);
                    resident.pop();
                    if slot < resident.len() {
                        index[resident[slot].0 as usize] = slot as u32;
                    }
                    true
                }
                _ => false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_all(capacity: usize) -> Vec<Tier2Cache> {
        vec![
            Tier2Cache::fifo(capacity),
            Tier2Cache::clock(capacity),
            Tier2Cache::random(capacity, 7),
        ]
    }

    #[test]
    fn capacity_respected_by_every_policy() {
        for mut cache in make_all(4) {
            for p in 0..32 {
                cache.insert_evicting(PageId(p));
                assert!(cache.len() <= 4);
            }
            assert!(cache.is_full());
        }
    }

    #[test]
    fn eviction_returns_a_previously_resident_page() {
        for mut cache in make_all(3) {
            for p in 0..3 {
                assert_eq!(cache.insert_evicting(PageId(p)), None);
            }
            let victim = cache
                .insert_evicting(PageId(99))
                .expect("full cache evicts");
            assert!(victim.0 < 3, "victim {victim} was never inserted");
            assert!(!cache.contains(victim));
            assert!(cache.contains(PageId(99)));
        }
    }

    #[test]
    fn remove_then_insert_if_room() {
        for mut cache in make_all(2) {
            cache.insert_evicting(PageId(0));
            cache.insert_evicting(PageId(1));
            assert!(!cache.insert_if_room(PageId(2)));
            assert!(cache.remove(PageId(0)));
            assert!(!cache.remove(PageId(0)));
            assert!(cache.insert_if_room(PageId(2)));
            assert!(cache.contains(PageId(2)));
        }
    }

    /// Differential check of the dense-handle `Random` variant against a
    /// straightforward map model driven by the identical RNG: every
    /// insert/remove decision (victims included) must coincide.
    #[test]
    fn random_variant_matches_a_map_reference() {
        use rand::Rng;
        struct Reference {
            resident: Vec<PageId>,
            index: std::collections::BTreeMap<PageId, usize>,
            capacity: usize,
            rng: rand::rngs::StdRng,
        }
        impl Reference {
            fn insert_evicting(&mut self, page: PageId) -> Option<PageId> {
                assert!(!self.index.contains_key(&page));
                if self.resident.len() == self.capacity {
                    let slot = self.rng.gen_range(0..self.resident.len());
                    let victim = self.resident[slot];
                    self.index.remove(&victim);
                    self.resident[slot] = page;
                    self.index.insert(page, slot);
                    Some(victim)
                } else {
                    self.index.insert(page, self.resident.len());
                    self.resident.push(page);
                    None
                }
            }
            fn remove(&mut self, page: PageId) -> bool {
                match self.index.remove(&page) {
                    Some(slot) => {
                        let last = self.resident.len() - 1;
                        self.resident.swap(slot, last);
                        self.resident.pop();
                        if slot < self.resident.len() {
                            self.index.insert(self.resident[slot], slot);
                        }
                        true
                    }
                    None => false,
                }
            }
        }

        for seed in [3u64, 17, 4242] {
            let mut dense = Tier2Cache::random(16, seed);
            let mut model = Reference {
                resident: Vec::new(),
                index: std::collections::BTreeMap::new(),
                capacity: 16,
                rng: gmt_sim::rng::seeded(seed),
            };
            let mut driver = gmt_sim::rng::seeded(seed ^ 0x5EED);
            for step in 0..4_000u64 {
                let page = PageId(driver.gen_range(0..64));
                if driver.gen_bool(0.3) {
                    assert_eq!(dense.remove(page), model.remove(page), "step {step}");
                } else if !dense.contains(page) {
                    assert!(!model.index.contains_key(&page), "step {step}");
                    assert_eq!(
                        dense.insert_evicting(page),
                        model.insert_evicting(page),
                        "step {step}"
                    );
                }
                assert_eq!(dense.len(), model.resident.len(), "step {step}");
            }
        }
    }

    #[test]
    fn random_eviction_spreads_victims() {
        let mut cache = Tier2Cache::random(8, 3);
        for p in 0..8 {
            cache.insert_evicting(PageId(p));
        }
        let mut victims = std::collections::BTreeSet::new();
        for p in 8..64 {
            if let Some(v) = cache.insert_evicting(PageId(p)) {
                victims.insert(v);
            }
        }
        assert!(
            victims.len() > 4,
            "random eviction hit only {} distinct victims",
            victims.len()
        );
    }
}
