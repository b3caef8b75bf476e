//! Differential property tests: the dense page-handle structures
//! ([`ClockList`], [`FifoCache`]) against hash-indexed reference models.
//!
//! The tentpole flattening replaced `HashMap`/`HashSet` page indices
//! with grow-on-demand dense tables. These tests re-implement the
//! *original* hash-indexed semantics as oracles and drive both through
//! random op interleavings: every decision — victims, candidate sweeps,
//! membership, lengths — must be identical, which is what keeps the
//! golden traces byte-for-byte stable across the data-layout change.
#![expect(
    clippy::disallowed_types,
    reason = "the oracles keep the original hash indices and sort what they iterate"
)]

use std::collections::{HashMap, HashSet, VecDeque};

use gmt_mem::{ClockList, FifoCache, PageId};
use proptest::prelude::*;

/// The pre-flattening clock: identical algorithm, `HashMap` index.
struct ClockRef {
    slots: Vec<Option<(PageId, bool)>>,
    index: HashMap<PageId, usize>,
    free: Vec<usize>,
    hand: usize,
    capacity: usize,
}

impl ClockRef {
    fn new(capacity: usize) -> ClockRef {
        ClockRef {
            slots: Vec::new(),
            index: HashMap::new(),
            free: Vec::new(),
            hand: 0,
            capacity,
        }
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn is_full(&self) -> bool {
        self.len() == self.capacity
    }

    fn contains(&self, page: PageId) -> bool {
        self.index.contains_key(&page)
    }

    fn touch(&mut self, page: PageId) -> bool {
        match self.index.get(&page) {
            Some(&i) => {
                self.slots[i].as_mut().unwrap().1 = true;
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, page: PageId) {
        let slot = (page, true);
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        self.index.insert(page, i);
    }

    fn candidate(&mut self) -> Option<PageId> {
        if self.index.is_empty() {
            return None;
        }
        loop {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            match &mut self.slots[self.hand] {
                None => self.hand += 1,
                Some((_, referenced)) if *referenced => {
                    *referenced = false;
                    self.hand += 1;
                }
                Some((page, _)) => return Some(*page),
            }
        }
    }

    fn skip_candidate(&mut self) {
        let page = self.candidate().unwrap();
        let i = self.index[&page];
        self.slots[i].as_mut().unwrap().1 = true;
        self.hand = i + 1;
    }

    fn replace_candidate(&mut self, new: PageId) -> PageId {
        let victim = self.candidate().unwrap();
        let i = self.index.remove(&victim).unwrap();
        self.slots[i] = Some((new, true));
        self.index.insert(new, i);
        self.hand = i + 1;
        victim
    }

    fn evict_candidate(&mut self) -> PageId {
        let victim = self.candidate().unwrap();
        let i = self.index.remove(&victim).unwrap();
        self.slots[i] = None;
        self.free.push(i);
        self.hand = i + 1;
        victim
    }

    fn remove(&mut self, page: PageId) -> bool {
        match self.index.remove(&page) {
            Some(i) => {
                self.slots[i] = None;
                self.free.push(i);
                true
            }
            None => false,
        }
    }
}

/// The pre-flattening FIFO: lazy-deletion queue plus a `HashSet`.
struct FifoRef {
    queue: VecDeque<PageId>,
    resident: HashSet<PageId>,
    capacity: usize,
}

impl FifoRef {
    fn new(capacity: usize) -> FifoRef {
        FifoRef {
            queue: VecDeque::new(),
            resident: HashSet::new(),
            capacity,
        }
    }

    fn contains(&self, page: PageId) -> bool {
        self.resident.contains(&page)
    }

    fn pop_oldest(&mut self) -> PageId {
        loop {
            let page = self.queue.pop_front().expect("a resident page exists");
            if self.resident.remove(&page) {
                return page;
            }
        }
    }

    fn insert_evicting(&mut self, page: PageId) -> Option<PageId> {
        let victim = if self.resident.len() == self.capacity {
            Some(self.pop_oldest())
        } else {
            None
        };
        self.resident.insert(page);
        self.queue.push_back(page);
        victim
    }

    fn insert_if_room(&mut self, page: PageId) -> bool {
        if self.resident.len() == self.capacity {
            return false;
        }
        self.resident.insert(page);
        self.queue.push_back(page);
        true
    }

    fn remove(&mut self, page: PageId) -> bool {
        self.resident.remove(&page)
    }
}

#[derive(Debug, Clone)]
enum ClockOp {
    Touch(u64),
    Insert(u64),
    Replace(u64),
    Skip,
    Evict,
    Remove(u64),
    Candidate,
}

/// Decodes a `(selector, page)` pair into a clock op (the vendored
/// proptest shim has no `prop_oneof`, so the mix is decoded by hand).
fn clock_op(sel: u8, page: u64) -> ClockOp {
    match sel {
        0..=2 => ClockOp::Touch(page),
        3..=5 => ClockOp::Insert(page),
        6..=8 => ClockOp::Replace(page),
        9 => ClockOp::Skip,
        10 => ClockOp::Evict,
        11 | 12 => ClockOp::Remove(page),
        _ => ClockOp::Candidate,
    }
}

#[derive(Debug, Clone)]
enum FifoOp {
    InsertEvicting(u64),
    InsertIfRoom(u64),
    Remove(u64),
    Contains(u64),
}

fn fifo_op(sel: u8, page: u64) -> FifoOp {
    match sel {
        0..=2 => FifoOp::InsertEvicting(page),
        3 | 4 => FifoOp::InsertIfRoom(page),
        5 | 6 => FifoOp::Remove(page),
        _ => FifoOp::Contains(page),
    }
}

proptest! {
    #[test]
    fn clock_matches_hash_indexed_reference(
        capacity in 1usize..12,
        raw in proptest::collection::vec((0u8..14, 0u64..48), 1..400),
    ) {
        let mut dense = ClockList::new(capacity);
        let mut oracle = ClockRef::new(capacity);
        for (sel, page) in raw {
            match clock_op(sel, page) {
                ClockOp::Touch(p) => {
                    prop_assert_eq!(dense.touch(PageId(p)), oracle.touch(PageId(p)));
                }
                ClockOp::Insert(p) => {
                    prop_assert_eq!(dense.contains(PageId(p)), oracle.contains(PageId(p)));
                    if !dense.is_full() && !dense.contains(PageId(p)) {
                        dense.insert(PageId(p));
                        oracle.insert(PageId(p));
                    }
                }
                ClockOp::Replace(p) => {
                    if !dense.is_empty() && !dense.contains(PageId(p)) {
                        prop_assert_eq!(
                            dense.replace_candidate(PageId(p)),
                            oracle.replace_candidate(PageId(p))
                        );
                    }
                }
                ClockOp::Skip => {
                    if !dense.is_empty() {
                        dense.skip_candidate();
                        oracle.skip_candidate();
                    }
                }
                ClockOp::Evict => {
                    if !dense.is_empty() {
                        prop_assert_eq!(dense.evict_candidate(), oracle.evict_candidate());
                    }
                }
                ClockOp::Remove(p) => {
                    prop_assert_eq!(dense.remove(PageId(p)), oracle.remove(PageId(p)));
                }
                ClockOp::Candidate => {
                    prop_assert_eq!(dense.candidate(), oracle.candidate());
                }
            }
            prop_assert_eq!(dense.len(), oracle.len());
            prop_assert_eq!(dense.is_full(), oracle.is_full());
        }
        // Final drain: eviction order must agree to the very last page.
        while !dense.is_empty() {
            prop_assert_eq!(dense.evict_candidate(), oracle.evict_candidate());
        }
        prop_assert_eq!(oracle.len(), 0);
    }

    #[test]
    fn fifo_matches_hash_set_reference(
        capacity in 1usize..10,
        raw in proptest::collection::vec((0u8..8, 0u64..48), 1..400),
    ) {
        let mut dense = FifoCache::new(capacity);
        let mut oracle = FifoRef::new(capacity);
        for (sel, page) in raw {
            match fifo_op(sel, page) {
                FifoOp::InsertEvicting(p) => {
                    if !dense.contains(PageId(p)) {
                        prop_assert_eq!(
                            dense.insert_evicting(PageId(p)),
                            oracle.insert_evicting(PageId(p))
                        );
                    }
                }
                FifoOp::InsertIfRoom(p) => {
                    if !dense.contains(PageId(p)) {
                        prop_assert_eq!(
                            dense.insert_if_room(PageId(p)),
                            oracle.insert_if_room(PageId(p))
                        );
                    }
                }
                FifoOp::Remove(p) => {
                    prop_assert_eq!(dense.remove(PageId(p)), oracle.remove(PageId(p)));
                }
                FifoOp::Contains(p) => {
                    prop_assert_eq!(dense.contains(PageId(p)), oracle.contains(PageId(p)));
                }
            }
            prop_assert_eq!(dense.len(), oracle.resident.len());
            let mut expected: Vec<PageId> = oracle.resident.iter().copied().collect();
            expected.sort_unstable();
            let got: Vec<PageId> = dense.iter().collect();
            prop_assert_eq!(got, expected, "iter() must list residents in page order");
        }
    }
}
