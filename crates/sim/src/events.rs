//! A general event calendar for discrete-event simulation.
//!
//! The resource models in this crate ([`crate::FifoServer`],
//! [`crate::Link`], …) use closed-form queueing updates and never need a
//! global event loop. Some simulations do — anything with cancellation,
//! timeouts, or cross-entity causality. [`EventQueue`] provides the
//! classic calendar: schedule, cancel, pop-in-time-order, with stable
//! FIFO ordering among simultaneous events.
//!
//! # Implementation
//!
//! [`EventQueue`] is a *hierarchical timing wheel* (Varghese & Lauck):
//! eleven levels of 64 slots, level `l` spanning `64^(l+1)` ns, so the
//! full 64-bit nanosecond range is covered. Scheduling appends to the
//! bucket of the highest level where the event's time diverges from the
//! current cursor — O(1), no comparisons. Popping drains the earliest
//! bucket into a per-instant cohort (sorted by sequence number for the
//! FIFO-tie guarantee) and cascades far-future buckets down one level as
//! their window arrives — amortised O(levels) per event. Cancellation
//! is O(1): a dense `Vec<u8>` keyed by the event's sequence number
//! replaces the hash set a heap calendar would need, so the hot path
//! performs no hashing at all.
//!
//! The original binary-heap calendar is retained verbatim as
//! [`reference::HeapQueue`]: it is the executable specification the
//! differential tests (`tests/events_differential.rs`) drive against the
//! wheel, interleaving by interleaving random schedule/cancel/pop
//! sequences and demanding identical results.

use crate::Time;

/// Handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

/// log2 of the slots per wheel level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels needed so `SLOT_BITS * LEVELS >= 64`.
const LEVELS: usize = 11;

/// One scheduled entry as stored in a wheel bucket or the cohort.
#[derive(Debug)]
struct Entry<E> {
    at: u64,
    seq: u64,
    event: E,
}

/// Per-event lifecycle, indexed by sequence number.
const PENDING: u8 = 0;
const DONE: u8 = 1; // popped or cancelled

/// A time-ordered event calendar with O(1) schedule, O(1) cancel and
/// amortised O(1) pop, built on a hierarchical timing wheel.
///
/// Events at equal times pop in scheduling order (deterministic ties).
///
/// # Examples
///
/// ```
/// use gmt_sim::events::EventQueue;
/// use gmt_sim::Time;
///
/// let mut q = EventQueue::new();
/// q.schedule(Time::from_nanos(20), "late");
/// let early = q.schedule(Time::from_nanos(10), "early");
/// q.cancel(early);
/// let (at, event) = q.pop().expect("one event left");
/// assert_eq!((at.as_nanos(), event), (20, "late"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `LEVELS * SLOTS` buckets, flattened (`level * SLOTS + slot`).
    buckets: Vec<Vec<Entry<E>>>,
    /// One occupancy bitmap per level (bit = slot holds entries).
    occupancy: [u64; LEVELS],
    /// The cohort currently being drained: entries at one instant,
    /// sorted by `seq`, consumed front to back.
    cohort: std::collections::VecDeque<Entry<E>>,
    /// Wheel cursor in nanoseconds. Between pops this equals the last
    /// popped instant, so bucket invariants survive re-scheduling.
    cursor: u64,
    /// Lifecycle per sequence number ([`PENDING`]/[`DONE`]).
    state: Vec<u8>,
    /// Pending (scheduled, not yet popped or cancelled) events.
    live: usize,
    next_seq: u64,
    /// The time of the most recently popped event.
    now: Time,
}

impl<E> Default for EventQueue<E> {
    fn default() -> EventQueue<E> {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty calendar at time zero.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            buckets: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; LEVELS],
            cohort: std::collections::VecDeque::new(),
            cursor: 0,
            state: Vec::new(),
            live: 0,
            next_seq: 0,
            now: Time::ZERO,
        }
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The wheel level at which a time diverging from the cursor at bit
    /// `63 - lz` lives.
    fn level_of(&self, at: u64) -> usize {
        let diff = at ^ self.cursor;
        debug_assert_ne!(diff, 0, "cursor-time events go to the cohort");
        ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
    }

    fn push_to_wheel(&mut self, entry: Entry<E>) {
        let level = self.level_of(entry.at);
        let slot = ((entry.at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.buckets[level * SLOTS + slot].push(entry);
        self.occupancy[level] |= 1u64 << slot;
    }

    /// Schedules `event` at time `at`; returns a cancellation handle.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the calendar's current time (events may
    /// not be scheduled in the past).
    pub fn schedule(&mut self, at: Time, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.state.push(PENDING);
        self.live += 1;
        let at_ns = at.as_nanos();
        let entry = Entry {
            at: at_ns,
            seq,
            event,
        };
        if at_ns == self.cursor {
            // Joins the instant being drained; `seq` is monotone so the
            // cohort stays sorted.
            self.cohort.push_back(entry);
        } else {
            debug_assert!(at_ns > self.cursor, "schedule checked against now");
            self.push_to_wheel(entry);
        }
        EventId(seq)
    }

    /// Cancels a scheduled event; returns whether it was still pending
    /// (cancelling a fired or already-cancelled event is a no-op).
    pub fn cancel(&mut self, id: EventId) -> bool {
        // Lazy: the bucket entry stays and is skipped at pop time.
        match self.state.get_mut(id.0 as usize) {
            Some(s) if *s == PENDING => {
                *s = DONE;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Occupied slots at `level` strictly after the cursor's slot.
    fn mask_beyond_cursor(&self, level: usize) -> u64 {
        let cursor_slot = ((self.cursor >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as u32;
        self.occupancy[level] & (!0u64).checked_shl(cursor_slot + 1).unwrap_or(0)
    }

    /// Advances the wheel one step: either forms the next instant's
    /// cohort (level 0) or cascades one far-future bucket down. Returns
    /// whether any step was possible.
    fn advance(&mut self) -> bool {
        debug_assert!(self.cohort.is_empty(), "cohort not drained");
        for level in 0..LEVELS {
            let mask = self.mask_beyond_cursor(level);
            if mask == 0 {
                continue;
            }
            let slot = mask.trailing_zeros() as usize;
            let shift = SLOT_BITS * level as u32;
            self.occupancy[level] &= !(1u64 << slot);
            let bucket = std::mem::take(&mut self.buckets[level * SLOTS + slot]);
            if level == 0 {
                // Every entry in a level-0 bucket of the current window
                // shares one instant: it becomes the new cohort.
                let at = (self.cursor & !(SLOTS as u64 - 1)) | slot as u64;
                debug_assert!(bucket.iter().all(|e| e.at == at));
                self.cursor = at;
                self.cohort = bucket.into();
                self.cohort
                    .make_contiguous()
                    .sort_unstable_by_key(|e| e.seq);
            } else {
                // The slot's sub-window arrives: move the cursor to its
                // base (no event precedes it) and redistribute.
                let window = self.cursor >> (shift + SLOT_BITS) << (shift + SLOT_BITS);
                let base = window | ((slot as u64) << shift);
                self.cursor = base;
                for entry in bucket {
                    if entry.at == self.cursor {
                        self.cohort.push_back(entry);
                    } else {
                        self.push_to_wheel(entry);
                    }
                }
                self.cohort
                    .make_contiguous()
                    .sort_unstable_by_key(|e| e.seq);
            }
            return true;
        }
        false
    }

    /// Skips consumed/cancelled cohort entries; refills the cohort from
    /// the wheel until its front is a live entry or the wheel is dry.
    fn settle(&mut self) -> bool {
        loop {
            while let Some(entry) = self.cohort.front() {
                if self.state[entry.seq as usize] == PENDING {
                    return true;
                }
                self.cohort.pop_front();
            }
            if self.live == 0 || !self.advance() {
                // Fully drained (or only dead entries remain anywhere).
                self.cohort.clear();
                return false;
            }
        }
    }

    /// Pops the next pending event, advancing the calendar's clock.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.live == 0 {
            return None;
        }
        if !self.settle() {
            return None;
        }
        #[expect(
            clippy::expect_used,
            reason = "settle() returned true, so the cohort is non-empty"
        )]
        let entry = self.cohort.pop_front().expect("settled");
        self.state[entry.seq as usize] = DONE;
        self.live -= 1;
        let at = Time::from_nanos(entry.at);
        self.now = at;
        debug_assert_eq!(self.cursor, entry.at);
        Some((at, entry.event))
    }

    /// Peeks at the next pending event's time without popping.
    pub fn next_time(&mut self) -> Option<Time> {
        if self.live == 0 {
            return None;
        }
        // The cohort is already at the earliest instant.
        if let Some(entry) = self
            .cohort
            .iter()
            .find(|e| self.state[e.seq as usize] == PENDING)
        {
            return Some(Time::from_nanos(entry.at));
        }
        // Read-only scan, earliest level first: within a level, slots
        // ascend in time; every live time at a deeper level precedes
        // every live time at a shallower one (beyond the cursor).
        for level in 0..LEVELS {
            let mut mask = self.mask_beyond_cursor(level);
            while mask != 0 {
                let slot = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let min_live = self.buckets[level * SLOTS + slot]
                    .iter()
                    .filter(|e| self.state[e.seq as usize] == PENDING)
                    .map(|e| e.at)
                    .min();
                if let Some(at) = min_live {
                    return Some(Time::from_nanos(at));
                }
            }
        }
        None
    }
}

pub mod reference {
    //! The binary-heap calendar the timing wheel replaced, retained as
    //! the executable specification for differential testing. Identical
    //! observable semantics: same [`EventId`] values (sequence numbers),
    //! same FIFO tie-breaking, same lazy cancellation.
    #![expect(
        clippy::disallowed_types,
        reason = "`EventId` is not `Ord`; the pending set is only probed, never iterated"
    )]

    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::EventId;
    use crate::Time;

    #[derive(Debug)]
    struct Scheduled<E> {
        at: Time,
        seq: u64,
        id: EventId,
        event: E,
    }

    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }

    impl<E> Eq for Scheduled<E> {}

    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.at, self.seq).cmp(&(other.at, other.seq))
        }
    }

    /// The original O(log n) heap calendar (see the module docs).
    #[derive(Debug)]
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Reverse<Scheduled<E>>>,
        pending: std::collections::HashSet<EventId>,
        next_seq: u64,
        now: Time,
    }

    impl<E> Default for HeapQueue<E> {
        fn default() -> HeapQueue<E> {
            HeapQueue::new()
        }
    }

    impl<E> HeapQueue<E> {
        /// Creates an empty calendar at time zero.
        pub fn new() -> HeapQueue<E> {
            HeapQueue {
                heap: BinaryHeap::new(),
                pending: std::collections::HashSet::new(),
                next_seq: 0,
                now: Time::ZERO,
            }
        }

        /// The time of the most recently popped event.
        pub fn now(&self) -> Time {
            self.now
        }

        /// Pending (non-cancelled) events.
        pub fn len(&self) -> usize {
            self.pending.len()
        }

        /// Whether no events are pending.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Schedules `event` at time `at`; returns a cancellation handle.
        ///
        /// # Panics
        ///
        /// Panics if `at` is before the calendar's current time.
        pub fn schedule(&mut self, at: Time, event: E) -> EventId {
            assert!(
                at >= self.now,
                "cannot schedule into the past ({at} < {})",
                self.now
            );
            let id = EventId(self.next_seq);
            self.heap.push(Reverse(Scheduled {
                at,
                seq: self.next_seq,
                id,
                event,
            }));
            self.pending.insert(id);
            self.next_seq += 1;
            id
        }

        /// Cancels a scheduled event; returns whether it was pending.
        pub fn cancel(&mut self, id: EventId) -> bool {
            self.pending.remove(&id)
        }

        /// Pops the next pending event, advancing the clock.
        pub fn pop(&mut self) -> Option<(Time, E)> {
            while let Some(Reverse(scheduled)) = self.heap.pop() {
                if !self.pending.remove(&scheduled.id) {
                    continue; // cancelled
                }
                self.now = scheduled.at;
                return Some((scheduled.at, scheduled.event));
            }
            None
        }

        /// Peeks at the next pending event's time without popping.
        pub fn next_time(&mut self) -> Option<Time> {
            while let Some(Reverse(scheduled)) = self.heap.peek() {
                if !self.pending.contains(&scheduled.id) {
                    self.heap.pop();
                    continue;
                }
                return Some(scheduled.at);
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dur;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_nanos(30), 'c');
        q.schedule(Time::from_nanos(10), 'a');
        q.schedule(Time::from_nanos(20), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_nanos(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_is_lazy_but_exact() {
        let mut q = EventQueue::new();
        let keep = q.schedule(Time::from_nanos(1), "keep");
        let drop1 = q.schedule(Time::from_nanos(2), "drop");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(drop1));
        assert!(!q.cancel(drop1), "double-cancel is a no-op");
        assert_eq!(q.len(), 1);
        let _ = keep;
        assert_eq!(q.pop().map(|(_, e)| e), Some("keep"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelling_a_fired_event_is_harmless() {
        let mut q = EventQueue::new();
        let id = q.schedule(Time::from_nanos(1), 'x');
        q.schedule(Time::from_nanos(2), 'y');
        assert_eq!(q.pop().map(|(_, e)| e), Some('x'));
        assert!(!q.cancel(id), "already fired: cancel reports not-pending");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some('y'));
        assert!(q.is_empty());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_nanos(100), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_nanos(100));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn past_scheduling_rejected() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_nanos(100), ());
        q.pop();
        q.schedule(Time::from_nanos(50), ());
    }

    #[test]
    fn next_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let first = q.schedule(Time::from_nanos(1), ());
        q.schedule(Time::from_nanos(9), ());
        q.cancel(first);
        assert_eq!(q.next_time(), Some(Time::from_nanos(9)));
    }

    #[test]
    fn next_time_does_not_commit_the_cursor() {
        // Peeking far ahead must not forbid scheduling nearer events.
        let mut q = EventQueue::new();
        q.schedule(Time::from_nanos(10), 'a');
        q.pop();
        q.schedule(Time::from_nanos(1_000_000), 'z');
        assert_eq!(q.next_time(), Some(Time::from_nanos(1_000_000)));
        q.schedule(Time::from_nanos(50), 'b');
        assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
        assert_eq!(q.pop().map(|(_, e)| e), Some('z'));
    }

    #[test]
    fn far_future_events_cascade_correctly() {
        // Times spanning many wheel levels, scheduled out of order.
        let mut q = EventQueue::new();
        let times = [
            u64::from(u32::MAX) + 17,
            1,
            64,
            65,
            4096,
            1 << 40,
            (1 << 40) + 1,
            63,
            (1 << 13) - 1,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Time::from_nanos(t), i);
        }
        let mut sorted: Vec<u64> = times.to_vec();
        sorted.sort_unstable();
        let popped: Vec<u64> =
            std::iter::from_fn(|| q.pop().map(|(at, _)| at.as_nanos())).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn rescheduling_at_the_popped_instant_pops_next() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_nanos(7), "first");
        let (at, _) = q.pop().expect("first");
        q.schedule(at, "same-instant");
        q.schedule(Time::from_nanos(8), "later");
        assert_eq!(q.pop().map(|(_, e)| e), Some("same-instant"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("later"));
    }

    #[test]
    fn works_as_a_simple_process_simulation() {
        // Two ping-pong processes: validates causal chaining through the
        // calendar.
        #[derive(Debug)]
        enum Ev {
            Ping(u32),
            Pong(u32),
        }
        let mut q = EventQueue::new();
        q.schedule(Time::ZERO, Ev::Ping(0));
        let mut pings = 0;
        let mut pongs = 0;
        while let Some((at, ev)) = q.pop() {
            match ev {
                Ev::Ping(round) if round < 10 => {
                    pings += 1;
                    q.schedule(at + Dur::from_nanos(3), Ev::Pong(round));
                }
                Ev::Pong(round) if round < 9 => {
                    pongs += 1;
                    q.schedule(at + Dur::from_nanos(7), Ev::Ping(round + 1));
                }
                _ => {
                    pongs += 1;
                }
            }
        }
        assert_eq!((pings, pongs), (10, 10));
        assert_eq!(q.now().as_nanos(), 9 * 10 + 3);
    }

    #[test]
    fn heap_reference_matches_on_a_fixed_interleaving() {
        use rand::Rng;
        let mut wheel = EventQueue::new();
        let mut heap = reference::HeapQueue::new();
        let mut rng = crate::rng::seeded(0xD1FF);
        let mut live: Vec<EventId> = Vec::new();
        for i in 0..5_000u64 {
            let at = Time::from_nanos(wheel.now().as_nanos() + rng.gen_range(0..100_000u64));
            let a = wheel.schedule(at, i);
            let b = heap.schedule(at, i);
            assert_eq!(a, b, "ids must coincide");
            live.push(a);
            if i % 3 == 0 {
                assert_eq!(wheel.pop(), heap.pop());
            }
            if i % 5 == 0 && !live.is_empty() {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                assert_eq!(wheel.cancel(id), heap.cancel(id));
            }
            assert_eq!(wheel.len(), heap.len());
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
