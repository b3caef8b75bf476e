//! BaM's NVMe queue pair, reduced to its queue-depth window.
//!
//! BaM places NVMe submission/completion rings in GPU memory so GPU
//! threads enqueue I/O and poll completions with no host involvement.
//! What shapes its results is the rings' depth: once a queue pair holds
//! a full queue of un-reaped commands, a submitting thread spins until
//! the earliest one completes — the back-pressure that throttles
//! thousands of simultaneously-faulting threads. [`QueuePair`] models
//! exactly that. It keeps only the completion times of in-flight
//! commands and does no I/O itself: the caller issues each admitted
//! command on its device.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gmt_sim::trace::{TraceEvent, TraceSink};
use gmt_sim::Time;

/// The in-flight window of one NVMe queue pair.
///
/// # Examples
///
/// ```
/// use gmt_sim::Time;
/// use gmt_ssd::qpair::QueuePair;
/// use gmt_ssd::{SsdConfig, SsdDevice};
///
/// let mut ssd = SsdDevice::new(SsdConfig::default());
/// let mut qp = QueuePair::new(32);
/// let done = qp.submit(Time::ZERO, false, |at| ssd.read(at, 0, 65_536));
/// assert!(done > Time::ZERO);
/// assert_eq!(qp.in_flight(), 1);
/// ```
#[derive(Debug)]
pub struct QueuePair {
    /// Completion time and submission sequence number of every command
    /// not yet reaped, earliest completion first (ties in submission
    /// order).
    in_flight: BinaryHeap<Reverse<(Time, u64)>>,
    capacity: usize,
    submitted: u64,
    trace: TraceSink,
}

impl QueuePair {
    /// A window for rings of `slots` entries. One slot is reserved to
    /// tell a full ring from an empty one, so `slots - 1` commands fit.
    ///
    /// # Panics
    ///
    /// Panics if `slots < 2` (the NVMe minimum).
    pub fn new(slots: usize) -> QueuePair {
        assert!(slots >= 2, "nvme queues need at least 2 slots");
        QueuePair {
            in_flight: BinaryHeap::with_capacity(slots),
            capacity: slots - 1,
            submitted: 0,
            trace: TraceSink::disabled(),
        }
    }

    /// Routes ring submissions and completions into `trace`.
    pub fn attach_trace(&mut self, trace: &TraceSink) {
        self.trace = trace.clone();
    }

    /// Commands submitted but not yet reaped.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Submits one command with back-pressure and returns its completion
    /// time.
    ///
    /// When the window is full, the submitter spins until the earliest
    /// in-flight command completes and reaps every command done by then.
    /// `issue` then runs the command on the device at the (possibly
    /// later) submission time and returns its completion time. Command
    /// ids wrap at `u16`, as NVMe's do; they appear only in the trace.
    pub fn submit(&mut self, now: Time, write: bool, issue: impl FnOnce(Time) -> Time) -> Time {
        let now = if self.in_flight.len() >= self.capacity {
            self.poll(now)
        } else {
            now
        };
        let done = issue(now);
        let seq = self.submitted;
        self.submitted += 1;
        self.in_flight.push(Reverse((done, seq)));
        self.trace.emit(
            now,
            TraceEvent::RingSubmit {
                cid: seq as u16,
                write,
                queue_depth: self.in_flight.len() as u32,
            },
        );
        done
    }

    /// Spins until the earliest in-flight command has completed (no wait
    /// if it already has), reaps every command done by then and returns
    /// that instant.
    fn poll(&mut self, now: Time) -> Time {
        let now = self
            .in_flight
            .peek()
            .map_or(now, |&Reverse((earliest, _))| now.max(earliest));
        while let Some(&Reverse((done_at, seq))) = self.in_flight.peek() {
            if done_at > now {
                break;
            }
            self.in_flight.pop();
            self.trace.emit(
                now,
                TraceEvent::RingComplete {
                    cid: seq as u16,
                    queue_depth: self.in_flight.len() as u32,
                },
            );
        }
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SsdConfig, SsdDevice};

    const PAGE: u64 = 64 * 1024;

    /// Issues `reads` page reads at t = 0 through a `slots`-entry window;
    /// returns the submission times the device saw and the last
    /// completion.
    fn burst(slots: usize, reads: u64) -> (Vec<Time>, Time) {
        let mut ssd = SsdDevice::new(SsdConfig::default());
        let mut qp = QueuePair::new(slots);
        let mut issued = Vec::new();
        let mut last = Time::ZERO;
        for i in 0..reads {
            let done = qp.submit(Time::ZERO, false, |at| {
                issued.push(at);
                ssd.read(at, i * PAGE, PAGE)
            });
            last = last.max(done);
            assert!(qp.in_flight() < slots, "window overran its ring");
        }
        assert_eq!(ssd.stats().reads, reads);
        (issued, last)
    }

    #[test]
    fn back_pressure_delays_submission() {
        // 3 usable slots: the first three issue at once, the fourth waits
        // for the earliest completion.
        let (issued, _) = burst(4, 4);
        assert_eq!(&issued[..3], &[Time::ZERO; 3]);
        assert!(issued[3] > Time::ZERO, "a full window must stall");
        let (free, _) = burst(64, 4);
        assert_eq!(free, vec![Time::ZERO; 4]);
    }

    #[test]
    fn a_deeper_window_is_never_slower() {
        let (_, shallow) = burst(4, 32);
        let (_, deep) = burst(64, 32);
        assert!(shallow >= deep, "a deeper ring can only help");
    }

    #[test]
    fn cids_wrap_without_collision_in_flight() {
        let trace = TraceSink::bounded(1 << 18);
        let mut ssd = SsdDevice::new(SsdConfig::default());
        let mut qp = QueuePair::new(4);
        qp.attach_trace(&trace);
        let mut now = Time::ZERO;
        for i in 0..70_000u64 {
            now = qp.submit(now, false, |at| ssd.read(at, (i % 64) * PAGE, PAGE));
        }
        let mut outstanding = std::collections::BTreeSet::new();
        let mut submits = 0;
        for r in trace.snapshot() {
            match r.event {
                TraceEvent::RingSubmit { cid, .. } => {
                    submits += 1;
                    assert!(outstanding.insert(cid), "cid {cid} doubly in flight");
                }
                TraceEvent::RingComplete { cid, .. } => {
                    assert!(outstanding.remove(&cid), "cid {cid} completed unsubmitted");
                }
                _ => {}
            }
        }
        assert_eq!(submits, 70_000);
        assert!(outstanding.len() <= 3);
    }
}
