//! NVMe submission/completion queue pairs.
//!
//! BaM's key mechanism — which GMT inherits for Tier-1 ⇄ Tier-3 transfers —
//! is to allocate these rings in GPU memory and map them over PCIe
//! (`nvidia_p2p_get_pages` / `nvidia_p2p_dma_map_pages`) so that GPU
//! threads can enqueue I/O commands and poll completions without any host
//! involvement. This module implements the ring-buffer protocol itself:
//! fixed-size circular submission queues with head/tail doorbells, and
//! completion queues with NVMe's phase-tag convention.

/// An NVMe I/O opcode (the subset the tiering runtimes use).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Read `blocks` logical blocks starting at `lba`.
    Read,
    /// Write `blocks` logical blocks starting at `lba`.
    Write,
    /// Flush the device write cache.
    Flush,
}

/// One 64-byte NVMe submission-queue entry (abstracted).
///
/// # Examples
///
/// ```
/// use gmt_ssd::queue::{Command, Opcode};
/// let cmd = Command::io(7, Opcode::Read, 1024, 128);
/// assert_eq!(cmd.bytes(512), 128 * 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Command {
    /// Command identifier, echoed in the completion entry.
    pub cid: u16,
    /// Operation.
    pub opcode: Opcode,
    /// Starting logical block address.
    pub lba: u64,
    /// Number of logical blocks.
    pub blocks: u32,
}

impl Command {
    /// Creates an I/O command.
    pub fn io(cid: u16, opcode: Opcode, lba: u64, blocks: u32) -> Command {
        Command {
            cid,
            opcode,
            lba,
            blocks,
        }
    }

    /// Payload size in bytes given the device's logical block size.
    pub fn bytes(&self, block_bytes: u32) -> u64 {
        self.blocks as u64 * block_bytes as u64
    }
}

/// One 16-byte NVMe completion-queue entry (abstracted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionEntry {
    /// Identifier of the completed command.
    pub cid: u16,
    /// NVMe status code (0 = success).
    pub status: u16,
    /// Phase tag; flips each time the queue wraps.
    pub phase: bool,
    /// Submission-queue head pointer at completion time.
    pub sq_head: u16,
}

/// Error returned when enqueueing into a full ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("nvme queue is full")
    }
}

impl std::error::Error for QueueFull {}

/// A circular NVMe submission queue with doorbell semantics.
///
/// One slot is always left empty to distinguish full from empty, per the
/// NVMe specification.
///
/// # Examples
///
/// ```
/// use gmt_ssd::queue::{Command, Opcode, SubmissionQueue};
/// let mut sq = SubmissionQueue::new(4);
/// sq.push(Command::io(0, Opcode::Read, 0, 8))?;
/// sq.ring_doorbell();
/// assert_eq!(sq.pop().unwrap().cid, 0);
/// # Ok::<(), gmt_ssd::queue::QueueFull>(())
/// ```
#[derive(Debug, Clone)]
pub struct SubmissionQueue {
    ring: Vec<Option<Command>>,
    head: usize,
    tail: usize,
    doorbell: usize,
}

impl SubmissionQueue {
    /// Creates a queue with `slots` entries (one is reserved).
    ///
    /// # Panics
    ///
    /// Panics if `slots < 2`.
    pub fn new(slots: usize) -> SubmissionQueue {
        assert!(slots >= 2, "nvme queues need at least 2 slots");
        SubmissionQueue {
            ring: vec![None; slots],
            head: 0,
            tail: 0,
            doorbell: 0,
        }
    }

    /// Number of usable slots.
    pub fn capacity(&self) -> usize {
        self.ring.len() - 1
    }

    /// Entries currently in the ring (submitted or not yet consumed).
    pub fn len(&self) -> usize {
        (self.tail + self.ring.len() - self.head) % self.ring.len()
    }

    /// Whether the ring has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the ring is full.
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity()
    }

    /// Writes a command at the tail.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] if all usable slots are occupied — the
    /// condition that throttles GPU threads when thousands fault at once.
    pub fn push(&mut self, cmd: Command) -> Result<(), QueueFull> {
        if self.is_full() {
            return Err(QueueFull);
        }
        self.ring[self.tail] = Some(cmd);
        self.tail = (self.tail + 1) % self.ring.len();
        Ok(())
    }

    /// Rings the tail doorbell, making all pushed entries visible to the
    /// controller.
    pub fn ring_doorbell(&mut self) {
        self.doorbell = self.tail;
    }

    /// Controller side: consumes the next *doorbell-visible* command.
    pub fn pop(&mut self) -> Option<Command> {
        if self.head == self.doorbell {
            return None;
        }
        let cmd = self.ring[self.head]
            .take()
            .expect("ring slot below doorbell is filled");
        self.head = (self.head + 1) % self.ring.len();
        cmd.into()
    }

    /// The controller-visible head index (reported in completions).
    pub fn head(&self) -> u16 {
        self.head as u16
    }
}

/// A circular NVMe completion queue with phase-tag semantics.
///
/// The consumer detects new entries by watching the phase bit instead of a
/// doorbell: the controller flips the tag every time the ring wraps.
///
/// # Examples
///
/// ```
/// use gmt_ssd::queue::CompletionQueue;
/// let mut cq = CompletionQueue::new(4);
/// cq.post(3, 0, 1);
/// let e = cq.poll().expect("posted entry is visible");
/// assert_eq!(e.cid, 3);
/// assert!(cq.poll().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct CompletionQueue {
    ring: Vec<CompletionEntry>,
    tail: usize,
    head: usize,
    producer_phase: bool,
    consumer_phase: bool,
}

impl CompletionQueue {
    /// Creates a completion queue with `slots` entries.
    ///
    /// # Panics
    ///
    /// Panics if `slots < 2`.
    pub fn new(slots: usize) -> CompletionQueue {
        assert!(slots >= 2, "nvme queues need at least 2 slots");
        CompletionQueue {
            ring: vec![
                CompletionEntry {
                    cid: 0,
                    status: 0,
                    phase: false,
                    sq_head: 0
                };
                slots
            ],
            tail: 0,
            head: 0,
            producer_phase: true,
            consumer_phase: true,
        }
    }

    /// Controller side: posts a completion for command `cid`.
    pub fn post(&mut self, cid: u16, status: u16, sq_head: u16) {
        self.ring[self.tail] = CompletionEntry {
            cid,
            status,
            phase: self.producer_phase,
            sq_head,
        };
        self.tail += 1;
        if self.tail == self.ring.len() {
            self.tail = 0;
            self.producer_phase = !self.producer_phase;
        }
    }

    /// Consumer side (a GPU thread in BaM): polls for the next completion.
    pub fn poll(&mut self) -> Option<CompletionEntry> {
        let entry = self.ring[self.head];
        if entry.phase != self.consumer_phase {
            return None;
        }
        self.head += 1;
        if self.head == self.ring.len() {
            self.head = 0;
            self.consumer_phase = !self.consumer_phase;
        }
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sq_push_pop_respects_doorbell() {
        let mut sq = SubmissionQueue::new(4);
        sq.push(Command::io(1, Opcode::Read, 0, 8)).unwrap();
        // Not yet visible: doorbell not rung.
        assert!(sq.pop().is_none());
        sq.ring_doorbell();
        assert_eq!(sq.pop().unwrap().cid, 1);
        assert!(sq.pop().is_none());
    }

    #[test]
    fn sq_full_detection() {
        let mut sq = SubmissionQueue::new(3); // 2 usable slots
        sq.push(Command::io(0, Opcode::Read, 0, 1)).unwrap();
        sq.push(Command::io(1, Opcode::Read, 8, 1)).unwrap();
        assert_eq!(sq.push(Command::io(2, Opcode::Read, 16, 1)), Err(QueueFull));
        sq.ring_doorbell();
        sq.pop().unwrap();
        assert!(sq.push(Command::io(2, Opcode::Read, 16, 1)).is_ok());
    }

    #[test]
    fn sq_wraps_around() {
        let mut sq = SubmissionQueue::new(3);
        for round in 0..10u16 {
            sq.push(Command::io(round, Opcode::Write, 0, 1)).unwrap();
            sq.ring_doorbell();
            assert_eq!(sq.pop().unwrap().cid, round);
        }
    }

    #[test]
    fn cq_phase_bit_distinguishes_new_entries_across_wrap() {
        let mut cq = CompletionQueue::new(2);
        for cid in 0..7u16 {
            cq.post(cid, 0, 0);
            let e = cq.poll().expect("entry visible");
            assert_eq!(e.cid, cid);
            assert_eq!(e.status, 0);
            assert!(cq.poll().is_none(), "no spurious entry after cid {cid}");
        }
    }

    #[test]
    fn command_byte_math() {
        let c = Command::io(0, Opcode::Read, 0, 128);
        assert_eq!(c.bytes(512), 65_536); // one 64 KB page
    }

    #[test]
    #[should_panic(expected = "at least 2 slots")]
    fn tiny_queue_rejected() {
        let _ = SubmissionQueue::new(1);
    }
}
