//! Planted G1 violation: a `static mut` is process-global mutable state
//! that no component owns — the deferred sharded DES could not
//! partition it.

static mut EVENT_SEQ: u64 = 0;

pub fn next_seq() -> u64 {
    0
}
