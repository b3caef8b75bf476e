//! Planted G1 violation: a `thread_local!` keeps per-thread state that
//! no component owns, so results depend on which thread runs the event
//! loop.

use std::cell::Cell;

thread_local! {
    static EVENT_SEQ: Cell<u64> = const { Cell::new(0) };
}

pub fn seq_base() -> u64 {
    0
}
