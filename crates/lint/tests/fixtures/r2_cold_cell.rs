//! Planted R2 violation: the same `Cell` field as `g1_hot_cell.rs`, on
//! a type no DES root reaches. Off the hot path G1 stays quiet, and R2
//! demands a justification for the cell.

use std::cell::Cell;

/// A counter updated through a shared reference, outside the event loop.
pub struct ColdCounter {
    hits: Cell<u64>,
}

impl ColdCounter {
    /// Not a DES root: nothing hot calls it.
    pub fn total(&self) -> u64 {
        self.hits.get()
    }
}
