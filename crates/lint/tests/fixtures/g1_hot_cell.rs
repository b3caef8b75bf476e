//! Planted G1 violation: a `Cell` field on a hot type. `access` is a
//! DES per-event root, so `HotCounter` is on the event-loop path and
//! its interior-mutable field is denied by G1 (R2 leaves hot types to
//! G1). The cold twin is `r2_cold_cell.rs`.

use std::cell::Cell;

/// A per-access counter updated through a shared reference.
pub struct HotCounter {
    hits: Cell<u64>,
}

impl HotCounter {
    /// DES per-event root: marks the type hot.
    pub fn access(&self) -> u64 {
        self.hits.get()
    }
}
