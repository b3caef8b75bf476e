//! R2 fixture: a model crate growing a sync-shared cell. The field's
//! existence is the violation — nothing ever writes through it, yet the
//! cell still demands an explicit justification.

use std::sync::{Arc, Mutex};

/// Regression coefficients nominally shared with a worker thread.
pub struct SharedFit {
    inner: Arc<Mutex<f64>>,
    samples: u64,
}

impl SharedFit {
    /// Only reads; the field itself trips R2.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}
