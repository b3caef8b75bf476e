//! Suppression twin of `r2_model_cell.rs`: the same sync cell, silenced
//! by a justified allow on the field.

use std::sync::{Arc, Mutex};

/// Regression coefficients nominally shared with a worker thread.
pub struct SharedFit {
    // gmt-lint: allow(R2): [R2/1] fixture demonstrating the suppression syntax.
    inner: Arc<Mutex<f64>>,
    samples: u64,
}

impl SharedFit {
    /// Only reads; the field itself trips R2.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}
