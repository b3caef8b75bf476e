//! Planted A1 violation: `issue` is the executor's per-access body, a
//! per-event DES root called from the replay loop, so allocating a fresh
//! `Vec` there is allocator churn once per warp access.

pub struct Replay {
    issued: u64,
}

impl Replay {
    pub fn issue(&mut self, page: u64) {
        let pages = vec![page];
        self.issued += pages.len() as u64;
    }
}
