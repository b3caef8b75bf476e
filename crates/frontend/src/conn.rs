//! Modeled client connections: seeded request generation.
//!
//! Each connection is a small state machine driven by the engine's
//! arrival events:
//!
//! ```text
//! Sending ──(last request generated)──▶ Draining ──(last response)──▶ Closed
//! ```
//!
//! While `Sending`, every arrival event makes the connection draw one
//! request from its seeded distributions: exponential inter-arrival
//! gaps, uniform request sizes and Zipf page popularity over its
//! tenant's range.

use rand::rngs::StdRng;
use rand::Rng;

use gmt_sim::trace::SloClass;
use gmt_sim::Zipf;

/// Where a connection is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnPhase {
    /// Still has requests to send.
    Sending,
    /// All requests sent; some still in flight downstream.
    Draining,
    /// Every request completed or was shed.
    Closed,
}

/// One modeled client connection.
#[derive(Debug)]
pub struct Connection {
    /// The connection's id (dense, assignment order).
    pub id: u32,
    /// Tenant whose pages this connection requests.
    pub tenant: u32,
    /// SLO class stamped on every request (inherited from the tenant).
    pub class: SloClass,
    /// Lifecycle phase.
    pub phase: ConnPhase,
    /// Requests generated but not yet completed or shed.
    pub outstanding: u32,
    /// First global page of the tenant's range.
    base: u64,
    /// Requests left to generate.
    remaining: u32,
    /// This connection's private draw stream.
    rng: StdRng,
}

impl Connection {
    /// A connection in `Sending` phase with `requests` draws ahead of
    /// it, seeded independently of every other connection.
    pub fn new(
        id: u32,
        tenant: u32,
        class: SloClass,
        base: u64,
        requests: u32,
        seed: u64,
    ) -> Connection {
        Connection {
            id,
            tenant,
            class,
            phase: if requests == 0 {
                ConnPhase::Closed
            } else {
                ConnPhase::Sending
            },
            outstanding: 0,
            base,
            remaining: requests,
            rng: gmt_sim::rng::seeded(seed),
        }
    }

    /// Draws the next exponential inter-arrival gap, in nanoseconds
    /// (same inverse-CDF construction as
    /// `gmt_serve::ArrivalSchedule::Poisson`).
    pub fn next_gap_ns(&mut self, mean_ns: u64) -> u64 {
        let u: f64 = self.rng.gen::<f64>().max(f64::MIN_POSITIVE);
        (-u.ln() * mean_ns as f64).round() as u64
    }

    /// Generates the next request's pages into `pages` and returns
    /// whether it writes: seeded size in `1..=max_pages`, pages
    /// Zipf-popular within the tenant's range, one write per eight
    /// requests on average. Transitions to `Draining` after the last
    /// draw.
    ///
    /// # Panics
    ///
    /// Panics if the connection is not in `Sending` phase.
    pub fn generate_into(&mut self, zipf: &Zipf, max_pages: usize, pages: &mut Vec<u64>) -> bool {
        assert_eq!(
            self.phase,
            ConnPhase::Sending,
            "conn{} has nothing to send",
            self.id
        );
        let write = self.rng.gen_range(0..8u32) == 0;
        pages.clear();
        let npages = self.rng.gen_range(1..=max_pages);
        for _ in 0..npages {
            pages.push(self.base + zipf.sample(&mut self.rng));
        }
        // Seeded serving outputs depend on these draws: requests once
        // crossed a modeled wire as `20 + 8 * npages` bytes read in
        // seeded 1–64-byte chunks, and every later draw on this stream
        // follows them. ROADMAP item 3's re-record of the serving
        // numbers is where they can go.
        let mut wire = 20 + 8 * npages;
        while wire > 0 {
            wire = wire.saturating_sub(self.rng.gen_range(1..=64usize));
        }
        self.outstanding += 1;
        self.remaining -= 1;
        if self.remaining == 0 {
            self.phase = ConnPhase::Draining;
        }
        write
    }

    /// Records one of this connection's requests leaving the system
    /// (completed or shed); closes the connection when it was the last.
    pub fn settle_one(&mut self) {
        self.outstanding -= 1;
        if self.phase == ConnPhase::Draining && self.outstanding == 0 {
            self.phase = ConnPhase::Closed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_walks_sending_draining_closed() {
        let zipf = Zipf::new(64, 0.9);
        let mut conn = Connection::new(0, 0, SloClass::Interactive, 0, 2, 7);
        assert_eq!(conn.phase, ConnPhase::Sending);
        let mut pages = Vec::new();
        conn.generate_into(&zipf, 4, &mut pages);
        assert_eq!(conn.phase, ConnPhase::Sending);
        conn.generate_into(&zipf, 4, &mut pages);
        assert_eq!(conn.phase, ConnPhase::Draining);
        conn.settle_one();
        assert_eq!(conn.phase, ConnPhase::Draining);
        conn.settle_one();
        assert_eq!(conn.phase, ConnPhase::Closed);
    }

    #[test]
    fn generation_is_seed_deterministic_and_stays_in_range() {
        let zipf = Zipf::new(128, 0.9);
        let mut a = Connection::new(3, 1, SloClass::Batch, 1_000, 50, 42);
        let mut b = Connection::new(3, 1, SloClass::Batch, 1_000, 50, 42);
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        for _ in 0..50 {
            let wa = a.generate_into(&zipf, 16, &mut pa);
            let wb = b.generate_into(&zipf, 16, &mut pb);
            assert_eq!((wa, &pa), (wb, &pb), "same seed, same draws");
            assert!(!pa.is_empty() && pa.len() <= 16);
            for &p in &pa {
                assert!((1_000..1_128).contains(&p), "page {p} escaped the range");
            }
            assert_eq!(a.next_gap_ns(500), b.next_gap_ns(500));
        }
        assert_eq!(a.phase, ConnPhase::Draining);
    }
}
