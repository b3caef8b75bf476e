//! Deterministic open-arrival load generation.

use gmt_sim::{Dur, Time};
use rand::Rng;

/// When a tenant's successive warp accesses *arrive* at the hierarchy.
///
/// A closed-loop replay (the paper figures' mode) issues the next
/// access the instant a warp frees up; a serving system instead sees an
/// open stream whose arrival process is a property of the tenant, not
/// of the hierarchy's speed. All three processes are deterministic
/// given `(schedule, seed)`, so paired runs across partitioning
/// policies see identical offered load.
///
/// # Examples
///
/// ```
/// use gmt_serve::ArrivalSchedule;
///
/// let uniform = ArrivalSchedule::Uniform { gap_ns: 500 };
/// let times = uniform.times(3, 7);
/// assert_eq!(
///     times.iter().map(|t| t.as_nanos()).collect::<Vec<_>>(),
///     vec![0, 500, 1_000],
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSchedule {
    /// One access every `gap_ns` nanoseconds, starting at zero.
    Uniform {
        /// Fixed inter-arrival gap in nanoseconds.
        gap_ns: u64,
    },
    /// Poisson process: exponentially distributed gaps with the given
    /// mean, drawn from a seeded stream.
    Poisson {
        /// Mean inter-arrival gap in nanoseconds.
        mean_gap_ns: u64,
    },
    /// On/off bursts: `burst` back-to-back accesses `gap_ns` apart,
    /// then an idle stretch of `idle_ns` before the next burst.
    Bursty {
        /// Accesses per burst.
        burst: usize,
        /// Gap between accesses inside a burst, nanoseconds.
        gap_ns: u64,
        /// Idle time between bursts, nanoseconds.
        idle_ns: u64,
    },
}

impl ArrivalSchedule {
    /// The arrival time of each of `n` accesses, non-decreasing,
    /// starting at time zero. Identical for identical `(self, seed)`.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate schedule (`Bursty` with a zero-access
    /// burst).
    pub fn times(&self, n: usize, seed: u64) -> Vec<Time> {
        let mut out = Vec::with_capacity(n);
        match *self {
            ArrivalSchedule::Uniform { gap_ns } => {
                for i in 0..n as u64 {
                    out.push(Time::ZERO + Dur::from_nanos(i * gap_ns));
                }
            }
            ArrivalSchedule::Poisson { mean_gap_ns } => {
                let mut rng = gmt_sim::rng::seeded(seed);
                let mut at = Time::ZERO;
                for _ in 0..n {
                    out.push(at);
                    // Inverse-CDF exponential draw; the uniform sample is
                    // nudged off 0 so ln stays finite.
                    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                    let gap = (-u.ln() * mean_gap_ns as f64).round() as u64;
                    at += Dur::from_nanos(gap);
                }
            }
            ArrivalSchedule::Bursty {
                burst,
                gap_ns,
                idle_ns,
            } => {
                assert!(burst > 0, "a burst must hold at least one access");
                let mut at = Time::ZERO;
                let mut in_burst = 0usize;
                for _ in 0..n {
                    out.push(at);
                    in_burst += 1;
                    if in_burst == burst {
                        in_burst = 0;
                        at += Dur::from_nanos(idle_ns);
                    } else {
                        at += Dur::from_nanos(gap_ns);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nanos(times: &[Time]) -> Vec<u64> {
        times.iter().map(|t| t.as_nanos()).collect()
    }

    #[test]
    fn uniform_is_an_arithmetic_sequence() {
        let s = ArrivalSchedule::Uniform { gap_ns: 100 };
        assert_eq!(nanos(&s.times(4, 0)), vec![0, 100, 200, 300]);
    }

    #[test]
    fn poisson_is_deterministic_per_seed_and_roughly_calibrated() {
        let s = ArrivalSchedule::Poisson { mean_gap_ns: 1_000 };
        let a = s.times(2_000, 42);
        assert_eq!(a, s.times(2_000, 42), "same seed, same schedule");
        assert_ne!(a, s.times(2_000, 43), "different seed, different draws");
        for pair in a.windows(2) {
            assert!(pair[0] <= pair[1], "arrivals must be non-decreasing");
        }
        // Mean gap within 10% of nominal over 2k draws.
        let span = a.last().unwrap().as_nanos() as f64;
        let mean = span / (a.len() - 1) as f64;
        assert!((mean - 1_000.0).abs() < 100.0, "observed mean gap {mean}");
    }

    #[test]
    fn bursty_alternates_gaps_and_idles() {
        let s = ArrivalSchedule::Bursty {
            burst: 2,
            gap_ns: 10,
            idle_ns: 1_000,
        };
        assert_eq!(nanos(&s.times(5, 0)), vec![0, 10, 1_010, 1_020, 2_020]);
    }

    #[test]
    fn zero_accesses_is_empty() {
        let s = ArrivalSchedule::Uniform { gap_ns: 1 };
        assert!(s.times(0, 0).is_empty());
    }
}
