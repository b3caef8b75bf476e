//! Virtual time for the simulation: nanosecond instants and durations.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, in nanoseconds since simulation start.
///
/// `Time` is a transparent `u64` newtype so it can be stored densely in page
/// tables and event queues.
///
/// # Examples
///
/// ```
/// use gmt_sim::{Time, Dur};
///
/// let t = Time::ZERO + Dur::from_micros(130);
/// assert_eq!(t.as_nanos(), 130_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use gmt_sim::Dur;
///
/// let d = Dur::from_micros(50);
/// assert_eq!(d * 2, Dur::from_micros(100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0);

    /// The largest representable instant (used as "never").
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant from a raw nanosecond count.
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns this instant expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration elapsed since `earlier`, saturating at zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use gmt_sim::{Time, Dur};
    /// let a = Time::from_nanos(100);
    /// let b = Time::from_nanos(250);
    /// assert_eq!(b.since(a), Dur::from_nanos(150));
    /// assert_eq!(a.since(b), Dur::ZERO);
    /// ```
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl Dur {
    /// The zero-length duration.
    pub const ZERO: Dur = Dur(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Dur {
        Dur(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Dur {
        Dur(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Dur {
        Dur(ms * 1_000_000)
    }

    /// Creates a duration from (fractional) seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Dur {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative"
        );
        Dur((secs * 1e9).round() as u64)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns this duration expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration needed to move `bytes` over a channel of `bytes_per_sec`.
    ///
    /// # Examples
    ///
    /// ```
    /// use gmt_sim::Dur;
    /// // 64 KiB over ~3.2 GB/s is ~20.5 us.
    /// let d = Dur::for_bytes(64 * 1024, 3.2e9);
    /// assert!(d > Dur::from_micros(20) && d < Dur::from_micros(21));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive.
    pub fn for_bytes(bytes: u64, bytes_per_sec: f64) -> Dur {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        Dur::from_secs_f64(bytes as f64 / bytes_per_sec)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[expect(
        clippy::expect_used,
        reason = "underflow means a causality bug; a loud panic beats wrapping time"
    )]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Dur(self.0))
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = Time::from_nanos(1_000);
        let t2 = t + Dur::from_nanos(500);
        assert_eq!(t2.as_nanos(), 1_500);
        assert_eq!(t2.since(t), Dur::from_nanos(500));
        assert_eq!(t.since(t2), Dur::ZERO);
    }

    #[test]
    fn dur_constructors_agree() {
        assert_eq!(Dur::from_micros(1), Dur::from_nanos(1_000));
        assert_eq!(Dur::from_millis(1), Dur::from_micros(1_000));
        assert_eq!(Dur::from_secs_f64(1.0), Dur::from_millis(1_000));
    }

    #[test]
    fn for_bytes_matches_manual_math() {
        let d = Dur::for_bytes(1_000_000_000, 1e9);
        assert_eq!(d, Dur::from_secs_f64(1.0));
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(Dur::from_nanos(3).to_string(), "3ns");
        assert_eq!(Dur::from_micros(50).to_string(), "50.000us");
        assert_eq!(Dur::from_millis(7).to_string(), "7.000ms");
        assert_eq!(Dur::from_secs_f64(2.5).to_string(), "2.500s");
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(Time::MAX + Dur::from_nanos(1), Time::MAX);
        assert_eq!(
            Dur::from_nanos(5).saturating_sub(Dur::from_nanos(9)),
            Dur::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "duration underflow")]
    fn strict_sub_panics_on_underflow() {
        let _ = Dur::from_nanos(1) - Dur::from_nanos(2);
    }

    #[test]
    fn sum_of_durations() {
        let total: Dur = [Dur::from_nanos(1), Dur::from_nanos(2), Dur::from_nanos(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Dur::from_nanos(6));
    }

    #[test]
    fn min_max_ordering() {
        let a = Time::from_nanos(10);
        let b = Time::from_nanos(20);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
