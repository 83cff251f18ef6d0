//! Simulated time: instants ([`SimTime`]) and spans ([`SimDuration`]).
//!
//! Both types are newtypes over `u64` picoseconds. Keeping instants and
//! durations distinct catches a whole class of unit bugs statically: an
//! instant plus an instant does not compile, an instant minus an instant is
//! a duration, and so on.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, in picoseconds since simulation start.
///
/// # Example
///
/// ```
/// use mn_sim::{SimTime, SimDuration};
///
/// let t = SimTime::from_ns(10) + SimDuration::from_ps(500);
/// assert_eq!(t.as_ps(), 10_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in picoseconds.
///
/// # Example
///
/// ```
/// use mn_sim::SimDuration;
///
/// let serialization = SimDuration::from_ps(33) * 80; // 80-byte packet
/// assert_eq!(serialization.as_ps(), 2640);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates an instant from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates an instant from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// This instant as picoseconds since simulation start.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This instant as (truncated) nanoseconds since simulation start.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// This instant as fractional nanoseconds since simulation start.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration elapsed since `earlier`, or [`SimDuration::ZERO`] if
    /// `earlier` is in the future (saturating).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a span from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Creates a span from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Creates a span from fractional nanoseconds, rounding to the nearest
    /// picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(
            ns.is_finite() && ns >= 0.0,
            "duration must be finite and non-negative, got {ns}"
        );
        SimDuration((ns * 1_000.0).round() as u64)
    }

    /// This span in picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This span in (truncated) nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// This span in fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// True if this span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the larger of two spans.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two spans.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Saturating subtraction: `self - other`, or zero if `other` is larger.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow: rhs is later than self"),
        )
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime minus SimDuration underflow"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_ns(7).as_ps(), 7_000);
        assert_eq!(SimTime::from_us(3).as_ns(), 3_000);
        assert_eq!(SimDuration::from_ns(2).as_ps(), 2_000);
        assert_eq!(SimDuration::from_us(1).as_ns(), 1_000);
    }

    #[test]
    fn instant_plus_span() {
        let t = SimTime::from_ns(10) + SimDuration::from_ns(5);
        assert_eq!(t, SimTime::from_ns(15));
    }

    #[test]
    fn instant_minus_instant_is_span() {
        let d = SimTime::from_ns(15) - SimTime::from_ns(10);
        assert_eq!(d, SimDuration::from_ns(5));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn instant_subtraction_underflow_panics() {
        let _ = SimTime::from_ns(1) - SimTime::from_ns(2);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_ns(1);
        let late = SimTime::from_ns(9);
        assert_eq!(late.saturating_since(early), SimDuration::from_ns(8));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn span_arithmetic() {
        let d = SimDuration::from_ps(33) * 80;
        assert_eq!(d.as_ps(), 2_640);
        assert_eq!((d / 2).as_ps(), 1_320);
        assert_eq!(
            SimDuration::from_ns(3) + SimDuration::from_ns(4),
            SimDuration::from_ns(7)
        );
    }

    #[test]
    fn from_ns_f64_rounds() {
        assert_eq!(SimDuration::from_ns_f64(2.6667).as_ps(), 2_667);
        assert_eq!(SimDuration::from_ns_f64(0.0).as_ps(), 0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_ns_f64_rejects_negative() {
        let _ = SimDuration::from_ns_f64(-1.0);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_ns).sum();
        assert_eq!(total, SimDuration::from_ns(10));
    }

    #[test]
    fn display_formats_as_ns() {
        assert_eq!(format!("{}", SimTime::from_ps(1_500)), "1.500ns");
        assert_eq!(format!("{}", SimDuration::from_ns(2)), "2.000ns");
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_ns(1);
        let b = SimTime::from_ns(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::from_ns(1);
        let y = SimDuration::from_ns(2);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
        assert_eq!(y.saturating_sub(x), x);
        assert_eq!(x.saturating_sub(y), SimDuration::ZERO);
    }
}
