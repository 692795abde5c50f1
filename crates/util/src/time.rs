//! Virtual time: instants ([`SimTime`]) and spans ([`SimDuration`]).
//!
//! Both are microsecond-resolution `u64` newtypes. Keeping time integral
//! (rather than `f64` milliseconds) makes event ordering exact and runs
//! bit-for-bit reproducible.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in virtual time, measured in microseconds since the start of
/// the simulation.
///
/// # Example
///
/// ```
/// use tao_util::time::{SimTime, SimDuration};
///
/// let t = SimTime::ORIGIN + SimDuration::from_millis(3);
/// assert_eq!(t.as_micros(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, measured in microseconds.
///
/// Also used throughout the workspace as a *network latency* — a link weight
/// in [`tao-topology`](https://example.org) graphs, an RTT, a timer period.
///
/// # Example
///
/// ```
/// use tao_util::time::SimDuration;
///
/// let rtt = SimDuration::from_millis(42) + SimDuration::from_micros(500);
/// assert_eq!(rtt.as_micros(), 42_500);
/// assert!((rtt.as_millis_f64() - 42.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation (time zero).
    pub const ORIGIN: SimTime = SimTime(0);

    /// The far future; no event is ever scheduled at or after this instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from microseconds since the origin.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Microseconds since the origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant expressed as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    #[expect(
        clippy::expect_used,
        reason = "`earlier` must not be later than `self`"
    )]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("`earlier` must not be later than `self`"),
        )
    }

    /// Saturating addition; clamps at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The longest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span from whole milliseconds, saturating at
    /// [`SimDuration::MAX`].
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis.saturating_mul(1_000))
    }

    /// Creates a span from whole seconds, saturating at
    /// [`SimDuration::MAX`].
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs.saturating_mul(1_000_000))
    }

    /// Creates a span from fractional milliseconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs clamp to zero; values
    /// beyond the representable range clamp to [`SimDuration::MAX`] (the
    /// float-to-int cast saturates by definition).
    pub fn from_millis_f64(millis: f64) -> Self {
        if !millis.is_finite() || millis <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((millis * 1_000.0).round() as u64)
    }

    /// The span in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// `true` if this is the zero-length span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The instant this far after the origin.
    pub const fn after_origin(self) -> SimTime {
        SimTime(self.0)
    }

    /// Saturating subtraction; clamps at zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the span by a non-negative float, rounding to the nearest
    /// microsecond and clamping to [`SimDuration::MAX`] on overflow (the
    /// float-to-int cast saturates by definition).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(factor >= 0.0, "factor must be non-negative");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    /// Saturates at [`SimTime::MAX`]: an instant past the end of
    /// representable time means "never", and wrapping would instead
    /// schedule the event in the distant past.
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    /// Saturates at [`SimDuration::MAX`] — summed latencies near the top
    /// of the range clamp rather than wrap to a tiny span.
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[expect(clippy::expect_used, reason = "duration subtraction underflow")]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("duration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    /// Saturates at [`SimDuration::MAX`].
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::ORIGIN + SimDuration::from_millis(10);
        assert_eq!(t - SimTime::ORIGIN, SimDuration::from_millis(10));
        assert_eq!(t - SimDuration::from_millis(4), SimTime::from_micros(6_000));
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(
            SimDuration::from_millis_f64(1.5),
            SimDuration::from_micros(1_500)
        );
    }

    #[test]
    fn from_millis_f64_clamps_bad_input() {
        assert_eq!(SimDuration::from_millis_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_millis_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
    }

    #[test]
    fn ratio_division() {
        let a = SimDuration::from_millis(30);
        let b = SimDuration::from_millis(10);
        assert!((a / b - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_millis(1).saturating_sub(SimDuration::from_millis(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn extreme_timestamps_saturate_instead_of_wrapping() {
        // A timer armed "near the end of time" must stay in the far
        // future; with wrapping arithmetic it would land near the origin
        // and fire immediately.
        let near_end = SimTime::from_micros(u64::MAX - 10);
        assert_eq!(near_end + SimDuration::from_secs(1), SimTime::MAX);
        let mut t = near_end;
        t += SimDuration::MAX;
        assert_eq!(t, SimTime::MAX);

        assert_eq!(
            SimDuration::MAX + SimDuration::from_micros(1),
            SimDuration::MAX
        );
        let mut d = SimDuration::from_micros(u64::MAX - 1);
        d += SimDuration::from_millis(5);
        assert_eq!(d, SimDuration::MAX);

        assert_eq!(SimDuration::from_micros(u64::MAX / 2) * 3, SimDuration::MAX);
        assert_eq!(SimDuration::from_millis(u64::MAX), SimDuration::MAX);
        assert_eq!(SimDuration::from_secs(u64::MAX / 2), SimDuration::MAX);
        assert_eq!(SimDuration::from_millis_f64(1e30), SimDuration::MAX);
        assert_eq!(SimDuration::MAX.mul_f64(2.0), SimDuration::MAX);
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(
            SimDuration::from_micros(3).mul_f64(0.5),
            SimDuration::from_micros(2) // 1.5 rounds to 2
        );
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn duration_since_panics_on_reversed_order() {
        let _ = SimTime::ORIGIN.duration_since(SimTime::from_micros(1));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", SimDuration::from_micros(1_500)), "1.500ms");
        assert_eq!(format!("{}", SimTime::from_micros(500)), "t+0.500ms");
    }
}
