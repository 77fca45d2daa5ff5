//! Simulated time.
//!
//! Simulated time is kept as `f64` seconds since simulation start. The
//! newtypes here exist so that times and durations cannot be mixed up and
//! so that times are totally ordered (NaN is rejected at construction).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in simulated time, in seconds since simulation start.
///
/// `SimTime` is totally ordered; constructing one from a NaN panics, which
/// keeps the event queue's ordering sound.
///
/// # Examples
///
/// ```
/// use simcore::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(150.0);
/// assert_eq!(t.as_secs(), 0.15);
/// ```
#[derive(Clone, Copy, PartialEq)]
pub struct SimTime(f64);

/// A span of simulated time, in seconds.
#[derive(Clone, Copy, PartialEq)]
pub struct SimDuration(f64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds since simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN or negative.
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid SimTime: {secs}");
        SimTime(secs)
    }

    /// Returns the time as seconds since simulation start.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the time as milliseconds since simulation start.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration((self.0 - earlier.0).max(0.0))
    }

    /// Returns the later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN or negative.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "invalid SimDuration: {secs}"
        );
        SimDuration(secs)
    }

    /// Creates a duration from milliseconds.
    pub fn from_millis(millis: f64) -> Self {
        Self::from_secs(millis * 1e-3)
    }

    /// Creates a duration from minutes.
    pub fn from_mins(mins: f64) -> Self {
        Self::from_secs(mins * 60.0)
    }

    /// Creates a duration from hours.
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * 3600.0)
    }

    /// Returns the duration in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the duration in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Construction rejects NaN, so `partial_cmp` always succeeds.
        self.0
            .partial_cmp(&other.0)
            .expect("SimTime is never NaN by construction")
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for SimDuration {}

impl Ord for SimDuration {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("SimDuration is never NaN by construction")
    }
}

impl PartialOrd for SimDuration {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration((self.0 - rhs.0).max(0.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1.0 {
            write!(f, "{:.2}ms", self.0 * 1e3)
        } else if self.0 < 120.0 {
            write!(f, "{:.2}s", self.0)
        } else {
            write!(f, "{:.1}min", self.0 / 60.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_secs(1.5) + SimDuration::from_millis(500.0);
        assert_eq!(t.as_secs(), 2.0);
        assert_eq!((t - SimTime::from_secs(0.5)).as_secs(), 1.5);
    }

    #[test]
    fn subtraction_saturates_at_zero() {
        let d = SimTime::from_secs(1.0) - SimTime::from_secs(2.0);
        assert_eq!(d.as_secs(), 0.0);
        let d2 = SimDuration::from_secs(1.0) - SimDuration::from_secs(3.0);
        assert_eq!(d2.as_secs(), 0.0);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_secs(3.0),
            SimTime::ZERO,
            SimTime::from_secs(1.0),
        ];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_secs(3.0));
    }

    #[test]
    #[should_panic(expected = "invalid SimTime")]
    fn nan_time_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid SimDuration")]
    fn negative_duration_rejected() {
        let _ = SimDuration::from_secs(-1.0);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_mins(2.0) * 0.5;
        assert_eq!(d.as_secs(), 60.0);
        assert_eq!((d / 2.0).as_secs(), 30.0);
    }

    #[test]
    fn since_and_minmax() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(4.0);
        assert_eq!(b.since(a).as_secs(), 3.0);
        assert_eq!(a.since(b).as_secs(), 0.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_millis(1.5)), "1.50ms");
        assert_eq!(format!("{}", SimDuration::from_secs(5.0)), "5.00s");
        assert_eq!(format!("{}", SimDuration::from_mins(10.0)), "10.0min");
    }
}
