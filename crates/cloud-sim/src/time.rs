//! Simulation time: a logical clock measured in whole seconds.
//!
//! The simulator uses an integral second clock. All scheduling, billing,
//! demand seasonality, and analysis windows are expressed in terms of
//! [`SimTime`] (an absolute instant) and [`SimDuration`] (a span).
//!
//! # Examples
//!
//! ```
//! use cloud_sim::time::{SimTime, SimDuration};
//!
//! let t = SimTime::ZERO + SimDuration::hours(2);
//! assert_eq!(t.as_secs(), 7200);
//! assert_eq!(t - SimTime::ZERO, SimDuration::hours(2));
//! ```

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in seconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; used as an "end of time" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from seconds since the simulation origin.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Returns the number of seconds since the simulation origin.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Returns the elapsed duration since `earlier`, saturating to zero
    /// if `earlier` is in the future.
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the instant advanced by `d`, saturating at [`SimTime::MAX`].
    pub const fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// The hour-of-day (0..24) of this instant, assuming the simulation
    /// starts at midnight.
    pub const fn hour_of_day(self) -> u64 {
        (self.0 / 3600) % 24
    }

    /// The day-of-week (0..7) of this instant, assuming the simulation
    /// starts on day 0.
    pub const fn day_of_week(self) -> u64 {
        (self.0 / 86_400) % 7
    }

    /// Fraction of the day elapsed at this instant, in `[0, 1)`.
    pub fn day_fraction(self) -> f64 {
        (self.0 % 86_400) as f64 / 86_400.0
    }

    /// Fraction of the week elapsed at this instant, in `[0, 1)`.
    pub fn week_fraction(self) -> f64 {
        (self.0 % 604_800) as f64 / 604_800.0
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// Creates a span from whole minutes.
    pub const fn minutes(m: u64) -> Self {
        SimDuration(m * 60)
    }

    /// Creates a span from whole hours.
    pub const fn hours(h: u64) -> Self {
        SimDuration(h * 3600)
    }

    /// Creates a span from whole days.
    pub const fn days(d: u64) -> Self {
        SimDuration(d * 86_400)
    }

    /// Returns the span in whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Returns the span as fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// Returns the number of *whole* billing hours this span covers,
    /// rounding any partial hour up (EC2 bills by the started hour).
    pub const fn billing_hours(self) -> u64 {
        self.0.div_ceil(3600)
    }

    /// True if the span is zero seconds long.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
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

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
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
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.0 / 86_400;
        let h = (self.0 % 86_400) / 3600;
        let m = (self.0 % 3600) / 60;
        let s = self.0 % 60;
        write!(f, "d{d} {h:02}:{m:02}:{s:02}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 3600 {
            write!(f, "{:.2}h", self.as_hours_f64())
        } else if self.0 >= 60 {
            write!(f, "{}m{}s", self.0 / 60, self.0 % 60)
        } else {
            write!(f, "{}s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_secs(100);
        let d = SimDuration::from_secs(50);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn constructors_scale() {
        assert_eq!(SimDuration::minutes(2).as_secs(), 120);
        assert_eq!(SimDuration::hours(2).as_secs(), 7200);
        assert_eq!(SimDuration::days(2).as_secs(), 172_800);
    }

    #[test]
    fn billing_hours_round_up() {
        assert_eq!(SimDuration::from_secs(0).billing_hours(), 0);
        assert_eq!(SimDuration::from_secs(1).billing_hours(), 1);
        assert_eq!(SimDuration::from_secs(3600).billing_hours(), 1);
        assert_eq!(SimDuration::from_secs(3601).billing_hours(), 2);
    }

    #[test]
    fn calendar_helpers() {
        let t = SimTime::from_secs(86_400 * 8 + 3600 * 5 + 30);
        assert_eq!(t.day_of_week(), 1);
        assert_eq!(t.hour_of_day(), 5);
        assert!(t.day_fraction() > 0.2 && t.day_fraction() < 0.22);
    }

    #[test]
    fn saturating_ops() {
        let t = SimTime::from_secs(10);
        assert_eq!(
            t.saturating_since(SimTime::from_secs(20)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::hours(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(90_061).to_string(), "d1 01:01:01");
        assert_eq!(SimDuration::from_secs(45).to_string(), "45s");
        assert_eq!(SimDuration::from_secs(130).to_string(), "2m10s");
        assert_eq!(SimDuration::from_secs(5400).to_string(), "1.50h");
    }
}
