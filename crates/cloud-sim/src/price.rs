//! Monetary amounts and hourly prices in fixed-point micro-dollars.
//!
//! Prices on EC2 are quoted with up to four decimal places, and SpotLight's
//! analysis constantly compares prices as *multiples* of the on-demand
//! price. To avoid floating-point drift in billing and budget accounting we
//! represent money as integer micro-dollars (`1_000_000` = $1).
//!
//! # Examples
//!
//! ```
//! use cloud_sim::price::Price;
//!
//! let od = Price::from_dollars(0.42);
//! let spike = od.scale(2.5);
//! assert_eq!(spike.as_dollars(), 1.05);
//! assert!((spike.ratio_to(od) - 2.5).abs() < 1e-9);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A non-negative monetary amount (or hourly price) in micro-dollars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Price(u64);

impl Price {
    /// Zero dollars.
    pub const ZERO: Price = Price(0);

    /// Creates a price from micro-dollars.
    pub const fn from_micros(micros: u64) -> Self {
        Price(micros)
    }

    /// Creates a price from a dollar amount.
    ///
    /// Fractions below one micro-dollar are rounded to nearest.
    ///
    /// # Panics
    ///
    /// Panics if `dollars` is negative or not finite.
    pub fn from_dollars(dollars: f64) -> Self {
        assert!(
            dollars.is_finite() && dollars >= 0.0,
            "price must be finite and non-negative, got {dollars}"
        );
        Price((dollars * 1e6).round() as u64)
    }

    /// Returns the amount in micro-dollars.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the amount in dollars.
    pub fn as_dollars(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies the price by a non-negative factor, rounding to nearest
    /// micro-dollar.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(self, factor: f64) -> Price {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        Price((self.0 as f64 * factor).round() as u64)
    }

    /// Multiplies the price by an integer count (e.g. billing hours).
    pub const fn times(self, count: u64) -> Price {
        Price(self.0 * count)
    }

    /// Returns `self / other` as a float; `other` must be non-zero.
    ///
    /// This is the "spike multiple" used throughout SpotLight's analysis:
    /// a spot price of $0.80 against a $0.40 on-demand price is `2.0`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn ratio_to(self, other: Price) -> f64 {
        assert!(other.0 != 0, "cannot take ratio to a zero price");
        self.0 as f64 / other.0 as f64
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, other: Price) -> Price {
        Price(self.0.saturating_sub(other.0))
    }

    /// The smaller of two prices.
    pub fn min(self, other: Price) -> Price {
        Price(self.0.min(other.0))
    }

    /// The larger of two prices.
    pub fn max(self, other: Price) -> Price {
        Price(self.0.max(other.0))
    }

    /// True if the amount is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Midpoint of two prices, rounding down; used by bisection searches.
    pub const fn midpoint(self, other: Price) -> Price {
        Price(self.0 / 2 + other.0 / 2 + (self.0 % 2 + other.0 % 2) / 2)
    }
}

impl Add for Price {
    type Output = Price;
    fn add(self, rhs: Price) -> Price {
        Price(self.0 + rhs.0)
    }
}

impl AddAssign for Price {
    fn add_assign(&mut self, rhs: Price) {
        self.0 += rhs.0;
    }
}

impl Sub for Price {
    type Output = Price;
    fn sub(self, rhs: Price) -> Price {
        Price(self.0 - rhs.0)
    }
}

impl SubAssign for Price {
    fn sub_assign(&mut self, rhs: Price) {
        self.0 -= rhs.0;
    }
}

impl Sum for Price {
    fn sum<I: Iterator<Item = Price>>(iter: I) -> Price {
        Price(iter.map(|p| p.0).sum())
    }
}

impl fmt::Display for Price {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.4}", self.as_dollars())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dollar_roundtrip() {
        let p = Price::from_dollars(0.0042);
        assert_eq!(p.as_micros(), 4200);
        assert!((p.as_dollars() - 0.0042).abs() < 1e-12);
    }

    #[test]
    fn scale_and_ratio() {
        let od = Price::from_dollars(0.5);
        assert_eq!(od.scale(10.0), Price::from_dollars(5.0));
        assert!((od.scale(10.0).ratio_to(od) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn midpoint_no_overflow() {
        let a = Price::from_micros(u64::MAX - 1);
        let b = Price::from_micros(u64::MAX - 3);
        assert_eq!(a.midpoint(b), Price::from_micros(u64::MAX - 2));
        let c = Price::from_micros(3);
        let d = Price::from_micros(5);
        assert_eq!(c.midpoint(d), Price::from_micros(4));
    }

    #[test]
    fn ordering_and_sum() {
        let prices = [Price::from_dollars(0.1), Price::from_dollars(0.2)];
        let total: Price = prices.iter().copied().sum();
        assert_eq!(total, Price::from_dollars(0.3));
        assert!(prices[0] < prices[1]);
    }

    #[test]
    fn display_has_four_decimals() {
        assert_eq!(Price::from_dollars(1.5).to_string(), "$1.5000");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_dollars_panics() {
        let _ = Price::from_dollars(-1.0);
    }

    #[test]
    #[should_panic(expected = "zero price")]
    fn ratio_to_zero_panics() {
        let _ = Price::from_dollars(1.0).ratio_to(Price::ZERO);
    }
}
