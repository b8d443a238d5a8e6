//! Exact rational arithmetic on `i128`.
//!
//! The simplex core in `hotg-solver` pivots over exact rationals; floating
//! point would make UNSAT answers untrustworthy, and the soundness theorems
//! reproduced from the paper (Theorems 2–4) are only meaningful if the
//! underlying arithmetic is exact. Inputs in this workspace are small
//! (program constants and path-constraint coefficients), so `i128`
//! numerators/denominators with overflow checks are sufficient; overflow is
//! reported by panicking with a descriptive message rather than wrapping.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number with a normalized internal representation:
/// the denominator is always positive and `gcd(num, den) == 1`.
///
/// # Examples
///
/// ```
/// use hotg_logic::Rat;
///
/// let a = Rat::new(1, 3);
/// let b = Rat::new(1, 6);
/// assert_eq!(a + b, Rat::new(1, 2));
/// assert!(Rat::from(2) > Rat::new(3, 2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128, // invariant: den > 0, gcd(|num|, den) == 1
}

fn gcd(a: i128, b: i128) -> i128 {
    // On magnitudes, so `i128::MIN` neither overflows `abs` nor leaves a
    // negative remainder chain. Only gcd(MIN, MIN) = 2¹²⁷ does not fit.
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    i128::try_from(a).expect("rational overflow in gcd")
}

impl Rat {
    /// The rational zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates a rational `num / den`, normalizing signs and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "rational with zero denominator");
        if den == 1 {
            return Rat { num, den };
        }
        if num == 0 {
            return Rat::ZERO;
        }
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den);
        Rat {
            num: sign * (num / g),
            den: (den / g).abs(),
        }
    }

    /// Numerator of the normalized representation (sign-carrying).
    pub fn numer(self) -> i128 {
        self.num
    }

    /// Denominator of the normalized representation (always positive).
    pub fn denom(self) -> i128 {
        self.den
    }

    /// Returns `true` if this rational is an integer.
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Returns `true` if this rational is zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Returns `true` if this rational is strictly positive.
    pub fn is_positive(self) -> bool {
        self.num > 0
    }

    /// Returns `true` if this rational is strictly negative.
    pub fn is_negative(self) -> bool {
        self.num < 0
    }

    /// The greatest integer less than or equal to this rational.
    pub fn floor(self) -> i128 {
        if self.num >= 0 {
            self.num / self.den
        } else {
            -((-self.num + self.den - 1) / self.den)
        }
    }

    /// The least integer greater than or equal to this rational.
    pub fn ceil(self) -> i128 {
        -((-self).floor())
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(self) -> Rat {
        assert!(self.num != 0, "reciprocal of zero");
        Rat::new(self.den, self.num)
    }

    /// Absolute value.
    pub fn abs(self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Converts to `i64` if the value is an integer that fits.
    pub fn to_i64(self) -> Option<i64> {
        if self.den == 1 {
            i64::try_from(self.num).ok()
        } else {
            None
        }
    }

    fn checked(num: Option<i128>, den: Option<i128>, op: &str) -> Rat {
        match (num, den) {
            (Some(n), Some(d)) => Rat::new(n, d),
            _ => panic!("rational overflow in {op}"),
        }
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Rat {
        Rat {
            num: v as i128,
            den: 1,
        }
    }
}

impl From<i128> for Rat {
    fn from(v: i128) -> Rat {
        Rat { num: v, den: 1 }
    }
}

impl From<i32> for Rat {
    fn from(v: i32) -> Rat {
        Rat {
            num: v as i128,
            den: 1,
        }
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        // Integer fast path: the general formula below reduces to exactly
        // this (every gcd is 1), overflowing on the same inputs.
        if self.den == 1 && rhs.den == 1 {
            return Rat::checked(self.num.checked_add(rhs.num), Some(1), "addition");
        }
        // a/b + c/d = (a*d + c*b) / (b*d), reduced via gcd of denominators
        // first to keep intermediates small.
        let g = gcd(self.den, rhs.den);
        let lb = self.den / g;
        let rb = rhs.den / g;
        let num = self
            .num
            .checked_mul(rb)
            .and_then(|x| rhs.num.checked_mul(lb).and_then(|y| x.checked_add(y)));
        let den = self.den.checked_mul(rb);
        Rat::checked(num, den, "addition")
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        // Integer fast path, as in `add`.
        if self.den == 1 && rhs.den == 1 {
            return Rat::checked(self.num.checked_mul(rhs.num), Some(1), "multiplication");
        }
        // Cross-reduce before multiplying.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let (an, ad) = (self.num / g1, self.den / g2);
        let (bn, bd) = (rhs.num / g2, rhs.den / g1);
        Rat::checked(an.checked_mul(bn), ad.checked_mul(bd), "multiplication")
    }
}

impl Div for Rat {
    type Output = Rat;
    #[allow(clippy::suspicious_arithmetic_impl)] // a/b computed as a * b^-1
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rat {
    fn mul_assign(&mut self, rhs: Rat) {
        *self = *self * rhs;
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        if self.den == 1 && other.den == 1 {
            return self.num.cmp(&other.num);
        }
        // a/b <=> c/d  compares a*d <=> c*b (denominators positive).
        let lhs = self
            .num
            .checked_mul(other.den)
            .expect("rational overflow in comparison");
        let rhs = other
            .num
            .checked_mul(self.den)
            .expect("rational overflow in comparison");
        lhs.cmp(&rhs)
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl Default for Rat {
    fn default() -> Rat {
        Rat::ZERO
    }
}

impl std::iter::Sum for Rat {
    fn sum<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, 7), Rat::ZERO);
        assert_eq!(Rat::new(1, 2).denom(), 2);
        assert!(Rat::new(-3, 9).numer() == -1 && Rat::new(-3, 9).denom() == 3);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 3);
        let b = Rat::new(1, 6);
        assert_eq!(a + b, Rat::new(1, 2));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 18));
        assert_eq!(a / b, Rat::from(2));
        assert_eq!(-a, Rat::new(-1, 3));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert!(Rat::from(5) > Rat::new(9, 2));
        assert_eq!(Rat::new(3, 6).cmp(&Rat::new(1, 2)), Ordering::Equal);
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::from(5).floor(), 5);
        assert_eq!(Rat::from(5).ceil(), 5);
        assert_eq!(Rat::from(-5).floor(), -5);
    }

    #[test]
    fn predicates() {
        assert!(Rat::from(3).is_integer());
        assert!(!Rat::new(1, 2).is_integer());
        assert!(Rat::ZERO.is_zero());
        assert!(Rat::new(1, 9).is_positive());
        assert!(Rat::new(-1, 9).is_negative());
    }

    #[test]
    fn recip_and_abs() {
        assert_eq!(Rat::new(2, 3).recip(), Rat::new(3, 2));
        assert_eq!(Rat::new(-2, 3).recip(), Rat::new(-3, 2));
        assert_eq!(Rat::new(-2, 3).abs(), Rat::new(2, 3));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rat::ZERO.recip();
    }

    #[test]
    fn to_i64() {
        assert_eq!(Rat::from(42).to_i64(), Some(42));
        assert_eq!(Rat::new(1, 2).to_i64(), None);
        assert_eq!(Rat::from(i128::from(i64::MAX) + 1).to_i64(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Rat::new(1, 2).to_string(), "1/2");
        assert_eq!(Rat::from(-7).to_string(), "-7");
    }

    #[test]
    fn sum_iterator() {
        let total: Rat = (1..=4).map(|i| Rat::new(1, i)).sum();
        assert_eq!(total, Rat::new(25, 12));
    }
}
