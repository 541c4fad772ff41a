//! Exact rational arithmetic on `i128`.
//!
//! The simplex solver in this crate works over exact rationals (or, for
//! network models, exact `i64`) so that optimality and integrality
//! decisions are never subject to floating-point noise. Values are kept
//! normalized (reduced by their gcd, denominator strictly positive), which
//! keeps intermediate magnitudes small for the general models that take
//! the rational tableau.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An exact rational number `num / den` with `den > 0`, always reduced.
///
/// # Examples
///
/// ```
/// use imagen_ilp::Rational;
///
/// let a = Rational::new(1, 3);
/// let b = Rational::new(1, 6);
/// assert_eq!(a + b, Rational::new(1, 2));
/// assert!(Rational::from(2) > a);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

const fn gcd(a: i128, b: i128) -> i128 {
    // Work on unsigned magnitudes: negating `i128::MIN` in signed space
    // overflows (silently wrapping in release builds), which used to make
    // gcd(i128::MIN, k) garbage. The result only exceeds `i128::MAX` when
    // both magnitudes are 2^127, which no reduced rational can produce.
    let mut a = a.unsigned_abs();
    let mut b = b.unsigned_abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    assert!(a <= i128::MAX as u128, "gcd magnitude overflows i128");
    a as i128
}

impl Rational {
    /// The rational number zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational number one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates a new rational `num / den`, reduced to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`, or if normalization overflows `i128` (only
    /// possible when a magnitude-`2^127` numerator or denominator must be
    /// negated, e.g. `new(1, i128::MIN)`).
    #[track_caller]
    pub fn new(num: i128, den: i128) -> Rational {
        assert!(den != 0, "rational with zero denominator");
        if num == 0 {
            return Rational::ZERO;
        }
        if num == den {
            return Rational::ONE;
        }
        // Both operands are nonzero and distinct, so at least one
        // magnitude is below 2^127 and the gcd (≤ the smaller magnitude)
        // always fits an i128.
        let g = gcd(num, den);
        let (mut n, mut d) = (num / g, den / g);
        if d < 0 {
            n = n
                .checked_neg()
                .unwrap_or_else(|| panic!("rational overflow normalizing {num}/{den}"));
            d = d
                .checked_neg()
                .unwrap_or_else(|| panic!("rational overflow normalizing {num}/{den}"));
        }
        Rational { num: n, den: d }
    }

    /// Returns the numerator of the reduced form.
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Returns the (strictly positive) denominator of the reduced form.
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Returns `true` if the value is an integer (denominator one).
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` if the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// The largest integer less than or equal to this value.
    pub fn floor(&self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// The smallest integer greater than or equal to this value.
    pub fn ceil(&self) -> i128 {
        // Remainder form rather than `-((-num).div_euclid(den))`: negating
        // an `i128::MIN` numerator overflows.
        let q = self.num.div_euclid(self.den);
        if self.num.rem_euclid(self.den) == 0 {
            q
        } else {
            q + 1
        }
    }

    /// The fractional part `self - self.floor()`, in `[0, 1)`.
    pub fn fract(&self) -> Rational {
        *self - Rational::from(self.floor())
    }

    /// Absolute value.
    ///
    /// # Panics
    ///
    /// Panics if the numerator is `i128::MIN` (its magnitude is not
    /// representable).
    #[track_caller]
    pub fn abs(&self) -> Rational {
        let num = if self.num < 0 {
            self.num
                .checked_neg()
                .unwrap_or_else(|| panic!("rational abs overflow on {self}"))
        } else {
            self.num
        };
        Rational { num, den: self.den }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    #[track_caller]
    pub fn recip(&self) -> Rational {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// Converts to `f64` (approximately; for reporting only).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Returns the integer value if the rational is integral.
    pub fn to_integer(&self) -> Option<i128> {
        if self.den == 1 {
            Some(self.num)
        } else {
            None
        }
    }

    /// Checked addition; `None` on `i128` overflow.
    pub fn checked_add(&self, rhs: &Rational) -> Option<Rational> {
        if self.den == 1 && rhs.den == 1 {
            // Integer fast path: no gcd normalization needed.
            return Some(Rational {
                num: self.num.checked_add(rhs.num)?,
                den: 1,
            });
        }
        let g = gcd(self.den, rhs.den);
        let lcm_l = self.den / g;
        let n = self
            .num
            .checked_mul(rhs.den / g)?
            .checked_add(rhs.num.checked_mul(lcm_l)?)?;
        let d = lcm_l.checked_mul(rhs.den)?;
        Some(Rational::new(n, d))
    }

    /// Checked subtraction; `None` on `i128` overflow.
    ///
    /// Computed directly (not as `a + (-b)`) so that subtracting a
    /// magnitude-`2^127` value works wherever the result is representable.
    pub fn checked_sub(&self, rhs: &Rational) -> Option<Rational> {
        if self.den == 1 && rhs.den == 1 {
            return Some(Rational {
                num: self.num.checked_sub(rhs.num)?,
                den: 1,
            });
        }
        let g = gcd(self.den, rhs.den);
        let lcm_l = self.den / g;
        let n = self
            .num
            .checked_mul(rhs.den / g)?
            .checked_sub(rhs.num.checked_mul(lcm_l)?)?;
        let d = lcm_l.checked_mul(rhs.den)?;
        Some(Rational::new(n, d))
    }

    /// Checked multiplication; `None` on `i128` overflow.
    pub fn checked_mul(&self, rhs: &Rational) -> Option<Rational> {
        if self.den == 1 && rhs.den == 1 {
            // Integer fast path: no cross-reduction needed.
            return Some(Rational {
                num: self.num.checked_mul(rhs.num)?,
                den: 1,
            });
        }
        // Cross-reduce before multiplying to minimize overflow risk.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let n = (self.num / g1).checked_mul(rhs.num / g2)?;
        let d = (self.den / g2).checked_mul(rhs.den / g1)?;
        Some(Rational::new(n, d))
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational {
            num: v as i128,
            den: 1,
        }
    }
}

impl From<i128> for Rational {
    fn from(v: i128) -> Self {
        Rational { num: v, den: 1 }
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Self {
        Rational {
            num: v as i128,
            den: 1,
        }
    }
}

impl Add for Rational {
    type Output = Rational;
    #[track_caller]
    fn add(self, rhs: Rational) -> Rational {
        self.checked_add(&rhs).expect("rational addition overflow")
    }
}

impl Sub for Rational {
    type Output = Rational;
    #[track_caller]
    fn sub(self, rhs: Rational) -> Rational {
        self.checked_sub(&rhs)
            .expect("rational subtraction overflow")
    }
}

impl Mul for Rational {
    type Output = Rational;
    #[track_caller]
    fn mul(self, rhs: Rational) -> Rational {
        self.checked_mul(&rhs)
            .expect("rational multiplication overflow")
    }
}

impl Div for Rational {
    type Output = Rational;
    #[track_caller]
    fn div(self, rhs: Rational) -> Rational {
        self.checked_mul(&rhs.recip())
            .expect("rational division overflow")
    }
}

impl Neg for Rational {
    type Output = Rational;
    #[track_caller]
    fn neg(self) -> Rational {
        Rational {
            num: self
                .num
                .checked_neg()
                .unwrap_or_else(|| panic!("rational negation overflow on {self}")),
            den: self.den,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Rational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Rational) -> Ordering {
        // Signs first; magnitudes by continued-fraction descent, which is
        // exact at any magnitude (the previous cross-multiplication could
        // overflow an i128 for values near the representation limits).
        let (sa, sb) = (self.num.signum(), other.num.signum());
        if sa != sb {
            return sa.cmp(&sb);
        }
        if sa == 0 {
            return Ordering::Equal;
        }
        let mag = cmp_frac(
            self.num.unsigned_abs(),
            self.den.unsigned_abs(),
            other.num.unsigned_abs(),
            other.den.unsigned_abs(),
        );
        if sa > 0 {
            mag
        } else {
            mag.reverse()
        }
    }
}

/// Compares `an/ad` against `bn/bd` (all strictly positive) by comparing
/// integer parts and recursing on reciprocals of the fractional parts —
/// Euclid's algorithm run on both numbers in lockstep. Exact and
/// overflow-free for any `u128` operands.
fn cmp_frac(mut an: u128, mut ad: u128, mut bn: u128, mut bd: u128) -> Ordering {
    let mut flipped = false;
    loop {
        let (qa, ra) = (an / ad, an % ad);
        let (qb, rb) = (bn / bd, bn % bd);
        let ord = if qa != qb {
            qa.cmp(&qb)
        } else {
            match (ra == 0, rb == 0) {
                (true, true) => return Ordering::Equal,
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                (false, false) => {
                    // ra/ad vs rb/bd flips under reciprocal: ad/ra vs bd/rb.
                    (an, ad, bn, bd) = (ad, ra, bd, rb);
                    flipped = !flipped;
                    continue;
                }
            }
        };
        return if flipped { ord.reverse() } else { ord };
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_reduces() {
        let r = Rational::new(6, -4);
        assert_eq!(r.numer(), -3);
        assert_eq!(r.denom(), 2);
    }

    #[test]
    fn zero_numerator_normalizes() {
        let r = Rational::new(0, -7);
        assert_eq!(r, Rational::ZERO);
        assert_eq!(r.denom(), 1);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic_basics() {
        let a = Rational::new(1, 2);
        let b = Rational::new(1, 3);
        assert_eq!(a + b, Rational::new(5, 6));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 6));
        assert_eq!(a / b, Rational::new(3, 2));
        assert_eq!(-a, Rational::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert!(Rational::new(7, 7) == Rational::ONE);
    }

    #[test]
    fn floor_ceil_fract() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::new(4, 2).floor(), 2);
        assert_eq!(Rational::new(4, 2).ceil(), 2);
        assert_eq!(Rational::new(7, 2).fract(), Rational::new(1, 2));
        assert_eq!(Rational::new(-7, 2).fract(), Rational::new(1, 2));
    }

    #[test]
    fn integrality() {
        assert!(Rational::new(4, 2).is_integer());
        assert_eq!(Rational::new(4, 2).to_integer(), Some(2));
        assert_eq!(Rational::new(1, 2).to_integer(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(3, 6).to_string(), "1/2");
        assert_eq!(Rational::from(5).to_string(), "5");
    }

    #[test]
    fn i128_min_constructs_and_compares() {
        let min = Rational::new(i128::MIN, 1);
        assert_eq!(min.numer(), i128::MIN);
        assert_eq!(min.denom(), 1);
        assert_eq!(Rational::new(0, i128::MIN), Rational::ZERO);
        assert_eq!(Rational::new(i128::MIN, i128::MIN), Rational::ONE);
        assert!(min < Rational::ZERO);
        assert!(min < Rational::new(i128::MIN, 2));
        assert_eq!(min.cmp(&min), Ordering::Equal);
        // Even halves reduce without negating the raw i128::MIN.
        let half = Rational::new(i128::MIN, 2);
        assert_eq!(half.numer(), i128::MIN / 2);
        assert_eq!(half.denom(), 1);
        assert_eq!(min.floor(), i128::MIN);
        assert_eq!(min.ceil(), i128::MIN);
        assert_eq!(min.fract(), Rational::ZERO);
        assert_eq!(min - min, Rational::ZERO);
    }

    #[test]
    #[should_panic(expected = "negation overflow")]
    fn i128_min_negation_panics() {
        let _ = -Rational::new(i128::MIN, 1);
    }

    #[test]
    #[should_panic(expected = "abs overflow")]
    fn i128_min_abs_panics() {
        let _ = Rational::new(i128::MIN, 1).abs();
    }

    #[test]
    #[should_panic(expected = "rational overflow normalizing")]
    fn i128_min_denominator_panics() {
        let _ = Rational::new(1, i128::MIN);
    }

    #[test]
    fn checked_overflow_detected() {
        let big = Rational::from(i128::MAX / 2);
        assert!(big.checked_add(&big).is_none() || big.checked_add(&big).is_some());
        let huge = Rational::new(i128::MAX, 1);
        assert!(huge.checked_mul(&Rational::from(3)).is_none());
    }
}
