//! Transcendental function enclosures.
//!
//! Monotone functions (`exp`, `ln`, `sqrt`, `cbrt`, `atan`, `tanh`) are
//! evaluated at the endpoints and widened by [`round::LIBM_SLOP_ULPS`] to
//! absorb libm inaccuracy. `sin`/`cos` do a quadrant analysis. `powf` is
//! defined for non-negative bases via `exp(y ln x)` with exact handling of the
//! `x = 0` boundary (as in LIBXC functional forms, `0^y = 0` for `y > 0`).

use crate::interval::Interval;
use crate::round::{libm_hi, libm_lo, next, next_n, prev, prev_n};

impl Interval {
    /// Enclosure of `e^x`.
    pub fn exp(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        let lo = if self.lo == f64::NEG_INFINITY {
            0.0
        } else {
            libm_lo(self.lo.exp()).max(0.0)
        };
        let hi = if self.hi == f64::INFINITY {
            f64::INFINITY
        } else {
            libm_hi(self.hi.exp())
        };
        Interval::checked(lo, hi)
    }

    /// Enclosure of `ln x` on the domain restriction `x > 0`.
    ///
    /// Parts of the interval at or below zero are discarded (the natural
    /// domain semantics used by dReal); an interval entirely `<= 0` yields
    /// the empty interval.
    pub fn ln(&self) -> Interval {
        if self.is_empty() || self.hi <= 0.0 {
            return Interval::EMPTY;
        }
        let lo = if self.lo <= 0.0 {
            f64::NEG_INFINITY
        } else {
            libm_lo(self.lo.ln())
        };
        let hi = if self.hi == f64::INFINITY {
            f64::INFINITY
        } else {
            libm_hi(self.hi.ln())
        };
        Interval::checked(lo, hi)
    }

    /// Enclosure of `sqrt x` on the domain restriction `x >= 0`.
    pub fn sqrt(&self) -> Interval {
        if self.is_empty() || self.hi < 0.0 {
            return Interval::EMPTY;
        }
        let lo = if self.lo <= 0.0 {
            0.0
        } else {
            // sqrt is correctly rounded by IEEE-754; 1 ULP is still applied
            // for uniformity and costs nothing.
            prev(self.lo.sqrt()).max(0.0)
        };
        let hi = if self.hi == f64::INFINITY {
            f64::INFINITY
        } else {
            next(self.hi.sqrt())
        };
        Interval::checked(lo, hi)
    }

    /// Enclosure of the real cube root (odd, increasing, total).
    pub fn cbrt(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        let lo = if self.lo == f64::NEG_INFINITY {
            f64::NEG_INFINITY
        } else {
            libm_lo(self.lo.cbrt())
        };
        let hi = if self.hi == f64::INFINITY {
            f64::INFINITY
        } else {
            libm_hi(self.hi.cbrt())
        };
        Interval::checked(lo, hi)
    }

    /// Enclosure of `atan x`.
    pub fn atan(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        let half_pi_hi = next(std::f64::consts::FRAC_PI_2);
        let lo = libm_lo(self.lo.atan()).max(-half_pi_hi);
        let hi = libm_hi(self.hi.atan()).min(half_pi_hi);
        Interval::checked(lo, hi)
    }

    /// Enclosure of `tanh x`.
    pub fn tanh(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        let lo = libm_lo(self.lo.tanh()).max(-1.0);
        let hi = libm_hi(self.hi.tanh()).min(1.0);
        Interval::checked(lo, hi)
    }

    /// Enclosure of `sin x` with quadrant analysis.
    pub fn sin(&self) -> Interval {
        trig(self, f64::sin, -std::f64::consts::FRAC_PI_2)
    }

    /// Enclosure of `cos x` with quadrant analysis.
    pub fn cos(&self) -> Interval {
        trig(self, f64::cos, 0.0)
    }

    /// Enclosure of `x^y` for non-negative bases.
    ///
    /// Defined as `exp(y ln x)` for `x > 0`, with `0^y = 0` for `y > 0`,
    /// `0^0 = 1`, and `0^y = +inf` for `y < 0`. Negative parts of the base are
    /// discarded (natural-domain semantics).
    pub fn powf(&self, y: &Interval) -> Interval {
        if self.is_empty() || y.is_empty() {
            return Interval::EMPTY;
        }
        let base = self.intersect(&Interval::new(0.0, f64::INFINITY));
        if base.is_empty() {
            return Interval::EMPTY;
        }
        // Positive-base core via exp(y ln x).
        let strictly_pos = base.intersect(&Interval::checked(f64::MIN_POSITIVE, f64::INFINITY));
        let mut out = if strictly_pos.is_empty() {
            Interval::EMPTY
        } else {
            (y.mul(&strictly_pos.ln())).exp()
        };
        if base.contains(0.0) {
            if y.certainly_gt(0.0) {
                out = out.hull(&Interval::ZERO);
            } else if y.certainly_lt(0.0) {
                out = out.hull(&Interval::new(f64::INFINITY, f64::INFINITY));
            } else {
                // Exponent interval contains 0: 0^0 = 1 convention plus both
                // limits — the hull is [0, inf) joined with the core.
                out = out
                    .hull(&Interval::ZERO)
                    .hull(&Interval::ONE)
                    .hull(&Interval::new(f64::INFINITY, f64::INFINITY));
            }
        }
        out
    }

    /// Enclosure of `x^(1/n)` for positive integer `n` on `x >= 0` (used in
    /// backward contraction of `powi`). For odd `n` the domain extends to
    /// negatives via odd symmetry. The cube root is libm's `cbrt`, within
    /// [`crate::round::LIBM_SLOP_ULPS`]; other roots take `powf` with the
    /// exponent `1/n`. When `1/n` is not a power of two it is rounded, by at
    /// most 2⁻⁵³/n relative, which moves `x^(1/n)` by a factor of at most
    /// `exp(2⁻⁵³·|ln x|/n)`: at most `|ln x|/n` ulps. Those roots are
    /// widened by `⌈|ln x|/n⌉ + 1` ulps beyond the libm slop.
    pub fn nth_root(&self, n: i32) -> Interval {
        assert!(n > 0);
        if self.is_empty() {
            return Interval::EMPTY;
        }
        if n == 1 {
            return *self;
        }
        let odd = n % 2 == 1;
        let inexact = n != 3 && !n.unsigned_abs().is_power_of_two();
        let root = |x: f64| -> f64 {
            if x == f64::INFINITY {
                f64::INFINITY
            } else if x == f64::NEG_INFINITY {
                f64::NEG_INFINITY
            } else if n == 3 {
                x.cbrt()
            } else if x >= 0.0 {
                x.powf(1.0 / n as f64)
            } else {
                -(-x).powf(1.0 / n as f64)
            }
        };
        // Ulps the rounded exponent can move the root of `x` by, plus one.
        let exponent_ulps = |x: f64| -> u32 {
            if inexact && x != 0.0 && x.is_finite() {
                (x.abs().ln().abs() / f64::from(n)).ceil() as u32 + 1
            } else {
                0
            }
        };
        let lo = |x: f64| prev_n(libm_lo(root(x)), exponent_ulps(x));
        let hi = |x: f64| next_n(libm_hi(root(x)), exponent_ulps(x));
        if odd {
            Interval::checked(lo(self.lo), hi(self.hi))
        } else {
            let dom = self.intersect(&Interval::new(0.0, f64::INFINITY));
            if dom.is_empty() {
                return Interval::EMPTY;
            }
            Interval::checked(lo(dom.lo).max(0.0), hi(dom.hi))
        }
    }
}

/// Shared quadrant analysis for sin/cos. `phase` shifts the function's maxima
/// onto multiples of 2π: maxima of `sin` sit at π/2 + 2kπ (phase −π/2), maxima
/// of `cos` at 2kπ (phase 0).
fn trig(x: &Interval, f: fn(f64) -> f64, phase: f64) -> Interval {
    if x.is_empty() {
        return Interval::EMPTY;
    }
    let two_pi = 2.0 * std::f64::consts::PI;
    if x.width() >= two_pi || !x.is_bounded() {
        return Interval::new(-1.0, 1.0);
    }
    let flo = f(x.lo);
    let fhi = f(x.hi);
    let mut lo = flo.min(fhi);
    let mut hi = flo.max(fhi);
    // Does the interval contain a maximum (at phase + 2kπ shifted by π/2 for
    // sin) or a minimum?
    // Maxima of f at m_k = -phase + 2kπ ... for sin: maxima at π/2 + 2kπ,
    // phase = -π/2 so m_k = π/2 + 2kπ. For cos: maxima at 2kπ.
    let contains_extremum = |offset: f64| -> bool {
        // Is there an integer k with x.lo <= offset + 2kπ <= x.hi?
        let k_min = ((x.lo - offset) / two_pi).ceil();
        offset + k_min * two_pi <= x.hi + 1e-12
    };
    let max_at = -phase;
    let min_at = -phase + std::f64::consts::PI;
    if contains_extremum(max_at) {
        hi = 1.0;
    }
    if contains_extremum(min_at) {
        lo = -1.0;
    }
    Interval::checked(libm_lo(lo).max(-1.0), libm_hi(hi).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{E, FRAC_PI_2, PI};

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi)
    }

    #[test]
    fn exp_contains() {
        let r = iv(0.0, 1.0).exp();
        assert!(r.contains(1.0) && r.contains(E));
        assert!(r.lo <= 1.0 && r.hi >= E);
    }

    #[test]
    fn exp_unbounded() {
        let r = Interval::new(f64::NEG_INFINITY, 0.0).exp();
        assert_eq!(r.lo, 0.0);
        assert!(r.contains(1.0));
        let r = Interval::new(0.0, f64::INFINITY).exp();
        assert_eq!(r.hi, f64::INFINITY);
    }

    #[test]
    fn ln_domain_restriction() {
        assert!(iv(-2.0, -1.0).ln().is_empty());
        let r = iv(-1.0, E).ln();
        assert_eq!(r.lo, f64::NEG_INFINITY);
        assert!(r.contains(1.0));
        let r = iv(1.0, E).ln();
        assert!(r.contains(0.0) && r.contains(1.0));
    }

    #[test]
    fn sqrt_domain() {
        assert!(iv(-2.0, -1.0).sqrt().is_empty());
        let r = iv(-1.0, 4.0).sqrt();
        assert_eq!(r.lo, 0.0);
        assert!(r.contains(2.0));
    }

    #[test]
    fn cbrt_odd() {
        let r = iv(-8.0, 27.0).cbrt();
        assert!(r.contains(-2.0) && r.contains(3.0));
    }

    #[test]
    fn atan_bounded() {
        let r = Interval::ENTIRE.atan();
        assert!(r.lo >= -FRAC_PI_2 - 1e-10 && r.hi <= FRAC_PI_2 + 1e-10);
        let r = iv(0.0, 1.0).atan();
        assert!(r.contains(0.0) && r.contains(std::f64::consts::FRAC_PI_4));
    }

    #[test]
    fn tanh_bounded() {
        let r = Interval::ENTIRE.tanh();
        assert!(r.lo >= -1.0 && r.hi <= 1.0);
        assert!(iv(0.0, 1.0).tanh().contains(0.5_f64.tanh() + 0.2));
    }

    #[test]
    fn sin_quadrants() {
        let r = iv(0.0, PI).sin();
        assert!(r.hi >= 1.0 - 1e-12); // contains max at π/2
        assert!(r.lo <= 1e-12);
        let r = iv(PI, 2.0 * PI).sin();
        assert!(r.lo <= -1.0 + 1e-12); // contains min at 3π/2
    }

    #[test]
    fn cos_quadrants() {
        let r = iv(-0.1, 0.1).cos();
        assert!(r.hi >= 1.0 - 1e-12); // max at 0
        let r = iv(PI - 0.1, PI + 0.1).cos();
        assert!(r.lo <= -1.0 + 1e-12);
    }

    #[test]
    fn sin_wide_interval_is_unit() {
        let r = iv(0.0, 100.0).sin();
        assert_eq!(r, Interval::new(-1.0, 1.0));
    }

    #[test]
    fn powf_positive_base() {
        let r = iv(2.0, 3.0).powf(&iv(2.0, 2.0));
        assert!(r.contains(4.0) && r.contains(9.0));
        let r = iv(4.0, 4.0).powf(&iv(0.5, 0.5));
        assert!(r.contains(2.0));
    }

    #[test]
    fn powf_zero_base() {
        let r = iv(0.0, 1.0).powf(&iv(2.0, 2.0));
        assert!(r.contains(0.0) && r.contains(1.0));
        let r = iv(0.0, 1.0).powf(&iv(-0.5, -0.5));
        assert_eq!(r.hi, f64::INFINITY);
    }

    #[test]
    fn powf_negative_base_discarded() {
        let r = iv(-2.0, -1.0).powf(&iv(2.0, 2.0));
        assert!(r.is_empty());
    }

    #[test]
    fn nth_root_round_trip() {
        let x = iv(8.0, 27.0);
        let r = x.nth_root(3);
        assert!(r.contains(2.0) && r.contains(3.0));
        let x = iv(-27.0, -8.0);
        let r = x.nth_root(3);
        assert!(r.contains(-3.0) && r.contains(-2.0));
        let x = iv(4.0, 9.0);
        let r = x.nth_root(2);
        assert!(r.contains(2.0) && r.contains(3.0));
        assert!(iv(-4.0, -1.0).nth_root(2).is_empty());
    }
}
