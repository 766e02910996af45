//! Directed-rounding helpers.
//!
//! IEEE-754 arithmetic in Rust rounds to nearest-even; interval arithmetic
//! needs outward rounding. Rather than toggling the FPU rounding mode (which
//! is not portable and interacts badly with the optimizer), we compute in
//! round-to-nearest and then step the result outward by one ULP. That yields
//! slightly wider intervals than true directed rounding, but containment — the
//! only property soundness needs — is preserved.
//!
//! The ULP step is implemented branch-free: a float's bit pattern is mapped
//! through an order-preserving integer transform ([`to_ordered`]), stepped by
//! integer add/sub, and mapped back. The only data-dependent constructs left
//! are boolean selects (NaN / directed-infinity fixed points and the ±0.0
//! skip), which LLVM lowers to `cmov`/blend rather than branches. The
//! semantics are *exactly* those of `f64::next_down`/`next_up` (verified
//! bit-for-bit by the tests below).

/// Number of ULPs by which transcendental results from the platform libm are
/// widened. glibc documents worst-case errors below 2 ULP for the functions we
/// use (`exp`, `ln`, `atan`, `sin`, `cos`, `tanh`, `powf`, `cbrt`); 4 leaves a
/// generous margin for other libms.
pub const LIBM_SLOP_ULPS: u32 = 4;

/// Sign bit of an `f64`'s representation.
const SIGN: u64 = 0x8000_0000_0000_0000;

/// Map a float's bits into a totally ordered unsigned space: positives (and
/// `+0.0`) get the sign bit set, negatives are bitwise complemented. The map
/// is strictly monotone over all non-NaN floats, so stepping one ULP in
/// either direction is a plain integer increment/decrement.
#[inline]
fn to_ordered(b: u64) -> u64 {
    b ^ ((((b as i64) >> 63) as u64) | SIGN)
}

/// Inverse of [`to_ordered`].
#[inline]
fn from_ordered(t: u64) -> u64 {
    t ^ (((!t as i64 >> 63) as u64) | SIGN)
}

/// The largest float strictly less than `x` (identity on `-inf`,
/// NaN-propagating). Bit-identical to `f64::next_down` away from the fixed
/// points: in particular `prev(+0.0)` and `prev(-0.0)` both skip past the
/// other zero straight to `-5e-324`.
#[inline]
pub fn prev(x: f64) -> f64 {
    let t = to_ordered(x.to_bits());
    // `+0.0` sits one ordered step above `-0.0`; next_down skips the pair.
    let dec = 1 + u64::from(t == SIGN);
    let stepped = f64::from_bits(from_ordered(t.wrapping_sub(dec)));
    if x.is_nan() || x == f64::NEG_INFINITY {
        x
    } else {
        stepped
    }
}

/// The smallest float strictly greater than `x` (identity on `+inf`,
/// NaN-propagating). Bit-identical to `f64::next_up` away from the fixed
/// points.
#[inline]
pub fn next(x: f64) -> f64 {
    let t = to_ordered(x.to_bits());
    let inc = 1 + u64::from(t == SIGN - 1);
    let stepped = f64::from_bits(from_ordered(t.wrapping_add(inc)));
    if x.is_nan() || x == f64::INFINITY {
        x
    } else {
        stepped
    }
}

/// Step `x` down by `n` ULPs.
#[inline]
pub fn prev_n(mut x: f64, n: u32) -> f64 {
    for _ in 0..n {
        x = prev(x);
    }
    x
}

/// Step `x` up by `n` ULPs.
#[inline]
pub fn next_n(mut x: f64, n: u32) -> f64 {
    for _ in 0..n {
        x = next(x);
    }
    x
}

/// Lower bound for a libm-computed value: step down by [`LIBM_SLOP_ULPS`].
#[inline]
pub fn libm_lo(x: f64) -> f64 {
    prev_n(x, LIBM_SLOP_ULPS)
}

/// Upper bound for a libm-computed value: step up by [`LIBM_SLOP_ULPS`].
#[inline]
pub fn libm_hi(x: f64) -> f64 {
    next_n(x, LIBM_SLOP_ULPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prev_next_are_adjacent() {
        let x = 1.0_f64;
        assert!(prev(x) < x);
        assert!(next(x) > x);
        assert_eq!(next(prev(x)), x);
        assert_eq!(prev(next(x)), x);
    }

    #[test]
    fn prev_next_at_zero() {
        assert!(prev(0.0) < 0.0);
        assert!(next(0.0) > 0.0);
        assert_eq!(next(prev(0.0)), 0.0);
    }

    #[test]
    fn infinities_are_fixed_points() {
        assert_eq!(next(f64::INFINITY), f64::INFINITY);
        assert_eq!(prev(f64::NEG_INFINITY), f64::NEG_INFINITY);
        // But stepping *inward* from infinity works.
        assert!(prev(f64::INFINITY).is_finite());
        assert!(next(f64::NEG_INFINITY).is_finite());
    }

    #[test]
    fn nan_propagates() {
        assert!(prev(f64::NAN).is_nan());
        assert!(next(f64::NAN).is_nan());
    }

    #[test]
    fn n_step_monotone() {
        let x = 2.5_f64;
        assert!(prev_n(x, 3) < prev_n(x, 2));
        assert!(next_n(x, 3) > next_n(x, 2));
        assert_eq!(prev_n(x, 0), x);
        assert_eq!(next_n(x, 0), x);
    }

    #[test]
    fn libm_slop_brackets() {
        let x = std::f64::consts::E;
        assert!(libm_lo(x) < x && x < libm_hi(x));
    }

    #[test]
    fn ordered_transform_round_trips() {
        for b in [
            0u64,
            1,
            SIGN,
            SIGN | 1,
            SIGN - 1,
            u64::MAX,
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            1.0f64.to_bits(),
            (-1.0f64).to_bits(),
        ] {
            assert_eq!(from_ordered(to_ordered(b)), b, "bits {b:#x}");
        }
        // Monotone across the sign boundary.
        assert!(to_ordered((-1.0f64).to_bits()) < to_ordered((-0.0f64).to_bits()));
        assert!(to_ordered((-0.0f64).to_bits()) < to_ordered(0.0f64.to_bits()));
        assert!(to_ordered(0.0f64.to_bits()) < to_ordered(1.0f64.to_bits()));
    }

    #[test]
    fn branchless_step_matches_std_bitwise() {
        let cases = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            1.0,
            -1.0,
            1.5,
            -2.5,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e308,
            -1e308,
            std::f64::consts::PI,
        ];
        for x in cases {
            let want_prev = if x.is_nan() || x == f64::NEG_INFINITY {
                x
            } else {
                x.next_down()
            };
            let want_next = if x.is_nan() || x == f64::INFINITY {
                x
            } else {
                x.next_up()
            };
            assert_eq!(prev(x).to_bits(), want_prev.to_bits(), "prev({x:e})");
            assert_eq!(next(x).to_bits(), want_next.to_bits(), "next({x:e})");
        }
        assert!(prev(f64::NAN).is_nan());
        assert!(next(f64::NAN).is_nan());
    }
}
