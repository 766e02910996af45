//! Outward-rounded interval arithmetic over `f64`.
//!
//! This crate is the numeric substrate of the δ-complete solver used by the
//! XCVerifier reproduction. Every operation on [`Interval`] returns an
//! interval that is guaranteed to *contain* the exact real image of the
//! operation on the inputs (the fundamental theorem of interval arithmetic),
//! so that `Unsat` answers produced by interval reasoning are sound.
//!
//! Rounding model: Rust/IEEE-754 arithmetic rounds to nearest, so after each
//! primitive floating-point operation we widen the endpoints outward by one
//! ULP ([`round::prev`] / [`round::next`]). For transcendental functions the
//! platform libm is faithful but not correctly rounded; we widen those results
//! by a few ULPs ([`round::LIBM_SLOP_ULPS`]), which covers the documented
//! worst-case errors of glibc/musl implementations with a comfortable margin.
//!
//! The crate also provides a certified enclosure of the principal branch of
//! the Lambert W function ([`Interval::lambert_w0`]), which the AM05 exchange
//! functional requires; the enclosure is *verified* against the defining
//! equation `w e^w = x` using interval arithmetic rather than trusted from the
//! floating-point iteration.

mod interval;
mod lambert;
pub mod newton;
pub mod round;
mod transcendental;

pub use interval::Interval;
pub use lambert::lambert_w0_f64;

/// Convenience constructor: the point interval `[x, x]`.
///
/// Panics if `x` is NaN.
pub fn point(x: f64) -> Interval {
    Interval::point(x)
}

/// Convenience constructor: the interval `[lo, hi]`.
///
/// Panics if `lo > hi` or either bound is NaN.
pub fn interval(lo: f64, hi: f64) -> Interval {
    Interval::new(lo, hi)
}
