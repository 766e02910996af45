//! Interval Gauss–Seidel building blocks for interval-Newton contraction.
//!
//! An interval-Newton step for one constraint `g(x) ∈ A` over a box `X`
//! linearizes around the midpoint `m`:
//!
//! ```text
//! g(x) ∈ g(m) + Σⱼ ∂g/∂xⱼ(X) · (Xⱼ − mⱼ)
//! ```
//!
//! and solves the enclosure row-by-row for each axis `k` whose gradient range
//! does not straddle zero (interval Gauss–Seidel). These helpers are the
//! *shared arithmetic* of that solve: both the solver's rung-1 contractor
//! (`xcv-solver`) and the independent certificate replayer (`xcv-cert`) call
//! exactly these functions, so the two sides compute bit-identical boxes and
//! a recorded Newton step can be checked by subset tests alone.

use crate::Interval;

/// Is a gradient range usable as a Gauss–Seidel pivot? Ranges that straddle
/// zero (other than the exact point `[0, 0]`… which is also unusable, but is
/// excluded by the `contains` check below yielding `true`) cannot bound the
/// row solve: a non-point interval containing zero is rejected; a *point*
/// gradient is handed to the extended division, which returns the whole
/// line (harmless) or empty.
#[inline]
pub fn grad_usable(grad: &Interval) -> bool {
    !grad.contains(0.0) || grad.is_point()
}

/// The axis offset term `∂g/∂xₖ(X) · (Xₖ − mₖ)` of the mean-value form.
#[inline]
pub fn axis_offset(grad: &Interval, dim: &Interval, mid: f64) -> Interval {
    grad.mul(&dim.sub(&Interval::point(mid)))
}

/// One interval Gauss–Seidel row solve for axis `k`.
///
/// `rest` must enclose `g(m) + Σ_{j≠k} offsetⱼ`; the row solve encloses every
/// `xₖ ∈ dom` that can satisfy `g(x) ∈ allowed`:
///
/// ```text
/// xₖ ∈ mₖ + (allowed − rest) / gradₖ
/// ```
///
/// intersected with the incoming domain. An empty result proves the box has
/// no solution of this constraint.
#[inline]
pub fn gauss_seidel_axis(
    dom: &Interval,
    mid: f64,
    grad: &Interval,
    rest: &Interval,
    allowed: &Interval,
) -> Interval {
    let rhs = allowed.sub(rest).div(grad);
    dom.intersect(&rhs.add(&Interval::point(mid)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval;

    #[test]
    fn usable_rejects_straddling_ranges() {
        assert!(grad_usable(&interval(1.0, 2.0)));
        assert!(grad_usable(&interval(-2.0, -1.0)));
        assert!(!grad_usable(&interval(-1.0, 1.0)));
        assert!(!grad_usable(&interval(0.0, 1.0)));
        // Point gradients pass through to the extended division.
        assert!(grad_usable(&interval(0.0, 0.0)));
    }

    #[test]
    fn row_solve_contracts_linear_constraint() {
        // g(x) = 2x − 1 ∈ [0, 0] over x ∈ [0, 10]: solution x = 0.5.
        let dom = interval(0.0, 10.0);
        let mid = 5.0;
        let grad = interval(2.0, 2.0);
        // rest = g(m) = 9 (no other axes).
        let rest = interval(9.0, 9.0);
        let allowed = interval(0.0, 0.0);
        let r = gauss_seidel_axis(&dom, mid, &grad, &rest, &allowed);
        assert!(r.contains(0.5));
        assert!(r.width() < 1e-9);
    }

    #[test]
    fn row_solve_proves_infeasible() {
        // g(x) = x + 100 ≤ 0 over x ∈ [0, 1]: impossible.
        let dom = interval(0.0, 1.0);
        let r = gauss_seidel_axis(
            &dom,
            0.5,
            &interval(1.0, 1.0),
            &interval(100.5, 100.5),
            &interval(f64::NEG_INFINITY, 0.0),
        );
        assert!(r.is_empty());
    }

    #[test]
    fn row_solve_never_discards_solutions() {
        // Soundness spot check: for g(x,y) = x·y − 1 = 0 over [0.5, 2]²,
        // every sampled solution point's x-coordinate survives the row solve
        // on the x axis (mean-value form linearized at the box midpoint).
        let dom = interval(0.5, 2.0);
        let mid = dom.midpoint();
        let grad = dom; // ∂(xy−1)/∂x = y ∈ [0.5, 2]
        let g_mid = Interval::point(mid)
            .mul(&Interval::point(mid))
            .sub(&Interval::point(1.0));
        let rest = g_mid.add(&axis_offset(&dom, &dom, mid)); // gy·(Y − my)
        assert!(grad_usable(&grad));
        let r = gauss_seidel_axis(&dom, mid, &grad, &rest, &interval(0.0, 0.0));
        for i in 0..32 {
            let x: f64 = 0.5 + 1.5 * (i as f64) / 31.0;
            let y = 1.0 / x;
            if !(0.5..=2.0).contains(&y) {
                continue;
            }
            assert!(r.contains(x), "x = {x}");
        }
    }
}
