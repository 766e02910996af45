//! HC4-revise: forward–backward interval constraint propagation.
//!
//! Forward pass: natural interval extension of every node given the current
//! box. Root constraint: meet each atom's enclosure with the relation's
//! allowed set. Backward pass: walk nodes in reverse topological order and
//! contract each child's enclosure through the inverse of the node's
//! operation. Variable enclosures at the end are the contracted box.
//!
//! The pass machinery lives in [`xcv_expr::IntervalTape`] (flat slot-file
//! program) and [`crate::CompiledFormula`] (per-formula roots and allowed
//! sets): compile a formula once, then contract any box with
//! [`crate::CompiledFormula::contract_with_rounds`] and a caller-owned
//! [`crate::SolveScratch`]. The δ-solver and the verifier recursion share
//! one compiled formula per problem and one scratch per worker. This module
//! holds the contraction's result type and the inverse-rule tests.
//!
//! Soundness: every backward rule computes a *superset* of the child values
//! consistent with the parent's current enclosure, so no real solution inside
//! the box is ever discarded. Operations without a cheap inverse (`sin`,
//! `cos`, parts of `pow`) simply do not contract — a no-op is always sound.

use crate::boxdom::BoxDomain;

/// Outcome of a contraction.
#[derive(Debug, Clone, PartialEq)]
pub enum Contraction {
    /// The box was proven to contain no solution of the formula.
    Empty,
    /// The (possibly) narrowed box.
    Box(BoxDomain),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{CompiledFormula, SolveScratch, HC4_ROUNDS};
    use crate::formula::{Atom, Formula, Rel};
    use xcv_expr::{constant, var};

    /// Contract `b` against `f` with the search's round count.
    fn contract_once(f: &Formula, b: &BoxDomain) -> Contraction {
        let compiled = CompiledFormula::compile(f);
        compiled.contract_with_rounds(b, &mut SolveScratch::new(), HC4_ROUNDS)
    }

    /// Contract the point box `[x, x]` for `x = k·step`, `k = 100, 200, …,
    /// 200,000`, per step: `f` holds at every such point, so none may
    /// contract to empty. (A lossy root errs most at large magnitudes, so
    /// the sweep spans the whole range rather than its first points.)
    fn assert_no_point_box_empties(f: &Formula, steps: &[f64]) {
        let compiled = CompiledFormula::compile(f);
        let mut scratch = SolveScratch::new();
        for &step in steps {
            for k in (100..=200_000).step_by(100) {
                let x = f64::from(k) * step;
                let b = BoxDomain::from_bounds(&[(x, x)]);
                let c = compiled.contract_with_rounds(&b, &mut scratch, HC4_ROUNDS);
                assert_ne!(c, Contraction::Empty, "{f} proven empty at x = {x:e}");
            }
        }
    }

    #[test]
    fn linear_constraint_contracts() {
        // x - 3 <= 0 on x in [0, 10]  =>  x in [0, 3].
        let f = Formula::single(Atom::new(var(0) - 3.0, Rel::Le));
        let b = BoxDomain::from_bounds(&[(0.0, 10.0)]);
        match contract_once(&f, &b) {
            Contraction::Box(nb) => {
                assert!(nb.dim(0).hi <= 3.0 + 1e-9);
                assert!(nb.dim(0).lo <= 0.0 + 1e-12);
            }
            Contraction::Empty => panic!("should not be empty"),
        }
    }

    #[test]
    fn infeasible_detected() {
        // x >= 0 and x + 1 <= 0 on [0, 5] is empty.
        let f = Formula::new(vec![
            Atom::new(var(0), Rel::Ge),
            Atom::new(var(0) + 1.0, Rel::Le),
        ]);
        let b = BoxDomain::from_bounds(&[(0.0, 5.0)]);
        assert_eq!(contract_once(&f, &b), Contraction::Empty);
    }

    #[test]
    fn quadratic_preimage_both_signs() {
        // x^2 - 4 <= 0 on [-10, 10]  =>  x in [-2, 2].
        let f = Formula::single(Atom::new(var(0).powi(2) - 4.0, Rel::Le));
        let b = BoxDomain::from_bounds(&[(-10.0, 10.0)]);
        let Contraction::Box(nb) = contract_once(&f, &b) else {
            panic!()
        };
        assert!(nb.dim(0).lo >= -2.0 - 1e-9 && nb.dim(0).hi <= 2.0 + 1e-9);
    }

    #[test]
    fn exp_inverse_contracts() {
        // exp(x) <= 1  =>  x <= 0.
        let f = Formula::single(Atom::new(var(0).exp() - 1.0, Rel::Le));
        let b = BoxDomain::from_bounds(&[(-5.0, 5.0)]);
        let Contraction::Box(nb) = contract_once(&f, &b) else {
            panic!()
        };
        assert!(nb.dim(0).hi <= 1e-9);
    }

    #[test]
    fn ln_inverse_contracts() {
        // ln(x) >= 0  =>  x >= 1.
        let f = Formula::single(Atom::new(var(0).ln(), Rel::Ge));
        let b = BoxDomain::from_bounds(&[(0.01, 10.0)]);
        let Contraction::Box(nb) = contract_once(&f, &b) else {
            panic!()
        };
        assert!(nb.dim(0).lo >= 1.0 - 1e-9);
    }

    #[test]
    fn multivariate_propagation() {
        // x + y <= 0, x >= 4 on [0,10]x[-10,10]  =>  y <= -4.
        let f = Formula::new(vec![
            Atom::new(var(0) + var(1), Rel::Le),
            Atom::new(var(0) - 4.0, Rel::Ge),
        ]);
        let b = BoxDomain::from_bounds(&[(0.0, 10.0), (-10.0, 10.0)]);
        let Contraction::Box(nb) = contract_once(&f, &b) else {
            panic!()
        };
        assert!(nb.dim(0).lo >= 4.0 - 1e-9);
        assert!(nb.dim(1).hi <= -4.0 + 1e-6);
    }

    #[test]
    fn contraction_never_loses_solutions() {
        // Property sampled deterministically: for the constraint
        // x^2 + y^2 - 1 <= 0, every feasible grid point survives contraction.
        let f = Formula::single(Atom::new(var(0).powi(2) + var(1).powi(2) - 1.0, Rel::Le));
        let b = BoxDomain::from_bounds(&[(-2.0, 2.0), (-2.0, 2.0)]);
        let Contraction::Box(nb) = contract_once(&f, &b) else {
            panic!()
        };
        for i in 0..20 {
            for j in 0..20 {
                let x = -2.0 + 4.0 * (i as f64) / 19.0;
                let y = -2.0 + 4.0 * (j as f64) / 19.0;
                if x * x + y * y <= 1.0 {
                    assert!(nb.contains_point(&[x, y]), "lost feasible point ({x}, {y})");
                }
            }
        }
    }

    #[test]
    fn ite_branch_pruning() {
        // ite(x >= 0, 1, -1) >= 0 forces x >= 0 — the then-branch value 1 is
        // feasible, the else value -1 is not.
        let e = xcv_expr::Expr::ite(&var(0), &constant(1.0), &constant(-1.0));
        let f = Formula::single(Atom::new(e, Rel::Ge));
        let b = BoxDomain::from_bounds(&[(-5.0, 5.0)]);
        let Contraction::Box(nb) = contract_once(&f, &b) else {
            panic!()
        };
        assert!(nb.dim(0).lo >= -1e-9);
    }

    #[test]
    fn div_backward() {
        // 1/x <= 0.5 with x in [0.1, 100]  =>  x >= 2.
        let f = Formula::single(Atom::new(constant(1.0) / var(0) - 0.5, Rel::Le));
        let b = BoxDomain::from_bounds(&[(0.1, 100.0)]);
        let Contraction::Box(nb) = contract_once(&f, &b) else {
            panic!()
        };
        assert!(nb.dim(0).lo >= 2.0 - 1e-6, "{:?}", nb.dim(0));
    }

    #[test]
    fn sqrt_backward() {
        // sqrt(x) >= 2  =>  x >= 4.
        let f = Formula::single(Atom::new(var(0).sqrt() - 2.0, Rel::Ge));
        let b = BoxDomain::from_bounds(&[(0.0, 100.0)]);
        let Contraction::Box(nb) = contract_once(&f, &b) else {
            panic!()
        };
        assert!(nb.dim(0).lo >= 4.0 - 1e-6);
    }

    #[test]
    fn abs_backward_two_sided() {
        // |x| <= 1  =>  x in [-1, 1].
        let f = Formula::single(Atom::new(var(0).abs() - 1.0, Rel::Le));
        let b = BoxDomain::from_bounds(&[(-10.0, 10.0)]);
        let Contraction::Box(nb) = contract_once(&f, &b) else {
            panic!()
        };
        assert!(nb.dim(0).lo >= -1.0 - 1e-9 && nb.dim(0).hi <= 1.0 + 1e-9);
    }

    #[test]
    fn atan_backward() {
        // atan(x) >= pi/4  =>  x >= 1.
        let f = Formula::single(Atom::new(
            var(0).atan() - std::f64::consts::FRAC_PI_4,
            Rel::Ge,
        ));
        let b = BoxDomain::from_bounds(&[(-10.0, 10.0)]);
        let Contraction::Box(nb) = contract_once(&f, &b) else {
            panic!()
        };
        assert!(nb.dim(0).lo >= 1.0 - 1e-6);
    }

    #[test]
    fn lambert_backward() {
        // W(x) >= 1  =>  x >= e.
        let f = Formula::single(Atom::new(var(0).lambert_w() - 1.0, Rel::Ge));
        let b = BoxDomain::from_bounds(&[(0.0, 100.0)]);
        let Contraction::Box(nb) = contract_once(&f, &b) else {
            panic!()
        };
        assert!(nb.dim(0).lo >= std::f64::consts::E - 1e-6);
    }

    #[test]
    fn tanh_backward() {
        // tanh(x) >= 0.5  =>  x >= atanh(0.5) ≈ 0.5493.
        let f = Formula::single(Atom::new(var(0).tanh() - 0.5, Rel::Ge));
        let b = BoxDomain::from_bounds(&[(-5.0, 5.0)]);
        let Contraction::Box(nb) = contract_once(&f, &b) else {
            panic!()
        };
        assert!(nb.dim(0).lo >= 0.549 - 1e-3);
    }

    #[test]
    fn tanh_backward_keeps_every_point() {
        // tanh(x) + 2 ≥ 0 holds everywhere. Near 0, atanh computed as
        // ln((1 + x)/(1 − x)) cancels beyond the libm slop and proves point
        // boxes empty.
        let f = Formula::single(Atom::new(var(0).tanh() + 2.0, Rel::Ge));
        assert_no_point_box_empties(&f, &[1e-7, 1e-4, -3.3e-6]);
    }

    #[test]
    fn tanh_threshold_keeps_the_solution_edge() {
        // tanh(x) ≤ c holds for x ≤ atanh(c) and tanh(x) ≥ c for
        // x ≥ atanh(c); the point 1e-12 inside each edge must survive, for
        // c = ±tanh(t), t ∈ [1.5, 18). Near c = −1, std's `atanh` takes
        // `ln_1p` of an argument near −1, which errs far beyond the one-ulp
        // step the threshold carries. The edge `ln((1 + c)/(1 − c))/2` is
        // accurate here: the smaller of 1 ± c is exact (Sterbenz).
        for k in 0..1650 {
            let t = 1.5 + f64::from(k) * 0.01;
            for c in [-t.tanh(), t.tanh()] {
                let edge = 0.5 * ((1.0 + c) / (1.0 - c)).ln();
                for (rel, x) in [(Rel::Le, edge - 1e-12), (Rel::Ge, edge + 1e-12)] {
                    let f = Formula::single(Atom::new(var(0).tanh() - c, rel));
                    let b = BoxDomain::from_bounds(&[(x, x)]);
                    assert_ne!(
                        contract_once(&f, &b),
                        Contraction::Empty,
                        "{f} at x = {x:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn root_backward_keeps_every_point() {
        // xⁿ + 1e300 ≥ 0 holds at every sampled point, for each exponent
        // whose inverse takes a root other than a square root. A root taken
        // as `powf` with the rounded exponent 1/n misses the exact root by
        // more than the slop and proves points empty (n = −3 and −5 recurse
        // into the cube and fifth roots).
        for n in [3, -3, 5, 6, 7, -5] {
            let f = Formula::single(Atom::new(var(0).powi(n) + 1e300, Rel::Ge));
            assert_no_point_box_empties(&f, &[1.7, -1.3, 1e-3]);
        }
    }

    #[test]
    fn sin_infeasible_range() {
        // sin(x) >= 2 is infeasible.
        let f = Formula::single(Atom::new(var(0).sin() - 2.0, Rel::Ge));
        let b = BoxDomain::from_bounds(&[(0.0, 10.0)]);
        assert_eq!(contract_once(&f, &b), Contraction::Empty);
    }

    #[test]
    fn negative_powi_backward() {
        // x^-2 >= 4  =>  |x| <= 0.5.
        let f = Formula::single(Atom::new(var(0).powi(-2) - 4.0, Rel::Ge));
        let b = BoxDomain::from_bounds(&[(0.01, 10.0)]);
        let Contraction::Box(nb) = contract_once(&f, &b) else {
            panic!()
        };
        assert!(nb.dim(0).hi <= 0.5 + 1e-6, "{:?}", nb.dim(0));
    }

    #[test]
    fn extra_rounds_never_hurt() {
        // The round count is honored: more rounds can only keep or tighten.
        let f = Formula::new(vec![
            Atom::new(var(0) + var(1), Rel::Le),
            Atom::new(var(0) - 4.0, Rel::Ge),
        ]);
        let b = BoxDomain::from_bounds(&[(0.0, 10.0), (-10.0, 10.0)]);
        let compiled = CompiledFormula::compile(&f);
        let mut scratch = SolveScratch::new();
        let one = compiled.contract_with_rounds(&b, &mut scratch, 1);
        match (one, compiled.contract_with_rounds(&b, &mut scratch, 6)) {
            (Contraction::Box(a), Contraction::Box(c)) => {
                for i in 0..2 {
                    assert!(c.dim(i).width() <= a.dim(i).width() + 1e-12);
                }
            }
            other => panic!("{other:?}"),
        }
    }
}
