//! Property-based tests (proptest) of the core soundness invariants:
//!
//! * the fundamental theorem of interval arithmetic (enclosure of every
//!   pointwise result) for random expressions over random boxes;
//! * HC4 contraction never discards a solution;
//! * symbolic differentiation agrees with central differences;
//! * the compiled tape agrees with the recursive evaluator;
//! * solver `Unsat` answers are never contradicted by dense sampling;
//! * the solver keeps the solutions of `tanh` constraints across (−1, 1).

use proptest::prelude::*;
use xcverifier::prelude::*;

// ---------------------------------------------------------------------------
// Random expression generation
// ---------------------------------------------------------------------------

/// A recipe for building a deterministic random expression over 2 variables.
#[derive(Debug, Clone)]
enum Recipe {
    Var(u8),
    Const(f64),
    Add(Box<Recipe>, Box<Recipe>),
    Mul(Box<Recipe>, Box<Recipe>),
    Div(Box<Recipe>, Box<Recipe>),
    Neg(Box<Recipe>),
    PowI(Box<Recipe>, i32),
    Exp(Box<Recipe>),
    LnShift(Box<Recipe>), // ln(1 + x^2 + e): strictly positive argument
    Sqrt2(Box<Recipe>),   // sqrt(x^2): always defined
    Atan(Box<Recipe>),
    Tanh(Box<Recipe>),
    Abs(Box<Recipe>),
    Min(Box<Recipe>, Box<Recipe>),
    Max(Box<Recipe>, Box<Recipe>),
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    let leaf = prop_oneof![
        (0u8..2).prop_map(Recipe::Var),
        (-3.0f64..3.0).prop_map(Recipe::Const),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Recipe::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Recipe::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Recipe::Div(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| Recipe::Neg(Box::new(a))),
            (inner.clone(), 1i32..4).prop_map(|(a, n)| Recipe::PowI(Box::new(a), n)),
            inner.clone().prop_map(|a| Recipe::Exp(Box::new(a))),
            inner.clone().prop_map(|a| Recipe::LnShift(Box::new(a))),
            inner.clone().prop_map(|a| Recipe::Sqrt2(Box::new(a))),
            inner.clone().prop_map(|a| Recipe::Atan(Box::new(a))),
            inner.clone().prop_map(|a| Recipe::Tanh(Box::new(a))),
            inner.clone().prop_map(|a| Recipe::Abs(Box::new(a))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Recipe::Min(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Recipe::Max(Box::new(a), Box::new(b))),
        ]
    })
}

fn build(r: &Recipe) -> Expr {
    match r {
        Recipe::Var(v) => var(*v as u32),
        Recipe::Const(c) => constant(*c),
        Recipe::Add(a, b) => build(a) + build(b),
        Recipe::Mul(a, b) => build(a) * build(b),
        Recipe::Div(a, b) => build(a) / build(b),
        Recipe::Neg(a) => -build(a),
        Recipe::PowI(a, n) => build(a).powi(*n),
        Recipe::Exp(a) => (build(a) * 0.25).exp(), // damp to avoid overflow
        Recipe::LnShift(a) => (build(a).powi(2) + 1.0).ln(),
        Recipe::Sqrt2(a) => build(a).powi(2).sqrt(),
        Recipe::Atan(a) => build(a).atan(),
        Recipe::Tanh(a) => build(a).tanh(),
        Recipe::Abs(a) => build(a).abs(),
        Recipe::Min(a, b) => build(a).min(&build(b)),
        Recipe::Max(a, b) => build(a).max(&build(b)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Fundamental theorem: for any expression and any point inside a box,
    /// the interval evaluation over the box contains the pointwise value.
    #[test]
    fn interval_evaluation_encloses_pointwise(
        recipe in recipe_strategy(),
        x0 in -2.0f64..2.0,
        x1 in -2.0f64..2.0,
        w0 in 0.0f64..1.0,
        w1 in 0.0f64..1.0,
        f0 in 0.0f64..1.0,
        f1 in 0.0f64..1.0,
    ) {
        let e = build(&recipe);
        let dom = [
            interval(x0, x0 + w0),
            interval(x1, x1 + w1),
        ];
        let point = [x0 + f0 * w0, x1 + f1 * w1];
        let v = e.eval(&point).unwrap();
        if v.is_finite() {
            let enc = e.eval_interval(&dom);
            prop_assert!(
                !enc.is_empty() && enc.lo <= v && v <= enc.hi,
                "{v} not in {enc:?} for {e}"
            );
        }
    }

    /// The compiled tape and the recursive evaluator agree bit-for-bit on
    /// finite results (NaN-for-NaN otherwise).
    #[test]
    fn tape_matches_recursive(
        recipe in recipe_strategy(),
        x0 in -2.0f64..2.0,
        x1 in -2.0f64..2.0,
    ) {
        let e = build(&recipe);
        let tape = xcverifier::expr::Tape::compile(&e);
        let mut scratch = tape.scratch();
        let a = e.eval(&[x0, x1]).unwrap();
        let b = tape.eval(&[x0, x1], &mut scratch);
        if a.is_nan() {
            prop_assert!(b.is_nan());
        } else {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{} vs {}", a, b);
        }
    }

    /// HC4 contraction never discards a point that satisfies the formula.
    #[test]
    fn hc4_preserves_solutions(
        recipe in recipe_strategy(),
        x0 in -1.5f64..1.5,
        x1 in -1.5f64..1.5,
    ) {
        let e = build(&recipe);
        let v = e.eval(&[x0, x1]).unwrap();
        prop_assume!(v.is_finite());
        // Constraint satisfied at (x0, x1) by construction: e <= v + 1.
        let atom = Atom::new(e - constant(v + 1.0), Rel::Le);
        let formula = Formula::single(atom);
        let b = BoxDomain::from_bounds(&[(-1.5, 1.5), (-1.5, 1.5)]);
        let compiled = xcverifier::solver::CompiledFormula::compile(&formula);
        let mut scratch = xcverifier::solver::SolveScratch::new();
        match compiled.contract_with_rounds(&b, &mut scratch, xcverifier::solver::HC4_ROUNDS) {
            xcverifier::solver::contract::Contraction::Empty => {
                prop_assert!(false, "solution box declared empty");
            }
            xcverifier::solver::contract::Contraction::Box(nb) => {
                prop_assert!(
                    nb.contains_point(&[x0, x1]),
                    "contraction lost ({x0}, {x1})"
                );
            }
        }
    }

    /// The solver keeps the solutions of `tanh` constraints for c = tanh(t),
    /// with t = ±10^exponent (c near 0) and t = ±large (c near ±1): the
    /// root of tanh(x) = c over [t − 1, t + 1], and the point just inside
    /// the edge atanh(c) of tanh(x) ≤ c and of tanh(x) ≥ c. An inverse
    /// rule that errs beyond its rounding slop refutes one of them.
    #[test]
    fn solver_keeps_tanh_solutions(exponent in -8.0f64..0.0, large in 1.5f64..17.0) {
        let solver = DeltaSolver::new(1e-6, SolveBudget::nodes(10_000));
        for t in [10f64.powf(exponent), large].into_iter().flat_map(|t| [t, -t]) {
            let c = t.tanh();
            // atanh(c) to a few ulps at both ends: the `ln_1p` argument is ≥ 0.
            let edge = (0.5 * (2.0 * c.abs() / (1.0 - c.abs())).ln_1p()).copysign(c);
            let inside = 1e-13 * edge.abs();
            let g = var(0).tanh() - constant(c);
            let cases = [
                (
                    Formula::new(vec![Atom::new(g.clone(), Rel::Ge), Atom::new(g.clone(), Rel::Le)]),
                    (t - 1.0, t + 1.0),
                ),
                (Formula::single(Atom::new(g.clone(), Rel::Le)), (edge - inside, edge - inside)),
                (Formula::single(Atom::new(g, Rel::Ge)), (edge + inside, edge + inside)),
            ];
            for (f, bounds) in cases {
                let b = BoxDomain::from_bounds(&[bounds]);
                let outcome = solver.solve(&b, &f);
                prop_assert!(
                    matches!(outcome, Outcome::DeltaSat(_)),
                    "{} over {}: {:?}",
                    f,
                    b,
                    outcome
                );
            }
        }
    }

    /// Symbolic derivatives match central differences wherever both are
    /// finite and tame.
    #[test]
    fn diff_matches_central_difference(
        recipe in recipe_strategy(),
        x0 in -1.0f64..1.0,
        x1 in -1.0f64..1.0,
    ) {
        let e = build(&recipe);
        let d = e.diff(0);
        let h = 1e-5;
        let f = |x: f64| e.eval(&[x, x1]).unwrap();
        let (fp, fm) = (f(x0 + h), f(x0 - h));
        let sym = d.eval(&[x0, x1]).unwrap();
        prop_assume!(fp.is_finite() && fm.is_finite() && sym.is_finite());
        // Skip near-kinks of abs/min/max/div where the stencil straddles a
        // switch: accept if either the match is good or the second
        // difference reveals non-smoothness.
        let num = (fp - fm) / (2.0 * h);
        let f0 = f(x0);
        let curvature = ((fp - 2.0 * f0 + fm) / (h * h)).abs();
        prop_assume!(curvature < 1e4);
        let tol = 1e-3 * (1.0 + num.abs() + sym.abs());
        prop_assert!(
            (num - sym).abs() <= tol,
            "numeric {num} vs symbolic {sym} at ({x0}, {x1}) for {e}"
        );
    }

    /// Hash-consing invariant: rebuilding the same recipe yields the same
    /// node (pointer equality), and evaluation is reproducible.
    #[test]
    fn hash_consing_reproducible(recipe in recipe_strategy()) {
        let a = build(&recipe);
        let b = build(&recipe);
        prop_assert!(a.same(&b));
        prop_assert_eq!(a.id(), b.id());
    }

    /// Solver soundness: when the solver says Unsat on a random band
    /// constraint, dense sampling must find no solution either.
    #[test]
    fn solver_unsat_never_contradicted(
        recipe in recipe_strategy(),
        lo in -0.5f64..0.5,
    ) {
        let e = build(&recipe);
        // Band: lo <= e(x) <= lo + 0.2 on a small box.
        let f = Formula::new(vec![
            Atom::new(e.clone() - constant(lo), Rel::Ge),
            Atom::new(e.clone() - constant(lo + 0.2), Rel::Le),
        ]);
        let b = BoxDomain::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0)]);
        let solver = DeltaSolver::new(1e-3, SolveBudget::nodes(4_000));
        if let Outcome::Unsat = solver.solve(&b, &f) {
            for i in 0..25 {
                for j in 0..25 {
                    let x = -1.0 + 2.0 * (i as f64) / 24.0;
                    let y = -1.0 + 2.0 * (j as f64) / 24.0;
                    prop_assert!(
                        !f.holds_at(&[x, y]),
                        "Unsat contradicted at ({x}, {y}) for {e}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Targeted property tests on the physics layer
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Symbolic and scalar functional implementations agree across the
    /// domain for every DFA (the LIBXC-vs-encoder cross-validation).
    #[test]
    fn functional_code_paths_agree(
        rs in 1e-4f64..5.0,
        s in 0.0f64..5.0,
        alpha in 0.0f64..5.0,
    ) {
        for dfa in Dfa::all() {
            let sym = dfa.eps_c_expr().eval(&[rs, s, alpha]).unwrap();
            let num = dfa.eps_c(rs, s, alpha);
            let tol = 1e-9 * num.abs().max(1e-9);
            prop_assert!((sym - num).abs() <= tol, "{dfa} at ({rs}, {s}, {alpha})");
        }
    }

    /// The enhancement-factor identity F_c·ε_x^unif = ε_c.
    #[test]
    fn enhancement_identity(rs in 1e-3f64..5.0, s in 0.0f64..5.0) {
        for dfa in [Dfa::Pbe, Dfa::Lyp, Dfa::Am05, Dfa::VwnRpa] {
            let fc = dfa.f_c(rs, s, 0.0);
            let ec = dfa.eps_c(rs, s, 0.0);
            let ex = xcverifier::functionals::lda_x::eps_x_unif(rs);
            prop_assert!((fc * ex - ec).abs() <= 1e-12 * ec.abs().max(1e-12));
        }
    }

    /// PBE and SCAN satisfy EC1 everywhere (by construction); the symbolic
    /// encoding must agree at random points.
    #[test]
    fn nonempirical_ec1_pointwise(
        rs in 1e-4f64..5.0,
        s in 0.0f64..5.0,
        alpha in 0.0f64..5.0,
    ) {
        for dfa in [Dfa::Pbe, Dfa::Scan, Dfa::Am05, Dfa::VwnRpa] {
            let pt = [rs, s, alpha];
            let arity = dfa.arity();
            prop_assert!(
                Condition::EcNonPositivity
                    .holds_at(&dfa, &pt[..arity])
                    .unwrap(),
                "{} at {:?}", dfa, &pt[..arity]
            );
        }
    }
}
