//! Failure-injection and degenerate-input tests: the toolchain must stay
//! sound and panic-free when budgets are zero, domains are empty or
//! zero-width, variables are unbound, and expressions leave their natural
//! domain.

use xcverifier::prelude::*;

#[test]
fn solver_zero_node_budget_times_out() {
    let f = Formula::single(Atom::new(var(0), Rel::Ge));
    let b = BoxDomain::from_bounds(&[(-1.0, 1.0)]);
    let s = DeltaSolver::new(1e-3, SolveBudget::nodes(0));
    assert_eq!(s.solve(&b, &f), Outcome::Timeout);
}

#[test]
fn solver_zero_time_budget_times_out_or_decides_instantly() {
    let f = Formula::single(Atom::new(var(0).exp() + 1.0, Rel::Le)); // unsat
    let b = BoxDomain::from_bounds(&[(-50.0, 50.0)]);
    let s = DeltaSolver::new(1e-3, SolveBudget::millis(0));
    // The first box may be decided before the first time check; either
    // answer is acceptable, but never a (false) DeltaSat.
    match s.solve(&b, &f) {
        Outcome::DeltaSat(m) => panic!("impossible model {m:?}"),
        Outcome::Unsat | Outcome::Timeout => {}
    }
}

#[test]
fn empty_domain_short_circuits() {
    let f = Formula::single(Atom::new(var(0), Rel::Ge));
    let b = BoxDomain::new(vec![Interval::EMPTY]);
    assert_eq!(DeltaSolver::default().solve(&b, &f), Outcome::Unsat);
}

#[test]
fn zero_width_domain_is_a_point_check() {
    let f = Formula::single(Atom::new(var(0) - 1.0, Rel::Ge));
    let hit = BoxDomain::from_bounds(&[(1.0, 1.0)]);
    let miss = BoxDomain::from_bounds(&[(0.0, 0.0)]);
    let s = DeltaSolver::default();
    assert!(matches!(s.solve(&hit, &f), Outcome::DeltaSat(_)));
    assert_eq!(s.solve(&miss, &f), Outcome::Unsat);
}

#[test]
fn unbound_variable_in_formula_is_handled() {
    // Formula mentions x1 but the domain only has one dimension: the missing
    // variable reads as ENTIRE in intervals and NaN pointwise, so the solver
    // may time out or return an (invalid) model — but must not panic or
    // wrongly prove Unsat of a satisfiable-on-extension formula... the only
    // hard requirement is no panic and no exact model claim.
    let f = Formula::single(Atom::new(var(1) - 1.0, Rel::Ge));
    let b = BoxDomain::from_bounds(&[(0.0, 1.0)]);
    let s = DeltaSolver::new(1e-3, SolveBudget::nodes(100));
    match s.solve(&b, &f) {
        Outcome::DeltaSat(m) => {
            // Pointwise evaluation of x1 fails -> cannot be an exact model.
            assert!(!f.holds_at(&m));
        }
        Outcome::Unsat | Outcome::Timeout => {}
    }
}

#[test]
fn natural_domain_violations_prune_soundly() {
    // ln(x) >= 0 on a negative-only box: no real point is in ln's domain, so
    // Unsat is the correct answer (dReal's natural-domain semantics).
    let f = Formula::single(Atom::new(var(0).ln(), Rel::Ge));
    let b = BoxDomain::from_bounds(&[(-2.0, -1.0)]);
    assert_eq!(DeltaSolver::default().solve(&b, &f), Outcome::Unsat);
}

#[test]
fn sqrt_of_negative_region_discarded() {
    // sqrt(x) >= 0 holds wherever defined; on the negative half-line there
    // is no witness at all.
    let f = Formula::single(Atom::new(var(0).sqrt(), Rel::Ge));
    let neg = BoxDomain::from_bounds(&[(-5.0, -1.0)]);
    assert_eq!(DeltaSolver::default().solve(&neg, &f), Outcome::Unsat);
    let pos = BoxDomain::from_bounds(&[(1.0, 4.0)]);
    assert!(matches!(
        DeltaSolver::default().solve(&pos, &f),
        Outcome::DeltaSat(_)
    ));
}

#[test]
fn verifier_with_tiny_deadline_still_partitions() {
    let p = Encoder::encode(Dfa::Pbe, Condition::EcScaling).unwrap();
    let v = Verifier::new(VerifierConfig {
        split_threshold: 0.3,
        solver: DeltaSolver::new(1e-3, SolveBudget::nodes(500)),
        parallel: true,
        max_depth: 6,
        pair_deadline_ms: Some(5),
    });
    let map = v.verify(&p);
    assert!(map.covers_probe_grid(6));
}

#[test]
fn verifier_threshold_larger_than_domain_never_splits() {
    let p = Encoder::encode(Dfa::VwnRpa, Condition::EcNonPositivity).unwrap();
    let v = Verifier::new(VerifierConfig {
        split_threshold: f64::INFINITY,
        solver: DeltaSolver::new(1e-3, SolveBudget::nodes(100_000)),
        parallel: false,
        max_depth: 0,
        pair_deadline_ms: None,
    });
    let map = v.verify(&p);
    assert_eq!(map.regions.len(), 1);
}

#[test]
fn grid_minimum_resolution() {
    // Two points per axis is the smallest grid the gradient scheme accepts.
    let cfg = GridConfig {
        n_rs: 2,
        n_s: 2,
        n_alpha: 2,
        n_zeta: 2,
        tol: 1e-9,
    };
    for dfa in [Dfa::VwnRpa, Dfa::Pbe, Dfa::Scan] {
        let r = pb_check(dfa, Condition::EcNonPositivity, &cfg).unwrap();
        assert!(!r.pass.is_empty());
    }
}

#[test]
fn dsl_error_paths_do_not_panic() {
    use xcverifier::expr::dsl;
    let cases = [
        "",                                   // empty program
        "def f(x):\n",                        // missing body
        "def f(x):\n    return y\n",          // unbound name
        "def f(x):\n    return f(x)\n",       // recursion
        "def f(x):\n  if x:\n    return x\n", // malformed condition
        "x = 1\n",                            // statement at top level
        "def f(x):\n\treturn x\n",            // tab indentation
    ];
    let mut vars = VarSet::new();
    for src in cases {
        assert!(
            dsl::compile(src, "f", &mut vars).is_err(),
            "{src:?} should be rejected"
        );
    }
}

#[test]
fn expr_eval_extreme_magnitudes() {
    // exp of huge argument saturates to inf without panicking; interval
    // evaluation keeps containment.
    let e = var(0).exp();
    assert_eq!(e.eval(&[1e4]).unwrap(), f64::INFINITY);
    let enc = e.eval_interval(&[interval(1e4, 1e5)]);
    assert_eq!(enc.hi, f64::INFINITY);
    // Denormal-scale values survive round trips.
    let e = var(0) * 1e-300 / 1e-300;
    let v = e.eval(&[3.0]).unwrap();
    assert!((v - 3.0).abs() < 1e-9);
}

#[test]
fn interval_nan_constant_rejected() {
    let result = std::panic::catch_unwind(|| constant(f64::NAN));
    assert!(result.is_err(), "NaN constants must be rejected loudly");
}

#[test]
fn region_map_empty_regions_vector() {
    let dom = BoxDomain::from_bounds(&[(0.0, 1.0)]);
    let map = RegionMap::new(dom, vec![]);
    assert_eq!(map.table_mark(), TableMark::Unknown);
    assert!(map.counterexamples().is_empty());
    assert_eq!(map.volume_fraction(|_| true), 0.0);
}
