//! The compile-once acceptance tests: per-box solving must never construct
//! contractors, topo orders, or gradients. [`xcverifier::solver`] exposes a
//! process-wide compilation counter; this file lives in its own test binary
//! so no unrelated test compiles formulas while a counter window is open,
//! and the tests themselves serialize through a mutex.

use std::sync::Mutex;
use xcverifier::prelude::*;

/// Serialize the counter windows (tests within one binary run on threads).
static COUNTER_WINDOW: Mutex<()> = Mutex::new(());

fn compile_count() -> u64 {
    xcverifier::solver::compile_count()
}

#[test]
fn verify_recursion_never_compiles() {
    let _guard = COUNTER_WINDOW.lock().unwrap();
    // Encoding compiles (once per problem: negation + ψ)…
    let before_encode = compile_count();
    let p = Encoder::encode(Dfa::Lyp, Condition::EcNonPositivity).unwrap();
    let encode_compiles = compile_count() - before_encode;
    assert!(
        (1..=3).contains(&encode_compiles),
        "encode should compile a constant number of programs, got {encode_compiles}"
    );
    // …and the whole verifier recursion afterwards compiles nothing.
    let v = Verifier::new(VerifierConfig {
        split_threshold: 0.3,
        solver: DeltaSolver::new(1e-3, SolveBudget::nodes(20_000)),
        parallel: true, // worker threads must inherit the no-compile property
        max_depth: 5,
        pair_deadline_ms: None,
    });
    let before_verify = compile_count();
    let map = v.verify(&p);
    assert_eq!(
        compile_count(),
        before_verify,
        "verifying {} regions recompiled the formula",
        map.regions.len()
    );
    assert!(map.regions.len() > 10, "recursion was expected to fan out");
    assert_eq!(map.table_mark(), TableMark::Counterexample);
}

#[test]
fn campaign_compiles_once_per_cell() {
    let _guard = COUNTER_WINDOW.lock().unwrap();
    let before = compile_count();
    let report = Campaign::builder()
        .functionals([Dfa::VwnRpa, Dfa::Lyp])
        .conditions([Condition::EcNonPositivity, Condition::EcScaling])
        .config(VerifierConfig {
            split_threshold: 1.25,
            solver: DeltaSolver::new(1e-3, SolveBudget::nodes(5_000)),
            parallel: false,
            max_depth: 3,
            pair_deadline_ms: None,
        })
        .build()
        .unwrap()
        .run();
    let compiles = compile_count() - before;
    let cells = report.encoded_pairs() as u64;
    assert_eq!(cells, 4);
    // At most a constant number of compilations per encoded cell (negation +
    // ψ), regardless of how many boxes each pair's recursion visited.
    assert!(
        compiles <= 3 * cells,
        "{compiles} compilations for {cells} cells"
    );
    let solved: u64 = report
        .pairs
        .iter()
        .filter_map(|p| p.map.as_ref())
        .map(|m| m.regions.len() as u64)
        .sum();
    assert!(solved > cells, "recursion visited more boxes than cells");
}

#[test]
fn solver_session_never_compiles() {
    // Pure solver level (no verifier): one compiled formula + one scratch
    // across many boxes moves the counter by exactly zero.
    let _guard = COUNTER_WINDOW.lock().unwrap();
    use xcverifier::solver::{CompiledFormula, SolveScratch};
    let f = Formula::single(Atom::new(xcverifier::expr::var(0).powi(2) + 1.0, Rel::Le));
    let compiled = CompiledFormula::compile(&f);
    let mut scratch = SolveScratch::new();
    let s = DeltaSolver::new(1e-3, SolveBudget::nodes(1_000));
    let before = compile_count();
    for i in 0..20 {
        let b = BoxDomain::from_bounds(&[(-10.0 + i as f64, -9.0 + i as f64)]);
        assert_eq!(
            s.solve_compiled(&b, &compiled, &mut scratch),
            Outcome::Unsat
        );
    }
    assert_eq!(compile_count(), before, "per-box solving must not compile");
}

#[test]
fn one_shot_solve_still_compiles_per_call() {
    // The legacy signature keeps its compile-then-solve semantics — that is
    // what the equivalence suite measures the session path against.
    let _guard = COUNTER_WINDOW.lock().unwrap();
    let f = Formula::single(Atom::new(xcverifier::expr::var(0).powi(2) + 1.0, Rel::Le));
    let b = BoxDomain::from_bounds(&[(-5.0, 5.0)]);
    let s = DeltaSolver::new(1e-3, SolveBudget::nodes(1_000));
    let before = compile_count();
    for _ in 0..3 {
        assert_eq!(s.solve(&b, &f), Outcome::Unsat);
    }
    assert_eq!(compile_count() - before, 3);
}
