//! Property suite for the spin citizens' restriction laws: every
//! ζ-resolved registry citizen, restricted to `ζ = 0` (and, for the
//! per-spin exchange citizens, `s↑ = s↓ = s`), must agree with its
//! three-argument form — scalar *and* symbolic — at random points of the
//! PB domain. Plus the compile-once check that the typed-axis refactor did
//! not add lowerings per cell.
//!
//! Runs at `PROPTEST_CASES` cases per property (tier-1 dials it down; the
//! CI release job runs the full count).

use proptest::prelude::*;
use std::sync::Mutex;
use xcverifier::functionals::{b88, pbe, pw92};
use xcverifier::prelude::*;

/// Serialize against other formula-compiling tests in this binary (the
/// compile counter is process-wide).
static COUNTER_WINDOW: Mutex<()> = Mutex::new(());

proptest! {
    /// Scalar restriction: the 4-arg surface at ζ = 0 (s↑ = s↓ = s for the
    /// per-spin citizens) equals the inherited 3-arg form, which equals the
    /// base unpolarized module.
    #[test]
    fn zeta_zero_scalar_restriction(
        rs in 1e-4f64..5.0,
        s in 0.0f64..5.0,
        alpha in 0.0f64..5.0,
    ) {
        // Scalar-factor citizens: point order (rs, s, α, ζ).
        let spbe = SpinResolved::pbe();
        let v = spbe.eps_c_at(&[rs, s, alpha, 0.0]);
        prop_assert!((v - pbe::eps_c(rs, s)).abs() <= 1e-12 * v.abs().max(1e-12));
        let spw = SpinResolved::pw92();
        let v = spw.eps_c_at(&[rs, s, alpha, 0.0]);
        prop_assert!((v - pw92::eps_c(rs)).abs() <= 1e-13 * v.abs().max(1e-13));
        let lsda = SpinResolved::lsda_x();
        prop_assert_eq!(lsda.f_x_at(&[rs, s, alpha, 0.0]), Some(1.0));
        // Per-spin citizens: point order (rs, s↑, s↓, ζ), diagonal s↑=s↓=s.
        for (citizen, base) in [
            (SpinScaledX::b88(), b88::f_x as fn(f64) -> f64),
            (SpinScaledX::pbe_x(), pbe::f_x as fn(f64) -> f64),
        ] {
            let got = citizen.f_x_at(&[rs, s, s, 0.0]).unwrap();
            let want = base(s);
            prop_assert!(
                (got - want).abs() <= 1e-13 * want.abs().max(1e-13),
                "{}: {} vs {}", citizen.name(), got, want
            );
            // The 3-arg form is that same restriction.
            prop_assert_eq!(citizen.f_x(s, alpha), Some(want));
            prop_assert_eq!(citizen.eps_c_at(&[rs, s, s, 0.0]), 0.0);
        }
    }

    /// Symbolic restriction: every spin citizen's DAG, evaluated at the
    /// restricted point, equals the base citizen's DAG at the 3-arg point —
    /// the encoder-facing half of the restriction law.
    #[test]
    fn zeta_zero_symbolic_restriction(
        rs in 1e-4f64..5.0,
        s in 0.0f64..5.0,
        alpha in 0.0f64..5.0,
    ) {
        let scalar_env = [rs, s, alpha, 0.0];
        let eps = SpinResolved::pbe().eps_c_expr().eval(&scalar_env).unwrap();
        let base = Dfa::Pbe.eps_c_expr().eval(&[rs, s, alpha]).unwrap();
        prop_assert!((eps - base).abs() <= 1e-11 * base.abs().max(1e-11));
        let eps = SpinResolved::pw92().eps_c_expr().eval(&scalar_env).unwrap();
        let base = pw92::eps_c_expr().eval(&[rs, s, alpha]).unwrap();
        prop_assert!((eps - base).abs() <= 1e-12 * base.abs().max(1e-12));
        // Per-spin diagonal: (rs, s, s, 0) against the base F_x DAG.
        let diag_env = [rs, s, s, 0.0];
        for (citizen, base_expr) in [
            (SpinScaledX::b88(), b88::f_x_expr()),
            (SpinScaledX::pbe_x(), xcverifier::functionals::pbe::f_x_expr()),
        ] {
            let sym = citizen.f_x_expr().unwrap().eval(&diag_env).unwrap();
            let want = base_expr.eval(&[rs, s, alpha]).unwrap();
            prop_assert!(
                (sym - want).abs() <= 1e-12 * want.abs().max(1e-12),
                "{}: {} vs {}", citizen.name(), sym, want
            );
        }
    }

    /// The symbolic surface and the scalar surface agree *off* the
    /// restriction too — random full-space points per citizen, the DAG the
    /// solver sees against the closed form the grid samples.
    #[test]
    fn full_surface_symbolic_scalar_agreement(
        rs in 1e-4f64..5.0,
        a in 0.0f64..5.0,
        b in 0.0f64..5.0,
        z in -1.0f64..1.0,
    ) {
        for f in Registry::spin().iter() {
            let p = [rs, a, b, z];
            let sym = f.eps_c_expr().eval(&p).unwrap();
            let num = f.eps_c_at(&p);
            prop_assert!(
                (sym - num).abs() <= 1e-9 * num.abs().max(1e-9),
                "{}: ε_c {} vs {}", f.name(), sym, num
            );
            if let Some(e) = f.f_x_expr() {
                let sym = e.eval(&p).unwrap();
                let num = f.f_x_at(&p).unwrap();
                prop_assert!(
                    (sym - num).abs() <= 1e-11 * num.abs().max(1e-11),
                    "{}: F_x {} vs {}", f.name(), sym, num
                );
            }
        }
    }
}

#[test]
fn axis_refactor_adds_no_lowerings_per_cell() {
    // The typed-axis refactor must not change the compile-once contract:
    // one formula lowering per encoded cell (ψ shares the ¬ψ tape), plus at
    // most the lazily-built Newton gradient program — nothing per box, for the
    // per-spin citizens exactly like the rest of the matrix.
    let _guard = COUNTER_WINDOW.lock().unwrap();
    let cells = [
        Encoder::encode(
            std::sync::Arc::new(SpinScaledX::b88()) as FunctionalHandle,
            Condition::LiebOxfordExt,
        )
        .unwrap(),
        Encoder::encode(
            std::sync::Arc::new(SpinScaledX::pbe_x()) as FunctionalHandle,
            Condition::LiebOxford,
        )
        .unwrap(),
        Encoder::encode(Dfa::Pbe, Condition::EcNonPositivity).unwrap(),
    ];
    let before = xcverifier::solver::compile_count();
    let config = VerifierConfig {
        split_threshold: 1.25,
        solver: DeltaSolver::new(1e-3, SolveBudget::nodes(300)),
        parallel: false,
        parallel_depth: 0,
        max_depth: 2,
        pair_deadline_ms: None,
    };
    for p in &cells {
        let map = Verifier::new(config.clone()).verify(p);
        assert!(!map.regions.is_empty());
    }
    let compiles = xcverifier::solver::compile_count() - before;
    // Everything was compiled at encode time: verifying N boxes per cell
    // adds at most the once-per-formula Newton gradient build.
    assert!(
        compiles <= cells.len() as u64,
        "{compiles} lowerings while verifying {} pre-encoded cells",
        cells.len()
    );
    // And the compiled problems carry their typed spaces.
    assert_eq!(
        cells[0].compiled().var_space().unwrap().names(),
        vec!["rs", "s_up", "s_dn", "zeta"]
    );
}
