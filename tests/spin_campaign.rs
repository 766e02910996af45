//! Spin-resolved (ζ ≠ 0) functionals as first-class registry citizens,
//! verified through the `Campaign` engine: the ζ-general matrix flows
//! through `applicable_pairs_in`, the encoder, the compiled-tape solver and
//! the campaign scheduler exactly like the paper's ζ = 0 workload, and the
//! marks agree with the direct solver runs of `tests/spin_conditions.rs`.
//!
//! The compile-once counter assertions live here too, so (as in
//! `tests/compile_once.rs`) they run in their own test binary; every test
//! takes the window mutex because each of them compiles formulas.

use std::sync::Mutex;
use xcverifier::prelude::*;

/// Serialize the tests: they share the process-wide compile counter.
static COUNTER_WINDOW: Mutex<()> = Mutex::new(());

fn quick_config(nodes: u64) -> VerifierConfig {
    VerifierConfig {
        split_threshold: 1.25,
        solver: DeltaSolver::new(1e-3, SolveBudget::nodes(nodes)),
        parallel: false,
        parallel_depth: 0,
        max_depth: 2,
        pair_deadline_ms: None,
    }
}

/// The spin subset every test below runs: first-derivative conditions and
/// the Lieb–Oxford pair (EC3's second derivative of the ζ-general PBE DAG
/// is exercised by `encode_all_spin` in the encoder suite; keeping it out of
/// the repeated campaign runs keeps tier-1 fast).
fn spin_conditions() -> [Condition; 4] {
    [
        Condition::EcNonPositivity,
        Condition::EcScaling,
        Condition::LiebOxford,
        Condition::LiebOxfordExt,
    ]
}

#[test]
fn spin_registry_shape() {
    let _guard = COUNTER_WINDOW.lock().unwrap();
    let r = Registry::spin();
    assert_eq!(
        r.names(),
        vec!["PBE(ζ)", "PW92(ζ)", "LSDA-X(ζ)", "B88(ζ)", "PBE-X(ζ)"]
    );
    // 5 correlation conditions × 2 correlation citizens + 2 LO conditions
    // for each of the 3 exchange citizens.
    assert_eq!(applicable_pairs_in(&r).len(), 16);
    for f in r.iter() {
        assert_eq!(f.arity(), 4, "{}", f.name());
        let space = f.var_space();
        assert!(space.is_spin_resolved(), "{}", f.name());
        let d = pb_domain(f.as_ref());
        assert_eq!(d.ndim(), 4);
        // Whatever the middle axes are (s, α or s↑, s↓), ζ is axis 3.
        assert_eq!(space.find(AxisKind::Zeta).unwrap().index, 3);
        assert_eq!(d.dim(3).lo, -1.0);
        assert_eq!(d.dim(3).hi, 1.0);
    }
    // The per-spin exchange citizens present s↑/s↓ where the scalar-factor
    // ones present s/α.
    let b88 = r.get("B88(ζ)").unwrap();
    assert_eq!(b88.var_space().names(), vec!["rs", "s_up", "s_dn", "zeta"]);
    assert!(r
        .get("PBE(ζ)")
        .unwrap()
        .var_space()
        .contains(AxisKind::Alpha));
    // The spin-general workload registry: 8 module entries + 5 ζ citizens.
    assert_eq!(Registry::spin_general().len(), 13);
}

#[test]
fn zeta_zero_restriction_matches_base_functionals() {
    let _guard = COUNTER_WINDOW.lock().unwrap();
    use xcverifier::functionals::{pbe, pw92};
    let spbe = SpinResolved::pbe();
    let spw = SpinResolved::pw92();
    let sb88 = SpinScaledX::b88();
    let spbex = SpinScaledX::pbe_x();
    for &(rs, s) in &[(0.5, 0.5), (1.0, 1.0), (3.0, 2.0)] {
        assert!((spbe.eps_c(rs, s, 0.0) - pbe::eps_c(rs, s)).abs() < 1e-13);
        assert!((spw.eps_c(rs, s, 0.0) - pw92::eps_c(rs)).abs() < 1e-15);
        // Per-spin exchange at ζ = 0, s↑ = s↓ = s is the base 3-arg F_x.
        use xcverifier::functionals::b88;
        assert_eq!(sb88.f_x(s, 0.0), Some(b88::f_x(s)));
        assert_eq!(spbex.f_x(s, 0.0), Some(pbe::f_x(s)));
        assert!((sb88.f_x_at(&[rs, s, s, 0.0]).unwrap() - b88::f_x(s)).abs() < 1e-15);
    }
    // The full spin surface is reachable through the point interface, and
    // agrees with the symbolic DAG the encoder verifies (the spin analogue
    // of the registry-wide agreement test).
    for f in Registry::spin().iter() {
        let eps = f.eps_c_expr();
        let fx = f.f_x_expr();
        for &rs in &[0.3, 1.0, 4.0] {
            for &s in &[0.0, 1.5, 4.0] {
                for &z in &[-0.9, -0.3, 0.0, 0.6, 1.0] {
                    let p = [rs, s, 0.0, z];
                    let sym = eps.eval(&p).unwrap();
                    let num = f.eps_c_at(&p);
                    assert!(
                        (sym - num).abs() <= 1e-10 * num.abs().max(1e-10),
                        "{}: ε_c DAG {sym} vs scalar {num} at {p:?}",
                        f.name()
                    );
                    if let (Some(e), Some(v)) = (&fx, f.f_x_at(&p)) {
                        let sym = e.eval(&p).unwrap();
                        assert!(
                            (sym - v).abs() <= 1e-12 * v.abs().max(1e-12),
                            "{}: F_x DAG {sym} vs scalar {v} at {p:?}",
                            f.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn spin_campaign_marks_match_direct_verifier() {
    let _guard = COUNTER_WINDOW.lock().unwrap();
    let report = Campaign::builder()
        .registry(&Registry::spin())
        .conditions(spin_conditions())
        .config(quick_config(800))
        .build()
        .unwrap()
        .run();
    assert_eq!(report.pairs.len(), 20);
    // Every cell that ran must reproduce the direct (pre-campaign) solver
    // path bit for bit: same encoding, same config, same mark.
    let mut compared = 0;
    for p in &report.pairs {
        if p.skipped.is_some() {
            assert_eq!(p.skipped, Some(SkipReason::NotApplicable));
            continue;
        }
        let problem = Encoder::encode(&p.functional, p.condition).unwrap();
        let direct = Verifier::new(quick_config(800)).verify(&problem);
        assert_eq!(
            p.mark,
            direct.table_mark(),
            "{} / {}",
            p.functional_name(),
            p.condition
        );
        compared += 1;
    }
    // EC1 + EC2 for each correlation citizen, LO + LO-ext for each of the
    // three exchange citizens (per-spin s↑/s↓ cells included).
    assert_eq!(compared, 10);
}

#[test]
fn spin_campaign_agrees_with_standalone_spin_tests() {
    let _guard = COUNTER_WINDOW.lock().unwrap();
    let report = Campaign::builder()
        .registry(&Registry::spin())
        .conditions(spin_conditions())
        .config(quick_config(2_000))
        .build()
        .unwrap()
        .run();
    // tests/spin_conditions.rs: the LSDA exchange scaling factor is >= 1 and
    // <= 2^{1/3} — far below the Lieb–Oxford constant, so both LO cells are
    // proven outright.
    assert_eq!(
        report.mark("LSDA-X(ζ)", Condition::LiebOxford),
        Some(TableMark::Verified)
    );
    assert_eq!(
        report.mark("LSDA-X(ζ)", Condition::LiebOxfordExt),
        Some(TableMark::Verified)
    );
    // tests/spin_conditions.rs: spin-general EC1/EC2 admit no *valid*
    // counterexample for the PW92 and PBE correlations.
    for name in ["PW92(ζ)", "PBE(ζ)"] {
        for cond in [Condition::EcNonPositivity, Condition::EcScaling] {
            let mark = report.mark(name, cond).unwrap();
            assert_ne!(mark, TableMark::Counterexample, "{name} / {cond:?}");
            assert_ne!(mark, TableMark::NotApplicable, "{name} / {cond:?}");
        }
    }
    // The spin-scaled PBE exchange stays below C_LO at every polarization
    // (max 2^{1/3}·F_x(5) ≈ 2.14): no valid counterexample can exist.
    for cond in [Condition::LiebOxford, Condition::LiebOxfordExt] {
        let mark = report.mark("PBE-X(ζ)", cond).unwrap();
        assert_ne!(mark, TableMark::Counterexample, "PBE-X(ζ) / {cond:?}");
        assert_ne!(mark, TableMark::NotApplicable, "PBE-X(ζ) / {cond:?}");
    }
    // B88(ζ) genuinely violates: whatever the budget decides here, its LO
    // cells ran (the targeted solver test below pins the violation itself).
    assert_ne!(
        report.mark("B88(ζ)", Condition::LiebOxfordExt),
        Some(TableMark::NotApplicable)
    );
    // And any witness the campaign ever reports must exactly violate ψ.
    let registry = Registry::spin();
    for (name, cond, w) in report.counterexamples() {
        let f = registry.get(&name).unwrap();
        assert!(
            !cond.holds_at(f.as_ref(), &w).unwrap(),
            "{name} / {cond:?}: spurious witness {w:?}"
        );
    }
}

#[test]
fn spin_campaign_compiles_once_per_cell() {
    let _guard = COUNTER_WINDOW.lock().unwrap();
    let before = xcverifier::solver::compile_count();
    let report = Campaign::builder()
        .registry(&Registry::spin())
        .conditions([Condition::EcNonPositivity, Condition::LiebOxfordExt])
        .config(quick_config(300))
        .build()
        .unwrap()
        .run();
    let compiles = xcverifier::solver::compile_count() - before;
    let cells = report.encoded_pairs() as u64;
    // EC1 for the two correlation citizens, LO-ext for the three exchange
    // citizens.
    assert_eq!(cells, 5);
    // ψ shares the ¬ψ tape (PR 3), so each encoded cell lowers once; allow
    // the lazily-built Newton gradient program on top, nothing per box.
    assert!(
        compiles <= 2 * cells,
        "{compiles} compilations for {cells} spin cells"
    );
    let solved: u64 = report
        .pairs
        .iter()
        .filter_map(|p| p.map.as_ref())
        .map(|m| m.regions.len() as u64)
        .sum();
    assert!(
        solved >= cells,
        "every encoded cell solved at least one box"
    );
}

#[test]
fn spin_scheduling_costs_rank_above_scalar_lda() {
    let _guard = COUNTER_WINDOW.lock().unwrap();
    // `pair_cost` drives costliest-first dispatch: a 4-D spin pair must
    // outrank the 1-D LDA pair of the same condition, and SCAN/EC3 stays the
    // heaviest cell of the spin-general matrix.
    let spin_pbe = SpinResolved::pbe();
    let lda = Dfa::VwnRpa;
    assert!(
        pair_cost(&spin_pbe, Condition::EcNonPositivity)
            > pair_cost(&lda, Condition::EcNonPositivity)
    );
    let scan = Dfa::Scan;
    let max_cost = Registry::spin_general()
        .iter()
        .flat_map(|f| {
            Condition::all()
                .into_iter()
                .map(move |c| pair_cost(f.as_ref(), c))
        })
        .max()
        .unwrap();
    assert_eq!(max_cost, pair_cost(&scan, Condition::UcMonotonicity));
    // The report records the modeled cost on every outcome.
    let report = Campaign::builder()
        .functionals([Dfa::VwnRpa])
        .conditions([Condition::EcNonPositivity])
        .config(quick_config(200))
        .build()
        .unwrap()
        .run();
    assert_eq!(
        report.pairs[0].cost,
        pair_cost(&lda, Condition::EcNonPositivity)
    );
}
