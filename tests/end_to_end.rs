//! Cross-crate integration tests: encoder → solver → verifier → baseline →
//! consistency, on coarse settings that keep CI fast while exercising the
//! same code paths as the full reproduction runs.

use xcverifier::prelude::*;

fn verifier(nodes: u64, threshold: f64) -> Verifier {
    Verifier::new(VerifierConfig {
        split_threshold: threshold,
        solver: DeltaSolver::new(1e-3, SolveBudget::nodes(nodes)),
        parallel: true,
        max_depth: 5,
        pair_deadline_ms: None,
    })
}

fn grid_cfg() -> GridConfig {
    GridConfig {
        n_rs: 80,
        n_s: 80,
        n_alpha: 3,
        n_zeta: 2,
        tol: 1e-9,
    }
}

#[test]
fn vwn_rpa_column_fully_verified() {
    // Table I, VWN RPA column: EC1, EC2, EC6 are ✓ (whole domain).
    for cond in [
        Condition::EcNonPositivity,
        Condition::EcScaling,
        Condition::TcUpperBound,
    ] {
        let p = Encoder::encode(Dfa::VwnRpa, cond).unwrap();
        let map = verifier(60_000, 0.05).verify(&p);
        assert_eq!(
            map.table_mark(),
            TableMark::Verified,
            "VWN RPA should fully verify {cond}"
        );
    }
}

#[test]
fn vwn_rpa_uc_monotonicity_verified() {
    // The paper highlights that VWN RPA verifies Uc monotonicity where other
    // functionals time out.
    let p = Encoder::encode(Dfa::VwnRpa, Condition::UcMonotonicity).unwrap();
    let map = verifier(120_000, 0.05).verify(&p);
    assert!(
        matches!(
            map.table_mark(),
            TableMark::Verified | TableMark::PartiallyVerified
        ),
        "got {:?}",
        map.table_mark()
    );
}

#[test]
fn lyp_all_five_conditions_refuted() {
    // Table I, LYP column: ✗ for every applicable condition.
    for cond in Condition::all() {
        let Ok(p) = Encoder::encode(Dfa::Lyp, cond) else {
            continue;
        };
        let map = verifier(30_000, 0.3).verify(&p);
        assert_eq!(
            map.table_mark(),
            TableMark::Counterexample,
            "LYP should be refuted on {cond}"
        );
        // Every witness must be a true violation and lie inside the domain.
        for ce in map.counterexamples() {
            assert!(!p.psi().holds_at(ce));
            assert!(
                p.domain.contains_point(ce),
                "witness outside domain: {ce:?}"
            );
        }
    }
}

#[test]
fn lyp_ec1_counterexample_region_at_large_s() {
    // Fig. 2d: counterexamples at s ≳ 1.66; everything below s ≈ 1 verified.
    let p = Encoder::encode(Dfa::Lyp, Condition::EcNonPositivity).unwrap();
    let map = verifier(60_000, 0.15).verify(&p);
    for ce in map.counterexamples() {
        assert!(ce[1] > 1.2, "EC1 violations live at large s, got {ce:?}");
    }
    // The small-s half of the domain is verified.
    assert!(matches!(
        map.status_at(&[2.5, 0.5]),
        Some(RegionStatus::Verified)
    ));
}

#[test]
fn pbe_conjectured_tc_upper_left_refuted() {
    // Fig. 1f: PBE violates EC7 in the small-rs / large-s corner and
    // satisfies it at large rs / small s.
    let p = Encoder::encode(Dfa::Pbe, Condition::ConjTcUpperBound).unwrap();
    let map = verifier(30_000, 0.3).verify(&p);
    assert_eq!(map.table_mark(), TableMark::Counterexample);
    assert!(map
        .counterexamples()
        .iter()
        .any(|c| c[0] < 2.5 && c[1] > 1.0));
}

#[test]
fn pbe_lo_extension_verified() {
    // Fig. 1e: F_xc <= 2.27 verified on the whole domain for PBE.
    let p = Encoder::encode(Dfa::Pbe, Condition::LiebOxfordExt).unwrap();
    let map = verifier(60_000, 0.3).verify(&p);
    assert!(
        matches!(
            map.table_mark(),
            TableMark::Verified | TableMark::PartiallyVerified
        ),
        "got {:?}",
        map.table_mark()
    );
    // No counterexamples, at minimum.
    assert!(map.counterexamples().is_empty());
}

#[test]
fn scan_hard_at_small_budget_but_sound() {
    // Table I SCAN column: all ? at the paper's budgets. Our ICP solver is
    // somewhat stronger on the ζ=0 SCAN (it verifies part of the domain; see
    // EXPERIMENTS.md), but at a small budget a sizable fraction must remain
    // undecided — and, by soundness, it must NOT claim a counterexample
    // (SCAN satisfies EC1 by construction).
    let p = Encoder::encode(Dfa::Scan, Condition::EcNonPositivity).unwrap();
    let v = Verifier::new(VerifierConfig {
        split_threshold: 1.25,
        solver: DeltaSolver::new(1e-3, SolveBudget::nodes(300)),
        parallel: false,
        max_depth: 2,
        pair_deadline_ms: None,
    });
    let map = v.verify(&p);
    assert_ne!(map.table_mark(), TableMark::Counterexample);
    let undecided =
        map.volume_fraction(|s| matches!(s, RegionStatus::Timeout | RegionStatus::Inconclusive));
    assert!(undecided > 0.2, "undecided fraction {undecided}");
    // And with a zero budget, everything times out (the paper's picture).
    let v0 = Verifier::new(VerifierConfig {
        split_threshold: 5.0,
        solver: DeltaSolver::new(1e-3, SolveBudget::nodes(0)),
        parallel: false,
        max_depth: 1,
        pair_deadline_ms: None,
    });
    let map0 = v0.verify(&p);
    assert_eq!(map0.table_mark(), TableMark::Unknown);
}

#[test]
fn region_maps_partition_their_domains() {
    for (dfa, cond) in [
        (Dfa::VwnRpa, Condition::EcNonPositivity),
        (Dfa::Lyp, Condition::EcScaling),
        (Dfa::Pbe, Condition::TcUpperBound),
    ] {
        let p = Encoder::encode(dfa, cond).unwrap();
        let map = verifier(5_000, 0.6).verify(&p);
        assert!(map.covers_probe_grid(7), "{dfa}/{cond} map has gaps");
    }
}

#[test]
fn table2_consistency_lyp_and_pbe() {
    // LYP rows: both methods find counterexamples in overlapping regions.
    let pr = xcverifier::report::run_pair(
        Dfa::Lyp,
        Condition::EcNonPositivity,
        &verifier(30_000, 0.3),
        &grid_cfg(),
    );
    assert_eq!(pr.consistency(), Consistency::Consistent);
    // PBE / EC5: neither finds a violation — "not inconsistent".
    let pr = xcverifier::report::run_pair(
        Dfa::Pbe,
        Condition::LiebOxfordExt,
        &verifier(60_000, 0.3),
        &grid_cfg(),
    );
    assert!(matches!(
        pr.consistency(),
        Consistency::NotInconsistent | Consistency::Consistent
    ));
}

#[test]
fn verifier_unsat_boxes_contain_no_grid_violations() {
    // Soundness cross-check between the two methods: no PB-violating grid
    // point may fall inside a verifier-verified region.
    for (dfa, cond) in [
        (Dfa::Lyp, Condition::EcNonPositivity),
        (Dfa::Lyp, Condition::EcScaling),
        (Dfa::Pbe, Condition::ConjTcUpperBound),
    ] {
        let p = Encoder::encode(dfa, cond).unwrap();
        let map = verifier(30_000, 0.3).verify(&p);
        let grid = pb_check(dfa, cond, &grid_cfg()).unwrap();
        for i in 0..grid.n_rs() {
            for j in 0..grid.n_s() {
                if !grid.pass_at(i, j) {
                    let pt = [grid.axis_samples(0)[i], grid.axis_samples(1)[j]];
                    assert!(
                        !matches!(map.status_at(&pt), Some(RegionStatus::Verified)),
                        "{dfa}/{cond}: grid violation at {pt:?} inside a verified region"
                    );
                }
            }
        }
    }
}

#[test]
fn dsl_compiled_functional_verifies_like_builder() {
    // Compile PBE correlation from its DSL source, build EC1 by hand, and
    // check the verifier agrees with the registry-built encoding.
    let mut vars = xcverifier::functionals::canonical_vars();
    let eps_c = xcverifier::expr::dsl::compile(
        xcverifier::functionals::dsl_sources::PBE_C,
        "pbe_c",
        &mut vars,
    )
    .unwrap();
    let f_c = -(eps_c * var(RS)) / xcverifier::functionals::constants::A_X;
    let psi = Atom::new(f_c, Rel::Ge);
    let negation = Formula::single(psi.negate());
    // On a domain away from the ε_c → 0 margins (rs not tiny, s moderate)
    // the solver proves EC1 for the DSL-compiled PBE outright.
    let domain = BoxDomain::from_bounds(&[(1.0, 5.0), (0.0, 2.0)]);
    let solver = DeltaSolver::new(1e-3, SolveBudget::nodes(400_000));
    assert_eq!(solver.solve(&domain, &negation), Outcome::Unsat);
    // On the full PB domain no *valid* counterexample may ever appear.
    let full = BoxDomain::from_bounds(&[(1e-4, 5.0), (0.0, 5.0)]);
    match solver.solve(&full, &negation) {
        Outcome::DeltaSat(m) => assert!(
            psi.holds_at(&m),
            "spurious exact counterexample for PBE EC1 at {m:?}"
        ),
        Outcome::Unsat | Outcome::Timeout => {}
    }
}

#[test]
fn full_applicability_matrix() {
    // 31 applicable pairs; the 4 inapplicable cells are the LO rows of the
    // exchange-free DFAs.
    let pairs = applicable_pairs();
    assert_eq!(pairs.len(), 31);
    for name in ["LYP", "VWN RPA"] {
        for cond in [Condition::LiebOxford, Condition::LiebOxfordExt] {
            assert!(!pairs.iter().any(|(f, c)| f.name() == name && *c == cond));
        }
    }
}

#[test]
fn blyp_violates_lieb_oxford_extension() {
    // Extension result: the paper's DFA set has no Lieb–Oxford violation;
    // B88 exchange (the BLYP combination) exceeds C_LO = 2.27 near the s = 5
    // edge of the PB domain — both the verifier and the grid find it.
    let p = Encoder::encode(Dfa::Blyp, Condition::LiebOxfordExt).unwrap();
    let map = verifier(60_000, 0.15).verify(&p);
    assert_eq!(map.table_mark(), TableMark::Counterexample);
    for ce in map.counterexamples() {
        assert!(ce[1] > 4.0, "LO violations live at the s edge: {ce:?}");
        assert!(!p.psi().holds_at(ce));
    }
    let grid = pb_check(Dfa::Blyp, Condition::LiebOxfordExt, &grid_cfg()).unwrap();
    assert!(
        !grid.satisfied(),
        "grid should also flag B88's LO violation"
    );
    let (s0, _) = grid.violation_bbox().unwrap()[1];
    assert!(s0 > 4.0, "grid violations start near the edge, got s={s0}");
}
