//! The ζ-aware grid baseline on spin-resolved citizens, end to end: the PB
//! checker meshes 4-D variable spaces (including the per-spin
//! `(rs, s↑, s↓, ζ)` exchange space), its per-axis violation boxes line up
//! with the solver's witnesses, and the Table II consistency classifier
//! compares the two methods on full-dimensional probe points.

use xcverifier::prelude::*;
use xcverifier::report::classify;

fn grid_cfg() -> GridConfig {
    GridConfig {
        n_rs: 40,
        n_s: 9,
        n_alpha: 9,
        n_zeta: 9,
        tol: 1e-9,
    }
}

fn verifier(nodes: u64) -> Verifier {
    Verifier::new(VerifierConfig {
        split_threshold: 1.25,
        solver: DeltaSolver::new(1e-3, SolveBudget::nodes(nodes)),
        parallel: false,
        max_depth: 2,
        pair_deadline_ms: None,
    })
}

#[test]
fn b88_spin_grid_finds_the_violation_with_4d_bbox() {
    let f = std::sync::Arc::new(SpinScaledX::b88());
    let grid = pb_check(f, Condition::LiebOxfordExt, &grid_cfg()).unwrap();
    assert_eq!(grid.ndim(), 4);
    assert_eq!(grid.space.names(), vec!["rs", "s_up", "s_dn", "zeta"]);
    assert!(!grid.satisfied(), "B88(ζ) violates EC5 on the mesh");
    let bb = grid.violation_bbox().unwrap();
    assert_eq!(bb.len(), 4, "per-axis bounds for every axis of the space");
    // The violation needs a large gradient on a weighted channel and spans
    // the polarized edges.
    assert!(bb[1].1 >= 4.9 || bb[2].1 >= 4.9, "{bb:?}");
    assert!(bb[3].1 >= 0.99, "{bb:?}");
    // Every violating mesh point must exactly violate ψ per the symbolic
    // encoding — grid and encoder agree on what the condition *is*.
    let p = Encoder::encode(grid.functional.clone(), Condition::LiebOxfordExt).unwrap();
    let mut checked = 0;
    for i in 0..grid.n_rs() {
        for j in 0..grid.n_s() {
            if !grid.pass_at(i, j) {
                for point in grid.cell_points(i, j) {
                    if !grid.pass_at_index(&[
                        i,
                        j,
                        grid.axis_samples(2)
                            .iter()
                            .position(|&x| x == point[2])
                            .unwrap(),
                        grid.axis_samples(3)
                            .iter()
                            .position(|&x| x == point[3])
                            .unwrap(),
                    ]) {
                        assert!(
                            !p.psi().holds_at(&point),
                            "grid flagged a point ψ accepts: {point:?}"
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 0);
}

#[test]
fn spin_grid_agrees_with_verifier_marks() {
    // Table II on 4-D cells: grid and verifier must never contradict.
    let cases: [(FunctionalHandle, Condition); 3] = [
        (
            std::sync::Arc::new(SpinScaledX::pbe_x()),
            Condition::LiebOxfordExt,
        ),
        (
            std::sync::Arc::new(SpinResolved::lsda_x()),
            Condition::LiebOxford,
        ),
        (
            std::sync::Arc::new(SpinScaledX::b88()),
            Condition::LiebOxfordExt,
        ),
    ];
    for (f, cond) in cases {
        let name = f.name();
        let grid = pb_check(f.clone(), cond, &grid_cfg()).unwrap();
        let problem = Encoder::encode(f, cond).unwrap();
        let map = verifier(2_000).verify(&problem);
        let c = classify(&map, &grid);
        assert_ne!(
            c,
            xcverifier::report::Consistency::Inconsistent,
            "{name}/{cond}: 4-D grid and verifier contradict"
        );
    }
}

#[test]
fn scalar_factor_spin_grid_meshes_zeta() {
    // PW92(ζ): ε_c < 0 at every polarization — EC1 passes across the whole
    // 4-D mesh, which includes the ζ = ±1 edges the old 2-D slicing never
    // sampled.
    let f = std::sync::Arc::new(SpinResolved::pw92());
    let grid = pb_check(f, Condition::EcNonPositivity, &grid_cfg()).unwrap();
    assert_eq!(grid.ndim(), 4);
    assert_eq!(grid.axis_samples(3).first(), Some(&-1.0));
    assert_eq!(grid.axis_samples(3).last(), Some(&1.0));
    assert!(grid.satisfied());
}
