//! Full 35-cell matrix smoke test: every DFA-condition pair is encoded,
//! verified at a tiny budget, and rendered — the complete Table I / Table II
//! pipeline end to end (the repro binary runs the same code at full budget).

use xcverifier::prelude::*;
use xcverifier::report::{run_table1, run_table2};

fn tiny_verifier() -> Verifier {
    Verifier::new(VerifierConfig {
        split_threshold: 2.0,
        solver: DeltaSolver::new(1e-3, SolveBudget::nodes(1_500)),
        parallel: true,
        max_depth: 2,
        pair_deadline_ms: Some(2_000),
    })
}

#[test]
fn table1_full_matrix_renders_and_is_sound() {
    let t1 = run_table1(&tiny_verifier());
    assert_eq!(t1.cells.len(), 35);
    // 4 inapplicable cells.
    assert_eq!(t1.count(|m| m == TableMark::NotApplicable), 4);
    // Category counts partition the table.
    let total: usize = [
        t1.count(|m| m == TableMark::Verified),
        t1.count(|m| m == TableMark::PartiallyVerified),
        t1.count(|m| m == TableMark::Counterexample),
        t1.count(|m| m == TableMark::Unknown),
        t1.count(|m| m == TableMark::NotApplicable),
    ]
    .iter()
    .sum();
    assert_eq!(total, 35);
    // Soundness at any budget: the by-construction-satisfied pairs must
    // never be refuted.
    for (dfa, cond) in [
        ("PBE", Condition::EcNonPositivity),
        ("SCAN", Condition::EcNonPositivity),
        ("AM05", Condition::EcNonPositivity),
        ("VWN RPA", Condition::EcScaling),
        ("PBE", Condition::LiebOxfordExt),
    ] {
        assert_ne!(
            t1.mark(dfa, cond),
            Some(TableMark::Counterexample),
            "{dfa}/{cond} wrongly refuted"
        );
    }
    // Rendering: 7 condition rows + header + separator + title lines.
    let md = t1.render_markdown();
    assert_eq!(md.matches("Equation").count(), 7);
    for name in ["PBE", "LYP", "AM05", "SCAN", "VWN RPA"] {
        assert!(md.contains(name));
    }
}

#[test]
fn table2_full_matrix_never_inconsistent() {
    // At any budget the two methods must never contradict: that would mean
    // either an unsound Unsat (interval bug) or a grid violation inside a
    // verified region.
    let grid = GridConfig {
        n_rs: 50,
        n_s: 50,
        n_alpha: 3,
        n_zeta: 2,
        tol: 1e-9,
    };
    let t2 = run_table2(&tiny_verifier(), &grid);
    assert_eq!(t2.cells.len(), 35);
    for (dfa, cond, c) in &t2.cells {
        assert_ne!(
            *c,
            Consistency::Inconsistent,
            "{dfa}/{cond} inconsistent between verifier and grid"
        );
        // VerifierOnly is allowed (the grid can under-sample a thin
        // violating band) but only for pairs where a genuine violation
        // exists — never for the by-construction clean EC1 of the
        // non-empirical DFAs.
        if *c == Consistency::VerifierOnly {
            assert_ne!(*cond, Condition::EcNonPositivity, "{dfa}");
        }
    }
    let md = t2.render_markdown();
    assert!(md.contains("Table II"));
}
