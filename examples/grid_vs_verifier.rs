//! Reproduce one cell of the paper's Table II: run both the Pederson–Burke
//! grid search and the formal verifier on the same DFA-condition pair and
//! classify their agreement.
//!
//! ```sh
//! cargo run --release --example grid_vs_verifier
//! ```
//!
//! The pair chosen (PBE vs the conjectured `T_c` upper bound, EC7) is the one
//! the paper highlights in Figure 1c/1f: both methods find a violation region
//! covering the upper-left (small `rs`, large `s`) diagonal of the domain.

use xcverifier::prelude::*;

fn main() {
    let dfa = Dfa::Pbe;
    let cond = Condition::ConjTcUpperBound;

    // --- Pederson–Burke grid search (numerical derivatives) ---
    let grid_cfg = GridConfig {
        n_rs: 200,
        n_s: 200,
        n_alpha: 9,
        n_zeta: 2,
        tol: 1e-9,
    };
    let grid = pb_check(dfa, cond, &grid_cfg).expect("applicable");
    println!("=== PB grid search: {dfa} / {cond} ===");
    println!("{}", ascii_grid_map(&grid, 60, 20));
    match grid.violation_bbox() {
        Some(bb) => {
            // Per-axis bounds, labeled by the typed variable space.
            let box_str: Vec<String> = grid
                .space
                .axes()
                .iter()
                .zip(&bb)
                .map(|(ax, (lo, hi))| format!("{} ∈ [{lo:.2}, {hi:.2}]", ax.name))
                .collect();
            println!(
                "grid: {} of {} points violate; bounding box {}",
                grid.n_violations(),
                grid.pass.len(),
                box_str.join(", ")
            );
        }
        None => println!("grid: no violations found"),
    }

    // --- XCVerifier (formal, interval-based) ---
    let verifier = Verifier::new(VerifierConfig {
        split_threshold: 0.3,
        solver: DeltaSolver::new(1e-3, SolveBudget::millis(80)),
        parallel: true,
        max_depth: 5,
        pair_deadline_ms: None,
    });
    let problem = Encoder::encode(dfa, cond).unwrap();
    let map = verifier.verify(&problem);
    println!("\n=== XCVerifier: {dfa} / {cond} ===");
    println!("{}", ascii_region_map(&map, 60, 20));
    println!("verifier verdict: {}", map.table_mark());

    // --- Table II classification ---
    let agreement = classify(&map, &grid);
    println!("\nTable II cell: {agreement}  (C = consistent, C* = not inconsistent)");
    assert_eq!(
        agreement,
        Consistency::Consistent,
        "the paper reports consistent counterexample regions for this pair"
    );
}
