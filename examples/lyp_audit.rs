//! Audit an empirical functional: run every applicable exact condition
//! against LYP and map out exactly where its implementation violates each
//! one — the workload behind the paper's Figure 2.
//!
//! ```sh
//! cargo run --release --example lyp_audit
//! ```

use xcverifier::prelude::*;

fn main() {
    let verifier = Verifier::new(VerifierConfig {
        split_threshold: 0.3,
        solver: DeltaSolver::new(1e-3, SolveBudget::millis(80)),
        parallel: true,
        max_depth: 5,
        pair_deadline_ms: None,
    });

    println!("=== LYP condition audit (domain: rs ∈ [1e-4, 5], s ∈ [0, 5]) ===\n");
    let mut violated = 0usize;
    let mut applicable = 0usize;
    for cond in Condition::all() {
        let Ok(problem) = Encoder::encode(Dfa::Lyp, cond) else {
            println!("{cond}: not applicable (LYP has no exchange part)\n");
            continue;
        };
        applicable += 1;
        let map = verifier.verify(&problem);
        println!("--- {cond}: {} ---", map.table_mark());
        println!("{}", ascii_region_map(&map, 56, 14));
        if map.table_mark() == TableMark::Counterexample {
            violated += 1;
            // Summarize the violating band the way the paper does
            // ("counterexamples at s > 1.6563").
            let ces = map.counterexamples();
            let s_min = ces.iter().map(|c| c[1]).fold(f64::INFINITY, f64::min);
            let rs_min = ces.iter().map(|c| c[0]).fold(f64::INFINITY, f64::min);
            let rs_max = ces.iter().map(|c| c[0]).fold(0.0_f64, f64::max);
            println!(
                "violations: s > {s_min:.2}, rs ∈ [{rs_min:.2}, {rs_max:.2}] \
                 ({} witness boxes)\n",
                ces.len()
            );
        } else {
            println!();
        }
    }
    println!(
        "LYP violates {violated} of {applicable} applicable conditions \
         (paper: all five)."
    );
}
