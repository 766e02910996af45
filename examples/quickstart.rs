//! Quickstart: verify one exact condition for one functional.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Encodes the `E_c` non-positivity condition (EC1) for the PBE correlation
//! functional, runs the domain-splitting verifier over the Pederson–Burke
//! domain, and prints the resulting region map and verdict.

use xcverifier::prelude::*;

fn main() {
    // 1. Pick a functional and a condition, and encode the local condition
    //    ψ together with its negation ¬ψ (what the δ-complete solver will
    //    try to satisfy) over the PB domain rs ∈ [1e-4, 5], s ∈ [0, 5].
    let problem = Encoder::encode(Dfa::Pbe, Condition::EcNonPositivity)
        .expect("EC1 applies to every correlation functional");
    println!("functional : {}", problem.functional_name());
    println!("condition  : {}", problem.condition);
    println!(
        "psi        : {}",
        truncate(&format!("{}", problem.psi()), 100)
    );
    println!("domain     : {}", problem.domain);
    println!();

    // 2. Configure Algorithm 1: per-box solver budget, δ, recursion floor.
    let verifier = Verifier::new(VerifierConfig {
        split_threshold: 0.3,
        solver: DeltaSolver::new(1e-3, SolveBudget::millis(100)),
        parallel: true,
        max_depth: 5,
        pair_deadline_ms: None,
    });

    // 3. Verify; the result is a partition of the domain into verified /
    //    counterexample / inconclusive / timeout regions.
    let map = verifier.verify(&problem);
    println!("{}", ascii_region_map(&map, 64, 24));
    println!(
        "verdict: {}  (+ verified, x counterexample, ? inconclusive, T timeout)",
        map.table_mark()
    );
    println!(
        "verified volume: {:.1}%",
        100.0 * map.volume_fraction(|s| matches!(s, RegionStatus::Verified))
    );
    for ce in map.counterexamples().into_iter().take(3) {
        println!("counterexample at rs={:.4}, s={:.4}", ce[0], ce[1]);
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n])
    }
}
