//! The paper's Section VI-A hypothesis, tested: SCAN's verification
//! intractability comes from the essential singularity in its α-switch, so a
//! regularized SCAN (the rSCAN family) should be decidable where SCAN is not.
//!
//! ```sh
//! cargo run --release --example scan_regularization
//! ```
//!
//! Runs the same condition at the same solver budget against SCAN and the
//! rSCAN-style regularized variant, and reports how much of the domain each
//! one decides.

use xcverifier::prelude::*;

fn main() {
    let cond = Condition::EcNonPositivity;
    let verifier = Verifier::new(VerifierConfig {
        split_threshold: 0.7,
        solver: DeltaSolver::new(1e-3, SolveBudget::millis(60)),
        parallel: true,
        max_depth: 3,
        pair_deadline_ms: Some(30_000),
    });

    println!("condition: {cond}");
    println!("budget   : 60 ms per box, 30 s per functional\n");
    let mut decided_fracs = Vec::new();
    for dfa in [Dfa::Scan, Dfa::RScan] {
        let problem = Encoder::encode(dfa, cond).expect("applies to meta-GGAs");
        let t0 = std::time::Instant::now();
        let map = verifier.verify(&problem);
        let decided = map.volume_fraction(|s| {
            matches!(s, RegionStatus::Verified | RegionStatus::Counterexample(_))
        });
        decided_fracs.push(decided);
        println!(
            "{dfa:11} -> {:4} | decided {:5.1}% of the (rs, s, α) volume in {:.1?}",
            map.table_mark().symbol(),
            100.0 * decided,
            t0.elapsed()
        );
    }
    println!(
        "\nregularization gain: {:+.1} percentage points of decided volume",
        100.0 * (decided_fracs[1] - decided_fracs[0])
    );
    println!(
        "(the paper's dReal decided 0% of SCAN and conjectured regularization\n\
         would help; for an ICP solver the exponential switch is already\n\
         interval-benign, while rSCAN's degree-7 polynomial in α' suffers the\n\
         dependency problem — see EXPERIMENTS.md)"
    );
}
