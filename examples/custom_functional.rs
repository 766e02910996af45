//! Verify a *user-supplied* functional: write the DFA in the Python-subset
//! DSL (the form XCEncoder consumes after Maple translation), register it as
//! a first-class citizen of the functional registry, and run an exact-
//! condition campaign over it — no grid, no sampling, no enum variant added.
//!
//! ```sh
//! cargo run --release --example custom_functional
//! ```
//!
//! Two variants of a Wigner-like correlation functional are checked: a
//! correct one (ε_c = -a/(b + rs), negative everywhere) and a "buggy build"
//! with a wrong sign in the gradient correction, the kind of implementation
//! defect the paper's approach is designed to catch.

use std::sync::Arc;
use xcverifier::functionals::functional::info;
use xcverifier::prelude::*;

const GOOD: &str = "\
def wigner_c(rs, s):
    a = 0.44
    b = 7.8
    damp = 1 / (1 + 0.5 * s ** 2)
    return -a / (b + rs) * damp
";

// The damping term's sign is flipped: at large s the correlation energy
// becomes positive — a violation of E_c non-positivity.
const BUGGY: &str = "\
def wigner_c(rs, s):
    a = 0.44
    b = 7.8
    damp = 1 - 0.5 * s ** 2
    return -a / (b + rs) * damp
";

fn main() {
    // 1. Compile both builds from DSL source and register them. From here
    //    on they are indistinguishable from the built-in DFAs.
    let mut registry = Registry::empty();
    for (name, src) in [("wigner(correct)", GOOD), ("wigner(buggy)", BUGGY)] {
        let f = DslFunctional::new(
            info(name, Family::Gga, Design::Empirical, false, true),
            src,
            "wigner_c",
        )
        .expect("DSL compiles");
        registry.register(Arc::new(f)).expect("unique name");
    }

    // 2. Campaign: EC1 over both builds, counterexamples streamed as found.
    println!("Checking E_c non-positivity (EC1) for two DSL-defined functionals:\n");
    let report = Campaign::builder()
        .registry(&registry)
        .conditions([Condition::EcNonPositivity])
        .config(VerifierConfig {
            split_threshold: 0.3,
            solver: DeltaSolver::new(1e-4, SolveBudget::nodes(50_000)),
            parallel: true,
            max_depth: 5,
            pair_deadline_ms: Some(10_000),
        })
        .on_event(|e| {
            if let CampaignEvent::CounterexampleFound {
                functional,
                witness,
                ..
            } = e
            {
                println!(
                    "  {functional}: counterexample at rs={:.4}, s={:.4} \
                     (ε_c > 0 there — implementation violates EC1)",
                    witness[0], witness[1]
                );
            }
        })
        .build()
        .expect("non-empty campaign")
        .run();

    // 3. Verdicts.
    println!();
    for name in registry.names() {
        let mark = report
            .mark(&name, Condition::EcNonPositivity)
            .expect("cell exists");
        let verdict = match mark {
            TableMark::Verified => "VERIFIED — E_c <= 0 holds on the whole domain",
            TableMark::PartiallyVerified => "partially verified (rest undecided)",
            TableMark::Counterexample => "REFUTED — counterexamples above",
            _ => "undecided at this budget",
        };
        println!("{name:16} -> {mark:3}  {verdict}");
    }
}
