//! Campaign regression tests — the acceptance criteria of the batch
//! engine redesign:
//!
//! * a campaign over the paper's five DFAs × seven conditions encodes
//!   exactly 31 pairs and produces the same `TableMark` per pair as the old
//!   per-pair `Encoder::encode` → `Verifier::verify` path;
//! * a DSL-defined functional registered at runtime flows through the same
//!   campaign machinery without touching the `Dfa` enum;
//! * behind a shared `ProblemCache`, a cell solved through a problem that
//!   another functional encoded keeps its own name in the report and the
//!   checkpoint.

use std::sync::Arc;
use xcverifier::core::ProblemCache;
use xcverifier::functionals::functional::info;
use xcverifier::prelude::*;

fn coarse_config(nodes: u64) -> VerifierConfig {
    VerifierConfig {
        split_threshold: 1.25,
        solver: DeltaSolver::new(1e-3, SolveBudget::nodes(nodes)),
        parallel: false,
        max_depth: 3,
        pair_deadline_ms: None,
    }
}

/// Very coarse but fully deterministic settings (node budget only, no
/// wall-clock deadlines) so the campaign-vs-direct comparison is exact and
/// the double full-matrix run stays fast in debug builds.
fn matrix_config() -> VerifierConfig {
    VerifierConfig {
        split_threshold: 2.0,
        solver: DeltaSolver::new(1e-3, SolveBudget::nodes(1_200)),
        parallel: false,
        max_depth: 2,
        pair_deadline_ms: None,
    }
}

#[test]
fn campaign_matches_per_pair_path_on_the_paper_matrix() {
    let config = matrix_config();
    let report = Campaign::builder()
        .registry(&Registry::builtin())
        .config(config.clone())
        .build()
        .unwrap()
        .run();

    // 5 × 7 = 35 cells, 31 of them encoded (the 4 LO cells of the
    // exchange-free DFAs are `−`).
    assert_eq!(report.pairs.len(), 35);
    assert_eq!(report.encoded_pairs(), 31);

    // Regression: every cell's mark equals the old per-pair path run with
    // the identical verifier config.
    let verifier = Verifier::new(config);
    for dfa in Dfa::all() {
        for cond in Condition::all() {
            let expected = match Encoder::encode(dfa, cond) {
                Ok(p) => verifier.verify(&p).table_mark(),
                Err(_) => TableMark::NotApplicable,
            };
            assert_eq!(
                report.mark(&dfa.to_string(), cond),
                Some(expected),
                "{dfa}/{cond}: campaign disagrees with per-pair path"
            );
        }
    }
}

#[test]
fn runtime_dsl_functional_runs_through_the_same_campaign() {
    // The "buggy build" from the custom_functional example: the damping
    // term's sign is flipped, so ε_c > 0 at large s — an EC1 violation the
    // campaign must find with zero enum involvement.
    const BUGGY: &str = "\
def wigner_c(rs, s):
    a = 0.44
    b = 7.8
    damp = 1 - 0.5 * s ** 2
    return -a / (b + rs) * damp
";
    const GOOD: &str = "\
def wigner_c(rs, s):
    a = 0.44
    b = 7.8
    damp = 1 / (1 + 0.5 * s ** 2)
    return -a / (b + rs) * damp
";
    let mut registry = Registry::empty();
    for (name, src) in [("wigner-good", GOOD), ("wigner-buggy", BUGGY)] {
        let f = DslFunctional::new(
            info(name, Family::Gga, Design::Empirical, false, true),
            src,
            "wigner_c",
        )
        .unwrap();
        registry.register(Arc::new(f)).unwrap();
    }

    let report = Campaign::builder()
        .registry(&registry)
        .conditions([Condition::EcNonPositivity])
        .config(coarse_config(30_000))
        .build()
        .unwrap()
        .run();

    assert_eq!(report.encoded_pairs(), 2);
    assert_eq!(
        report.mark("wigner-buggy", Condition::EcNonPositivity),
        Some(TableMark::Counterexample),
        "the flipped-sign build must be refuted"
    );
    // The witness must genuinely violate EC1 for the DSL functional.
    let buggy = registry.get("wigner-buggy").unwrap();
    for (name, _, w) in report.counterexamples() {
        assert_eq!(name, "wigner-buggy");
        assert!(buggy.eps_c(w[0], w[1], 0.0) > 0.0, "witness {w:?}");
    }
    // The correct build is never refuted (verified or undecided at this
    // budget, but no counterexample).
    assert_ne!(
        report.mark("wigner-good", Condition::EcNonPositivity),
        Some(TableMark::Counterexample)
    );
    // And the report renders as a table with the runtime columns.
    let md = Table1::from_campaign(&report).render_markdown();
    assert!(
        md.contains("wigner-good") && md.contains("wigner-buggy"),
        "{md}"
    );
}

#[test]
fn shared_problem_cache_keeps_each_cells_own_name() {
    // LYP is correlation-only and BLYP's correlation is LYP's, so their
    // correlation cells have one content key: behind a shared cache, BLYP
    // solves through the problems LYP encoded. Names, marks and checkpoint
    // keys must match a campaign that encodes every cell itself.
    let registry = Registry::extended();
    let functionals = ["LYP", "BLYP"].map(|n| registry.get(n).unwrap());
    let config = coarse_config(300);
    let plain = Campaign::builder()
        .functionals(functionals.clone())
        .config(config.clone())
        .build()
        .unwrap()
        .run();

    let cache = Arc::new(ProblemCache::new());
    let checkpoint =
        std::env::temp_dir().join(format!("xcv_shared_names_{}.json", std::process::id()));
    std::fs::remove_file(&checkpoint).ok();
    let cached = Campaign::builder()
        .functionals(functionals)
        .config(config)
        .problem_cache(Arc::clone(&cache))
        .checkpoint(&checkpoint)
        .build()
        .unwrap()
        .run();
    let persisted = checkpoint_marks(&checkpoint);
    std::fs::remove_file(&checkpoint).ok();

    assert_eq!(cache.stats(), (5, 7), "BLYP reuses LYP's five problems");
    let cells = |r: &CampaignReport| -> Vec<(String, Condition, TableMark)> {
        r.pairs
            .iter()
            .map(|p| (p.functional_name(), p.condition, p.mark))
            .collect()
    };
    assert_eq!(cells(&cached), cells(&plain));
    let mut solved: Vec<_> = cells(&cached)
        .into_iter()
        .filter(|(_, _, m)| *m != TableMark::NotApplicable)
        .collect();
    let mut persisted = persisted.expect("readable checkpoint");
    let order = |c: &(String, Condition, TableMark)| (c.0.clone(), c.1.name());
    solved.sort_by_key(order);
    persisted.sort_by_key(order);
    assert_eq!(persisted, solved, "checkpoint keys follow each cell's name");
}
