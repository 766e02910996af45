//! Reproduction presets: the verifier configurations behind the `repro`,
//! `xcverify`, and `xcvserve` binaries.
//!
//! They live here, beside the verifier, so that the verification daemon
//! answering a "gate-policy" query derives the *same* per-functional
//! configuration the in-process CLI path derives — parity by construction,
//! not by keeping two copies in sync.

use crate::VerifierConfig;
use xcv_functionals::{Family, Functional};
use xcv_solver::{DeltaSolver, SolveBudget};

/// Verifier preset for reproduction runs: per-box wall-clock budget in
/// milliseconds, recursion floor `t`, and a depth cap.
pub fn repro_config(budget_ms: u64, threshold: f64, max_depth: u32) -> VerifierConfig {
    VerifierConfig {
        split_threshold: threshold,
        solver: DeltaSolver::new(
            1e-3,
            SolveBudget {
                max_nodes: 60_000,
                max_millis: budget_ms,
            },
        ),
        parallel: true,
        max_depth,
        // Bound each pair's total run at 400x the per-box budget: enough for
        // several recursion levels, small enough that broad-timeout cells
        // (the paper's "?" columns) finish in interactive time.
        pair_deadline_ms: Some(budget_ms.saturating_mul(400)),
    }
}

/// Per-family verifier settings for full-table runs, as a campaign config
/// policy. 3-D (meta-GGA) domains split into 8 children per level, so their
/// recursion is capped earlier — the paper's SCAN rows time out at every
/// size anyway.
pub fn config_for(f: &dyn Functional, budget_ms: u64) -> VerifierConfig {
    // Spin-resolved (arity-4) citizens split into 16 children per level —
    // cap their recursion earliest, whatever the family label says.
    if f.arity() >= 4 {
        return repro_config(budget_ms, 1.25, 2);
    }
    match f.info().family {
        Family::Lda => repro_config(budget_ms, 0.05, 8),
        Family::Gga => repro_config(budget_ms, 0.15, 6),
        Family::MetaGga => repro_config(budget_ms, 0.625, 3),
    }
}
