//! Shared presets for the benchmark harness and the `repro` binary.
//!
//! The reproduction presets (`repro_config`, `config_for`, …) moved to
//! [`xcv_core::presets`] so the `xcvserve` daemon can derive identical
//! per-functional configurations without depending on this crate; they are
//! re-exported here verbatim for existing call sites.

pub mod seed_baseline;

pub use xcv_core::presets::{config_for, repro_config, repro_verifier, verifier_for};

use xcv_grid::GridConfig;

/// Grid preset for reproduction runs (the paper meshes 10⁵ samples per axis;
/// 200 per axis keeps full-table runs interactive while preserving every
/// region-level conclusion — the resolution is swept in `grid_scaling`).
/// The α, ζ and per-spin `s_σ` axes mesh coarsely: the baseline's cost is
/// the product over axes.
pub fn default_grid() -> GridConfig {
    GridConfig {
        n_rs: 200,
        n_s: 200,
        n_alpha: 9,
        n_zeta: 9,
        tol: 1e-9,
    }
}
