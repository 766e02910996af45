//! Shared pieces of the benchmark harness and the `repro` binary: the
//! grid preset and the vendored seed solver. The verifier presets
//! (`repro_config`, `config_for`) live in [`xcv_core::presets`], where the
//! `xcvserve` daemon derives the same configurations.

pub mod seed_baseline;

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
