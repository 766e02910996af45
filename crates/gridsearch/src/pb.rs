//! The PB condition checker: uniform grids over any typed variable space,
//! numerical derivatives, pointwise checks.
//!
//! [`pb_check`] meshes the functional's [`xcv_expr::VarSpace`] — whatever
//! its axes are. The paper's workload produces the classic `rs × s` (× `α`)
//! grids; spin-resolved citizens produce ζ-aware 4-D meshes, including the
//! per-spin `(rs, s↑, s↓, ζ)` space of exact-spin-scaled exchange. Nothing
//! in the checker is hard-coded to two dimensions any more: pass/fail is
//! recorded per mesh point, and [`GridResult::violation_bbox`] returns
//! per-axis bounds for any dimension count.

use crate::gradient::gradient_axis0;
use rayon::prelude::*;
use xcv_conditions::{Condition, C_LO, RS_INF};
use xcv_expr::{AxisKind, VarSpace};
use xcv_functionals::{FunctionalHandle, IntoFunctional, XcvError};

/// Grid resolution per axis kind. The paper draws 10⁵ samples per axis; the
/// defaults here keep full-table runs interactive (tests and figures), with
/// every count a parameter so the benchmark harness can sweep them.
#[derive(Clone, Copy, Debug)]
pub struct GridConfig {
    /// Samples along `rs`.
    pub n_rs: usize,
    /// Samples along the total reduced gradient `s`.
    pub n_s: usize,
    /// Samples along `α` — and along the per-spin `s↑`/`s↓` axes, which
    /// mesh coarsely for the same reason `α` does: the grid's cost is the
    /// product over axes, and the baseline's value is breadth, not depth.
    pub n_alpha: usize,
    /// Samples along `ζ` (spin-resolved spaces only).
    pub n_zeta: usize,
    /// Absolute tolerance absorbing floating-point noise in the pointwise
    /// checks (the numerical-derivative conditions are otherwise hypersensitive
    /// at the grid edges).
    pub tol: f64,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            n_rs: 200,
            n_s: 200,
            n_alpha: 9,
            n_zeta: 9,
            tol: 1e-9,
        }
    }
}

impl GridConfig {
    /// Sample count for one axis (never below 2 — gradients need two
    /// points).
    pub fn axis_resolution(&self, kind: AxisKind) -> usize {
        let n = match kind {
            AxisKind::Rs => self.n_rs,
            AxisKind::S => self.n_s,
            AxisKind::Alpha | AxisKind::SUp | AxisKind::SDown => self.n_alpha,
            AxisKind::Zeta => self.n_zeta,
        };
        n.max(2)
    }
}

/// The outcome of a PB grid check: pass/fail per point of the full N-D mesh
/// over the functional's variable space.
#[derive(Clone, Debug)]
pub struct GridResult {
    pub functional: FunctionalHandle,
    pub condition: Condition,
    /// The sampled variable space (axis names, kinds, bounds).
    pub space: VarSpace,
    /// Sample coordinates per axis, in axis order.
    pub axes: Vec<Vec<f64>>,
    /// Row-major pass/fail over the mesh (axis 0 slowest, last axis
    /// fastest); length is the product of the axis sample counts.
    pub pass: Vec<bool>,
}

impl GridResult {
    pub fn ndim(&self) -> usize {
        self.axes.len()
    }

    /// Sample coordinates of one axis.
    pub fn axis_samples(&self, axis: usize) -> &[f64] {
        &self.axes[axis]
    }

    pub fn n_rs(&self) -> usize {
        self.axes[0].len()
    }

    /// Samples along the second axis (1 for LDA's one-dimensional grid).
    pub fn n_s(&self) -> usize {
        self.axes.get(1).map_or(1, Vec::len)
    }

    /// Number of mesh points behind each projected `(axis0, axis1)` cell.
    fn trailing(&self) -> usize {
        self.axes.iter().skip(2).map(Vec::len).product()
    }

    /// Exact pass/fail at a full mesh index (one entry per axis).
    pub fn pass_at_index(&self, index: &[usize]) -> bool {
        self.pass[flat_index(&self.axes, index)]
    }

    /// Projected pass/fail of the `(axis0, axis1)` cell: the cell passes iff
    /// every mesh point behind it (all trailing-axis slices) passes — the
    /// "fails if any slice fails" convention the 2-D renderings use.
    pub fn pass_at(&self, i0: usize, i1: usize) -> bool {
        let t = self.trailing();
        let base = (i0 * self.n_s() + i1) * t;
        self.pass[base..base + t].iter().all(|&p| p)
    }

    /// All mesh points behind the projected `(axis0, axis1)` cell, as
    /// full-dimensional coordinates (probe points for consistency checks).
    pub fn cell_points(&self, i0: usize, i1: usize) -> Vec<Vec<f64>> {
        let t = self.trailing();
        let base = (i0 * self.n_s() + i1) * t;
        (0..t).map(|r| mesh_point(&self.axes, base + r)).collect()
    }

    /// PB's verdict: satisfied iff every mesh point passes.
    pub fn satisfied(&self) -> bool {
        self.pass.iter().all(|&p| p)
    }

    pub fn n_violations(&self) -> usize {
        self.pass.iter().filter(|&&p| !p).count()
    }

    pub fn violation_fraction(&self) -> f64 {
        self.n_violations() as f64 / self.pass.len() as f64
    }

    /// Per-axis `(lo, hi)` bounds of the violating mesh points, if any —
    /// one pair per axis of the space, whatever its dimension.
    pub fn violation_bbox(&self) -> Option<Vec<(f64, f64)>> {
        let mut bb: Option<Vec<(f64, f64)>> = None;
        for (flat, &ok) in self.pass.iter().enumerate() {
            if !ok {
                let point = mesh_point(&self.axes, flat);
                let bb = bb.get_or_insert_with(|| {
                    vec![(f64::INFINITY, f64::NEG_INFINITY); self.axes.len()]
                });
                for (b, x) in bb.iter_mut().zip(point) {
                    b.0 = b.0.min(x);
                    b.1 = b.1.max(x);
                }
            }
        }
        bb
    }
}

fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2);
    let h = (hi - lo) / (n - 1) as f64;
    (0..n).map(|i| lo + h * i as f64).collect()
}

// The mesh layout, in one encode/decode pair: row-major over the axes in
// order, last axis fastest. Everything index-shaped above goes through
// these two.

/// Flat mesh offset of a full per-axis index.
fn flat_index(axes: &[Vec<f64>], index: &[usize]) -> usize {
    assert_eq!(index.len(), axes.len());
    index.iter().zip(axes).fold(0, |flat, (&i, ax)| {
        assert!(i < ax.len());
        flat * ax.len() + i
    })
}

/// The full-dimensional mesh point at a flat offset.
fn mesh_point(axes: &[Vec<f64>], mut flat: usize) -> Vec<f64> {
    let mut point = vec![0.0; axes.len()];
    for k in (0..axes.len()).rev() {
        let n = axes[k].len();
        point[k] = axes[k][flat % n];
        flat /= n;
    }
    point
}

/// Run the PB grid check for one (functional, condition) pair over the
/// functional's full variable space; [`XcvError::NotApplicable`] when the
/// condition does not apply. Accepts a `Dfa` variant or any registry handle
/// — ζ-resolved and per-spin citizens mesh their extra axes like any other.
pub fn pb_check(
    f: impl IntoFunctional,
    condition: Condition,
    config: &GridConfig,
) -> Result<GridResult, XcvError> {
    let f = f.into_handle();
    if !condition.applies_to(f.as_ref()) {
        return Err(XcvError::NotApplicable {
            functional: f.name(),
            condition: condition.name().to_string(),
        });
    }
    let space = f.var_space();
    assert_eq!(
        space.axis(0).kind,
        AxisKind::Rs,
        "the PB conditions differentiate along rs, which must be axis 0"
    );
    let axes: Vec<Vec<f64>> = space
        .axes()
        .iter()
        .map(|ax| linspace(ax.bounds.0, ax.bounds.1, config.axis_resolution(ax.kind)))
        .collect();
    let n0 = axes[0].len();
    let rest: usize = axes[1..].iter().map(Vec::len).product();
    let h_rs = axes[0][1] - axes[0][0];
    // F_c on the full mesh (row-major, rs slowest), parallel over rs rows.
    let fc: Vec<f64> = (0..n0)
        .into_par_iter()
        .flat_map_iter(|i| {
            let (f, axes) = (&f, &axes);
            (0..rest).map(move |t| f.f_c_at(&mesh_point(axes, i * rest + t)))
        })
        .collect();
    // rs-derivatives along axis 0 of the (n0 × rest) view.
    let dfc = gradient_axis0(&fc, n0, rest, h_rs);
    let d2fc = gradient_axis0(&dfc, n0, rest, h_rs);
    // F_c(∞) per trailing point (rs → RS_INF substitution).
    let fc_inf: Vec<f64> = (0..rest)
        .map(|t| {
            let mut p = mesh_point(&axes, t);
            p[0] = RS_INF;
            f.f_c_at(&p)
        })
        .collect();
    // F_xc where the condition needs it.
    let needs_fxc = matches!(condition, Condition::LiebOxford | Condition::LiebOxfordExt);
    let fxc: Option<Vec<f64>> = needs_fxc.then(|| {
        (0..n0)
            .into_par_iter()
            .flat_map_iter(|i| {
                let (f, axes) = (&f, &axes);
                (0..rest).map(move |t| {
                    f.f_xc_at(&mesh_point(axes, i * rest + t))
                        .unwrap_or(f64::NAN)
                })
            })
            .collect()
    });
    let pass: Vec<bool> = (0..n0)
        .into_par_iter()
        .flat_map_iter(|i| {
            let (fc, dfc, d2fc, fc_inf, fxc) = (&fc, &dfc, &d2fc, &fc_inf, &fxc);
            let rs = axes[0][i];
            (0..rest).map(move |t| {
                let k = i * rest + t;
                point_pass(
                    condition,
                    rs,
                    fc[k],
                    dfc[k],
                    d2fc[k],
                    fc_inf[t],
                    fxc.as_ref().map(|v| v[k]),
                    config.tol,
                )
            })
        })
        .collect();
    Ok(GridResult {
        functional: f,
        condition,
        space,
        axes,
        pass,
    })
}

/// The pointwise local-condition check, given grid-derived derivatives.
#[allow(clippy::too_many_arguments)]
fn point_pass(
    condition: Condition,
    rs: f64,
    fc: f64,
    dfc: f64,
    d2fc: f64,
    fc_inf: f64,
    fxc: Option<f64>,
    tol: f64,
) -> bool {
    match condition {
        Condition::EcNonPositivity => fc >= -tol,
        Condition::EcScaling => dfc >= -tol,
        Condition::UcMonotonicity => d2fc >= -2.0 / rs * dfc - tol,
        Condition::TcUpperBound => dfc <= (fc_inf - fc) / rs + tol,
        Condition::ConjTcUpperBound => dfc <= fc / rs + tol,
        Condition::LiebOxford => fxc.is_some_and(|f| f + rs * dfc <= C_LO + tol),
        Condition::LiebOxfordExt => fxc.is_some_and(|f| f <= C_LO + tol),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcv_conditions::S_MAX;
    use xcv_functionals::{Dfa, SpinResolved, SpinScaledX};

    fn cfg() -> GridConfig {
        GridConfig {
            n_rs: 120,
            n_s: 120,
            n_alpha: 5,
            n_zeta: 5,
            tol: 1e-9,
        }
    }

    #[test]
    fn inapplicable_is_error() {
        assert!(matches!(
            pb_check(Dfa::Lyp, Condition::LiebOxford, &cfg()),
            Err(XcvError::NotApplicable { .. })
        ));
        assert!(pb_check(Dfa::VwnRpa, Condition::LiebOxfordExt, &cfg()).is_err());
    }

    #[test]
    fn vwn_satisfies_all_applicable() {
        for cond in Condition::all() {
            if let Ok(r) = pb_check(Dfa::VwnRpa, cond, &cfg()) {
                assert!(r.satisfied(), "{cond} should pass for VWN RPA");
            }
        }
    }

    #[test]
    fn lyp_fails_all_applicable() {
        // Table II row LYP: PB finds counterexamples for every applicable
        // condition.
        for cond in Condition::all() {
            if let Ok(r) = pb_check(Dfa::Lyp, cond, &cfg()) {
                assert!(!r.satisfied(), "{cond} should fail for LYP");
                assert!(r.n_violations() > 0);
            }
        }
    }

    #[test]
    fn lyp_ec1_violation_region_matches_paper() {
        // Fig. 2a/2d: violations at s ≳ 1.66, across rs.
        let r = pb_check(Dfa::Lyp, Condition::EcNonPositivity, &cfg()).unwrap();
        let bb = r.violation_bbox().unwrap();
        assert_eq!(bb.len(), 2, "GGA grid has two axes");
        let (s_min, s_max) = bb[1];
        assert!(
            (1.3..2.2).contains(&s_min),
            "violations should start near s≈1.7, got {s_min}"
        );
        assert!((s_max - S_MAX).abs() < 0.1, "violations reach the s edge");
    }

    #[test]
    fn pbe_ec1_and_ec5_pass() {
        let r = pb_check(Dfa::Pbe, Condition::EcNonPositivity, &cfg()).unwrap();
        assert!(r.satisfied());
        let r = pb_check(Dfa::Pbe, Condition::LiebOxfordExt, &cfg()).unwrap();
        assert!(r.satisfied());
    }

    #[test]
    fn pbe_ec7_fails_in_upper_left() {
        let r = pb_check(Dfa::Pbe, Condition::ConjTcUpperBound, &cfg()).unwrap();
        assert!(!r.satisfied());
        let bb = r.violation_bbox().unwrap();
        assert!(bb[0].0 < 1.0, "violations reach small rs");
        assert!(bb[1].1 > 3.0, "violations reach large s");
        // And the small-s / large-rs corner passes (Fig. 1c).
        assert!(r.pass_at(r.n_rs() - 1, 3));
    }

    #[test]
    fn scan_passes_ec1_on_grid() {
        // PB (testing) finds no SCAN violations even though the verifier
        // times out — the "not inconsistent" cells of Table II.
        let small = GridConfig {
            n_rs: 60,
            n_s: 60,
            n_alpha: 5,
            n_zeta: 2,
            tol: 1e-9,
        };
        let r = pb_check(Dfa::Scan, Condition::EcNonPositivity, &small).unwrap();
        assert!(r.satisfied());
        assert_eq!(r.ndim(), 3);
        assert_eq!(r.pass.len(), 60 * 60 * 5);
    }

    #[test]
    fn exchange_carrying_lda_samples_its_zeta_axis() {
        // The spin-scaled LSDA exchange is a 4-D citizen: the baseline now
        // meshes its ζ axis instead of sampling the ζ = 0 restriction.
        // F_xc = ((1+ζ)^{4/3}+(1−ζ)^{4/3})/2 ≤ 2^{1/3} < C_LO everywhere.
        use std::sync::Arc;
        let f = Arc::new(SpinResolved::lsda_x());
        for cond in [Condition::LiebOxford, Condition::LiebOxfordExt] {
            let r = pb_check(Arc::clone(&f), cond, &cfg()).unwrap();
            assert_eq!(r.ndim(), 4);
            assert_eq!(r.axes[3], vec![-1.0, -0.5, 0.0, 0.5, 1.0]);
            assert!(r.satisfied(), "{cond} fails for LSDA-X(ζ)");
        }
        assert!(pb_check(f, Condition::EcNonPositivity, &cfg()).is_err());
    }

    #[test]
    fn b88_spin_violation_bbox_is_4d() {
        // The per-spin B88 citizen violates the LO extension where the
        // scaled channel gradient is large; the bbox reports bounds for all
        // four axes of (rs, s↑, s↓, ζ).
        let f = std::sync::Arc::new(SpinScaledX::b88());
        let r = pb_check(f, Condition::LiebOxfordExt, &cfg()).unwrap();
        assert_eq!(r.ndim(), 4);
        assert!(!r.satisfied(), "B88(ζ) violates EC5 on the PB box");
        let bb = r.violation_bbox().unwrap();
        assert_eq!(bb.len(), 4);
        // Violations span rs freely (F_x is rs-independent)...
        assert!(bb[0].0 < 0.1 && bb[0].1 > 4.9, "{bb:?}");
        // ...need a large per-spin gradient on some channel...
        assert!(bb[1].1 > 4.9 && bb[2].1 > 4.9, "{bb:?}");
        // ...and reach the fully-polarized edges.
        assert!(bb[3].0 <= -0.99 && bb[3].1 >= 0.99, "{bb:?}");
        // The ζ = 0, s↑ = s↓ = s diagonal still shows the base violation at
        // the s edge (exact mesh indexing on the 4-D grid).
        let n1 = r.axes[1].len() - 1;
        let n2 = r.axes[2].len() - 1;
        assert!(
            !r.pass_at_index(&[0, n1, n2, 2]),
            "ζ=0 slice keeps B88's violation"
        );
    }

    #[test]
    fn pbe_x_spin_passes_lieb_oxford() {
        // 2^{1/3}·F_x^{PBE}(5) ≈ 2.14 < 2.27: the spin-scaled PBE exchange
        // satisfies both LO conditions at every polarization.
        let f = std::sync::Arc::new(SpinScaledX::pbe_x());
        for cond in [Condition::LiebOxford, Condition::LiebOxfordExt] {
            let r = pb_check(std::sync::Arc::clone(&f), cond, &cfg()).unwrap();
            assert!(r.satisfied(), "{cond} fails for PBE-X(ζ)");
            assert!(r.violation_bbox().is_none());
        }
    }

    #[test]
    fn lda_grid_is_one_dimensional() {
        let r = pb_check(Dfa::VwnRpa, Condition::EcScaling, &cfg()).unwrap();
        assert_eq!(r.ndim(), 1);
        assert_eq!(r.n_s(), 1);
        assert_eq!(r.pass.len(), r.n_rs());
        assert_eq!(r.cell_points(3, 0), vec![vec![r.axes[0][3]]]);
    }

    #[test]
    fn violation_bbox_none_when_clean() {
        let r = pb_check(Dfa::Pbe, Condition::EcNonPositivity, &cfg()).unwrap();
        assert!(r.violation_bbox().is_none());
        assert_eq!(r.violation_fraction(), 0.0);
    }

    #[test]
    fn projected_cells_and_points_cover_the_mesh() {
        let small = GridConfig {
            n_rs: 6,
            n_s: 5,
            n_alpha: 3,
            n_zeta: 2,
            tol: 1e-9,
        };
        let r = pb_check(Dfa::Scan, Condition::EcNonPositivity, &small).unwrap();
        // Every projected cell expands to one point per α sample, with the
        // right leading coordinates.
        let pts = r.cell_points(2, 3);
        assert_eq!(pts.len(), 3);
        for p in &pts {
            assert_eq!(p.len(), 3);
            assert_eq!(p[0], r.axes[0][2]);
            assert_eq!(p[1], r.axes[1][3]);
        }
        // pass_at is the conjunction of the exact trailing slices.
        let all = (0..3).all(|k| r.pass_at_index(&[2, 3, k]));
        assert_eq!(r.pass_at(2, 3), all);
    }
}
