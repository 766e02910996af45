//! Typed variable spaces: what each expression variable index *means*.
//!
//! Expressions refer to variables by dense index (`Kind::Var(u32)`); a
//! [`VarSpace`] gives those indices physical identity — an ordered list of
//! [`Axis`] values, each carrying a name, its index, its Pederson–Burke
//! bounds, and an [`AxisKind`]. The whole toolchain used to reason about
//! problems through a bare `arity()` integer and positional convention
//! (`rs` at 0, `s` at 1, `α` at 2, `ζ` at 3); the kinds make non-positional
//! layouts expressible — most importantly the per-spin reduced gradients
//! `s↑`/`s↓` of exact-spin-scaled exchange, which occupy the slots the
//! scalar convention reserved for `s` and `α`.
//!
//! The space is the contract between layers:
//!
//! * functionals describe their inputs with `Functional::var_space`;
//! * the condition encoder builds the search [`VarSpace::pb_box`] from it
//!   (what `pb_domain` used to derive from `arity() >= k` thresholds);
//! * the solver's compiled formulas carry it so Newton gradients and
//!   witnesses are axis-indexed;
//! * the grid baseline meshes any space — ζ and per-spin axes included —
//!   instead of a hard-coded `rs × s` plane.

use crate::vars::VarSet;

/// The physical identity of one variable axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AxisKind {
    /// Wigner–Seitz radius `rs`.
    Rs,
    /// Reduced density gradient `s` (total density).
    S,
    /// Meta-GGA iso-orbital indicator `α`.
    Alpha,
    /// Spin polarization `ζ = (n↑ − n↓)/n`.
    Zeta,
    /// Per-spin reduced gradient `s↑` (of the doubled spin-up density).
    SUp,
    /// Per-spin reduced gradient `s↓` (of the doubled spin-down density).
    SDown,
}

impl AxisKind {
    /// The canonical display name of the axis.
    pub const fn canonical_name(self) -> &'static str {
        match self {
            AxisKind::Rs => "rs",
            AxisKind::S => "s",
            AxisKind::Alpha => "alpha",
            AxisKind::Zeta => "zeta",
            AxisKind::SUp => "s_up",
            AxisKind::SDown => "s_dn",
        }
    }

    /// The Pederson–Burke search bounds for this axis — the single source
    /// the per-family domain constants derive from.
    pub const fn pb_bounds(self) -> (f64, f64) {
        match self {
            AxisKind::Rs => (1e-4, 5.0),
            AxisKind::S | AxisKind::SUp | AxisKind::SDown => (0.0, 5.0),
            AxisKind::Alpha => (0.0, 5.0),
            AxisKind::Zeta => (-1.0, 1.0),
        }
    }

    /// True for the axes only spin-resolved (`ζ ≠ 0`) problems mention.
    pub const fn is_spin(self) -> bool {
        matches!(self, AxisKind::Zeta | AxisKind::SUp | AxisKind::SDown)
    }
}

impl std::fmt::Display for AxisKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.canonical_name())
    }
}

/// One named, bounded variable axis of a [`VarSpace`].
#[derive(Clone, Debug, PartialEq)]
pub struct Axis {
    /// Display name (defaults to [`AxisKind::canonical_name`]).
    pub name: String,
    /// The `Kind::Var` index this axis occupies.
    pub index: u32,
    /// `(lo, hi)` search bounds (defaults to [`AxisKind::pb_bounds`]).
    pub bounds: (f64, f64),
    pub kind: AxisKind,
}

impl Axis {
    /// The canonical axis of `kind` at `index` (PB bounds, canonical name).
    pub fn canonical(kind: AxisKind, index: u32) -> Axis {
        Axis {
            name: kind.canonical_name().to_string(),
            index,
            bounds: kind.pb_bounds(),
            kind,
        }
    }
}

/// An ordered, dense list of typed axes: the variable space of a problem.
///
/// Axis `k` occupies variable index `k` (the list is dense by construction),
/// so a `VarSpace` of `ndim` axes describes expressions over
/// `Kind::Var(0..ndim)` and boxes of `ndim` intervals, in the same order.
#[derive(Clone, Debug, PartialEq)]
pub struct VarSpace {
    axes: Vec<Axis>,
}

impl VarSpace {
    /// Build from explicit axes. Panics unless indices are dense and in
    /// order (`axes[k].index == k`) — a space with holes cannot index a box.
    pub fn new(axes: Vec<Axis>) -> VarSpace {
        for (k, ax) in axes.iter().enumerate() {
            assert_eq!(
                ax.index as usize, k,
                "VarSpace axes must be dense and ordered: axis {k} has index {}",
                ax.index
            );
        }
        VarSpace { axes }
    }

    /// The canonical space over a list of kinds: axis `k` gets index `k`,
    /// its canonical name, and its PB bounds.
    pub fn of_kinds(kinds: &[AxisKind]) -> VarSpace {
        VarSpace {
            axes: kinds
                .iter()
                .enumerate()
                .map(|(k, &kind)| Axis::canonical(kind, k as u32))
                .collect(),
        }
    }

    /// The positional-convention space of the given arity: `rs` | `rs, s` |
    /// `rs, s, α` | `rs, s, α, ζ` — what the pre-typed toolchain inferred
    /// from `arity()` thresholds.
    pub fn from_arity(arity: usize) -> VarSpace {
        const CANONICAL: [AxisKind; 4] =
            [AxisKind::Rs, AxisKind::S, AxisKind::Alpha, AxisKind::Zeta];
        assert!(
            (1..=CANONICAL.len()).contains(&arity),
            "no canonical variable order for arity {arity}"
        );
        VarSpace::of_kinds(&CANONICAL[..arity])
    }

    pub fn ndim(&self) -> usize {
        self.axes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.axes.is_empty()
    }

    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    pub fn axis(&self, index: usize) -> &Axis {
        &self.axes[index]
    }

    /// The first axis of `kind`, if the space has one.
    pub fn find(&self, kind: AxisKind) -> Option<&Axis> {
        self.axes.iter().find(|a| a.kind == kind)
    }

    /// Does the space mention `kind`?
    pub fn contains(&self, kind: AxisKind) -> bool {
        self.find(kind).is_some()
    }

    /// True when any axis is spin-specific (`ζ`, `s↑`, `s↓`).
    pub fn is_spin_resolved(&self) -> bool {
        self.axes.iter().any(|a| a.kind.is_spin())
    }

    /// Axis names, in index order.
    pub fn names(&self) -> Vec<&str> {
        self.axes.iter().map(|a| a.name.as_str()).collect()
    }

    /// The Pederson–Burke search box: one `(lo, hi)` pair per axis, in
    /// index order — ready for `BoxDomain::from_bounds`. This replaces the
    /// `arity() >= k` bound-pushing of the old `pb_domain`.
    pub fn pb_box(&self) -> Vec<(f64, f64)> {
        self.axes.iter().map(|a| a.bounds).collect()
    }

    /// A [`VarSet`] over the axis names (for the DSL frontend and display).
    pub fn var_set(&self) -> VarSet {
        VarSet::from_names(self.axes.iter().map(|a| a.name.clone()))
    }

    /// Label a point's coordinates with the axis names:
    /// `rs=1.00, s_up=4.50, …` (indices past the space render bare).
    pub fn label_point(&self, point: &[f64]) -> String {
        point
            .iter()
            .enumerate()
            .map(|(i, v)| match self.axes.get(i) {
                Some(a) => format!("{}={v:.4}", a.name),
                None => format!("{v:.4}"),
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl std::fmt::Display for VarSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({})", self.names().join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_arity_matches_canonical_order() {
        let vs = VarSpace::from_arity(3);
        assert_eq!(vs.ndim(), 3);
        assert_eq!(vs.names(), vec!["rs", "s", "alpha"]);
        assert_eq!(vs.axis(0).kind, AxisKind::Rs);
        assert_eq!(vs.axis(2).index, 2);
        assert!(!vs.is_spin_resolved());
        assert!(VarSpace::from_arity(4).is_spin_resolved());
    }

    #[test]
    #[should_panic]
    fn from_arity_rejects_zero() {
        VarSpace::from_arity(0);
    }

    #[test]
    fn per_spin_space_reuses_positional_slots() {
        let vs =
            VarSpace::of_kinds(&[AxisKind::Rs, AxisKind::SUp, AxisKind::SDown, AxisKind::Zeta]);
        assert_eq!(vs.names(), vec!["rs", "s_up", "s_dn", "zeta"]);
        assert_eq!(vs.find(AxisKind::SDown).unwrap().index, 2);
        assert!(vs.contains(AxisKind::Zeta));
        assert!(!vs.contains(AxisKind::Alpha));
        assert!(vs.is_spin_resolved());
    }

    #[test]
    fn pb_box_matches_axis_bounds() {
        let vs = VarSpace::from_arity(4);
        let b = vs.pb_box();
        assert_eq!(b.len(), 4);
        assert_eq!(b[0], (1e-4, 5.0));
        assert_eq!(b[3], (-1.0, 1.0));
        assert_eq!(b[1], AxisKind::S.pb_bounds());
    }

    #[test]
    #[should_panic]
    fn sparse_indices_rejected() {
        VarSpace::new(vec![Axis::canonical(AxisKind::Rs, 1)]);
    }

    #[test]
    fn var_set_and_labels() {
        let vs = VarSpace::from_arity(2);
        assert_eq!(vs.var_set().get("s"), Some(1));
        assert_eq!(vs.label_point(&[1.0, 2.5]), "rs=1.0000, s=2.5000");
        assert_eq!(format!("{vs}"), "(rs, s)");
        // Points longer than the space keep their trailing coordinates.
        assert!(vs.label_point(&[1.0, 2.5, 0.5]).ends_with(", 0.5000"));
    }
}
