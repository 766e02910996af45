//! Compile-once solve sessions: a [`Formula`] lowered to flat tapes, built
//! one time per problem and shared (immutably) across every box the
//! branch-and-prune search and the verifier recursion visit.
//!
//! The seed architecture rebuilt the HC4 contractor (topo sort, `HashMap`
//! slot maps, op lowering) on **every** `solve` call, i.e. on every sub-box
//! of the verifier's recursion. [`CompiledFormula`] hoists all of that to a
//! single compilation step:
//!
//! * one [`IntervalTape`] over every atom's expression (shared subterms
//!   lowered once) drives both the forward interval pass and the in-place
//!   HC4 backward contraction;
//! * one f64 [`Tape`] per atom drives midpoint model checks and branch
//!   scoring without touching the DAG or allocating memo maps;
//! * the gradient program of the rung-1 Newton contractor (symbolic
//!   differentiation per atom × variable) is materialized lazily, once,
//!   behind a `OnceLock`; certificate emission serializes the same program.
//!
//! All per-box mutable state lives in a caller-owned [`SolveScratch`], so a
//! `CompiledFormula` is `Send + Sync` and one instance serves the whole box
//! tree — each rayon worker brings its own scratch.

use crate::boxdom::BoxDomain;
use crate::contract::Contraction;
use crate::formula::{Atom, Formula, Rel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use xcv_expr::{IntervalTape, Tape, VarSpace};
use xcv_interval::Interval;

/// Global count of compilations — formulas, atoms, and lazily-built
/// Newton gradient programs — for the compile-once tests: solving N boxes
/// against one [`CompiledFormula`] must not move it.
static COMPILE_COUNT: AtomicU64 = AtomicU64::new(0);

/// Number of tape compilations performed so far, process-wide. Incremented
/// by [`CompiledFormula::compile`], [`CompiledAtom::compile`], and the
/// once-per-formula Newton gradient build; tests assert it stays flat
/// across per-box solving.
pub fn compile_count() -> u64 {
    COMPILE_COUNT.load(Ordering::Relaxed)
}

/// One compiled sign atom: a flat f64 tape, the slot its expression's value
/// lands in, and the relation. Used for exact model checks (`ψ` validation,
/// midpoint tests) without the allocating recursive `Expr::eval`.
#[derive(Debug, Clone)]
pub struct CompiledAtom {
    tape: Tape,
    /// Slot of the atom's expression in `tape` (the last slot for a tape
    /// compiled from one root; an interior slot when the tape is shared with
    /// a [`CompiledFormula`], see [`CompiledFormula::atom_tape`]).
    root: u32,
    rel: Rel,
}

impl CompiledAtom {
    pub fn compile(atom: &Atom) -> CompiledAtom {
        COMPILE_COUNT.fetch_add(1, Ordering::Relaxed);
        let (tape, roots) = Tape::compile_multi(std::slice::from_ref(&atom.expr));
        CompiledAtom {
            tape,
            root: roots[0],
            rel: atom.rel,
        }
    }

    pub fn rel(&self) -> Rel {
        self.rel
    }

    /// Exact satisfaction at a point, reusing a caller-owned f64 buffer
    /// (NaN — including unbound variables — fails every relation, matching
    /// [`Atom::holds_at`]).
    pub fn holds_at_with(&self, point: &[f64], buf: &mut Vec<f64>) -> bool {
        buf.resize(self.tape.len(), 0.0);
        self.tape.run(point, buf);
        let v = buf[self.root as usize];
        !v.is_nan() && self.rel.holds(v)
    }

    /// Convenience form that allocates its own buffer.
    pub fn holds_at(&self, point: &[f64]) -> bool {
        let mut buf = Vec::new();
        self.holds_at_with(point, &mut buf)
    }
}

/// Per-atom compiled state inside a [`CompiledFormula`].
#[derive(Debug, Clone)]
struct FormulaAtom {
    /// Root slot of this atom's expression in the shared interval tape.
    root: u32,
    /// Root slot of this atom's expression in the shared f64 tape.
    froot: u32,
    rel: Rel,
    /// Closed allowed set of the relation (pre-resolved from `rel`).
    allowed: Interval,
}

/// One atom of the rung-1 Newton contractor's gradient program, built
/// lazily: an interval tape over `[g, ∂g/∂axis…]`.
#[derive(Debug)]
struct GradientAtom {
    rel: Rel,
    itape: IntervalTape,
    /// The gradient roots as sparse `(axis, root)` pairs in ascending axis
    /// order (root 0 is `g` itself; an axis the expression does not mention
    /// has gradient ≡ 0 and no pair) — the layout
    /// [`xcv_expr::newton::NewtonAtom`] consumes, and the layout
    /// certificates serialize (the checker reconstructs `root = i + 1` from
    /// the pair position, which holds by construction).
    grad_pairs: Vec<(u32, u32)>,
    /// The expression mentions a variable beyond the space — the first-order
    /// form then carries no information (dropping the term would tighten
    /// unsoundly).
    overflow: bool,
}

/// A formula compiled once for repeated solving. Immutable and shareable;
/// all per-box state lives in [`SolveScratch`].
#[derive(Debug)]
pub struct CompiledFormula {
    source: Formula,
    /// The typed variable space of the problem (set by
    /// [`CompiledFormula::compile_in`]); Newton gradients and witness
    /// labels index by its axes. `None` for anonymous formulas compiled with
    /// [`CompiledFormula::compile`].
    space: Option<VarSpace>,
    itape: IntervalTape,
    /// One f64 tape over every atom's expression (shared subterms evaluated
    /// once per point); atoms read their values at `FormulaAtom::froot`.
    ftape: Tape,
    atoms: Vec<FormulaAtom>,
    /// Bitmask of the variables the interval program actually computes with
    /// (post constant folding) — the formula's *support set*. Axes outside
    /// it can never affect satisfaction, so the solver neither splits them
    /// nor lets their width keep a box from being δ-decided.
    support: u64,
    /// Forward/backward rounds per HC4 contraction call.
    max_rounds: usize,
    /// The Newton gradient program, one [`GradientAtom`] per atom.
    gradients: OnceLock<Vec<GradientAtom>>,
}

impl Clone for CompiledFormula {
    fn clone(&self) -> Self {
        // The OnceLock restarts empty; gradients rebuild lazily if needed.
        CompiledFormula {
            source: self.source.clone(),
            space: self.space.clone(),
            itape: self.itape.clone(),
            ftape: self.ftape.clone(),
            atoms: self.atoms.clone(),
            support: self.support,
            max_rounds: self.max_rounds,
            gradients: OnceLock::new(),
        }
    }
}

impl CompiledFormula {
    /// Lower `formula` to flat tapes. This is the *only* place the expression
    /// DAG is traversed; everything downstream is dense index arithmetic.
    pub fn compile(formula: &Formula) -> CompiledFormula {
        Self::build(formula, None)
    }

    /// [`CompiledFormula::compile`] with a typed variable space attached:
    /// the encoder passes the functional's `var_space()` so the compiled
    /// problem knows what each variable index means.
    pub fn compile_in(formula: &Formula, space: VarSpace) -> CompiledFormula {
        Self::build(formula, Some(space))
    }

    fn build(formula: &Formula, space: Option<VarSpace>) -> CompiledFormula {
        COMPILE_COUNT.fetch_add(1, Ordering::Relaxed);
        let roots: Vec<xcv_expr::Expr> = formula.atoms.iter().map(|a| a.expr.clone()).collect();
        let itape = IntervalTape::compile(&roots);
        let (ftape, froots) = Tape::compile_multi(&roots);
        let atoms = formula
            .atoms
            .iter()
            .enumerate()
            .map(|(i, a)| FormulaAtom {
                root: itape.root_slot(i),
                froot: froots[i],
                rel: a.rel,
                allowed: a.rel.allowed(),
            })
            .collect();
        let support = itape.var_mask();
        CompiledFormula {
            source: formula.clone(),
            space,
            itape,
            ftape,
            atoms,
            support,
            max_rounds: 3,
            gradients: OnceLock::new(),
        }
    }

    /// The typed variable space, when one was attached at compile time.
    pub fn var_space(&self) -> Option<&VarSpace> {
        self.space.as_ref()
    }

    /// Number of variable axes the gradient program is indexed by: the
    /// attached space's dimension, or (for anonymous formulas) one past the
    /// highest variable index any atom mentions.
    fn gradient_nvars(&self) -> usize {
        match &self.space {
            Some(s) => s.ndim(),
            None => self
                .source
                .atoms
                .iter()
                .flat_map(|a| a.expr.free_vars())
                .map(|v| v as usize + 1)
                .max()
                .unwrap_or(0),
        }
    }

    /// Re-expose atom `i`'s slice of the shared f64 tape as a standalone
    /// [`CompiledAtom`] under a caller-chosen relation. The encoder derives
    /// the `ψ` checker from the already-lowered `¬ψ` program this way (a
    /// negated atom shares its expression and differs only in relation), so
    /// each cell is lowered exactly once — no `COMPILE_COUNT` bump, cloning
    /// a flat instruction vector is not a compilation.
    pub fn atom_tape(&self, i: usize, rel: Rel) -> CompiledAtom {
        CompiledAtom {
            tape: self.ftape.clone(),
            root: self.atoms[i].froot,
            rel,
        }
    }

    /// Slots in the shared interval tape (distinct DAG nodes).
    pub fn interval_slots(&self) -> usize {
        self.itape.len()
    }

    /// The shared interval tape over every atom's expression: root `i` is
    /// atom `i`'s expression. Certificate emission serializes this
    /// ([`IntervalTape::to_portable`]) so an independent checker can replay
    /// contractions without the expression DAG.
    pub fn interval_tape(&self) -> &IntervalTape {
        &self.itape
    }

    /// The relation of each compiled atom, in tape-root order (atom `i`
    /// constrains `interval_tape()` root `i`).
    pub fn atom_rels(&self) -> Vec<Rel> {
        self.atoms.iter().map(|a| a.rel).collect()
    }

    /// Forward/backward rounds the search's contraction of a node runs.
    pub fn max_rounds(&self) -> usize {
        self.max_rounds
    }

    /// Bitmask of the variables the compiled program mentions — the
    /// formula's support set. All-ones when any variable index is `>= 64`
    /// (never the case for PB problems, whose arity tops out at 4).
    pub fn support_mask(&self) -> u64 {
        self.support
    }

    /// Does the compiled program depend on box axis `i`? Axes `>= 64` are
    /// conservatively treated as supported (the mask saturates there).
    pub fn supports_axis(&self, i: usize) -> bool {
        i >= 64 || self.support & (1u64 << i) != 0
    }

    /// The box width that matters for δ-decisions: the maximum width over
    /// the *supported* axes. An axis the formula never mentions cannot
    /// affect satisfaction, so its width must not keep a box from being
    /// declared δ-SAT (nor ever be split — see
    /// [`CompiledFormula::bisect_supported`]). Falls back to the plain
    /// maximum width when the formula mentions none of the box's axes
    /// (constant formulas), preserving the legacy behaviour.
    pub fn split_width(&self, b: &BoxDomain) -> f64 {
        let mut any = false;
        let mut wmax = 0.0f64;
        for i in 0..b.ndim() {
            if self.supports_axis(i) {
                any = true;
                wmax = wmax.max(b.dim(i).width());
            }
        }
        if any {
            wmax
        } else {
            b.max_width()
        }
    }

    /// Bisect `b` along its widest *supported* axis (ties broken toward the
    /// lower index, like `BoxDomain::widest_dim`), so a cell never splits an
    /// axis its expression does not mention — a ζ-free atom on a 4-D spin
    /// domain no longer halves ζ. Falls back to the widest axis overall for
    /// constant formulas. Returns the two halves and the split axis.
    pub fn bisect_supported(&self, b: &BoxDomain) -> (BoxDomain, BoxDomain, u32) {
        let axis = self.split_axis(b);
        let (l, r) = b.bisect_dim(axis as usize);
        (l, r, axis)
    }

    /// The axis [`CompiledFormula::bisect_supported`] splits: the widest
    /// supported axis (ties toward the lower index), falling back to the
    /// widest axis overall for constant formulas.
    fn split_axis(&self, b: &BoxDomain) -> u32 {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..b.ndim() {
            if self.supports_axis(i) {
                let w = b.dim(i).width();
                match best {
                    Some((_, bw)) if w <= bw => {}
                    _ => best = Some((i, w)),
                }
            }
        }
        best.map(|(i, _)| i).unwrap_or_else(|| b.widest_dim().0) as u32
    }

    /// Run the shared f64 tape at `point`, filling the scratch register
    /// file.
    fn run_ftape(&self, point: &[f64], scratch: &mut SolveScratch) {
        scratch.fvals.resize(self.ftape.len(), 0.0);
        self.ftape.run(point, &mut scratch.fvals);
    }

    /// Exact satisfaction of every atom at a point (tape-based
    /// [`Formula::holds_at`]; one pass evaluates shared subterms once).
    pub fn holds_at(&self, point: &[f64], scratch: &mut SolveScratch) -> bool {
        self.run_ftape(point, scratch);
        self.atoms.iter().all(|a| {
            let v = scratch.fvals[a.froot as usize];
            !v.is_nan() && a.rel.holds(v)
        })
    }

    /// Interval-*certified* satisfaction of every atom at a point: the
    /// outward-rounded enclosure of each atom over the degenerate point box
    /// must lie inside the atom's closed allowed set. `true` is a proof
    /// that the exact formula holds at `point`; `false` only means "not
    /// provable here". The plain f64 [`CompiledFormula::holds_at`] can be
    /// fooled by rounding near an atom bound (e.g. the `ln rs` cancellation
    /// of the correlation functionals as `rs → 0`); this check cannot, so
    /// the escalation ladder uses it to keep midpoint δ-Sat decisions from
    /// contradicting a sound rung-0 Unsat.
    pub fn holds_at_certified(&self, point: &[f64], scratch: &mut SolveScratch) -> bool {
        scratch.cert_point.clear();
        scratch
            .cert_point
            .extend(point.iter().map(|&p| Interval::point(p)));
        ensure_slots(&mut scratch.cert_vals, self.itape.len());
        self.itape
            .forward(&scratch.cert_point, &mut scratch.cert_vals);
        self.atoms.iter().all(|a| {
            let v = scratch.cert_vals[a.root as usize];
            // Both enclosure endpoints must satisfy the relation itself (not
            // just its closed allowed set): a strict atom is not proven by
            // an enclosure touching the bound.
            !v.is_empty() && a.rel.holds(v.lo) && a.rel.holds(v.hi)
        })
    }

    /// Branch-scoring heuristic: the worst signed violation over atoms at a
    /// point (0 when all atoms hold; +∞ on NaN). Smaller is more promising.
    pub fn violation_score(&self, point: &[f64], scratch: &mut SolveScratch) -> f64 {
        self.run_ftape(point, scratch);
        let mut worst = 0.0f64;
        for a in &self.atoms {
            let v = scratch.fvals[a.froot as usize];
            if v.is_nan() {
                return f64::INFINITY;
            }
            let signed = match a.rel {
                Rel::Le | Rel::Lt => v.max(0.0),
                Rel::Ge | Rel::Gt => (-v).max(0.0),
            };
            worst = worst.max(signed);
        }
        worst
    }

    /// HC4-revise contraction of `b` against the formula, from a full
    /// forward pass, in up to `max_rounds` forward/backward rounds (the
    /// ablation benchmarks sweep the count; the search runs
    /// [`CompiledFormula::max_rounds`]).
    ///
    /// The per-slot dirty flags live in [`SolveScratch`]: cleared after the
    /// box's forward pass (every slot then holds its forward image), set at
    /// root imposition when a relation narrows an atom's root, and kept by
    /// `forward_meet` and the backward sweep, which skips the inverse rules
    /// of clean slots of total operations (see
    /// [`IntervalTape::backward`]). The skip is exact: the contraction
    /// equals the one that runs every rule, bit for bit.
    pub fn contract_with_rounds(
        &self,
        b: &BoxDomain,
        scratch: &mut SolveScratch,
        max_rounds: usize,
    ) -> Contraction {
        ensure_slots(&mut scratch.ivals, self.itape.len());
        self.itape.forward(b.dims(), &mut scratch.ivals);
        self.hc4_rounds(b, scratch, max_rounds)
    }

    /// The search's contraction of a node at `depth`: the rounds of
    /// [`CompiledFormula::contract_with_rounds`], from the node's forward
    /// image in the scratch's image pool. Depth 0 runs the full pass. A
    /// deeper node is evaluated from the image at `depth − 1`, which the
    /// depth-first search guarantees is its parent's: both children are
    /// pushed together, and every node popped between the parent and a
    /// child is a descendant of the parent, at a greater depth. The pass
    /// recomputes only the dependency cones of the axes where the node
    /// differs from that image ([`IntervalTape::forward_from_image`]), so
    /// the contraction is bit for bit the one a full pass gives. HC4 runs
    /// on a copy, leaving the image for the node's own children.
    pub(crate) fn contract_node(
        &self,
        b: &BoxDomain,
        depth: u32,
        scratch: &mut SolveScratch,
    ) -> Contraction {
        let n = self.itape.len();
        let d = depth as usize;
        if scratch.images.len() < (d + 1) * n {
            scratch.images.resize((d + 1) * n, Interval::ENTIRE);
        }
        let (ancestors, rest) = scratch.images.split_at_mut(d * n);
        let image = &mut rest[..n];
        match d.checked_sub(1) {
            None => self.itape.forward(b.dims(), image),
            Some(p) => self
                .itape
                .forward_from_image(&ancestors[p * n..], b.dims(), image),
        }
        ensure_slots(&mut scratch.ivals, n);
        scratch.ivals.copy_from_slice(image);
        self.hc4_rounds(b, scratch, self.max_rounds)
    }

    /// The HC4 round loop shared by both contractions: `scratch.ivals` holds
    /// the forward image of `b` on entry and the contracted slot file on
    /// return.
    fn hc4_rounds(
        &self,
        b: &BoxDomain,
        scratch: &mut SolveScratch,
        max_rounds: usize,
    ) -> Contraction {
        let vals = &mut scratch.ivals;
        let dirty = &mut scratch.dirty;
        dirty.clear();
        dirty.resize(self.itape.len(), false);
        let mut current = b.clone();
        for round in 0..max_rounds {
            if round > 0 {
                // Re-tighten parents from the narrowed children.
                self.itape.forward_meet(vals, dirty);
            }
            // Impose root constraints.
            for a in &self.atoms {
                let slot = a.root as usize;
                let met = vals[slot].intersect(&a.allowed);
                if met.is_empty() {
                    return Contraction::Empty;
                }
                dirty[slot] |= met != vals[slot];
                vals[slot] = met;
            }
            // Backward sweep.
            if !self.itape.backward(vals, dirty) {
                return Contraction::Empty;
            }
            // Extract variable domains. Variables beyond the box's dimension
            // (possible with malformed formulas) read as ENTIRE and are not
            // contracted.
            let mut next = current.clone();
            for &(slot, v) in self.itape.var_slots() {
                if (v as usize) >= current.ndim() {
                    continue;
                }
                let met = vals[slot as usize].intersect(&current.dim(v as usize));
                if met.is_empty() {
                    return Contraction::Empty;
                }
                next.set_dim(v as usize, met);
            }
            let gain = improvement(&current, &next);
            current = next;
            if gain < 0.05 {
                break;
            }
        }
        Contraction::Box(current)
    }

    /// The Newton gradient program, built (with full symbolic
    /// differentiation) on first use and cached for the lifetime of the
    /// compiled formula.
    fn gradients(&self) -> &[GradientAtom] {
        self.gradients.get_or_init(|| {
            // Counted so the compile-once tests catch an accidental
            // per-box gradient rebuild just like any other recompilation.
            COMPILE_COUNT.fetch_add(1, Ordering::Relaxed);
            let nvars = self.gradient_nvars();
            self.source
                .atoms
                .iter()
                .map(|a| {
                    let free = a.expr.free_vars();
                    let overflow = free.iter().any(|&v| v as usize >= nvars);
                    // Only the axes the expression mentions are
                    // differentiated and lowered; the rest have gradient ≡ 0.
                    let mut roots: Vec<xcv_expr::Expr> = vec![a.expr.clone()];
                    let mut grad_pairs: Vec<(u32, u32)> = Vec::new();
                    for &v in free.iter().filter(|&&v| (v as usize) < nvars) {
                        grad_pairs.push((v, roots.len() as u32));
                        roots.push(a.expr.diff(v));
                    }
                    GradientAtom {
                        rel: a.rel,
                        itape: IntervalTape::compile(&roots),
                        grad_pairs,
                        overflow,
                    }
                })
                .collect()
        })
    }

    /// Rung-1 contractor of the escalation ladder: interval-Newton (Gauss–
    /// Seidel) sweeps over the gradient program's tapes, through the
    /// *shared* [`xcv_expr::newton::newton_contract`] driver — the same
    /// function the certificate checker replays, so recorded `Newton` steps
    /// verify bitwise. `None` when a row solve proves the box infeasible.
    pub fn newton_contract(
        &self,
        b: &BoxDomain,
        sweeps: usize,
        scratch: &mut SolveScratch,
    ) -> Option<BoxDomain> {
        // Overflow atoms (a variable beyond the space) carry no first-order
        // information; axes beyond the *box* are skipped by the driver.
        let atoms: Vec<xcv_expr::newton::NewtonAtom<'_>> = self
            .gradients()
            .iter()
            .filter(|a| !a.overflow)
            .map(|a| xcv_expr::newton::NewtonAtom {
                tape: &a.itape,
                grads: &a.grad_pairs,
                allowed: a.rel.allowed(),
            })
            .collect();
        scratch.newton_dims.clear();
        scratch.newton_dims.extend_from_slice(b.dims());
        if !xcv_expr::newton::newton_contract(
            &atoms,
            &mut scratch.newton_dims,
            sweeps,
            &mut scratch.newton,
        ) {
            return None;
        }
        Some(BoxDomain::new(scratch.newton_dims.clone()))
    }

    /// Portable form of the Newton gradient program for certificate
    /// emission: per atom (formula order), `None` when the atom's
    /// first-order form carries no information (variable overflow), else
    /// the portable gradient tape (roots `[g, ∂g/∂axis…]`) and the
    /// ascending axes its gradient roots cover (pair `i` is root `i + 1`).
    pub fn newton_portable(&self) -> Vec<Option<(String, Vec<u32>)>> {
        self.gradients()
            .iter()
            .map(|a| {
                if a.overflow {
                    None
                } else {
                    Some((
                        a.itape.to_portable(),
                        a.grad_pairs.iter().map(|&(ax, _)| ax).collect(),
                    ))
                }
            })
            .collect()
    }

    /// Rung-2 contractor: 3B/CID slab shaving. Probes a slab of relative
    /// width `frac` at each face of every supported axis (low face first,
    /// then high, axes ascending — the order is part of the certificate
    /// contract) with a dirty-cone forward pass; a slab on which some
    /// atom's enclosure misses its allowed set entirely contains no
    /// solution, so the box shrinks to the complement. Each face is probed
    /// up to `passes` times with the slab fraction *doubling* after every
    /// successful shave (capped at half the remaining width — CID-style
    /// dichotomy, so a deeply infeasible face region is consumed in
    /// logarithmically few probes), stopping at the first feasible-looking
    /// slab. Shaving only ever narrows (a slab is strictly smaller than its
    /// axis); it never empties the box.
    /// `on_shave` is called per shaved slab with
    /// `(axis, high_face, new_bound)` — the trace hook. Returns `None`
    /// when nothing shaved.
    pub fn shave_3b(
        &self,
        b: &BoxDomain,
        scratch: &mut SolveScratch,
        frac: f64,
        passes: u32,
        mut on_shave: impl FnMut(u32, bool, f64),
    ) -> Option<BoxDomain> {
        let ndim = b.ndim();
        let doms = &mut scratch.shave_doms;
        let vals = &mut scratch.shave_vals;
        doms.clear();
        doms.extend_from_slice(b.dims());
        ensure_slots(vals, self.itape.len());
        self.itape.forward(doms, vals);
        // Axes whose image `vals` no longer matches `doms` (the last probe).
        let mut stale = 0u64;
        let mut changed = false;
        for v in 0..ndim.min(64) {
            if !self.supports_axis(v) {
                continue;
            }
            for high_face in [false, true] {
                let mut sf = frac;
                for _ in 0..passes {
                    let d = doms[v];
                    let w = d.width();
                    if !(w.is_finite() && w > 0.0) {
                        break;
                    }
                    let s = if high_face {
                        d.hi - sf.min(0.5) * w
                    } else {
                        d.lo + sf.min(0.5) * w
                    };
                    if !(s > d.lo && s < d.hi) {
                        break;
                    }
                    doms[v] = if high_face {
                        Interval::new(s, d.hi)
                    } else {
                        Interval::new(d.lo, s)
                    };
                    self.itape.forward_masked(stale | (1u64 << v), doms, vals);
                    stale = 1u64 << v;
                    let infeasible = self
                        .atoms
                        .iter()
                        .any(|a| vals[a.root as usize].intersect(&a.allowed).is_empty());
                    if infeasible {
                        // Closed-slab soundness: no solution in the slab up
                        // to and including `s`, so keeping `s` in the
                        // remainder loses nothing.
                        doms[v] = if high_face {
                            Interval::new(d.lo, s)
                        } else {
                            Interval::new(s, d.hi)
                        };
                        changed = true;
                        on_shave(v as u32, high_face, s);
                        sf *= 2.0;
                    } else {
                        doms[v] = d;
                        break;
                    }
                }
            }
        }
        if changed {
            Some(BoxDomain::new(doms.clone()))
        } else {
            None
        }
    }
}

/// Relative contraction gain between two boxes (max over dimensions). The
/// escalation ladder's stall detector reuses it (`pub(crate)`).
pub(crate) fn improvement(before: &BoxDomain, after: &BoxDomain) -> f64 {
    let mut best: f64 = 0.0;
    for i in 0..before.ndim() {
        let wb = before.dim(i).width();
        let wa = after.dim(i).width();
        if wb > 0.0 && wb.is_finite() {
            best = best.max((wb - wa) / wb);
        } else if wb.is_infinite() && wa.is_finite() {
            best = 1.0;
        }
    }
    best
}

/// Size a slot-file buffer without per-box reinitialization.
///
/// Every tape pass is **write-before-read** (see `xcv_expr::itape`): a full
/// forward pass overwrites every slot it will read, and the dirty-slot
/// passes deliberately read a previous image — the rung-2 shaver's
/// (`forward_masked`) the box's own, the search's node pass
/// (`forward_from_image`) the parent's, kept in the image pool of
/// [`SolveScratch`], which grows the same way. Refilling a buffer with
/// [`Interval::ENTIRE`] per box — what a naive `vec![ENTIRE; n]` per call
/// amounts to — is therefore pure wasted memset; only the *length*
/// matters. The fill value here seeds newly grown slots and is never
/// semantically observed.
#[inline]
fn ensure_slots(buf: &mut Vec<Interval>, len: usize) {
    buf.resize(len, Interval::ENTIRE);
}

/// Reusable per-worker mutable state for [`CompiledFormula`] operations.
/// Buffers grow on demand, so one scratch serves problems of any size (and,
/// kept in a `thread_local`, every problem a worker thread ever touches).
///
/// Slot files are reused across boxes *without* reinitialization — tape
/// passes are write-before-read, so refilling with `ENTIRE` per box would
/// be pure wasted memset (see `ensure_slots`).
#[derive(Debug, Default)]
pub struct SolveScratch {
    /// Slot file of the formula's shared interval tape: the box's forward
    /// image, contracted in place by the HC4 rounds.
    ivals: Vec<Interval>,
    /// The search's image pool: one forward image per DFS depth, flat,
    /// depth `d` at `d × slots..(d + 1) × slots`, grown on demand. While
    /// the search pops a node at depth `d`, the image at `d − 1` is its
    /// parent's, the last node popped at that depth; the image at `d` is
    /// overwritten with the node's own (see
    /// [`CompiledFormula::contract_node`]). Depth 0 runs a full pass, so
    /// the images a previous search left behind — for another formula,
    /// with another slot count — are never read.
    images: Vec<Interval>,
    /// One dirty flag per `ivals` slot for the HC4 passes: `false` while the
    /// slot still holds the value the last forward or `forward_meet`
    /// evaluation computed, so the backward sweep may skip a total
    /// operation's inverse rule there. Unlike the slot files, rewritten per
    /// box (cleared after each forward pass).
    dirty: Vec<bool>,
    /// Register file for the f64 atom tapes (resized per atom).
    fvals: Vec<f64>,
    /// DFS work stack of the branch-and-prune search:
    /// `(box, depth, pristine)` — `pristine` is the inherited
    /// no-ladder-ancestor flag (see `DeltaSolver::step_after_contract`).
    pub(crate) stack: Vec<(BoxDomain, u32, bool)>,
    /// Point box and slot file of the interval-certified midpoint check.
    cert_point: Vec<Interval>,
    cert_vals: Vec<Interval>,
    /// Working box of the rung-1 interval-Newton contractor.
    newton_dims: Vec<Interval>,
    /// Sweep buffers of the shared Newton driver.
    newton: xcv_expr::newton::NewtonScratch,
    /// Probe domains of the rung-2 3B shaver.
    shave_doms: Vec<Interval>,
    /// Slot file of the rung-2 3B shaver's forward passes.
    shave_vals: Vec<Interval>,
}

impl SolveScratch {
    pub fn new() -> SolveScratch {
        SolveScratch::default()
    }

    /// The shared f64 buffer, for callers evaluating [`CompiledAtom`]s with
    /// this scratch (e.g. ψ validation in the verifier).
    pub fn f64_buf(&mut self) -> &mut Vec<f64> {
        &mut self.fvals
    }

    /// The interval slot file as the last contraction left it: every slot
    /// of the formula's shared tape, the variable slots included. The
    /// equivalence tests compare it with the certificate checker's
    /// reference contraction.
    pub fn slot_file(&self) -> &[Interval] {
        &self.ivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{Atom, Rel};
    use xcv_expr::var;

    /// Contract `b` against `f` with the search's round count.
    fn contract(f: &Formula, b: &BoxDomain) -> BoxDomain {
        let compiled = CompiledFormula::compile(f);
        let mut scratch = SolveScratch::new();
        match compiled.contract_with_rounds(b, &mut scratch, compiled.max_rounds()) {
            Contraction::Box(nb) => nb,
            Contraction::Empty => panic!("{f} is feasible on {b}"),
        }
    }

    #[test]
    fn compiled_contract_reaches_the_solution_hull() {
        // x² − 4 ≤ 0 ∧ x − 1 ≥ 0 on [−10, 10]: the solutions are [1, 2].
        let f = Formula::new(vec![
            Atom::new(var(0).powi(2) - 4.0, Rel::Le),
            Atom::new(var(0) - 1.0, Rel::Ge),
        ]);
        let x = contract(&f, &BoxDomain::from_bounds(&[(-10.0, 10.0)])).dim(0);
        assert!(x.lo <= 1.0 && x.lo >= 1.0 - 1e-12, "{x:?}");
        assert!(x.hi >= 2.0 && x.hi <= 2.0 + 1e-12, "{x:?}");
    }

    #[test]
    fn folded_constants_contract_to_the_exact_bound() {
        // √2·x − e ≤ 0 carries two tape-foldable constants; the folded
        // contraction must still cut x at e/√2, rounded outward only.
        use xcv_expr::constant;
        let f = Formula::single(Atom::new(
            constant(2.0).sqrt() * var(0) - constant(1.0).exp(),
            Rel::Le,
        ));
        let x = contract(&f, &BoxDomain::from_bounds(&[(-10.0, 10.0)])).dim(0);
        let bound = std::f64::consts::E / std::f64::consts::SQRT_2;
        assert_eq!(x.lo, -10.0);
        assert!(x.hi >= bound && x.hi <= bound + 1e-12, "{x:?}");
    }

    #[test]
    fn shared_psi_atom_matches_standalone_compile() {
        let psi = Atom::new(var(0) - 3.0, Rel::Ge);
        let negation = Formula::single(psi.negate());
        let compiled = CompiledFormula::compile(&negation);
        let before = compile_count();
        let shared = compiled.atom_tape(0, psi.rel);
        assert_eq!(compile_count(), before, "tape sharing must not compile");
        let standalone = CompiledAtom::compile(&psi);
        for p in [[0.0], [3.0], [5.0], [f64::NAN]] {
            assert_eq!(shared.holds_at(&p), standalone.holds_at(&p));
            assert_eq!(shared.holds_at(&p), psi.holds_at(&p));
        }
    }

    #[test]
    fn scratch_reuse_does_not_leak_state() {
        // Contract a wide box, then an infeasible one, then the wide one
        // again: results must be identical on the repeats.
        let f = Formula::single(Atom::new(var(0) - 3.0, Rel::Le));
        let compiled = CompiledFormula::compile(&f);
        let mut scratch = SolveScratch::new();
        let wide = BoxDomain::from_bounds(&[(0.0, 10.0)]);
        let infeasible = BoxDomain::from_bounds(&[(5.0, 10.0)]);
        let first = compiled.contract_with_rounds(&wide, &mut scratch, compiled.max_rounds());
        assert_eq!(
            compiled.contract_with_rounds(&infeasible, &mut scratch, compiled.max_rounds()),
            Contraction::Empty
        );
        assert_eq!(
            compiled.contract_with_rounds(&wide, &mut scratch, compiled.max_rounds()),
            first
        );
    }

    #[test]
    fn holds_and_score_match_formula() {
        let f = Formula::new(vec![
            Atom::new(var(0) - 1.0, Rel::Ge),
            Atom::new(var(0) - 2.0, Rel::Le),
        ]);
        let compiled = CompiledFormula::compile(&f);
        let mut scratch = SolveScratch::new();
        for p in [[0.0], [1.5], [3.0]] {
            assert_eq!(compiled.holds_at(&p, &mut scratch), f.holds_at(&p));
        }
        assert_eq!(compiled.violation_score(&[1.5], &mut scratch), 0.0);
        assert!(compiled.violation_score(&[0.0], &mut scratch) > 0.9);
        // NaN (ln of a negative) scores +inf.
        let g = Formula::single(Atom::new(var(0).ln(), Rel::Ge));
        let cg = CompiledFormula::compile(&g);
        assert_eq!(cg.violation_score(&[-1.0], &mut scratch), f64::INFINITY);
    }

    // Counter-flatness assertions live in `tests/compile_once.rs`: unit
    // tests here share a process with sibling tests that compile formulas
    // on parallel threads, so a global-counter window would be racy.

    #[test]
    fn compiled_space_is_carried() {
        use xcv_expr::AxisKind;
        // A formula over axes 0 and 2 (axis 1 unused) with a typed per-spin
        // space attached.
        let f = Formula::single(Atom::new(var(0) * var(2) - 1.0, Rel::Le));
        let space = VarSpace::of_kinds(&[AxisKind::Rs, AxisKind::SUp, AxisKind::SDown]);
        let compiled = CompiledFormula::compile_in(&f, space);
        assert_eq!(
            compiled.var_space().unwrap().names(),
            vec!["rs", "s_up", "s_dn"]
        );
        // Anonymous compilation still works, with no space attached, and
        // contraction agrees between the two compilations.
        let anon = CompiledFormula::compile(&f);
        assert!(anon.var_space().is_none());
        let mut scratch = SolveScratch::new();
        let wide = BoxDomain::from_bounds(&[(0.0, 3.0), (0.0, 5.0), (0.0, 3.0)]);
        assert_eq!(
            compiled.contract_with_rounds(&wide, &mut scratch, compiled.max_rounds()),
            anon.contract_with_rounds(&wide, &mut scratch, anon.max_rounds())
        );
    }

    #[test]
    fn newton_contract_covers_the_first_order_cases() {
        use xcv_expr::AxisKind;
        let mut scratch = SolveScratch::new();
        let sweeps = crate::Escalation::full().newton_sweeps;
        let mut newton = |f: &CompiledFormula, bounds: &[(f64, f64)]| {
            f.newton_contract(&BoxDomain::from_bounds(bounds), sweeps, &mut scratch)
        };
        let le =
            |e: xcv_expr::Expr| CompiledFormula::compile(&Formula::single(Atom::new(e, Rel::Le)));

        // x − x² − 0.2 ≤ 0 on [0.4, 0.6]: the natural extension of x − x²
        // is [0.04, 0.44], so an HC4 round cannot refute the box; the
        // mean-value enclosure 0.25 + [−0.2, 0.2]·[−0.1, 0.1] = [0.23, 0.27]
        // can, in one step.
        let dependency = le(var(0) - var(0).powi(2) - 0.2);
        let b = BoxDomain::from_bounds(&[(0.4, 0.6)]);
        assert!(matches!(
            dependency.contract_with_rounds(&b, &mut SolveScratch::new(), 1),
            Contraction::Box(_)
        ));
        assert!(newton(&dependency, &[(0.4, 0.6)]).is_none());

        // x + 1 ≤ 0 on [−5, 5]: the first-order form is exact for linear
        // constraints, so the row solve cuts to [−5, −1].
        let nb = newton(&le(var(0) + 1.0), &[(-5.0, 5.0)]).expect("feasible");
        assert!(nb.dim(0).hi <= -1.0 + 1e-9, "{:?}", nb.dim(0));
        assert!(nb.dim(0).lo <= -5.0 + 1e-9);

        // x² − 2 ≤ 0 over [0.5, 5]: every solution (x ≤ √2) survives, and
        // the infeasible tail is cut.
        let nb = newton(&le(var(0).powi(2) - 2.0), &[(0.5, 5.0)]).expect("feasible");
        for i in 0..50 {
            let x = 0.5 + (2.0f64.sqrt() - 0.5) * (i as f64) / 49.0;
            if x * x <= 2.0 {
                assert!(nb.contains_point(&[x]), "lost {x}");
            }
        }
        assert!(nb.dim(0).hi < 5.0);

        // x ≥ 0 ∧ x + 10 ≤ 0 cannot hold.
        let contradiction = CompiledFormula::compile(&Formula::new(vec![
            Atom::new(var(0), Rel::Ge),
            Atom::new(var(0) + 10.0, Rel::Le),
        ]));
        assert!(newton(&contradiction, &[(-1.0, 1.0)]).is_none());

        // x + y ≥ 0 on a box where x + y ≤ −1 everywhere.
        let sum = CompiledFormula::compile(&Formula::single(Atom::new(var(0) + var(1), Rel::Ge)));
        assert!(newton(&sum, &[(-2.0, -1.0), (-2.0, -0.5)]).is_none());

        // The feasible circle box (the point (0.5, 0.5) solves it) is kept.
        let circle = le(var(0).powi(2) + var(1).powi(2) - 1.0);
        assert!(newton(&circle, &[(0.3, 0.7), (0.3, 0.7)]).is_some());

        // ln over a box straddling 0: the midpoint may lie outside the
        // domain; no panic, and a feasible box is kept.
        let ln = le(var(0).ln());
        let _ = newton(&ln, &[(-1.0, 0.5)]);
        assert!(newton(&ln, &[(0.1, 0.9)]).is_some());

        // x0·x2 ∈ [4, 9] on the box, so x0·x2 ≤ 1 is infeasible — through
        // the axis-indexed program with a typed space attached (axis 1
        // unused) and without one.
        let product = Formula::single(Atom::new(var(0) * var(2) - 1.0, Rel::Le));
        let space = VarSpace::of_kinds(&[AxisKind::Rs, AxisKind::SUp, AxisKind::SDown]);
        let product_box = [(2.0, 3.0), (0.0, 5.0), (2.0, 3.0)];
        assert!(newton(&CompiledFormula::compile_in(&product, space), &product_box).is_none());
        assert!(newton(&CompiledFormula::compile(&product), &product_box).is_none());

        // A variable beyond the box cannot be bounded: the first-order
        // form carries no information, so the box comes back unchanged.
        let beyond = [(0.0, 1.0)];
        for e in [var(1) + 1.0, var(0).min(&var(1))] {
            let nb = newton(&le(e), &beyond).expect("no information");
            assert_eq!(nb, BoxDomain::from_bounds(&beyond));
        }
    }
}
