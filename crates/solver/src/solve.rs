//! Branch-and-prune δ-complete search.
//!
//! Solving is a two-phase affair since the compile-once rework:
//! [`crate::CompiledFormula::compile`] lowers a formula to flat tapes once,
//! and [`DeltaSolver::solve_compiled`] runs the branch-and-prune loop over a
//! borrowed compiled formula plus a reusable [`SolveScratch`] — zero
//! compilation, zero allocation churn per box. The original
//! [`DeltaSolver::solve`]`(&BoxDomain, &Formula)` signature survives as a
//! thin compile-then-solve wrapper for one-shot callers and tests.
//!
//! The search is a depth-first walk over a stack of boxes. Each popped box
//! is contracted from its forward image, which the scratch's image pool
//! keeps per depth: the root's comes from a full pass, a child's from its
//! parent's image, recomputing only the dependency cones of the axes where
//! the child differs from it: the split axis, and every axis that HC4,
//! rung-1 Newton or the rung-2 shaver narrowed in the parent's step.
//! The image at depth `d − 1` is the parent's whenever a node at depth `d`
//! is popped: both children are pushed together, and every node popped in
//! between descends from the parent, at a greater depth. The image pass is
//! bit-identical to a full one, so the search is the same node for node.
//!
//! Per box, one decision step, `step_after_contract`, runs after HC4
//! contraction: when the [`Escalation`] ladder is on and the box stalled,
//! rung-1 interval-Newton and rung-2 3B slab shaving, then the midpoint
//! model check, δ-decision, and axis-aware bisection. The same step
//! records the [`TraceEvent`] stream (one terminal event per node,
//! intermediates for Newton/shave) that trace replay and certificate
//! emission consume.

use crate::boxdom::BoxDomain;
use crate::compile::{CompiledFormula, SolveScratch};
use crate::contract::Contraction;
use crate::formula::Formula;
use std::time::Instant;

/// Result of a [`DeltaSolver::solve`] call — the same three-way interface
/// the paper's Algorithm 1 consumes from dReal.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The formula has no solution in the box (sound).
    Unsat,
    /// The δ-weakening is satisfiable; the witness point satisfies every atom
    /// within δ (it may fail the exact formula — callers re-check).
    DeltaSat(Vec<f64>),
    /// Budget exhausted before a decision.
    Timeout,
}

/// Resource limits for one solve call (the paper used a 2-hour wall-clock
/// limit per dReal invocation; a node budget gives deterministic tests).
#[derive(Debug, Clone, Copy)]
pub struct SolveBudget {
    pub max_nodes: u64,
    pub max_millis: u64,
}

impl Default for SolveBudget {
    fn default() -> Self {
        SolveBudget {
            max_nodes: 200_000,
            max_millis: 2_000,
        }
    }
}

impl SolveBudget {
    pub fn nodes(n: u64) -> Self {
        SolveBudget {
            max_nodes: n,
            max_millis: u64::MAX,
        }
    }

    pub fn millis(ms: u64) -> Self {
        SolveBudget {
            max_nodes: u64::MAX,
            max_millis: ms,
        }
    }
}

/// Search statistics, for benchmarking and ablation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// Boxes popped from the work stack.
    pub nodes: u64,
    /// Boxes discarded by contraction.
    pub pruned: u64,
    /// Boxes split.
    pub branched: u64,
    /// Maximum depth reached.
    pub max_depth: u32,
}

impl SolveStats {
    /// Fold another run's statistics into this one (counters add, depth
    /// maxes) — used by the verifier to aggregate over a whole box tree.
    pub fn absorb(&mut self, other: SolveStats) {
        self.nodes += other.nodes;
        self.pruned += other.pruned;
        self.branched += other.branched;
        self.max_depth = self.max_depth.max(other.max_depth);
    }
}

/// The contractor escalation ladder: what a *stalled* box gets instead of
/// burning its budget on bisection. Rung 0 is the always-on HC4 round; a
/// box whose rung-0 contraction gain falls below [`Escalation::stall_gain`]
/// escalates to rung 1 — interval-Newton (Gauss–Seidel) sweeps over the
/// compiled gradient tapes, the solver's one first-order (mean-value)
/// contractor — and, still stalled, to rung 2 — 3B slab shaving at the box
/// faces with dirty-cone re-evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Escalation {
    /// Highest rung a box may escalate to (`0` = ladder off, the default;
    /// `1` = Newton; `2` = Newton + 3B shaving).
    pub max_rung: u8,
    /// Contraction gain (relative width reduction, max over axes) below
    /// which a box counts as stalled and escalates.
    pub stall_gain: f64,
    /// Interval-Newton Gauss–Seidel sweeps per rung-1 call.
    pub newton_sweeps: usize,
    /// Relative slab width the rung-2 shaver probes at each box face.
    pub shave_frac: f64,
    /// Maximum consecutive slabs shaved per face and rung-2 call.
    pub shave_passes: u32,
    /// Deepest node (depth within one box's search tree) that may escalate.
    /// Contractions high in the tree are inherited by whole subtrees, so
    /// they carry almost all of the ladder's pruning power; deep stalled
    /// nodes are legion and each matters little, so escalating them buys
    /// timeouts back at a ruinous wall-clock price. (The sub-δ
    /// flip-prevention machinery is *not* depth-gated — soundness of the
    /// δ-decision must hold wherever the search lands.)
    pub depth_cap: u32,
    /// Shave only every `shave_stride`-th depth level (`depth %
    /// shave_stride == 0`). Rung 2 is paid per *stalled node*, and in a
    /// timeout-bound subtree nearly every node stalls. Its cost is the
    /// dirty-cone probes more than the full forward pass that seeds each
    /// `shave_3b` call: in `solver_bench --extended`'s ladder mode (2-vCPU
    /// host), 425,093 probe passes over 35,423 calls took 2,161 of rung
    /// 2's 2,551 ms, and the seed passes 344 ms. A stride keeps the
    /// coverage of the whole depth range (unlike a hard cap) at `1/stride`
    /// of the cost: a slab missed at depth `d` is re-probed two levels
    /// down on the narrowed child, where it is more likely infeasible
    /// anyway.
    pub shave_stride: u32,
    /// Widest box (max supported-axis width) rung 1 attempts. The
    /// mean-value enclosure behind interval-Newton is first-order tight,
    /// so on wide boxes the gradient ranges blow up and the sweeps are
    /// expensive no-ops; wide stalled boxes skip straight to rung-2
    /// shaving, whose dirty-cone probes stay cheap at any width.
    pub newton_width_cap: f64,
}

impl Escalation {
    /// Ladder disabled: rung-0 behaviour, bit-identical to the pre-ladder
    /// solver.
    pub fn off() -> Escalation {
        Escalation {
            max_rung: 0,
            ..Escalation::full()
        }
    }

    /// The full ladder with the fitted defaults (see `solver_bench`'s
    /// `ladder` mode for the measured trajectory).
    pub fn full() -> Escalation {
        Escalation {
            max_rung: 2,
            stall_gain: 0.25,
            newton_sweeps: 2,
            shave_frac: 0.0625,
            shave_passes: 5,
            depth_cap: 8,
            shave_stride: 1,
            newton_width_cap: 0.25,
        }
    }
}

impl Default for Escalation {
    fn default() -> Self {
        Escalation::off()
    }
}

/// The δ-complete solver: HC4 contraction + depth-first branch-and-prune.
#[derive(Debug, Clone)]
pub struct DeltaSolver {
    /// Numerical relaxation of atom bounds (dReal's δ); also the box-width
    /// scale at which undecided boxes are declared δ-SAT.
    pub delta: f64,
    pub budget: SolveBudget,
    /// The contractor escalation ladder for stalled boxes; off by default.
    /// It changes *which* boxes the search visits (stalled boxes contract
    /// harder instead of splitting), so it turns rung-0 timeouts into
    /// decisions.
    pub escalation: Escalation,
}

impl Default for DeltaSolver {
    fn default() -> Self {
        DeltaSolver {
            delta: 1e-3,
            budget: SolveBudget::default(),
            escalation: Escalation::off(),
        }
    }
}

/// The decision the search takes on one contracted box.
enum BoxStep {
    /// The box contains no solution.
    Pruned,
    /// The box contains no solution, proved by the rung-1 Newton contractor
    /// (same pruning semantics as `Pruned`; the distinction only matters to
    /// the trace, where the checker must replay a Newton step instead of an
    /// HC4 contraction).
    NewtonPruned,
    /// δ-SAT with this model (exact midpoint hit or width-floor decision).
    Sat(Vec<f64>),
    /// Undecided: halves in search order (`first` is explored first).
    /// `parent` is the contracted box they were bisected from, `axis` the
    /// bisected dimension, and `low_first` whether `first` is the lower
    /// half — all a trace replay needs to reconstruct the exploration
    /// order.
    Split {
        first: BoxDomain,
        second: BoxDomain,
        parent: BoxDomain,
        axis: u32,
        low_first: bool,
        /// Neither this node nor any ancestor was modified by a ladder
        /// rung (Newton/shave): the children's geometry is bit-identical
        /// to the rung-0 search, so their δ-decisions may take the plain
        /// rung-0 fast paths (see `step_after_contract`).
        pristine: bool,
    },
}

/// One step of a traced search, recorded at the moment the popped
/// box's decision is taken. Together with the root box, the sequence of
/// events reconstructs the entire explored cover: a replay maintains the
/// same DFS stack, so an independent checker (the `xcv-cert` crate) can
/// re-derive every visited box without access to the search itself.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The popped box was discarded: HC4 contraction proved it empty.
    Pruned,
    /// The popped box stayed undecided and was bisected: `contracted` is
    /// the box after contraction, `axis` the bisected dimension, and
    /// `low_first` whether the lower half was explored first.
    Split {
        contracted: BoxDomain,
        axis: u32,
        low_first: bool,
    },
    /// The search stopped with this δ-SAT model inside the popped box.
    Sat { model: Vec<f64> },
    /// Rung 1 tightened the current box to `contracted` (an intermediate
    /// event: the node's terminal `Split`/`Sat` follows). The checker
    /// replays the recorded gradient tapes through the shared
    /// [`xcv_expr::newton::newton_contract`] and verifies by subset tests.
    Newton { contracted: BoxDomain },
    /// Rung 1 proved the current box has no solution (terminal for the
    /// node, like `Pruned`).
    NewtonPruned,
    /// Rung 2 shaved a slab off one face of the current box: axis
    /// `axis`'s bound moved to `bound` (its high bound when `high_face`,
    /// else its low bound). Intermediate, possibly repeated. The checker
    /// verifies each slab independently by a forward evaluation over the
    /// recorded main tape.
    Shave {
        axis: u32,
        high_face: bool,
        bound: f64,
    },
}

/// The recorded events of one [`DeltaSolver::solve_compiled_traced`] call,
/// in pop order (one event per visited node).
#[derive(Debug, Clone, Default)]
pub struct SolveTrace {
    pub events: Vec<TraceEvent>,
    /// The search ran to a decision (`Unsat`/`DeltaSat`), i.e. the events
    /// account for the whole explored cover; `false` after a `Timeout`.
    pub complete: bool,
}

impl DeltaSolver {
    pub fn new(delta: f64, budget: SolveBudget) -> Self {
        DeltaSolver {
            delta,
            budget,
            escalation: Escalation::off(),
        }
    }

    /// Set the contractor escalation ladder (see [`Escalation`]).
    pub fn with_escalation(mut self, escalation: Escalation) -> Self {
        self.escalation = escalation;
        self
    }

    /// A stable 64-bit fingerprint of every field that can change a solve's
    /// *answer or coverage*: δ, both budget axes, and the full escalation
    /// ladder — every field the solver has. Two solvers with equal
    /// fingerprints produce bit-identical outcomes on any compiled problem,
    /// so memoized result stores key on this (FNV-1a over the exact bit
    /// patterns — no float rounding in the key).
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        // Destructured without `..`: a new field does not compile until it
        // is hashed here.
        let DeltaSolver {
            delta,
            budget:
                SolveBudget {
                    max_nodes,
                    max_millis,
                },
            escalation:
                Escalation {
                    max_rung,
                    stall_gain,
                    newton_sweeps,
                    shave_frac,
                    shave_passes,
                    depth_cap,
                    shave_stride,
                    newton_width_cap,
                },
        } = self;
        let mut h = OFFSET;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(delta.to_bits());
        eat(*max_nodes);
        eat(*max_millis);
        eat(u64::from(*max_rung));
        eat(stall_gain.to_bits());
        eat(*newton_sweeps as u64);
        eat(shave_frac.to_bits());
        eat(u64::from(*shave_passes));
        eat(u64::from(*depth_cap));
        eat(u64::from(*shave_stride));
        eat(newton_width_cap.to_bits());
        h
    }

    /// Decide `formula` over `domain` (one-shot: compiles the formula, then
    /// solves — callers visiting many boxes should compile once and use
    /// [`DeltaSolver::solve_compiled`]).
    pub fn solve(&self, domain: &BoxDomain, formula: &Formula) -> Outcome {
        self.solve_with_stats(domain, formula).0
    }

    /// Decide `formula` over `domain`, returning search statistics
    /// (one-shot; see [`DeltaSolver::solve`]).
    pub fn solve_with_stats(&self, domain: &BoxDomain, formula: &Formula) -> (Outcome, SolveStats) {
        let compiled = CompiledFormula::compile(formula);
        let mut scratch = SolveScratch::new();
        self.solve_compiled_with_stats(domain, &compiled, &mut scratch)
    }

    /// Decide the compiled formula over `domain`, reusing `scratch` — the
    /// hot path: no compilation, no topo sorts, no per-box allocation beyond
    /// box splitting.
    pub fn solve_compiled(
        &self,
        domain: &BoxDomain,
        compiled: &CompiledFormula,
        scratch: &mut SolveScratch,
    ) -> Outcome {
        self.solve_compiled_with_stats(domain, compiled, scratch).0
    }

    /// [`DeltaSolver::solve_compiled`] with search statistics.
    pub fn solve_compiled_with_stats(
        &self,
        domain: &BoxDomain,
        compiled: &CompiledFormula,
        scratch: &mut SolveScratch,
    ) -> (Outcome, SolveStats) {
        self.search(domain, compiled, scratch, None)
    }

    /// [`DeltaSolver::solve_compiled_with_stats`] with the per-node search
    /// events recorded for certificate emission.
    pub fn solve_compiled_traced(
        &self,
        domain: &BoxDomain,
        compiled: &CompiledFormula,
        scratch: &mut SolveScratch,
    ) -> (Outcome, SolveStats, SolveTrace) {
        let mut trace = SolveTrace::default();
        let (outcome, stats) = self.search(domain, compiled, scratch, Some(&mut trace));
        trace.complete = !matches!(outcome, Outcome::Timeout);
        (outcome, stats, trace)
    }

    /// The depth-first branch-and-prune search, optionally recording one
    /// [`TraceEvent`] per visited node.
    fn search(
        &self,
        domain: &BoxDomain,
        compiled: &CompiledFormula,
        scratch: &mut SolveScratch,
        mut trace: Option<&mut SolveTrace>,
    ) -> (Outcome, SolveStats) {
        let mut stats = SolveStats::default();
        if domain.is_empty() {
            return (Outcome::Unsat, stats);
        }
        let start = Instant::now();
        scratch.stack.clear();
        scratch.stack.push((domain.clone(), 0, true));
        // Supported-axis boxes narrower than this are δ-decided.
        let width_floor = self.delta.max(1e-12);
        while let Some((b, depth, pristine)) = scratch.stack.pop() {
            stats.nodes += 1;
            stats.max_depth = stats.max_depth.max(depth);
            // Compare elapsed time in u128: truncating `as_millis()` to u64
            // invites silent wrap bugs (mirrors `Verifier::past_deadline`).
            if stats.nodes > self.budget.max_nodes
                || (stats.nodes % 64 == 0
                    && start.elapsed().as_millis() > u128::from(self.budget.max_millis))
            {
                return (Outcome::Timeout, stats);
            }
            let contraction = compiled.contract_node(&b, depth, scratch);
            let step = self.step_after_contract(
                compiled,
                &b,
                contraction,
                scratch,
                width_floor,
                depth,
                pristine,
                trace.as_deref_mut().map(|t| &mut t.events),
            );
            match step {
                BoxStep::Pruned => {
                    stats.pruned += 1;
                    if let Some(t) = trace.as_deref_mut() {
                        t.events.push(TraceEvent::Pruned);
                    }
                }
                BoxStep::NewtonPruned => {
                    stats.pruned += 1;
                    if let Some(t) = trace.as_deref_mut() {
                        t.events.push(TraceEvent::NewtonPruned);
                    }
                }
                BoxStep::Sat(mid) => {
                    if let Some(t) = trace.as_deref_mut() {
                        t.events.push(TraceEvent::Sat { model: mid.clone() });
                    }
                    return (Outcome::DeltaSat(mid), stats);
                }
                BoxStep::Split {
                    first,
                    second,
                    parent,
                    axis,
                    low_first,
                    pristine,
                } => {
                    stats.branched += 1;
                    if let Some(t) = trace.as_deref_mut() {
                        t.events.push(TraceEvent::Split {
                            contracted: parent,
                            axis,
                            low_first,
                        });
                    }
                    // DFS order: the preferred half is pushed last, popped
                    // first.
                    if !second.is_empty() {
                        scratch.stack.push((second, depth + 1, pristine));
                    }
                    if !first.is_empty() {
                        scratch.stack.push((first, depth + 1, pristine));
                    }
                }
            }
        }
        (Outcome::Unsat, stats)
    }

    /// The per-box decision of the branch-and-prune search, applied after
    /// contraction: the escalation ladder, the midpoint model check, the
    /// δ-decision, and bisection. `b` is the popped (pre-contraction) box —
    /// the ladder's stall detector measures the contraction gain against
    /// it. `events` receives the ladder's intermediate trace events (every
    /// terminal event — `Pruned`, `NewtonPruned`, `Split`, `Sat` — stays
    /// with the caller). `pristine` says no ancestor box was modified by a
    /// ladder rung: such a node's geometry — and therefore its midpoint
    /// and δ-decision — is bit-identical to the rung-0 search, so the
    /// flip-prevention machinery (certified midpoint confirmation, sub-δ
    /// Newton refutation, δ-refinement) can be skipped; it exists only to
    /// keep ladder-*shifted* geometry from δ-deciding where rung 0 would
    /// have proven Unsat.
    #[allow(clippy::too_many_arguments)]
    fn step_after_contract(
        &self,
        compiled: &CompiledFormula,
        b: &BoxDomain,
        contraction: Contraction,
        scratch: &mut SolveScratch,
        width_floor: f64,
        depth: u32,
        pristine: bool,
        mut events: Option<&mut Vec<TraceEvent>>,
    ) -> BoxStep {
        let mut contracted = match contraction {
            Contraction::Empty => return BoxStep::Pruned,
            Contraction::Box(nb) => nb,
        };
        if contracted.is_empty() {
            return BoxStep::Pruned;
        }
        // Escalation ladder: a box whose rung-0 contraction stalled gets
        // stronger contractors instead of burning budget on bisection. Only
        // *wide* boxes escalate: a box already near the δ resolution is
        // about to be δ-decided exactly like the rung-0 search would decide
        // it, and contracting it further can only move the δ-decision to a
        // different (sub-δ) box — that is how a rung-0 Unsat could flip to a
        // spurious δ-Sat. The δ-decision below is likewise taken on the
        // rung-0 width, so the ladder never *creates* δ-Sat leaves, it only
        // prunes or narrows boxes the search would have split anyway.
        let esc = self.escalation;
        let rung0_width = compiled.split_width(&contracted);
        let mut laddered = false;
        if esc.max_rung >= 1
            && depth <= esc.depth_cap
            && rung0_width > 4.0 * width_floor
            && crate::compile::improvement(b, &contracted) < esc.stall_gain
        {
            // Rung 1: interval-Newton Gauss–Seidel over the gradient tapes —
            // but only on boxes narrow enough for the first-order mean-value
            // enclosure to bite (see [`Escalation::newton_width_cap`]).
            let mut stalled = true;
            if rung0_width <= esc.newton_width_cap {
                match compiled.newton_contract(&contracted, esc.newton_sweeps, scratch) {
                    None => return BoxStep::NewtonPruned,
                    Some(nb) => {
                        stalled = crate::compile::improvement(&contracted, &nb) < esc.stall_gain;
                        if nb != contracted {
                            if let Some(ev) = events.as_deref_mut() {
                                ev.push(TraceEvent::Newton {
                                    contracted: nb.clone(),
                                });
                            }
                            laddered = true;
                            contracted = nb;
                        }
                    }
                }
            }
            // Rung 2: 3B slab shaving when Newton was skipped or stalled,
            // on strided depth levels (see [`Escalation::shave_stride`]).
            if esc.max_rung >= 2 && stalled && depth.is_multiple_of(esc.shave_stride) {
                if let Some(nb) = compiled.shave_3b(
                    &contracted,
                    scratch,
                    esc.shave_frac,
                    esc.shave_passes,
                    |axis, high_face, bound| {
                        if let Some(ev) = events.as_deref_mut() {
                            ev.push(TraceEvent::Shave {
                                axis,
                                high_face,
                                bound,
                            });
                        }
                    },
                ) {
                    laddered = true;
                    contracted = nb;
                }
            }
        }
        // A node in a never-laddered subtree has exactly the box the rung-0
        // search would pop here, so every decision below may take the plain
        // rung-0 path — the flip-prevention detours only guard geometry the
        // ladder *shifted*.
        let pristine = pristine && !laddered;
        // Fast model check: an exact solution at the midpoint settles it.
        // With the ladder on, the f64 claim is only a gate: it must be
        // confirmed by an outward-rounded interval evaluation, because the
        // ladder visits midpoints the rung-0 geometry never does — where a
        // rounding-level false positive would flip a sound rung-0 Unsat
        // into a spurious δ-Sat (observed near the `ln rs` cancellation of
        // the correlation functionals).
        let mid = contracted.midpoint();
        if compiled.holds_at(&mid, scratch)
            && (pristine || compiled.holds_at_certified(&mid, scratch))
        {
            return BoxStep::Sat(mid);
        }
        // δ-decision on small boxes: contraction could not rule the box out,
        // so the δ-weakening is satisfiable here (dReal's semantics). Only
        // *supported* axes count — an axis the formula never mentions cannot
        // affect satisfaction, so its width must not keep the box undecided.
        // The width tested is the *rung-0* one: a box the ladder contracted
        // below δ is split instead, so its children get their own HC4 round
        // exactly where the ladder-off search would have explored — the
        // ladder must never declare δ-Sat on a box rung 0 would have split.
        if rung0_width <= width_floor {
            if pristine {
                return BoxStep::Sat(mid);
            }
            // Last-resort rung-1 infeasibility test before punting to δ-Sat:
            // ladder contraction upstream shifts split midpoints, so the
            // search can reach sub-δ boxes that straddle the leaves the
            // rung-0 tree pruned — HC4 stalls on the straddling hull, but
            // the mean-value enclosure is first-order tight at sub-δ width.
            // Only the empty-proof is used; a mere contraction is discarded
            // (the box is about to be δ-decided either way, and a decision
            // must not move to a different sub-δ box).
            if compiled
                .newton_contract(&contracted, esc.newton_sweeps, scratch)
                .is_none()
            {
                return BoxStep::NewtonPruned;
            }
            // δ-refinement under the ladder: when Newton cannot refute the
            // straddling hull either, bisect up to two levels further
            // before the δ-Sat verdict — HC4 is not union-closed, so the
            // aligned halves are often refutable where their hull is not.
            // A δ/4-wide box is still δ-decided, exactly as without the
            // ladder.
            if rung0_width <= width_floor / 4.0 {
                return BoxStep::Sat(mid);
            }
        }
        // Branch on the widest supported dimension (never an axis the
        // expression does not mention); search the half whose midpoint is
        // closer to satisfying the formula first. Scoring runs on the
        // compiled f64 tapes.
        let (l, r, axis) = compiled.bisect_supported(&contracted);
        let sl = compiled.violation_score(&l.midpoint(), scratch);
        let sr = compiled.violation_score(&r.midpoint(), scratch);
        if sl <= sr {
            BoxStep::Split {
                first: l,
                second: r,
                parent: contracted,
                axis,
                low_first: true,
                pristine,
            }
        } else {
            BoxStep::Split {
                first: r,
                second: l,
                parent: contracted,
                axis,
                low_first: false,
                pristine,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{Atom, Rel};
    use xcv_expr::{constant, var};

    fn solver() -> DeltaSolver {
        DeltaSolver::new(1e-4, SolveBudget::nodes(200_000))
    }

    #[test]
    fn unsat_simple() {
        // x^2 + 1 <= 0 has no real solution.
        let f = Formula::single(Atom::new(var(0).powi(2) + 1.0, Rel::Le));
        let b = BoxDomain::from_bounds(&[(-10.0, 10.0)]);
        assert_eq!(solver().solve(&b, &f), Outcome::Unsat);
    }

    #[test]
    fn sat_with_exact_model() {
        // x^2 - 4 <= 0 and x - 1 >= 0: satisfiable on [1, 2].
        let f = Formula::new(vec![
            Atom::new(var(0).powi(2) - 4.0, Rel::Le),
            Atom::new(var(0) - 1.0, Rel::Ge),
        ]);
        let b = BoxDomain::from_bounds(&[(-10.0, 10.0)]);
        match solver().solve(&b, &f) {
            Outcome::DeltaSat(m) => {
                assert!(f.holds_at(&m), "model {m:?} must satisfy exactly here");
                assert!((1.0..=2.0).contains(&m[0]));
            }
            other => panic!("expected DeltaSat, got {other:?}"),
        }
    }

    #[test]
    fn unsat_transcendental() {
        // exp(x) <= 0 is unsatisfiable.
        let f = Formula::single(Atom::new(var(0).exp(), Rel::Le));
        let b = BoxDomain::from_bounds(&[(-50.0, 50.0)]);
        assert_eq!(solver().solve(&b, &f), Outcome::Unsat);
    }

    #[test]
    fn tight_feasible_sliver_found() {
        // | sin-free thin band: 1e-6 <= x - y <= 2e-6 inside [0,1]^2.
        let d = var(0) - var(1);
        let f = Formula::new(vec![
            Atom::new(d.clone() - 1e-6, Rel::Ge),
            Atom::new(d - 2e-6, Rel::Le),
        ]);
        let b = BoxDomain::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
        let s = DeltaSolver::new(1e-9, SolveBudget::nodes(500_000));
        match s.solve(&b, &f) {
            Outcome::DeltaSat(m) => {
                let v = m[0] - m[1];
                assert!((1e-6 - 1e-9..=2e-6 + 1e-9).contains(&v), "v = {v}");
            }
            other => panic!("expected DeltaSat, got {other:?}"),
        }
    }

    #[test]
    fn timeout_respected() {
        // A hard equality-like band with a zero node budget must time out.
        let f = Formula::new(vec![
            Atom::new(var(0).powi(2) + var(1).powi(2) - 1.0, Rel::Ge),
            Atom::new(var(0).powi(2) + var(1).powi(2) - 1.0, Rel::Le),
        ]);
        let b = BoxDomain::from_bounds(&[(-2.0, 2.0), (-2.0, 2.0)]);
        let s = DeltaSolver::new(1e-12, SolveBudget::nodes(2));
        assert_eq!(s.solve(&b, &f), Outcome::Timeout);
    }

    #[test]
    fn circle_boundary_delta_sat() {
        // The unit circle as two inequalities: only δ-solutions exist.
        let r2 = var(0).powi(2) + var(1).powi(2);
        let f = Formula::new(vec![
            Atom::new(r2.clone() - 1.0, Rel::Ge),
            Atom::new(r2 - 1.0, Rel::Le),
        ]);
        let b = BoxDomain::from_bounds(&[(-2.0, 2.0), (-2.0, 2.0)]);
        let s = DeltaSolver::new(1e-3, SolveBudget::nodes(1_000_000));
        match s.solve(&b, &f) {
            Outcome::DeltaSat(m) => {
                let r = m[0] * m[0] + m[1] * m[1];
                assert!((r - 1.0).abs() < 0.05, "model radius^2 {r}");
            }
            other => panic!("expected DeltaSat, got {other:?}"),
        }
    }

    #[test]
    fn empty_domain_is_unsat() {
        let f = Formula::single(Atom::new(var(0), Rel::Ge));
        let b = BoxDomain::new(vec![xcv_interval::Interval::EMPTY]);
        assert_eq!(solver().solve(&b, &f), Outcome::Unsat);
    }

    #[test]
    fn point_domain() {
        let f = Formula::single(Atom::new(var(0) - 2.0, Rel::Ge));
        let hit = BoxDomain::from_bounds(&[(2.0, 2.0)]);
        let miss = BoxDomain::from_bounds(&[(1.0, 1.0)]);
        assert!(matches!(solver().solve(&hit, &f), Outcome::DeltaSat(_)));
        assert_eq!(solver().solve(&miss, &f), Outcome::Unsat);
    }

    #[test]
    fn lambert_constraint_end_to_end() {
        // W(x) >= 1 and x <= 2: unsat since W(2) ≈ 0.852.
        let f = Formula::new(vec![
            Atom::new(var(0).lambert_w() - 1.0, Rel::Ge),
            Atom::new(var(0) - 2.0, Rel::Le),
        ]);
        let b = BoxDomain::from_bounds(&[(0.0, 100.0)]);
        assert_eq!(solver().solve(&b, &f), Outcome::Unsat);
    }

    #[test]
    fn ite_constraint_end_to_end() {
        // ite(x >= 0, x - 5, -x - 5) >= 0  means |x| >= 5.
        let e = xcv_expr::Expr::ite(&var(0), &(var(0) - 5.0), &(-var(0) - 5.0));
        let f = Formula::single(Atom::new(e, Rel::Ge));
        let inside = BoxDomain::from_bounds(&[(-4.0, 4.0)]);
        assert_eq!(solver().solve(&inside, &f), Outcome::Unsat);
        let outside = BoxDomain::from_bounds(&[(-10.0, 10.0)]);
        match solver().solve(&outside, &f) {
            Outcome::DeltaSat(m) => assert!(m[0].abs() >= 5.0 - 1e-3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stats_populated() {
        let f = Formula::single(Atom::new(var(0).powi(2) + 1.0, Rel::Le));
        let b = BoxDomain::from_bounds(&[(-10.0, 10.0)]);
        let (out, stats) = solver().solve_with_stats(&b, &f);
        assert_eq!(out, Outcome::Unsat);
        assert!(stats.nodes >= 1);
        assert!(stats.pruned >= 1);
    }

    #[test]
    fn strict_vs_nonstrict_boundary() {
        // x >= 0 and -x >= 0 has the single solution x = 0.
        let f = Formula::new(vec![
            Atom::new(var(0), Rel::Ge),
            Atom::new(-var(0), Rel::Ge),
        ]);
        let b = BoxDomain::from_bounds(&[(-1.0, 1.0)]);
        match solver().solve(&b, &f) {
            Outcome::DeltaSat(m) => assert!(m[0].abs() <= 1e-3),
            other => panic!("{other:?}"),
        }
        // Strict version x > 0 and -x > 0 — contraction alone cannot prove
        // emptiness of the closed relaxation, so a δ-SAT near 0 or Unsat are
        // both acceptable dReal-style answers; exact recheck must fail.
        let f = Formula::new(vec![
            Atom::new(var(0), Rel::Gt),
            Atom::new(-var(0), Rel::Gt),
        ]);
        match solver().solve(&b, &f) {
            Outcome::DeltaSat(m) => assert!(!f.holds_at(&m)),
            Outcome::Unsat | Outcome::Timeout => {}
        }
    }

    #[test]
    fn compiled_session_reuse_matches_one_shot() {
        // One compiled formula + one scratch across many boxes must agree
        // with a fresh compile-per-box solve on every box.
        let f = Formula::new(vec![
            Atom::new(var(0).powi(2) - 4.0, Rel::Le),
            Atom::new(var(0) - 1.0, Rel::Ge),
        ]);
        let s = solver();
        let compiled = CompiledFormula::compile(&f);
        let mut scratch = SolveScratch::new();
        for i in 0..12 {
            let lo = -6.0 + i as f64;
            let b = BoxDomain::from_bounds(&[(lo, lo + 1.5)]);
            let fresh = s.solve(&b, &f);
            let session = s.solve_compiled(&b, &compiled, &mut scratch);
            match (fresh, session) {
                (Outcome::Unsat, Outcome::Unsat) | (Outcome::Timeout, Outcome::Timeout) => {}
                (Outcome::DeltaSat(a), Outcome::DeltaSat(c)) => {
                    assert_eq!(a, c, "deterministic search must match");
                }
                (a, c) => panic!("divergent: {a:?} vs {c:?}"),
            }
        }
    }

    // The "session solving never compiles" counter assertion lives in
    // `tests/compile_once.rs` (own binary + mutex): the process-global
    // counter races with sibling unit tests compiling on parallel threads.

    #[test]
    fn unsupported_axes_never_split() {
        // The formula mentions only x0; the box carries a wide unused x1.
        // The δ-solver must decide without ever splitting (or δ-gating on)
        // axis 1 — an x1-split would blow the node count far past this
        // budget, and the witness keeps x1 at the untouched box midpoint.
        let f = Formula::new(vec![
            Atom::new(var(0) - 1.0, Rel::Ge),
            Atom::new(var(0) - 1.0 - 1e-6, Rel::Le),
        ]);
        let b = BoxDomain::from_bounds(&[(0.0, 2.0), (-1000.0, 1000.0)]);
        let s = DeltaSolver::new(1e-9, SolveBudget::nodes(500));
        let compiled = CompiledFormula::compile(&f);
        assert_eq!(compiled.support_mask(), 0b01);
        let mut scratch = SolveScratch::new();
        match s.solve_compiled(&b, &compiled, &mut scratch) {
            Outcome::DeltaSat(m) => {
                assert!((m[0] - 1.0).abs() <= 1e-5, "{m:?}");
                assert_eq!(m[1], 0.0, "unmentioned axis stays at the midpoint");
            }
            other => panic!("expected DeltaSat, got {other:?}"),
        }
    }

    #[test]
    fn ladder_turns_stall_into_decision() {
        // x − x² ≥ 0.2501 is unsatisfiable by a 1e-4 margin (max 0.25).
        // The natural extension's dependency error is first-order in the
        // box width, so plain HC4 must bisect to width ~1e-4 near the
        // peak; the ladder's mean-value enclosure is second-order tight
        // and prunes at width ~1e-2 — orders of magnitude fewer nodes.
        let f = Formula::single(Atom::new(var(0) - var(0).powi(2) - 0.2501, Rel::Ge));
        let b = BoxDomain::from_bounds(&[(0.0, 1.0)]);
        let compiled = CompiledFormula::compile(&f);
        let mut scratch = SolveScratch::new();
        let plain = DeltaSolver::new(1e-6, SolveBudget::nodes(200_000));
        let (_, plain_stats) = plain.solve_compiled_with_stats(&b, &compiled, &mut scratch);
        let ladder = plain.clone().with_escalation(Escalation::full());
        let (out, stats) = ladder.solve_compiled_with_stats(&b, &compiled, &mut scratch);
        assert_eq!(out, Outcome::Unsat);
        assert!(
            stats.nodes < plain_stats.nodes,
            "ladder {} vs rung-0 {}",
            stats.nodes,
            plain_stats.nodes
        );
        // A budget between the two: rung 0 times out, the ladder decides.
        let tight = SolveBudget::nodes(stats.nodes + 1);
        let plain_tight = DeltaSolver::new(1e-6, tight);
        assert_eq!(
            plain_tight.solve_compiled(&b, &compiled, &mut scratch),
            Outcome::Timeout
        );
        assert_eq!(
            plain_tight
                .with_escalation(Escalation::full())
                .solve_compiled(&b, &compiled, &mut scratch),
            Outcome::Unsat
        );
    }

    #[test]
    fn ladder_trace_records_newton_steps() {
        // Traced ladder solving must record the rung transforms so
        // certificates can replay them: every Newton box is a subset of
        // the box it tightened, and shave bounds stay inside their axis.
        let f = Formula::single(Atom::new(var(0) - var(0).powi(2) - 0.2501, Rel::Ge));
        let b = BoxDomain::from_bounds(&[(0.0, 1.0)]);
        let compiled = CompiledFormula::compile(&f);
        let mut scratch = SolveScratch::new();
        let s =
            DeltaSolver::new(1e-6, SolveBudget::nodes(200_000)).with_escalation(Escalation::full());
        let (out, _, trace) = s.solve_compiled_traced(&b, &compiled, &mut scratch);
        assert_eq!(out, Outcome::Unsat);
        assert!(trace.complete);
        assert!(
            trace
                .events
                .iter()
                .any(|e| matches!(e, TraceEvent::Newton { .. } | TraceEvent::NewtonPruned)),
            "ladder trace must contain Newton steps: {:?}",
            trace.events
        );
        // Replay the stack discipline: ladder events transform the current
        // box; terminal events consume it.
        let mut stack = vec![b.clone()];
        for e in &trace.events {
            let cur = stack.last().expect("event without a box").clone();
            match e {
                TraceEvent::Pruned | TraceEvent::NewtonPruned => {
                    stack.pop();
                }
                TraceEvent::Sat { .. } => {
                    stack.pop();
                }
                TraceEvent::Newton { contracted } => {
                    for i in 0..cur.ndim() {
                        assert!(contracted.dim(i).lo >= cur.dim(i).lo);
                        assert!(contracted.dim(i).hi <= cur.dim(i).hi);
                    }
                    *stack.last_mut().unwrap() = contracted.clone();
                }
                TraceEvent::Shave {
                    axis,
                    high_face,
                    bound,
                } => {
                    let d = cur.dim(*axis as usize);
                    assert!(d.lo < *bound && *bound < d.hi);
                    let nd = if *high_face {
                        xcv_interval::Interval::new(d.lo, *bound)
                    } else {
                        xcv_interval::Interval::new(*bound, d.hi)
                    };
                    let mut nb = cur.clone();
                    nb.set_dim(*axis as usize, nd);
                    *stack.last_mut().unwrap() = nb;
                }
                TraceEvent::Split {
                    contracted,
                    axis,
                    low_first,
                } => {
                    stack.pop();
                    let (l, r) = contracted.bisect_dim(*axis as usize);
                    if *low_first {
                        stack.push(r);
                        stack.push(l);
                    } else {
                        stack.push(l);
                        stack.push(r);
                    }
                }
            }
        }
        assert!(stack.is_empty(), "Unsat trace must consume every box");
    }

    #[test]
    fn fingerprint_covers_every_field() {
        let base =
            DeltaSolver::new(1e-3, SolveBudget::nodes(800)).with_escalation(Escalation::full());
        type Change = (&'static str, fn(&mut DeltaSolver));
        let changes: [Change; 11] = [
            ("delta", |s| s.delta = 2e-3),
            ("max_nodes", |s| s.budget.max_nodes = 801),
            ("max_millis", |s| s.budget.max_millis = 50),
            ("max_rung", |s| s.escalation.max_rung = 1),
            ("stall_gain", |s| s.escalation.stall_gain = 0.5),
            ("newton_sweeps", |s| s.escalation.newton_sweeps = 3),
            ("shave_frac", |s| s.escalation.shave_frac = 0.125),
            ("shave_passes", |s| s.escalation.shave_passes = 4),
            ("depth_cap", |s| s.escalation.depth_cap = 9),
            ("shave_stride", |s| s.escalation.shave_stride = 2),
            ("newton_width_cap", |s| s.escalation.newton_width_cap = 0.5),
        ];
        for (field, change) in changes {
            let mut changed = base.clone();
            change(&mut changed);
            assert_ne!(
                changed.fingerprint(),
                base.fingerprint(),
                "{field} must change the fingerprint"
            );
        }
    }

    #[test]
    fn stats_absorb_sums_and_maxes() {
        let mut a = SolveStats {
            nodes: 3,
            pruned: 1,
            branched: 2,
            max_depth: 4,
        };
        a.absorb(SolveStats {
            nodes: 5,
            pruned: 0,
            branched: 1,
            max_depth: 2,
        });
        assert_eq!((a.nodes, a.pruned, a.branched, a.max_depth), (8, 1, 3, 4));
    }

    #[test]
    fn deep_nesting_constant_formula() {
        let mut e = var(0);
        for _ in 0..30 {
            e = (e.clone() * 0.5 + 1.0).sqrt();
        }
        // e is bounded well below 3 on [0, 2]; e - 3 >= 0 must be unsat.
        let f = Formula::single(Atom::new(e - constant(3.0), Rel::Ge));
        let b = BoxDomain::from_bounds(&[(0.0, 2.0)]);
        assert_eq!(solver().solve(&b, &f), Outcome::Unsat);
    }
}
