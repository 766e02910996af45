//! A δ-complete decision procedure for conjunctions of nonlinear real
//! constraints — the dReal substitute used by the XCVerifier reproduction.
//!
//! dReal (Gao, Kong, Clarke; CADE 2013) decides nonlinear formulas over the
//! reals *up to a numerical relaxation δ*: it answers either
//!
//! * **UNSAT** — the formula has no real solution (a sound proof), or
//! * **δ-SAT** — the δ-weakening of the formula is satisfiable, witnessed by
//!   a model point (which may fail the *exact* formula; XCVerifier re-checks
//!   it and reports "inconclusive" when it does).
//!
//! Internally dReal is an interval constraint propagation (ICP) loop:
//! contract the search box against each constraint with interval arithmetic,
//! and branch when contraction stalls. [`DeltaSolver`] implements exactly
//! that architecture, organized as **compile-once solve sessions** — the
//! standard interval-solver split (dReal/IBEX build contractors once per
//! problem, apply them per box):
//!
//! * [`CompiledFormula::compile`] — lowers a [`Formula`] to flat tapes *one
//!   time*: a shared [`xcv_expr::IntervalTape`] for the HC4 forward/backward
//!   passes, per-atom f64 [`xcv_expr::Tape`]s for midpoint model checks and
//!   branch scoring, and (lazily) the symbolic gradients rung-1 Newton
//!   sweeps over;
//! * [`DeltaSolver::solve_compiled`] — depth-first branch-and-prune (the
//!   solver's one search engine) over a *borrowed*
//!   compiled formula plus a reusable per-worker [`SolveScratch`], with a
//!   node *and* wall-clock budget, returning [`Outcome::Unsat`],
//!   [`Outcome::DeltaSat`] or [`Outcome::Timeout`] — the same three-way
//!   interface Algorithm 1 of the paper consumes;
//! * [`DeltaSolver::solve`] — the original one-shot signature, kept as a
//!   thin compile-then-solve wrapper;
//! * [`CompiledFormula::contract_with_rounds`] — one HC4 contraction of a
//!   box, for callers that contract without searching.
//!
//! The verifier's whole box tree shares one `CompiledFormula` per encoded
//! problem; [`compile_count`] exposes a process-wide compilation counter so
//! tests can assert that per-box solving never compiles.
//!
//! # The contractor escalation ladder
//!
//! Plain branch-and-prune burns its budget on boxes where HC4 stalls — the
//! bench matrix's dominant cost is *undecided work*, whole rows timing out
//! with the node budget spent on splits that never decide. [`Escalation`]
//! replaces the flat budget with a per-box ladder:
//!
//! * **rung 0** — the always-on HC4 round; boxes that contract well never
//!   escalate and behave exactly as with the ladder off;
//! * **rung 1** — interval-Newton (Gauss–Seidel) sweeps over the compiled
//!   per-axis gradient tapes ([`xcv_expr::newton`]), entered when the
//!   rung-0 contraction gain falls below [`Escalation::stall_gain`]. The
//!   mean-value enclosure test refutes boxes the natural extension cannot,
//!   and the row solves cut boxes where a gradient has constant sign;
//! * **rung 2** — 3B slab shaving: probe slabs at the box faces and
//!   re-prove them infeasible with dirty-cone (`forward_masked`) passes,
//!   narrowing faces HC4 cannot move; successful shaves double the next
//!   slab (CID-style dichotomy).
//!
//! Escalation is *gated* so it pays for itself: only nodes at depth ≤
//! [`Escalation::depth_cap`] escalate (a contraction high in the tree is
//! inherited by its whole subtree; deep stalled nodes are legion and each
//! matters little), and rung 1 only fires on boxes narrower than
//! [`Escalation::newton_width_cap`], where the first-order mean-value
//! enclosure is tight. Subtrees the ladder never touched are *pristine* —
//! their geometry is bit-identical to the rung-0 search — and skip the
//! flip-prevention machinery entirely, so arming the ladder costs nothing
//! on boxes that never stall.
//!
//! ```
//! use xcv_solver::{DeltaSolver, Escalation, SolveBudget};
//!
//! // The ladder is off by default; turn it on per solver.
//! let solver = DeltaSolver::new(1e-3, SolveBudget::nodes(800))
//!     .with_escalation(Escalation::full());
//! # let _ = solver;
//! ```
//!
//! Escalation is a pure per-box function of the search's one decision
//! step, `step_after_contract`, and every ladder decision is replayable:
//! Newton prunes/contractions and shaved slabs are recorded as
//! [`TraceEvent`]s and serialize into `xcv-cert` certificates the
//! solver-free checker re-derives. Campaigns opt in with
//! `CampaignBuilder::escalation`; the verifier then runs the ladder only as
//! a retry of a box whose rung-0 solve timed out, so a box that never stalls
//! never pays for it.
//!
//! Soundness invariant: a box is discarded only when interval reasoning
//! *proves* it contains no solution — HC4, the Newton enclosure/row
//! solves, and slab refutations are all outward-rounded proofs — so
//! `Unsat` is trustworthy regardless of rounding; `DeltaSat` models are
//! validated downstream.

mod boxdom;
mod compile;
pub mod contract;
mod formula;
mod solve;

pub use boxdom::BoxDomain;
pub use compile::{compile_count, CompiledAtom, CompiledFormula, SolveScratch};
pub use formula::{Atom, Formula, Rel};
pub use solve::{
    DeltaSolver, Escalation, Outcome, SolveBudget, SolveStats, SolveTrace, TraceEvent,
};
