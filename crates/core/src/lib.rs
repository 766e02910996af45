//! XCVerifier core: the encoder, the domain-splitting verifier
//! (Algorithm 1 of the paper), and the campaign engine.
//!
//! * [`Encoder`] — pairs a functional (any registry handle) with an exact
//!   condition, producing the local condition `ψ` (a sign atom over
//!   `rs, s, α`), its negation `¬ψ` (the formula the δ-complete solver
//!   refutes), and the Pederson–Burke domain. Encoding is also where
//!   **compilation** happens: the [`EncodedProblem`] carries `¬ψ` and `ψ`
//!   pre-lowered to flat solver tapes
//!   ([`xcv_solver::CompiledFormula`]/[`xcv_solver::CompiledAtom`]), built
//!   once and shared across everything downstream.
//! * [`Verifier`] — Algorithm 1: call the solver on `φ_D ∧ ¬ψ`; `UNSAT`
//!   verifies the box; a δ-SAT model that exactly violates `ψ` is a
//!   counterexample; an invalid model is inconclusive; a timeout is recorded
//!   as such. On anything but `UNSAT` the box is split in every dimension
//!   (`split(D)`) and the verifier recurses, down to the width floor
//!   `t = 0.05`, isolating the regions where the implementation violates the
//!   condition. The recursion parallelizes across sub-boxes with rayon;
//!   every box is solved against the problem's shared compiled formula with
//!   a per-worker-thread scratch buffer — no compilation, topo sorting, or
//!   differentiation ever happens per box.
//! * [`RegionMap`] — the resulting partition of the domain into
//!   verified / counterexample / inconclusive / timeout regions, with the
//!   aggregation rules that produce the paper's Table I marks.
//! * [`Campaign`] — whole verification matrices (functionals × conditions)
//!   handed to rayon costliest-first by [`pair_cost`], whose workers pull
//!   one cell at a time; with per-pair deadlines from the verifier config,
//!   streamed [`CampaignEvent`]s, one stop signal ([`CancelToken`], by hand
//!   or at a deadline), and a structured [`CampaignReport`] the report
//!   crate renders into Tables I/II.

pub mod cache;
mod campaign;
mod certify;
mod checkpoint;
mod encoder;
pub mod fault;
pub mod presets;
mod region;
mod verifier;

pub use cache::{space_fingerprint, ProblemCache, ProblemKey};
pub use campaign::{
    pair_cost, Campaign, CampaignBuilder, CampaignEvent, CampaignReport, CancelToken, PairOutcome,
    SkipReason,
};
pub use certify::build_certificate;
pub use checkpoint::checkpoint_marks;
pub use encoder::{EncodedProblem, Encoder};
pub use fault::{FaultPlan, FaultRule, FaultSite};
pub use region::{Region, RegionMap, RegionStatus, TableMark};
pub use verifier::{RegionDetail, RunOptions, RunOutput, Verifier, VerifierConfig};
pub use xcv_functionals::XcvError;
