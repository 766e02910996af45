//! # xcverifier
//!
//! A Rust reproduction of **XCVerifier** (*Towards Verifying Exact Conditions
//! for Implementations of Density Functional Approximations*, SC 2024): a
//! toolchain that formally verifies whether a density functional
//! approximation (DFA) implementation satisfies the DFT exact conditions, or
//! finds the input regions where it does not.
//!
//! The workspace builds every substrate the system needs, from scratch:
//!
//! * [`interval`] — outward-rounded interval arithmetic with certified
//!   transcendental enclosures (including Lambert W for AM05);
//! * [`expr`] — a hash-consed symbolic expression DAG with exact
//!   differentiation, evaluation back-ends, a Python-subset DSL frontend
//!   with a symbolic executor (the XCEncoder pipeline), and the typed
//!   [`prelude::VarSpace`] axis layer: every variable index carries a name,
//!   an [`prelude::AxisKind`] (`rs`, `s`, `α`, `ζ`, per-spin `s↑`/`s↓`) and
//!   its Pederson–Burke bounds, so "arity" is a description the whole
//!   pipeline can reason about instead of an integer;
//! * [`solver`] — a δ-complete decision procedure (HC4 interval constraint
//!   propagation + branch-and-prune), the dReal substitute, organized as
//!   compile-once solve sessions: each formula is lowered to flat interval
//!   and f64 tapes a single time, and the whole box tree is solved against
//!   that shared program with per-thread scratch buffers. One depth-first
//!   search engine runs every solve, and the certificates replay exactly
//!   the search it ran;
//! * [`functionals`] — the open functional registry: a [`prelude::Functional`]
//!   trait (symbolic DAGs + scalar closed forms + metadata + a
//!   `var_space()` describing its input axes), the paper's five DFAs as
//!   built-in implementations, and runtime registration of user-defined
//!   functionals (e.g. DSL-compiled, via [`prelude::DslFunctional`]);
//! * [`conditions`] — the seven Pederson–Burke exact conditions as local
//!   conditions over enhancement factors, dispatching through the trait;
//!   the search box is the functional's `var_space()` box
//!   ([`prelude::pb_domain`]);
//! * [`core`] — the encoder, the recursive domain-splitting verifier
//!   (Algorithm 1), and the [`prelude::Campaign`] engine that schedules
//!   whole verification matrices;
//! * [`grid`] — the Pederson–Burke grid-search baseline, meshing any
//!   variable space (ζ and per-spin axes included) with per-axis violation
//!   boxes;
//! * [`report`] — region-map rendering and the paper's Tables I/II, built
//!   directly from campaign reports;
//! * [`cert`] — replayable proof certificates: a campaign can record, per
//!   verdict, the box cover it explored and every contraction outcome, and
//!   the independent `xcvcheck` replayer audits that evidence with *only*
//!   the interval kernels — no solver, no search code (see the
//!   [certificates quickstart](#replayable-proof-certificates-emit--check)
//!   below);
//! * [`serve`] — the verification daemon (`xcvserve`): a long-running
//!   TCP service over a line-JSON protocol with a three-level cache —
//!   compiled problems, memoized results (disk-backed, cost-admitted),
//!   and in-flight request coalescing — so a repeated query answers in
//!   microseconds with bit-identical marks (see the
//!   [service quickstart](#verification-as-a-service-the-xcvserve-daemon)
//!   below).
//!
//! ## Quickstart: verify a whole matrix as one campaign
//!
//! The paper's headline result is the Table I matrix — every applicable
//! (functional, condition) pair verified in one run. That matrix is a
//! first-class value here:
//!
//! ```
//! use xcverifier::prelude::*;
//!
//! // Campaign over two of the paper's DFAs × one exact condition, with a
//! // small per-box budget. Pairs are scheduled across the thread pool and
//! // every outcome lands in one structured report.
//! let report = Campaign::builder()
//!     .functionals([Dfa::VwnRpa, Dfa::Lyp])
//!     .conditions([Condition::EcNonPositivity])
//!     .config(VerifierConfig {
//!         split_threshold: 1.25,
//!         solver: DeltaSolver::new(1e-3, SolveBudget::nodes(20_000)),
//!         parallel: false,
//!         max_depth: 4,
//!         pair_deadline_ms: None,
//!     })
//!     .build()
//!     .unwrap()
//!     .run();
//!
//! // VWN RPA satisfies E_c non-positivity; LYP's implementation does not.
//! assert_eq!(report.mark("VWN RPA", Condition::EcNonPositivity),
//!            Some(TableMark::Verified));
//! assert_eq!(report.mark("LYP", Condition::EcNonPositivity),
//!            Some(TableMark::Counterexample));
//! let (_, _, witness) = report.counterexamples().into_iter().next().unwrap();
//! assert!(witness[1] > 1.0, "LYP violates EC1 at large s");
//!
//! // Tables I/II render directly from the report.
//! let table = Table1::from_campaign(&report);
//! assert!(table.render_markdown().contains("| VWN RPA |"));
//! ```
//!
//! Behind both paths sits the compile-once session architecture:
//! [`prelude::Encoder`] lowers each `(functional, condition)` pair's formula
//! to flat tapes exactly once (carried on the
//! [`prelude::EncodedProblem`]), and the verifier recursion solves thousands
//! of sub-boxes against that shared program with reusable per-thread
//! scratch — `xcverifier::solver::compile_count()` exposes the invariant,
//! and the `solver_bench` binary tracks the resulting throughput in
//! `BENCH_solver.json`.
//!
//! ## Branch-and-prune
//!
//! The solve loop is one depth-first search: pop a box, run one HC4 round
//! over the shared tape (`IntervalTape::forward`/`backward`), escalate to
//! the contractor ladder when the box stalls, check the midpoint, δ-decide
//! small boxes, and bisect the rest. Bisection is support-aware: a cell
//! never splits (nor δ-gates on) an axis its expression does not mention,
//! so a ζ-free atom on a 4-D spin domain never halves ζ. The ladder's 3B
//! shaver re-evaluates probe slabs *dirty-slot only*: per-slot variable
//! dependency bitsets computed at compile time (`IntervalTape::deps`)
//! mean that only the slots downstream of the probed axis are recomputed.
//!
//! Campaigns hand their cells to rayon costliest-first by
//! [`prelude::pair_cost`], a function of the matrix alone. The workers pull
//! one cell at a time, so the longest cells start first and never straggle
//! at the tail of the pool, and `--shard` ownership is the same in every
//! process.
//!
//! ## Typed variable spaces and the spin-general (ζ ≠ 0) workload
//!
//! Every built-in functional lives in its own module
//! (`functionals::{pbe, scan, rscan, lyp, b88, am05, vwn, pw92}`) and
//! exports a module-level `register` entry point; the built-in registries
//! ([`prelude::Registry::builtin`], `extended`, `with_builtins`) are
//! assembled purely from those calls — no enum `match` holds a functional
//! body.
//!
//! What a functional *is a function of* is described by its typed
//! [`prelude::VarSpace`] (`Functional::var_space()`): an ordered list of
//! axes, each with a name, an [`prelude::AxisKind`] and its PB bounds. The
//! default is the positional convention derived from the family
//! (`rs` | `rs, s` | `rs, s, α`), and every consumer follows the axes:
//! [`prelude::pb_domain`] is the space's box, the encoder attaches the
//! space to the compiled formula (axis-indexed Newton gradients,
//! axis-labeled witnesses), and the grid baseline meshes whatever axes the
//! space declares.
//!
//! That typing is what makes the spin workload expressible. The
//! scalar-factor citizens ([`prelude::SpinResolved`]: `PBE(ζ)`, `PW92(ζ)`,
//! `LSDA-X(ζ)`) live in the canonical `rs, s, α, ζ` space; the **per-spin**
//! exchange citizens ([`prelude::SpinScaledX`]: `B88(ζ)`, `PBE-X(ζ)`, built
//! by exact spin scaling `E_x[n↑,n↓] = (E_x[2n↑]+E_x[2n↓])/2`) live in
//! `(rs, s↑, s↓, ζ)` — per-spin reduced gradients that no positional arity
//! convention could name. The encoder, the compiled-tape solver, the
//! campaign scheduler and the grid baseline run all of them unchanged, and
//! [`prelude::pair_cost`] ranks a 4-D spin cell above the 1-D LDA cell of
//! the same condition, so the campaign starts it first.
//!
//! ```
//! use xcverifier::prelude::*;
//!
//! // A per-spin citizen describes its own axes...
//! let b88 = SpinScaledX::b88();
//! assert_eq!(b88.var_space().names(), vec!["rs", "s_up", "s_dn", "zeta"]);
//! assert_eq!(pb_domain(&b88).ndim(), 4);
//!
//! // ...and registers/verifies like any other functional.
//! let mut registry = Registry::empty();
//! xcverifier::functionals::vwn::register(&mut registry).unwrap();
//! xcverifier::functionals::spin::register_pw92(&mut registry).unwrap();
//! let report = Campaign::builder()
//!     .registry(&registry)
//!     .conditions([Condition::EcNonPositivity])
//!     .config(VerifierConfig {
//!         split_threshold: 2.0,
//!         solver: DeltaSolver::new(1e-3, SolveBudget::nodes(2_000)),
//!         parallel: false,
//!         max_depth: 1,
//!         pair_deadline_ms: None,
//!     })
//!     .build()
//!     .unwrap()
//!     .run();
//! // The unpolarized LDA cell verifies; the spin cell ran over the 4-D
//! // domain through exactly the same pipeline (and PW92's correlation is
//! // negative at every ζ, so no counterexample can ever be valid).
//! assert_eq!(report.mark("VWN RPA", Condition::EcNonPositivity),
//!            Some(TableMark::Verified));
//! assert_ne!(report.mark("PW92(ζ)", Condition::EcNonPositivity),
//!            Some(TableMark::Counterexample));
//! ```
//!
//! ## Replayable proof certificates: emit → check
//!
//! A campaign verdict is only as trustworthy as the search that produced
//! it. With [`prelude::CampaignBuilder::emit_certificates`] every pair
//! records its evidence — the box cover explored, each box's contraction
//! trace or δ-witness — as a [`prelude::Certificate`], and
//! [`cert::check`] (the library behind the `xcvcheck` binary) replays that
//! evidence against the interval kernels alone: every Unsat leaf must
//! really contract to empty, every witness must really violate the
//! condition, and the recorded cover must really tile the domain.
//!
//! ```
//! use xcverifier::prelude::*;
//!
//! let report = Campaign::builder()
//!     .functionals([Dfa::VwnRpa])
//!     .conditions([Condition::EcNonPositivity])
//!     .config(VerifierConfig {
//!         split_threshold: 1.25,
//!         solver: DeltaSolver::new(1e-3, SolveBudget::nodes(20_000)),
//!         parallel: false,
//!         max_depth: 4,
//!         pair_deadline_ms: None,
//!     })
//!     .emit_certificates(true)
//!     .build()
//!     .unwrap()
//!     .run();
//!
//! // The verified pair carries a replayable certificate...
//! let cert = report.pairs[0].certificate.as_ref().expect("replayable run");
//!
//! // ...that survives the `xcvcheck` wire format round trip and replays
//! // independently: no solver, no search — just the interval kernels.
//! let back = Certificate::parse(&cert.to_json()).unwrap();
//! let audit = xcverifier::cert::check(&back).unwrap();
//! assert!(audit.replayed_leaves > 0 && audit.witnesses == 0);
//!
//! // `CampaignReport::write_certificates(dir)` persists the same JSON for
//! // the `xcvcheck` binary; `CampaignBuilder::checkpoint(path)` reuses the
//! // serialization to make an interrupted matrix resumable, and
//! // `CampaignBuilder::shard(i, n)` splits one matrix across processes
//! // (merge with `CampaignReport::merge` or `xcverify --merge`).
//! ```
//!
//! ## Verification-as-a-service: the `xcvserve` daemon
//!
//! For repeated queries — CI gates, editor integrations, a fleet of
//! clients asking about the same functionals — spinning up a process and
//! recompiling every tape per query is the dominant cost. The [`serve`]
//! crate keeps one daemon warm instead: `xcvserve` listens on localhost
//! TCP, speaks a line-JSON protocol (requests in, campaign events
//! streamed back out), and answers through three cache levels — a
//! compiled-problem cache keyed by content hash (level 1), a memoized
//! result store keyed by problem × solver-config fingerprint with
//! cost-model-driven disk admission and warm restart (level 2), and
//! in-flight coalescing so N identical concurrent queries share one
//! solve (level 3). `xcverify --server ADDR` turns the CLI gate into a
//! thin client of a running daemon with identical output and exit codes;
//! the warm repeat of the full 45-pair extended matrix answers ~2 orders
//! of magnitude faster than the cold solve, with marks asserted
//! bit-identical (the `service` entry of `BENCH_solver.json` pins it).
//!
//! ```no_run
//! use xcverifier::serve::{Client, Event, Policy, Server, ServerConfig, VerifyRequest};
//!
//! // An in-process daemon on an ephemeral port (production runs the
//! // `xcvserve` binary; the wire protocol is the same either way).
//! let mut server = Server::spawn(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let req = VerifyRequest {
//!     functionals: vec!["PBE".into(), "LYP".into()],
//!     conditions: Vec::new(), // all seven
//!     policy: Policy::Gate { budget_ms: 100, threshold: 1e-5 },
//! };
//! let done = client.verify(&req, |e| {
//!     if let Event::Pair { functional, condition, mark, cached, .. } = e {
//!         println!("{functional} / {condition:?}: {mark:?} (cached: {cached})");
//!     }
//! }).unwrap();
//! // A second identical request is served entirely from the result
//! // cache: zero solves, zero tape compilations, identical marks.
//! let warm = client.verify(&req, |_| {}).unwrap();
//! assert_eq!(warm.solved, 0);
//! assert_eq!(warm.cached, done.cached + done.solved);
//! server.shutdown();
//! ```
//!
//! Single pairs still work through [`prelude::Encoder`] /
//! [`prelude::Verifier`]; campaigns are the batch path. User-defined
//! functionals join either path by registering a handle:
//!
//! ```no_run
//! use xcverifier::prelude::*;
//! use std::sync::Arc;
//!
//! let src = "def wigner_c(rs, s):\n    return -0.44 / (7.8 + rs)\n";
//! let mine = DslFunctional::new(
//!     xcverifier::functionals::functional::info(
//!         "wigner", Family::Gga, Design::Empirical, false, true),
//!     src, "wigner_c",
//! ).unwrap();
//! let mut registry = Registry::builtin();
//! registry.register(Arc::new(mine)).unwrap();
//! let report = Campaign::builder()
//!     .registry(&registry)            // six columns now, no enum touched
//!     .build().unwrap().run();
//! # let _ = report;
//! ```

pub use xcv_cert as cert;
pub use xcv_conditions as conditions;
pub use xcv_core as core;
pub use xcv_expr as expr;
pub use xcv_functionals as functionals;
pub use xcv_grid as grid;
pub use xcv_interval as interval;
pub use xcv_report as report;
pub use xcv_serve as serve;
pub use xcv_solver as solver;

/// The commonly used types, one `use` away.
pub mod prelude {
    pub use xcv_cert::{CertEvent, CertRegion, CertVerdict, Certificate, CheckReport};
    pub use xcv_conditions::{applicable_pairs, applicable_pairs_in, pb_domain, Condition, C_LO};
    pub use xcv_core::{
        build_certificate, checkpoint_marks, pair_cost, Campaign, CampaignBuilder, CampaignEvent,
        CampaignReport, CancelToken, EncodedProblem, Encoder, PairOutcome, Region, RegionMap,
        RegionStatus, RunOptions, RunOutput, SkipReason, TableMark, Verifier, VerifierConfig,
    };
    pub use xcv_expr::{constant, var, Axis, AxisKind, Expr, VarSet, VarSpace};
    pub use xcv_functionals::{
        Design, Dfa, DfaInfo, DslFunctional, Family, FnFunctional, Functional, FunctionalHandle,
        IntoFunctional, Registry, SpinResolved, SpinScaledX, XcvError, ALPHA, RS, S, S_DOWN, S_UP,
        ZETA,
    };
    pub use xcv_grid::{pb_check, GridConfig, GridResult};
    pub use xcv_interval::{interval, point, Interval};
    pub use xcv_report::{ascii_grid_map, ascii_region_map, classify, Consistency, Table1, Table2};
    pub use xcv_solver::{Atom, BoxDomain, DeltaSolver, Formula, Outcome, Rel, SolveBudget};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn facade_reexports_work() {
        let d = pb_domain(&Dfa::Pbe);
        assert_eq!(d.ndim(), 2);
        assert_eq!(applicable_pairs().len(), 31);
        let _ = constant(1.0) + var(RS);
    }

    #[test]
    fn campaign_types_in_prelude() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert!(Campaign::builder().build().is_err());
    }
}
