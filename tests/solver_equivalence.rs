//! Equivalence suite for the compile-once rework: the session path
//! (`CompiledFormula` + reused `SolveScratch`) must be observationally
//! identical both to the one-shot wrapper (`DeltaSolver::solve`, which
//! compiles afresh on every invocation) and — crucially — to the **seed
//! architecture itself**, vendored verbatim in
//! `xcv_bench::seed_baseline::seed_solve_with_stats` (hash-mapped
//! `IntervalEnv` passes, recursive-evaluator branch scoring). Comparing
//! against the vendored seed keeps a transcription bug in the new tape
//! rules from silently agreeing with itself.
//!
//! Three layers:
//!
//! * proptest (local shim): random expression formulas over random boxes —
//!   same `Outcome` class, and identical models when δ-SAT (the search is
//!   deterministic), ladder off and with the interval-Newton rung;
//! * the pinned 45-pair `encode_all_extended()` matrix: a hand-rolled
//!   replica of Algorithm 1 running the vendored seed solver per box must
//!   produce the same `TableMark` as the production verifier running on the
//!   shared compiled problem;
//! * the pinned extended (45) and ζ-resolved (66) matrices verified with
//!   the parallel fan-out and with the sequential recursion: identical
//!   regions and identical aggregate solver statistics (the reason
//!   `VerifierConfig::fingerprint` leaves `parallel` out);
//! * proptest over random sub-boxes of the 45 extended and 16 ζ-resolved
//!   spin pairs, plus three formulas whose partial operations straddle
//!   their domains: the solver's HC4 contraction, which skips the inverse
//!   rules of clean slots, equals the certificate checker's replica, which
//!   runs every rule — the outcome and the whole slot file, bit for bit;
//! * proptest over the same inputs: every node of a short traced search,
//!   ladder off and on, which evaluates a child from its parent's forward
//!   image, contracts exactly as the checker's replica does from a full
//!   forward pass, and its recorded Newton step and shaves repeat on that
//!   box with a fresh scratch.

use proptest::prelude::*;
use std::sync::OnceLock;
use xcv_bench::seed_baseline::seed_solve_with_stats;
use xcverifier::prelude::*;
use xcverifier::solver::contract::Contraction;
use xcverifier::solver::{CompiledFormula, Escalation, SolveScratch, TraceEvent, HC4_ROUNDS};

// ---------------------------------------------------------------------------
// Random formula generation (compact variant of tests/proptests.rs)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Recipe {
    Var(u8),
    Const(f64),
    Add(Box<Recipe>, Box<Recipe>),
    Mul(Box<Recipe>, Box<Recipe>),
    Div(Box<Recipe>, Box<Recipe>),
    Neg(Box<Recipe>),
    PowI(Box<Recipe>, i32),
    Exp(Box<Recipe>),
    LnShift(Box<Recipe>),
    Atan(Box<Recipe>),
    Tanh(Box<Recipe>),
    Abs(Box<Recipe>),
    Min(Box<Recipe>, Box<Recipe>),
    Max(Box<Recipe>, Box<Recipe>),
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    let leaf = prop_oneof![
        (0u8..2).prop_map(Recipe::Var),
        (-3.0f64..3.0).prop_map(Recipe::Const),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Recipe::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Recipe::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Recipe::Div(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| Recipe::Neg(Box::new(a))),
            (inner.clone(), 1i32..4).prop_map(|(a, n)| Recipe::PowI(Box::new(a), n)),
            inner.clone().prop_map(|a| Recipe::Exp(Box::new(a))),
            inner.clone().prop_map(|a| Recipe::LnShift(Box::new(a))),
            inner.clone().prop_map(|a| Recipe::Atan(Box::new(a))),
            inner.clone().prop_map(|a| Recipe::Tanh(Box::new(a))),
            inner.clone().prop_map(|a| Recipe::Abs(Box::new(a))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Recipe::Min(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Recipe::Max(Box::new(a), Box::new(b))),
        ]
    })
}

fn build(r: &Recipe) -> Expr {
    match r {
        Recipe::Var(v) => var(*v as u32),
        Recipe::Const(c) => constant(*c),
        Recipe::Add(a, b) => build(a) + build(b),
        Recipe::Mul(a, b) => build(a) * build(b),
        Recipe::Div(a, b) => build(a) / build(b),
        Recipe::Neg(a) => -build(a),
        Recipe::PowI(a, n) => build(a).powi(*n),
        Recipe::Exp(a) => (build(a) * 0.25).exp(), // damp to avoid overflow
        Recipe::LnShift(a) => (build(a).powi(2) + 1.0).ln(),
        Recipe::Atan(a) => build(a).atan(),
        Recipe::Tanh(a) => build(a).tanh(),
        Recipe::Abs(a) => build(a).abs(),
        Recipe::Min(a, b) => build(a).min(&build(b)),
        Recipe::Max(a, b) => build(a).max(&build(b)),
    }
}

fn outcome_class(o: &Outcome) -> &'static str {
    match o {
        Outcome::Unsat => "unsat",
        Outcome::DeltaSat(_) => "delta-sat",
        Outcome::Timeout => "timeout",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Session solving (compiled once, scratch reused across boxes) agrees
    /// with per-call solving on outcome class, on the exact model and on
    /// the search tree, for two inputs: the band `lo ≤ e ≤ lo + band` with
    /// the ladder off, and `e − e² ≥ c` with the interval-Newton rung on.
    /// With `c` near the left side's maximum 1/4, the second is a
    /// dependency problem that HC4 only refutes by bisection, so stalled
    /// boxes reach the Newton rung, whose gradient program the session
    /// builds once and the one-shot call builds afresh.
    #[test]
    fn session_agrees_with_per_call(
        recipe in recipe_strategy(),
        lo in -0.5f64..0.5,
        band in 0.05f64..0.5,
        c in 0.2f64..0.3,
    ) {
        let e = build(&recipe);
        let band_formula = Formula::new(vec![
            Atom::new(e.clone() - constant(lo), Rel::Ge),
            Atom::new(e.clone() - constant(lo + band), Rel::Le),
        ]);
        let newton_formula = Formula::single(Atom::new(e.clone() - e.powi(2) - constant(c), Rel::Ge));
        let plain = DeltaSolver::new(1e-3, SolveBudget::nodes(2_000));
        let newton = DeltaSolver::new(1e-3, SolveBudget::nodes(1_000))
            .with_escalation(Escalation::Newton);
        // Several boxes against one scratch: reuse must not leak state.
        let boxes = [
            BoxDomain::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0)]),
            BoxDomain::from_bounds(&[(0.0, 0.5), (-1.0, 0.0)]),
            BoxDomain::from_bounds(&[(-1.0, -0.25), (0.25, 1.0)]),
        ];
        for (f, solver, ladder_off) in [(band_formula, plain, true), (newton_formula, newton, false)] {
            let compiled = CompiledFormula::compile(&f);
            let mut scratch = SolveScratch::new();
            // The seed architecture has no ladder, and it always bisects the
            // globally widest axis, where the current solver never splits
            // (nor δ-gates on) axes the formula does not mention. The two
            // searches coincide for the ladder-off input when the support set
            // covers every box axis — or none (the constant-formula fallback
            // is the legacy policy). Other inputs keep the fresh-vs-session
            // check but skip the seed compare.
            let seed_comparable =
                ladder_off && matches!(compiled.support_mask() & 0b11, 0 | 0b11);
            for b in &boxes {
                let (fresh, fresh_stats) = solver.solve_with_stats(b, &f);
                let (session, session_stats) =
                    solver.solve_compiled_with_stats(b, &compiled, &mut scratch);
                prop_assert_eq!(
                    outcome_class(&fresh),
                    outcome_class(&session),
                    "outcome class diverged on {} over {}",
                    f,
                    b
                );
                if let (Outcome::DeltaSat(a), Outcome::DeltaSat(c)) = (&fresh, &session) {
                    prop_assert_eq!(a, c, "deterministic search produced different models");
                }
                prop_assert_eq!(
                    (fresh_stats.nodes, fresh_stats.pruned, fresh_stats.branched),
                    (session_stats.nodes, session_stats.pruned, session_stats.branched),
                    "the session searched a different tree on {} over {}",
                    f,
                    b
                );
                if seed_comparable {
                    let (seed, _) = seed_solve_with_stats(&solver, b, &f);
                    prop_assert_eq!(
                        outcome_class(&seed),
                        outcome_class(&session),
                        "session diverged from the seed architecture on {} over {}",
                        f,
                        b
                    );
                    if let (Outcome::DeltaSat(a), Outcome::DeltaSat(c)) = (&seed, &session) {
                        prop_assert_eq!(a, c, "session and seed found different models");
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pinned matrix: 45 extended pairs, compiled verifier vs per-box recompile
// ---------------------------------------------------------------------------

/// A faithful replica of `Verifier::go` running the *vendored seed solver*
/// per box (hash-mapped `IntervalEnv` contractor rebuilt every call) — the
/// pre-rework architecture, end to end.
fn legacy_verify(cfg: &VerifierConfig, problem: &EncodedProblem) -> RegionMap {
    fn go(
        cfg: &VerifierConfig,
        d: &BoxDomain,
        problem: &EncodedProblem,
        depth: u32,
    ) -> Vec<Region> {
        let (outcome, _) = seed_solve_with_stats(&cfg.solver, d, problem.negation());
        let status = match outcome {
            Outcome::Unsat => RegionStatus::Verified,
            Outcome::DeltaSat(model) => {
                if !problem.psi().holds_at(&model) {
                    RegionStatus::Counterexample(model)
                } else {
                    RegionStatus::Inconclusive
                }
            }
            Outcome::Timeout => RegionStatus::Timeout,
        };
        let can_split = d.max_width() / 2.0 >= cfg.split_threshold && depth < cfg.max_depth;
        if matches!(status, RegionStatus::Verified) || !can_split {
            return vec![Region {
                domain: d.clone(),
                status,
            }];
        }
        let mut out = Vec::new();
        for c in &d.split_all() {
            out.extend(go(cfg, c, problem, depth + 1));
        }
        out
    }
    RegionMap::new(problem.domain.clone(), go(cfg, &problem.domain, problem, 0))
}

#[test]
fn pinned_extended_matrix_marks_agree() {
    // Node budgets (not wall-clock) keep both paths deterministic; the
    // compiled path must reproduce the seed path's mark on all 45 pairs.
    // Depth 1 keeps the legacy replica tractable — it recompiles SCAN-class
    // formulas on every box, which is precisely the cost the rework removed.
    let cfg = VerifierConfig {
        split_threshold: 1.0,
        solver: DeltaSolver::new(1e-3, SolveBudget::nodes(600)),
        parallel: false,
        max_depth: 1,
        pair_deadline_ms: None,
    };
    let problems = Encoder::encode_all_extended();
    assert_eq!(problems.len(), 45);
    let verifier = Verifier::new(cfg.clone());
    for p in &problems {
        let compiled_mark = verifier.verify(p).table_mark();
        let legacy_mark = legacy_verify(&cfg, p).table_mark();
        assert_eq!(
            compiled_mark,
            legacy_mark,
            "marks diverged on {} / {}",
            p.functional_name(),
            p.condition.name()
        );
    }
}

#[test]
fn deep_recursion_marks_agree_on_cheap_pair() {
    // A deeper tree (several split levels) on an LDA/GGA pair, where the
    // legacy per-box recompile is affordable: region-level agreement, not
    // just the aggregate mark.
    let cfg = VerifierConfig {
        split_threshold: 0.4,
        solver: DeltaSolver::new(1e-3, SolveBudget::nodes(5_000)),
        parallel: false,
        max_depth: 4,
        pair_deadline_ms: None,
    };
    for (dfa, cond) in [
        (Dfa::Lyp, Condition::EcNonPositivity),
        (Dfa::VwnRpa, Condition::EcScaling),
    ] {
        let p = Encoder::encode(dfa, cond).unwrap();
        let compiled = Verifier::new(cfg.clone()).verify(&p);
        let legacy = legacy_verify(&cfg, &p);
        assert_eq!(compiled.table_mark(), legacy.table_mark());
        assert_eq!(compiled.regions.len(), legacy.regions.len());
        for (a, b) in compiled.regions.iter().zip(&legacy.regions) {
            assert_eq!(a.domain, b.domain);
            assert_eq!(
                std::mem::discriminant(&a.status),
                std::mem::discriminant(&b.status),
                "status diverged on {} at {}",
                p.functional_name(),
                a.domain
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Pinned matrices: parallel fan-out vs sequential recursion
// ---------------------------------------------------------------------------

/// Verify every problem with worker threads fanning out over the first
/// split and again sequentially: each box is an independent solve on its
/// worker's own scratch, so the region maps and the aggregate statistics
/// must be identical.
fn assert_parallel_matches_sequential(problems: &[EncodedProblem]) {
    let sequential = VerifierConfig {
        split_threshold: 1.25,
        solver: DeltaSolver::new(1e-3, SolveBudget::nodes(250)),
        parallel: false,
        max_depth: 1,
        pair_deadline_ms: None,
    };
    let parallel = VerifierConfig {
        parallel: true,
        ..sequential.clone()
    };
    for p in problems {
        let (want, want_stats) = Verifier::new(sequential.clone()).verify_with_stats(p);
        let (got, got_stats) = Verifier::new(parallel.clone()).verify_with_stats(p);
        let what = format!("{} / {}", p.functional_name(), p.condition.name());
        assert_eq!(want.table_mark(), got.table_mark(), "mark of {what}");
        assert_eq!(want.regions.len(), got.regions.len(), "regions of {what}");
        for (a, b) in want.regions.iter().zip(&got.regions) {
            assert_eq!(a.domain, b.domain, "region order of {what}");
            assert_eq!(a.status, b.status, "status of {what} at {}", a.domain);
        }
        assert_eq!(
            (
                want_stats.nodes,
                want_stats.pruned,
                want_stats.branched,
                want_stats.max_depth
            ),
            (
                got_stats.nodes,
                got_stats.pruned,
                got_stats.branched,
                got_stats.max_depth
            ),
            "search of {what}"
        );
    }
}

#[test]
fn pinned_extended_matrix_parallel_matches_sequential() {
    let problems = Encoder::encode_all_extended();
    assert_eq!(problems.len(), 45);
    assert_parallel_matches_sequential(&problems);
}

#[test]
fn pinned_spin_matrix_parallel_matches_sequential() {
    // The ζ-resolved matrix: 4-D cells split into 16 children, the widest
    // fan-out, and exercise the support-aware split (ζ-free atoms never
    // split ζ).
    let problems = Encoder::encode_all_spin();
    assert_eq!(problems.len(), 66);
    assert_parallel_matches_sequential(&problems);
}

// ---------------------------------------------------------------------------
// Clean-slot HC4 vs every inverse rule, on sub-boxes of the pinned matrices
// ---------------------------------------------------------------------------

/// The differential inputs, compiled once: the 45 extended pairs and the
/// 16 ζ-resolved spin pairs over their domains, and three formulas over
/// [−2, 2]² whose partial operations (`sqrt`, `ln`, `div`, `lambertw`,
/// an `ite` with a `sqrt` branch) see arguments straddling their domain
/// boundaries. On the matrices alone, `sqrt` wrongly admitted to the skip
/// went unnoticed — their `sqrt` arguments stay inside its domain — so the
/// three keep this test sensitive to a partial operation in the skip.
fn differential_inputs() -> &'static [(String, CompiledFormula, BoxDomain)] {
    static INPUTS: OnceLock<Vec<(String, CompiledFormula, BoxDomain)>> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let mut problems = Encoder::encode_all_extended();
        problems.extend(Encoder::encode_registry(&Registry::spin()));
        assert_eq!(problems.len(), 45 + 16);
        let mut inputs: Vec<_> = problems
            .iter()
            .map(|p| {
                let name = format!("{} / {}", p.functional_name(), p.condition.name());
                (name, p.compiled().clone(), p.domain.clone())
            })
            .collect();
        let (x, y) = (var(0), var(1));
        let square = BoxDomain::from_bounds(&[(-2.0, 2.0), (-2.0, 2.0)]);
        for atom in [
            Atom::new(x.sqrt() + y.ln() - 1.0, Rel::Le),
            Atom::new(x.clone() / y.clone() + x.lambert_w(), Rel::Ge),
            Atom::new(Expr::ite(&x, &y.sqrt(), &(y.clone() * 2.0)) - 0.5, Rel::Ge),
        ] {
            let name = atom.to_string();
            let compiled = CompiledFormula::compile(&Formula::single(atom));
            inputs.push((name, compiled, square.clone()));
        }
        inputs
    })
}

/// One random sub-box per differential input: per axis, a width of 2^-k
/// of the domain (k in 0..=40, so from the whole axis down to the depths a
/// long search reaches) at a uniform offset.
struct SubBoxes;

impl Strategy for SubBoxes {
    type Value = Vec<BoxDomain>;
    fn generate(&self, rng: &mut TestRng) -> Vec<BoxDomain> {
        differential_inputs()
            .iter()
            .map(|(_, _, domain)| {
                let dims = domain
                    .dims()
                    .iter()
                    .map(|d| {
                        let w = d.width() * 0.5f64.powi(rng.below(41) as i32);
                        let lo = (d.lo + rng.unit_f64() * (d.width() - w)).max(d.lo);
                        Interval::new(lo, (lo + w).clamp(lo, d.hi))
                    })
                    .collect();
                BoxDomain::new(dims)
            })
            .collect()
    }
}

fn bits(vals: &[Interval]) -> Vec<(u64, u64)> {
    vals.iter()
        .map(|v| (v.lo.to_bits(), v.hi.to_bits()))
        .collect()
}

/// Each atom's root slot in the shared tape and its relation's allowed set,
/// as `xcv_cert::contract` takes them.
fn root_constraints(compiled: &CompiledFormula) -> Vec<(usize, Interval)> {
    let tape = compiled.interval_tape();
    compiled
        .atom_rels()
        .iter()
        .enumerate()
        .map(|(i, rel)| (tape.root_slot(i) as usize, rel.allowed()))
        .collect()
}

/// Reruns one node of a traced search from scratch and checks its events.
/// The checker's replica contracts `popped` from a full forward pass; the
/// node's recorded Newton step and shaves are rerun on that box with a
/// fresh scratch (`newton_contract` and `shave_3b` run full passes of their
/// own, so only the search's HC4 reads a forward image). A pruned node must
/// contract to empty, the Newton step and the shaves must repeat bit for
/// bit, a split's recorded box must equal the replayed one, and a δ-SAT
/// model must be its midpoint. Returns the boxes a split pushes, in order.
fn replay_node(
    compiled: &CompiledFormula,
    popped: &BoxDomain,
    node: &[&TraceEvent],
    what: &str,
    fresh: &mut SolveScratch,
    vals: &mut Vec<Interval>,
) -> Result<Vec<BoxDomain>, TestCaseError> {
    let (terminal, mut steps) = node.split_last().expect("a node without events");
    let (tape, atoms) = (compiled.interval_tape(), root_constraints(compiled));
    let Some(w) = xcverifier::cert::contract(tape, &atoms, HC4_ROUNDS, popped.dims(), vals) else {
        prop_assert!(
            matches!(node, [TraceEvent::Pruned]),
            "{what} contracts to empty, searched {node:?}"
        );
        return Ok(Vec::new());
    };
    let mut cur = BoxDomain::new(w);
    if let [TraceEvent::Newton { contracted }, rest @ ..] = steps {
        let want = compiled.newton_contract(&cur, fresh);
        prop_assert!(
            want.map(|w| bits(w.dims())) == Some(bits(contracted.dims())),
            "Newton step of {what}: {contracted}"
        );
        cur = contracted.clone();
        steps = rest;
    }
    if !steps.is_empty() {
        let mut want = Vec::new();
        let shaved = compiled.shave_3b(&cur, fresh, |a, h, s| want.push(Some((a, h, s.to_bits()))));
        let got: Vec<_> = steps
            .iter()
            .map(|e| match e {
                TraceEvent::Shave {
                    axis,
                    high_face,
                    bound,
                } => Some((*axis, *high_face, bound.to_bits())),
                _ => None,
            })
            .collect();
        prop_assert!(got == want, "shaves of {what}: {steps:?}");
        cur = shaved.expect("recorded shaves narrow the box");
    }
    let key = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    match terminal {
        TraceEvent::Split {
            contracted,
            axis,
            low_first,
        } => {
            prop_assert!(
                bits(contracted.dims()) == bits(cur.dims()),
                "split box of {what}: {contracted} vs {cur}"
            );
            let (l, r) = contracted.bisect_dim(*axis as usize);
            Ok(if *low_first { vec![r, l] } else { vec![l, r] })
        }
        TraceEvent::Sat { model } => {
            prop_assert!(
                key(model) == key(&cur.midpoint()),
                "model of {what}: {model:?}"
            );
            Ok(Vec::new())
        }
        TraceEvent::NewtonPruned => {
            prop_assert!(
                compiled.newton_contract(&cur, fresh).is_none(),
                "Newton prune of {what}"
            );
            Ok(Vec::new())
        }
        _ => {
            prop_assert!(false, "{what} contracts to {cur}, searched {node:?}");
            Ok(Vec::new())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `CompiledFormula::contract_with_rounds` skips the inverse rules of
    /// clean slots; `xcv_cert::contract`, the checker's replica of the same
    /// round loop, flags every slot dirty and runs every rule. For every
    /// round count up to the solver's, both must reach the same outcome
    /// with the same slot file, bit for bit. Admitting a partial operation
    /// to the skip breaks this on the domain-straddling inputs: `sqrt` and
    /// `ln` keep children the full sweep clips to their domains.
    #[test]
    fn clean_slot_contraction_matches_every_rule(boxes in SubBoxes) {
        let mut scratch = SolveScratch::new();
        let mut vals = Vec::new();
        for ((name, compiled, _), b) in differential_inputs().iter().zip(&boxes) {
            let tape = compiled.interval_tape();
            let atoms = root_constraints(compiled);
            for rounds in 1..=HC4_ROUNDS {
                let what = format!("{name} over {b}, {rounds} round(s)");
                let got = compiled.contract_with_rounds(b, &mut scratch, rounds);
                let want = xcverifier::cert::contract(tape, &atoms, rounds, b.dims(), &mut vals);
                match (&got, &want) {
                    (Contraction::Empty, None) => {}
                    (Contraction::Box(g), Some(w)) => {
                        prop_assert!(bits(g.dims()) == bits(w), "box of {what}: {g} vs {w:?}");
                    }
                    _ => {
                        prop_assert!(false, "outcome of {what}: {got:?} vs {want:?}");
                    }
                }
                prop_assert!(
                    bits(scratch.slot_file()) == bits(&vals),
                    "slot file of {what}"
                );
            }
        }
    }

    /// The search evaluates a child node from its parent's forward image,
    /// recomputing only the cones of the axes where the child differs from
    /// that image's box: the split axis, and every axis that HC4, Newton or
    /// the shaver narrowed in the parent's step. Replaying the stack of a
    /// short traced search, ladder off and on, every node is rerun from
    /// scratch by [`replay_node`]. A mask of the split axis alone fails
    /// here: a child also differs on every axis HC4 contracted.
    #[test]
    fn every_search_node_matches_a_fresh_contraction(boxes in SubBoxes) {
        let mut scratch = SolveScratch::new();
        let mut fresh = SolveScratch::new();
        let mut vals = Vec::new();
        for esc in [Escalation::Off, Escalation::Full] {
            let solver = DeltaSolver::new(1e-3, SolveBudget::nodes(64)).with_escalation(esc);
            for ((name, compiled, _), b) in differential_inputs().iter().zip(&boxes) {
                let (_, _, trace) = solver.solve_compiled_traced(b, compiled, &mut scratch);
                let mut stack = vec![b.clone()];
                let mut node = Vec::new();
                for event in &trace.events {
                    node.push(event);
                    if matches!(event, TraceEvent::Newton { .. } | TraceEvent::Shave { .. }) {
                        continue;
                    }
                    let popped = stack.pop().expect("an event without a box");
                    let what = format!("{name}, ladder {esc:?}, over {popped}");
                    let children =
                        replay_node(compiled, &popped, &node, &what, &mut fresh, &mut vals)?;
                    stack.extend(children);
                    node.clear();
                }
            }
        }
    }
}
