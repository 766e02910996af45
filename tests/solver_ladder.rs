//! Acceptance suite for the contractor escalation ladder (interval-Newton
//! rung 1, 3B slab shaving rung 2):
//!
//! * **rung soundness** (proptest): a point whose exact satisfaction is
//!   *interval-certified* survives both rungs — `newton_contract` never
//!   refutes or contracts away a box around it, `shave_3b` never shaves
//!   it off, and a full-ladder solve never answers `Unsat` on a box
//!   containing it;
//! * **dirty-slot passes** (proptest): the partial forward pass the 3B
//!   shaver probes slabs with (`forward_masked`, along one axis or two),
//!   seeded with the parent box's slot file, and the image-seeded pass the
//!   search evaluates every child node with (`forward_from_image`), equal a
//!   full `forward` bit for bit;
//! * **what each rung runs**: on a pinned pair, `Escalation::Off` records
//!   no ladder step, `Newton` records Newton steps and no shave, and
//!   `Full` records shaves;
//! * **session reuse** (proptest): a solve, ladder off or on, on a
//!   scratch that another formula already used — an independent one, and
//!   a larger one, their slot files and per-depth forward images left
//!   behind — equals the same solve on a fresh scratch: same outcome, same
//!   model, same statistics, same trace;
//! * **pinned matrices**: the 45-pair extended and 66-pair ζ-resolved
//!   matrices verified with and without the ladder. The ladder runs as a
//!   retry on timed-out boxes, so every table mark must be unchanged or
//!   strictly better — timeouts may only become decisions; a decided
//!   mark (`OK`, `CE`) never changes;
//! * **certificates**: a ladder-armed campaign still emits certificates
//!   that replay under the independent `xcv_cert` checker, Newton/3B
//!   steps included.

use proptest::prelude::*;
use xcverifier::expr::IntervalTape;
use xcverifier::prelude::*;
use xcverifier::solver::{CompiledFormula, Escalation, SolveScratch, SolveStats, TraceEvent};

// ---------------------------------------------------------------------------
// Random expressions
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
    Sqrt(Box<Recipe>),
    Tanh(Box<Recipe>),
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    let leaf = prop_oneof![
        (0u8..3).prop_map(Recipe::Var),
        (-3.0f64..3.0).prop_map(Recipe::Const),
    ];
    leaf.prop_recursive(4, 20, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Recipe::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Recipe::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Recipe::Div(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| Recipe::Neg(Box::new(a))),
            (inner.clone(), 1i32..4).prop_map(|(a, n)| Recipe::PowI(Box::new(a), n)),
            inner.clone().prop_map(|a| Recipe::Exp(Box::new(a))),
            inner.clone().prop_map(|a| Recipe::LnShift(Box::new(a))),
            inner.clone().prop_map(|a| Recipe::Sqrt(Box::new(a))),
            inner.prop_map(|a| Recipe::Tanh(Box::new(a))),
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
        Recipe::Exp(a) => (build(a) * 0.25).exp(),
        Recipe::LnShift(a) => (build(a).powi(2) + 1.0).ln(),
        Recipe::Sqrt(a) => (build(a).powi(2) + 0.5).sqrt(),
        Recipe::Tanh(a) => build(a).tanh(),
    }
}

/// A value for an interval bound: an exact 0, or anything in (−4, 4).
fn bound(rng: &mut TestRng) -> f64 {
    if rng.below(6) == 0 {
        0.0
    } else {
        8.0 * rng.unit_f64() - 4.0
    }
}

/// One random box axis: a general interval, a point, a signed zero (alone
/// or as one bound), half-infinite, or `ENTIRE`.
fn random_axis(rng: &mut TestRng) -> Interval {
    let (a, b) = (bound(rng), bound(rng));
    let zero = if rng.below(2) == 0 { -0.0 } else { 0.0 };
    match rng.below(8) {
        0 => Interval::point(a),
        1 => Interval::point(zero),
        2 => Interval::new(zero, b.abs()),
        3 => Interval::new(-a.abs(), zero),
        4 => Interval::new(a, f64::INFINITY),
        5 => Interval::new(f64::NEG_INFINITY, a),
        6 => Interval::ENTIRE,
        _ => Interval::new(a.min(b), a.max(b)),
    }
}

/// A parent box and a child box for the image-seeded forward pass, of 2 or
/// 3 axes each (a recipe's variable 2 is then beyond the box, or only
/// beyond one of the two). The child keeps each parent axis bit for bit,
/// flips the sign of its zero bounds, or draws it afresh, so the two
/// differ on any subset of axes.
struct ImagePair;

impl Strategy for ImagePair {
    type Value = (Vec<Interval>, Vec<Interval>);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let parent: Vec<Interval> = (0..2 + rng.below(2)).map(|_| random_axis(rng)).collect();
        let flip = |x: f64| if x == 0.0 { -x } else { x };
        let child = (0..2 + rng.below(2))
            .map(|k| match (parent.get(k), rng.below(3)) {
                (Some(&p), 0) => p,
                (Some(&p), 1) => Interval::new(flip(p.lo), flip(p.hi)),
                _ => random_axis(rng),
            })
            .collect();
        (parent, child)
    }
}

fn bits(vals: &[Interval]) -> Vec<(u64, u64)> {
    vals.iter()
        .map(|v| (v.lo.to_bits(), v.hi.to_bits()))
        .collect()
}

fn contains(b: &BoxDomain, point: &[f64]) -> bool {
    b.dims()
        .iter()
        .zip(point)
        .all(|(d, &p)| d.lo <= p && p <= d.hi)
}

fn stats_key(s: &SolveStats) -> (u64, u64, u64, u32) {
    (s.nodes, s.pruned, s.branched, s.max_depth)
}

/// The band formula `lo <= e <= lo + band`.
fn band_formula(e: Expr, lo: f64, band: f64) -> Formula {
    Formula::new(vec![
        Atom::new(e.clone() - constant(lo), Rel::Ge),
        Atom::new(e - constant(lo + band), Rel::Le),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rung soundness: interval-certified exact solutions survive every
    /// contractor of the ladder, and the assembled ladder never proves
    /// `Unsat` over a box that contains one.
    #[test]
    fn ladder_rungs_keep_certified_solutions(
        recipe in recipe_strategy(),
        lo in -0.5f64..0.5,
        band in 0.05f64..0.5,
        frac in (0.2f64..0.8, 0.2f64..0.8, 0.2f64..0.8),
    ) {
        // A band wide enough to have interior solutions the f64 sampler
        // below can certify.
        let f = band_formula(build(&recipe), lo, band);
        let compiled = CompiledFormula::compile(&f);
        let b = BoxDomain::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)]);
        let point: Vec<f64> = b
            .dims()
            .iter()
            .zip([frac.0, frac.1, frac.2])
            .map(|(d, t)| d.lo + t * d.width())
            .collect();
        let mut scratch = SolveScratch::new();
        // Only certified solutions are load-bearing: an enclosure proof
        // that `point` satisfies every atom exactly.
        prop_assume!(compiled.holds_at_certified(&point, &mut scratch));
        // Rung 1 must neither refute the box nor contract the point away.
        let contracted = compiled.newton_contract(&b, &mut scratch);
        prop_assert!(
            contracted.is_some(),
            "Newton refuted a box with a certified solution"
        );
        prop_assert!(
            contains(&contracted.unwrap(), &point),
            "Newton contracted a certified solution away"
        );
        // Rung 2 must not shave the point off any face.
        if let Some(shaved) = compiled.shave_3b(&b, &mut scratch, |_, _, _| {}) {
            prop_assert!(contains(&shaved, &point), "3B shaved a certified solution off");
        }
        // The assembled ladder: never Unsat over a certified solution.
        let solver = DeltaSolver::new(1e-3, SolveBudget::nodes(400))
            .with_escalation(Escalation::Full);
        let (outcome, _) = solver.solve_compiled_with_stats(&b, &compiled, &mut scratch);
        prop_assert!(
            !matches!(outcome, Outcome::Unsat),
            "ladder proved Unsat over a certified solution: {:?}",
            outcome
        );
    }

    /// The dirty-slot passes: a box that differs from its parent along one
    /// axis or two (`forward_masked`), re-evaluated over the parent's slot
    /// file, gets exactly the slot values of a full forward pass, bit for
    /// bit. So does the search's image-seeded pass (`forward_from_image`),
    /// for a child that differs from the parent on any subset of axes;
    /// bounds compare by bits there, so a pass that took −0.0 for +0.0
    /// would keep a slot whose sign of zero changed.
    #[test]
    fn dirty_forward_passes_match_full_forward(
        recipe in recipe_strategy(),
        lo in (-1.0f64..0.0, -1.0f64..0.0, -1.0f64..0.0),
        w in (0.1f64..2.0, 0.1f64..2.0, 0.1f64..2.0),
        axes in (0u32..3, 0u32..3),
        side in 0u8..2,
        image_pair in ImagePair,
    ) {
        let tape = IntervalTape::compile(&[build(&recipe)]);
        let parent = vec![
            interval(lo.0, lo.0 + w.0),
            interval(lo.1, lo.1 + w.1),
            interval(lo.2, lo.2 + w.2),
        ];
        let mut parent_vals = tape.scratch();
        tape.forward(&parent, &mut parent_vals);
        let halve = |b: &mut Vec<Interval>, axis: u32| {
            let (l, r) = b[axis as usize].bisect();
            b[axis as usize] = if side == 1 { r } else { l };
        };
        let mut one = parent.clone();
        halve(&mut one, axes.0);
        let mut two = one.clone();
        halve(&mut two, axes.1);
        let mut full = tape.scratch();

        let mut dirty = parent_vals.clone();
        tape.forward_masked(1 << axes.0, &one, &mut dirty);
        tape.forward(&one, &mut full);
        prop_assert!(bits(&dirty) == bits(&full), "forward_masked along {}", axes.0);

        let mut dirty = parent_vals.clone();
        tape.forward_masked((1 << axes.0) | (1 << axes.1), &two, &mut dirty);
        tape.forward(&two, &mut full);
        prop_assert!(bits(&dirty) == bits(&full), "forward_masked along {:?}", axes);

        let (parent, child) = image_pair;
        tape.forward(&parent, &mut parent_vals);
        let mut seeded = tape.scratch();
        tape.forward_from_image(&parent_vals, &child, &mut seeded);
        tape.forward(&child, &mut full);
        prop_assert!(
            bits(&seeded) == bits(&full),
            "forward_from_image from {:?} to {:?}: {:?} vs {:?}",
            parent, child, seeded, full
        );
    }

    /// Session reuse: the Newton and 3B rungs keep their slot files in the
    /// scratch, and the search keeps one forward image per depth there,
    /// evaluating a child from the image one level up. A scratch that
    /// first solved another formula must give the fresh scratch's outcome,
    /// model, statistics and trace, ladder off or on. Two decoys run
    /// first: an independent random formula, which may be smaller or
    /// larger, and a larger one that contains the solved formula — a
    /// longer tape, images at many depths — so the root must run a full
    /// pass and never read an image the previous search left.
    #[test]
    fn ladder_solve_on_reused_scratch_matches_fresh_scratch(
        recipe in recipe_strategy(),
        other in recipe_strategy(),
        lo in -0.5f64..0.5,
        band in 0.05f64..0.5,
        budget in 0u8..3,
    ) {
        let small = build(&recipe);
        let compiled = CompiledFormula::compile(&band_formula(small.clone(), lo, band));
        let independent = CompiledFormula::compile(&band_formula(build(&other), -lo, band));
        let large = small * build(&other).exp() + var(0) * var(1) * var(2);
        let larger = CompiledFormula::compile(&band_formula(large, -lo, band));
        let mut decoys = vec![("independent", &independent)];
        if larger.interval_slots() > compiled.interval_slots() {
            decoys.push(("larger", &larger));
        }
        let nodes = [30u64, 400, 5_000][budget as usize];
        let boxes = [
            BoxDomain::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)]),
            BoxDomain::from_bounds(&[(0.0, 0.5), (-1.0, 0.0), (0.2, 0.9)]),
        ];
        let mut reused = SolveScratch::new();
        for escalation in [Escalation::Off, Escalation::Full] {
            let solver =
                DeltaSolver::new(1e-3, SolveBudget::nodes(nodes)).with_escalation(escalation);
            for b in &boxes {
                let (want, want_stats, want_trace) =
                    solver.solve_compiled_traced(b, &compiled, &mut SolveScratch::new());
                for (kind, decoy) in &decoys {
                    solver.solve_compiled_traced(b, decoy, &mut reused);
                    let (got, got_stats, got_trace) =
                        solver.solve_compiled_traced(b, &compiled, &mut reused);
                    let what = format!("after the {kind} decoy over {b}, ladder {escalation:?}");
                    prop_assert_eq!(&want, &got, "reused scratch diverged {}", what);
                    prop_assert_eq!(
                        stats_key(&want_stats),
                        stats_key(&got_stats),
                        "reused scratch changed the search {}",
                        what
                    );
                    prop_assert!(want_trace.events == got_trace.events, "trace {}", what);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// What each rung runs
// ---------------------------------------------------------------------------

/// Each rung runs exactly its contractors: on LYP / Uc monotonicity's four
/// depth-1 boxes at 200 nodes, the ladder off records no Newton step and
/// no shave, the Newton rung records Newton steps (98) and no shave, and
/// the full ladder records shaves (206). A rung that ran the shaver under
/// `Newton`, or nothing under `Full`, fails here.
#[test]
fn each_rung_runs_its_own_contractors() {
    let p = Encoder::encode(Dfa::Lyp, Condition::UcMonotonicity).unwrap();
    let boxes = p.domain.split_all();
    assert_eq!(boxes.len(), 4);
    let ladder_steps = |escalation: Escalation| {
        let solver = DeltaSolver::new(1e-3, SolveBudget::nodes(200)).with_escalation(escalation);
        let mut scratch = SolveScratch::new();
        let (mut newton, mut shave) = (0, 0);
        for b in &boxes {
            let (_, _, trace) = solver.solve_compiled_traced(b, p.compiled(), &mut scratch);
            for e in &trace.events {
                match e {
                    TraceEvent::Newton { .. } | TraceEvent::NewtonPruned => newton += 1,
                    TraceEvent::Shave { .. } => shave += 1,
                    _ => {}
                }
            }
        }
        (newton, shave)
    };
    assert_eq!(ladder_steps(Escalation::Off), (0, 0));
    let (newton, shave) = ladder_steps(Escalation::Newton);
    assert!(
        newton > 0 && shave == 0,
        "Newton rung: {newton} Newton steps, {shave} shaves"
    );
    let (_, shave) = ladder_steps(Escalation::Full);
    assert!(shave > 0, "full ladder: no shave");
}

// ---------------------------------------------------------------------------
// Pinned matrices: marks unchanged-or-strictly-better under the ladder
// ---------------------------------------------------------------------------

fn quick_config(escalation: Escalation) -> VerifierConfig {
    let mut solver = DeltaSolver::new(1e-3, SolveBudget::nodes(250));
    solver.escalation = escalation;
    VerifierConfig {
        split_threshold: 1.25,
        solver,
        parallel: false,
        max_depth: 1,
        pair_deadline_ms: None,
    }
}

/// The only transitions the ladder may cause: timeouts becoming decisions.
/// `?` may become anything decided, `OK*` may complete to `OK` or surface
/// a counterexample the budget had hidden; `OK`, `CE` and `−` are final.
fn mark_monotone(before: TableMark, after: TableMark) -> bool {
    use TableMark::*;
    before == after
        || matches!(
            (before, after),
            (Unknown, Verified | PartiallyVerified | Counterexample)
                | (PartiallyVerified, Verified | Counterexample)
        )
}

fn assert_matrix_monotone(problems: &[EncodedProblem]) {
    for p in problems {
        let (plain, _) = Verifier::new(quick_config(Escalation::Off)).verify_with_stats(p);
        let (ladder, _) = Verifier::new(quick_config(Escalation::Full)).verify_with_stats(p);
        assert!(
            mark_monotone(plain.table_mark(), ladder.table_mark()),
            "ladder regressed {} / {}: {:?} -> {:?}",
            p.functional_name(),
            p.condition.name(),
            plain.table_mark(),
            ladder.table_mark()
        );
    }
}

#[test]
fn pinned_extended_matrix_ladder_marks_monotone() {
    let problems = Encoder::encode_all_extended();
    assert_eq!(problems.len(), 45);
    assert_matrix_monotone(&problems);
}

#[test]
fn pinned_spin_matrix_ladder_marks_monotone() {
    // The ζ-resolved matrix: 4-D cells, support-aware splits, the widest
    // Newton gradient programs (per-spin s_σ axes).
    let problems = Encoder::encode_all_spin();
    assert_eq!(problems.len(), 66);
    assert_matrix_monotone(&problems);
}

// ---------------------------------------------------------------------------
// Certificates: ladder steps replay under the independent checker
// ---------------------------------------------------------------------------

#[test]
fn ladder_campaign_certificates_replay() {
    let config = VerifierConfig {
        split_threshold: 1.25,
        // A deliberately tight budget so some boxes time out at rung 0 and
        // the certificates exercise the retry path's Newton/3B steps.
        solver: DeltaSolver::new(1e-3, SolveBudget::nodes(600)).with_escalation(Escalation::Full),
        parallel: false,
        max_depth: 3,
        pair_deadline_ms: None,
    };
    let report = Campaign::builder()
        .functionals([Dfa::VwnRpa, Dfa::Lyp])
        .conditions([Condition::EcNonPositivity])
        .config(config)
        .emit_certificates(true)
        .build()
        .unwrap()
        .run();
    assert_eq!(
        report.mark("VWN RPA", Condition::EcNonPositivity),
        Some(TableMark::Verified)
    );
    assert_eq!(
        report.mark("LYP", Condition::EcNonPositivity),
        Some(TableMark::Counterexample)
    );
    for p in &report.pairs {
        let cert = p
            .certificate
            .as_ref()
            .unwrap_or_else(|| panic!("{} should certify under the ladder", p.functional_name()));
        let audit = xcverifier::cert::check(cert).expect("ladder certificate replays");
        assert_eq!(audit.regions, cert.regions.len());
        // And through the exact JSON `xcvcheck` reads.
        let back = Certificate::parse(&cert.to_json()).expect("wire format round-trips");
        xcverifier::cert::check(&back).expect("parsed ladder certificate replays");
    }
}
