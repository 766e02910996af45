//! Per-layer probes, each timed from outside through a layer's public
//! functions: the encoder and tape compiler, the verifier recursion, and
//! the interval-tape / decision / split kernels.

use crate::util::{gate_config, median, ms, per_call_us, Sheet, Tracer};
use std::sync::Arc;
use std::time::Instant;
use xcv_conditions::Condition;
use xcv_core::{EncodedProblem, Encoder, RegionStatus, RunOptions, Verifier, VerifierConfig};
use xcv_functionals::FunctionalHandle;
use xcv_solver::{compile_count, BoxDomain, CompiledFormula, SolveScratch};

/// `core::encoder` and `solver::compile`: encode every pair fresh (no
/// cache), then compile each problem's `¬ψ` again on its own, so encode
/// time can be reported without its compile share.
pub fn encoder(pairs: &[(FunctionalHandle, Condition)], sheet: &mut Sheet) {
    let c0 = compile_count();
    let t0 = Instant::now();
    let problems: Vec<EncodedProblem> = pairs
        .iter()
        .map(|(f, c)| Encoder::encode(f, *c).expect("matrix pairs are applicable"))
        .collect();
    let encode = ms(t0.elapsed());
    let compiles = compile_count() - c0;
    let t0 = Instant::now();
    let slots: usize = problems
        .iter()
        .map(|p| CompiledFormula::compile_in(p.negation(), p.space.clone()).interval_slots())
        .sum();
    let compile = ms(t0.elapsed());
    sheet.put("encoder.encode_ms", encode - compile, "ms");
    sheet.put("compile.ms", compile, "ms");
    sheet.put("compile.count", compiles as f64, "count");
    sheet.put("compile.interval_slots", slots as f64, "count");
}

/// `core::verifier`: every pair through `Verifier::verify_run`, one after
/// another and single-threaded, so `verifier.ms` is busy time. Returns the
/// total node count (it must equal the campaign's) and each pair's time.
pub fn verifier(
    problems: &[Arc<EncodedProblem>],
    tracer: &Tracer,
    sheet: &mut Sheet,
) -> (u64, Vec<f64>) {
    let (mut total, mut slowest) = (0.0f64, 0.0f64);
    let (mut nodes, mut pruned, mut branched, mut depth) = (0u64, 0u64, 0u64, 0u32);
    let (mut leaves, mut decided) = (0usize, 0usize);
    let mut pair_ms = Vec::with_capacity(problems.len());
    let parent = tracer.open("verifier.all", None, 0);
    for (i, p) in problems.iter().enumerate() {
        let t0 = Instant::now();
        let out = Verifier::new(sequential(p)).verify_run(&p.domain, p, &RunOptions::default());
        let t1 = Instant::now();
        tracer.record("verifier.pair", t0, t1, Some(parent), i as u64);
        let took = ms(t1 - t0);
        total += took;
        slowest = slowest.max(took);
        pair_ms.push(took);
        nodes += out.stats.nodes;
        pruned += out.stats.pruned;
        branched += out.stats.branched;
        depth = depth.max(out.stats.max_depth);
        leaves += out.map.regions.len();
        decided += out
            .map
            .regions
            .iter()
            .filter(|r| {
                matches!(
                    r.status,
                    RegionStatus::Verified | RegionStatus::Counterexample(_)
                )
            })
            .count();
    }
    tracer.close(parent);
    sheet.put("verifier.ms", total, "ms");
    sheet.put("verifier.nodes", nodes as f64, "count");
    sheet.put("verifier.pruned", pruned as f64, "count");
    sheet.put("verifier.branched", branched as f64, "count");
    sheet.put("verifier.max_depth", f64::from(depth), "count");
    sheet.put("verifier.leaves", leaves as f64, "count");
    sheet.put(
        "verifier.decided_frac",
        decided as f64 / leaves.max(1) as f64,
        "ratio",
    );
    sheet.put("verifier.slowest_pair_ms", slowest, "ms");
    sheet.put(
        "solver.us_per_node",
        total * 1e3 / nodes.max(1) as f64,
        "us",
    );
    (nodes, pair_ms)
}

/// The gate's configuration for one pair with the verifier's fan-out off:
/// the same boxes and node counts, explored on the calling thread.
pub fn sequential(p: &EncodedProblem) -> VerifierConfig {
    let mut config = gate_config(p.functional.as_ref());
    config.parallel = false;
    config
}

/// Each pair's domain and its depth-2 children (`split_all` twice).
fn sample_boxes(p: &EncodedProblem) -> Vec<BoxDomain> {
    let mut boxes = vec![p.domain.clone()];
    for c in p.domain.split_all() {
        boxes.extend(c.split_all());
    }
    boxes
}

/// `expr::itape` and `solver::compile` kernels, sampled per call on every
/// pair's domain and depth-2 children; each metric is the median over all
/// sampled boxes.
pub fn kernels(problems: &[Arc<EncodedProblem>], tracer: &Tracer, sheet: &mut Sheet) {
    const SAMPLES: usize = 3;
    const REPS: usize = 8;
    let mut scratch = SolveScratch::new();
    let (mut fwd, mut round, mut holds, mut score, mut bisect) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, p) in problems.iter().enumerate() {
        let t0 = Instant::now();
        let cf = p.compiled();
        for b in sample_boxes(p) {
            // The f64 tape reuses registers for an unchanged point, so the
            // decision kernels alternate between two points that differ on
            // every axis: each call is a full evaluation.
            let points = [
                b.midpoint(),
                b.dims().iter().map(|d| d.lo + 0.25 * d.width()).collect(),
            ];
            let mut k = 0usize;
            let mut next = || {
                k += 1;
                &points[k % 2]
            };
            let f0 = per_call_us(SAMPLES, REPS, || {
                std::hint::black_box(cf.contract_with_rounds(&b, &mut scratch, 0));
            });
            let f1 = per_call_us(SAMPLES, REPS, || {
                std::hint::black_box(cf.contract_with_rounds(&b, &mut scratch, 1));
            });
            fwd.push(f0);
            round.push((f1 - f0).max(0.0));
            holds.push(per_call_us(SAMPLES, REPS, || {
                std::hint::black_box(cf.holds_at(next(), &mut scratch));
            }));
            score.push(per_call_us(SAMPLES, REPS, || {
                std::hint::black_box(cf.violation_score(next(), &mut scratch));
            }));
            bisect.push(per_call_us(SAMPLES, REPS, || {
                std::hint::black_box(cf.bisect_supported(&b));
            }));
        }
        tracer.record("kernels.pair", t0, Instant::now(), None, i as u64);
    }
    sheet.put("tape.forward_us", median(&fwd), "us");
    sheet.put("tape.hc4_round_us", median(&round), "us");
    sheet.put("decide.holds_at_us", median(&holds), "us");
    sheet.put("decide.violation_score_us", median(&score), "us");
    sheet.put("split.bisect_us", median(&bisect), "us");
}
