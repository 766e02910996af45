//! B-ablate: design-choice ablations — domain-splitting on/off, HC4
//! contraction rounds, sequential vs rayon recursion. The first-order
//! (mean-value) contractor runs only as the escalation ladder's rung-1
//! Newton, which `solver_bench --extended`'s ladder mode measures.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use xcv_conditions::Condition;
use xcv_core::{Encoder, Verifier, VerifierConfig};
use xcv_functionals::Dfa;
use xcv_solver::{BoxDomain, CompiledFormula, DeltaSolver, SolveBudget, SolveScratch};

/// Domain splitting on/off: with splitting disabled the verifier makes a
/// single solver call on the whole domain (the paper reports dReal timing out
/// on most whole-domain formulas — the motivation for Algorithm 1's split).
fn bench_domain_splitting(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_domain_split");
    g.sample_size(10);
    let problem = Encoder::encode(Dfa::Lyp, Condition::EcNonPositivity).unwrap();
    let budget = SolveBudget {
        max_nodes: 3_000,
        max_millis: 100,
    };
    let with_split = Verifier::new(VerifierConfig {
        split_threshold: 1.25,
        solver: DeltaSolver::new(1e-3, budget),
        parallel: false,
        max_depth: 4,
        pair_deadline_ms: None,
    });
    let no_split = Verifier::new(VerifierConfig {
        split_threshold: f64::INFINITY, // never split
        solver: DeltaSolver::new(1e-3, budget),
        parallel: false,
        max_depth: 0,
        pair_deadline_ms: None,
    });
    g.bench_function("split_on", |b| {
        b.iter(|| black_box(with_split.verify(&problem)))
    });
    g.bench_function("split_off", |b| {
        b.iter(|| black_box(no_split.verify(&problem)))
    });
    g.finish();
}

/// HC4 rounds per contraction call: 1 vs 3 (more propagation per box vs more
/// boxes).
fn bench_hc4_rounds(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_hc4_rounds");
    let problem = Encoder::encode(Dfa::Pbe, Condition::EcNonPositivity).unwrap();
    let b0 = BoxDomain::from_bounds(&[(1.0, 3.0), (0.0, 2.0)]);
    for rounds in [1usize, 3, 6] {
        g.bench_function(format!("rounds_{rounds}"), |b| {
            b.iter(|| {
                let compiled = CompiledFormula::compile(black_box(problem.negation()));
                let mut scratch = SolveScratch::new();
                black_box(compiled.contract_with_rounds(black_box(&b0), &mut scratch, rounds))
            })
        });
    }
    g.finish();
}

/// Sequential vs rayon-parallel recursion over sub-boxes.
fn bench_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_parallel");
    g.sample_size(10);
    let problem = Encoder::encode(Dfa::Pbe, Condition::ConjTcUpperBound).unwrap();
    for (name, parallel) in [("sequential", false), ("rayon", true)] {
        let v = Verifier::new(VerifierConfig {
            split_threshold: 0.6,
            solver: DeltaSolver::new(1e-3, SolveBudget::nodes(800)),
            parallel,
            max_depth: 4,
            pair_deadline_ms: None,
        });
        g.bench_function(name, |b| b.iter(|| black_box(v.verify(&problem))));
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_domain_splitting,
    bench_hc4_rounds,
    bench_parallel
);
criterion_main!(benches);
