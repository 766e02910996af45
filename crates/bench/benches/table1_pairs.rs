//! B-solver: timing of verification runs per DFA-condition pair (the
//! workload behind Table I), at a reduced budget so Criterion iterations are
//! tractable.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use xcv_conditions::Condition;
use xcv_core::presets::repro_config;
use xcv_core::{Encoder, Verifier};
use xcv_functionals::Dfa;

fn bench_pairs(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1_pairs");
    g.sample_size(10);
    let cases = [
        (Dfa::VwnRpa, Condition::EcNonPositivity, "vwn_ec1"),
        (Dfa::VwnRpa, Condition::EcScaling, "vwn_ec2"),
        (Dfa::Pbe, Condition::EcNonPositivity, "pbe_ec1"),
        (Dfa::Pbe, Condition::LiebOxfordExt, "pbe_lo_ext"),
        (Dfa::Pbe, Condition::ConjTcUpperBound, "pbe_conj_tc"),
        (Dfa::Lyp, Condition::EcNonPositivity, "lyp_ec1"),
        (Dfa::Lyp, Condition::EcScaling, "lyp_ec2"),
        (Dfa::Am05, Condition::EcNonPositivity, "am05_ec1"),
        (Dfa::Scan, Condition::EcNonPositivity, "scan_ec1"),
    ];
    for (dfa, cond, name) in cases {
        let problem = Encoder::encode(dfa, cond).expect("applicable");
        let verifier = Verifier::new(repro_config(25, 1.25, 2));
        g.bench_function(name, |b| {
            b.iter(|| black_box(verifier.verify(black_box(&problem))))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pairs);
criterion_main!(benches);
