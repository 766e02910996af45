//! The certificate layer (`xcverify --emit-certs`, then the `xcvcheck`
//! path), probed in the `gate_matrix` traced run: verify each pair with
//! traces recorded, build and serialize its certificate, then parse and
//! replay every certificate.
//!
//! A timed audit workload of its own was tried and dropped: its
//! single-threaded passes followed the host's speed phases (pass walls from
//! 410 to 840 ms within one run), so its run-to-run spread reached the
//! largest bound the benchmark may set.

use crate::layers::sequential;
use crate::util::{ms, Outcome, Tracer};
use std::sync::Arc;
use std::time::Instant;
use xcv_cert::Certificate;
use xcv_core::{build_certificate, EncodedProblem, RunOptions, Verifier};
use xcv_expr::IntervalTape;

/// Every `cert.*` metric. `plain_ms` holds each pair's untraced
/// `verify_run` time under the same configuration. Each certificate replay
/// counts as one operation; a pair without a certificate or a failed
/// replay is a failure.
pub fn probe(
    problems: &[Arc<EncodedProblem>],
    plain_ms: &[f64],
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let certs = emission(problems, plain_ms, tracer, out);
    let bytes: usize = certs.iter().map(|(_, j)| j.len()).sum();
    out.metrics.put("cert.bytes", bytes as f64, "bytes");
    replay(&certs, tracer, out);
}

/// Certificate emission, pair by pair: traced `verify_run`,
/// `build_certificate`, and `Certificate::to_json`. Returns
/// `(cell name, certificate JSON)` per pair that yielded one.
fn emission(
    problems: &[Arc<EncodedProblem>],
    plain_ms: &[f64],
    tracer: &Tracer,
    out: &mut Outcome,
) -> Vec<(String, String)> {
    let (mut traced, mut build, mut to_json) = (0.0, 0.0, 0.0);
    let mut certs = Vec::with_capacity(problems.len());
    let parent = tracer.open("cert.emit", None, 0);
    let options = RunOptions {
        record_traces: true,
        ..RunOptions::default()
    };
    for (i, p) in problems.iter().enumerate() {
        let name = format!("{} / {}", p.functional.name(), p.condition.id());
        let config = sequential(p);
        let t0 = Instant::now();
        let run = Verifier::new(config.clone()).verify_run(&p.domain, p, &options);
        let t1 = Instant::now();
        let cert = build_certificate(p, &config, &run);
        let t2 = Instant::now();
        let json = cert.as_ref().map(Certificate::to_json);
        let t3 = Instant::now();
        tracer.record("cert.verify_traced", t0, t1, Some(parent), i as u64);
        tracer.record("cert.build", t1, t2, Some(parent), i as u64);
        traced += ms(t1 - t0);
        build += ms(t2 - t1);
        to_json += ms(t3 - t2);
        match json {
            Some(json) => certs.push((name, json)),
            None => out.problem(format!("{name}: no certificate")),
        }
    }
    tracer.close(parent);
    let plain: f64 = plain_ms.iter().sum();
    let m = &mut out.metrics;
    m.put("cert.trace_overhead", traced / plain, "ratio");
    m.put("cert.build_ms", build, "ms");
    m.put("cert.to_json_ms", to_json, "ms");
    certs
}

/// The checker's stages, summed over all certificates: parse, tape load
/// (`IntervalTape::from_portable`), and replay (`xcv_cert::check`).
fn replay(certs: &[(String, String)], tracer: &Tracer, out: &mut Outcome) {
    let (mut parse, mut load, mut check, mut leaves) = (0.0, 0.0, 0.0, 0usize);
    let parent = tracer.open("cert.audit", None, 0);
    for (i, (name, json)) in certs.iter().enumerate() {
        let t0 = Instant::now();
        let parsed = Certificate::parse(json);
        let t1 = Instant::now();
        let tape = parsed
            .as_ref()
            .map(|c| IntervalTape::from_portable(&c.tape));
        let t2 = Instant::now();
        let report = parsed
            .as_ref()
            .map_err(String::clone)
            .and_then(xcv_cert::check);
        let t3 = Instant::now();
        std::hint::black_box(tape.is_ok());
        tracer.record("cert.parse", t0, t1, Some(parent), i as u64);
        tracer.record("cert.check", t2, t3, Some(parent), i as u64);
        parse += ms(t1 - t0);
        load += ms(t2 - t1);
        check += ms(t3 - t2);
        match &report {
            Ok(r) => leaves += r.replayed_leaves,
            Err(e) => eprintln!("perfbench: certificate {name} failed: {e}"),
        }
        out.tally(report.is_ok());
    }
    tracer.close(parent);
    let m = &mut out.metrics;
    m.put("cert.parse_ms", parse, "ms");
    m.put("cert.tape_load_ms", load, "ms");
    m.put("cert.check_ms", check, "ms");
    m.put("cert.replayed_leaves", leaves as f64, "count");
    m.put("cert.leaves_per_s", leaves as f64 / (check / 1e3), "1/s");
}
