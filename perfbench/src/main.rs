//! `perfbench` — the repository benchmark: workloads over the paths users
//! run, each checked for correctness, each printing its metrics as one
//! JSON line.
//!
//! ```text
//! cargo run --offline --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload gate_matrix|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! workload again with spans recorded in memory (written to
//! `.bench_work/spans/` when the run ends) and reports the per-layer
//! metrics. Each layer is timed from outside, through its public functions.
//! A layer the workload never calls reads 0 in its traced run.

mod audit;
mod gate;
mod layers;
mod serve;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use util::{Outcome, Tracer};

/// End-to-end metrics: printed by every `--trace 0` run (names and units
/// as in `BENCHMARK.json`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by every `--trace 1` run.
const PER_LAYER: &[(&str, &str)] = &[
    ("encoder.encode_ms", "ms"),
    ("compile.ms", "ms"),
    ("compile.count", "count"),
    ("compile.interval_slots", "count"),
    ("verifier.ms", "ms"),
    ("verifier.nodes", "count"),
    ("verifier.pruned", "count"),
    ("verifier.branched", "count"),
    ("verifier.max_depth", "count"),
    ("verifier.leaves", "count"),
    ("verifier.decided_frac", "ratio"),
    ("verifier.slowest_pair_ms", "ms"),
    ("solver.us_per_node", "us"),
    ("tape.forward_us", "us"),
    ("tape.hc4_round_us", "us"),
    ("decide.holds_at_us", "us"),
    ("decide.violation_score_us", "us"),
    ("split.bisect_us", "us"),
    ("campaign.parallel_eff", "ratio"),
    ("campaign.idle_tail_ms", "ms"),
    ("cert.trace_overhead", "ratio"),
    ("cert.build_ms", "ms"),
    ("cert.to_json_ms", "ms"),
    ("cert.bytes", "bytes"),
    ("cert.parse_ms", "ms"),
    ("cert.tape_load_ms", "ms"),
    ("cert.check_ms", "ms"),
    ("cert.replayed_leaves", "count"),
    ("cert.leaves_per_s", "1/s"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.cached", "count"),
    ("serve.solved", "count"),
    ("serve.coalesced", "count"),
    ("serve.l2_hit_ratio", "ratio"),
    ("serve.l1_hit_ratio", "ratio"),
    ("serve.compile_delta", "count"),
    ("serve.busy", "count"),
    ("store.persisted", "count"),
    ("store.finalize_ms", "ms"),
    ("store.claim_us", "us"),
    ("proto.request_parse_us", "us"),
    ("proto.event_parse_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("error_rate", "ratio"),
];

const WORKLOADS: &[&str] = &["gate_matrix", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return Err(format!("bad argument {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload gate_matrix|serve_mixed")?,
        seed: seed.ok_or("--seed <u64>")?,
        seconds: seconds.ok_or("--seconds <positive number>")?,
        trace: trace.ok_or("--trace 0|1")?,
    })
}

/// Scratch space inside the working directory (the checkout root).
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}"
            );
            return ExitCode::from(2);
        }
    };
    let tracer = args.trace.then(|| Arc::new(Tracer::new()));
    let mut out: Outcome = match args.workload.as_str() {
        "gate_matrix" => gate::run(args.seconds, tracer.as_ref()),
        _ => serve::run(args.seed, args.seconds, tracer.as_ref()),
    };
    out.metrics.put(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    if let Some(t) = &tracer {
        let path = work_dir()
            .join("spans")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match t.write(&path) {
            Ok(n) => eprintln!("perfbench: {n} spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
        }
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = util::Sheet::default();
    for &(name, unit) in wanted {
        metrics.put(name, out.metrics.get(name).unwrap_or(0.0), unit);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcv_cert::json::Json;

    /// The metric lists here and in `BENCHMARK.json` name the same metrics
    /// with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let got: Vec<(String, String)> = doc
                .want(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.want("name").unwrap().as_str().unwrap().to_string(),
                        m.want("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect();
            let want: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(got, want, "{key}");
        }
        let names: Vec<String> = doc
            .want("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.want("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve_mixed --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("serve_mixed", 3, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&argv("--workload serve_mixed --seed 3 --seconds 10")).is_err());
    }
}
