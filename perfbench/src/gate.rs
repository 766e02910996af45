//! `gate_matrix`: the pinned 45-pair extended matrix as one in-process
//! `Campaign` under the gate's shape with a per-box node budget.

use crate::util::{self, median, ms, quantile, Outcome, Tracer};
use crate::{audit, layers};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xcv_conditions::Condition;
use xcv_core::{Campaign, CampaignEvent, CampaignReport, ProblemCache, TableMark};
use xcv_functionals::{FunctionalHandle, Registry};
use xcv_serve::proto::mark_tag;

/// The expected marks and node total, recorded from this benchmark.
const EXPECTED: &str = include_str!("../expected/gate_marks.txt");

/// Applicable pairs of the pinned matrix.
const PAIRS: usize = 45;

/// Set-ups before the first pass and after each pass; `setup_s` is the
/// median of all of them.
const SETUPS_FIRST: usize = 10;
const SETUPS_PER_PASS: usize = 5;

/// A canonical marks line; the digest is FNV-1a over the sorted lines.
fn mark_line(functional: &str, condition: Condition, mark: TableMark) -> String {
    format!("{functional} / {}: {}", condition.id(), mark_tag(mark))
}

pub fn digest(lines: &[String]) -> u64 {
    let mut sorted = lines.to_vec();
    sorted.sort();
    util::fnv1a(sorted.join("\n").as_bytes())
}

/// `(expected mark lines, expected node total)`.
fn expected() -> (Vec<String>, u64) {
    let mut lines = Vec::new();
    let mut nodes = 0;
    for l in EXPECTED.lines().map(str::trim) {
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        match l.strip_prefix("nodes ") {
            Some(n) => nodes = n.parse().expect("nodes line holds an integer"),
            None => lines.push(l.to_string()),
        }
    }
    (lines, nodes)
}

/// The pinned matrix in registry order. The seed does not reach it: the
/// gate's inputs are fixed, and a seeded order would change which pairs
/// the campaign runs side by side (scheduling ties), and with it the wall
/// time, from seed to seed.
pub fn matrix() -> (Vec<FunctionalHandle>, Vec<Condition>) {
    (
        Registry::extended().handles().to_vec(),
        Condition::all().to_vec(),
    )
}

/// Encode every cell through a fresh problem cache, as `Campaign::run`
/// would; returns the cache and the applicable pairs in matrix order.
fn encode(
    functionals: &[FunctionalHandle],
    conditions: &[Condition],
) -> (Arc<ProblemCache>, Vec<(FunctionalHandle, Condition)>) {
    let cache = Arc::new(ProblemCache::new());
    let mut pairs = Vec::new();
    for f in functionals {
        for &c in conditions {
            if cache.encode(f, c).is_ok() {
                pairs.push((Arc::clone(f), c));
            }
        }
    }
    (cache, pairs)
}

/// Per-pass timing log, filled from campaign events on worker threads.
#[derive(Default)]
struct PassLog {
    started: HashMap<(String, Condition), Instant>,
    latencies_ms: Vec<f64>,
    finished: Vec<Instant>,
}

/// One timed campaign: the report, its wall time, each pair's latency, and
/// each pair's finish time from the pass start (ascending).
struct Pass {
    report: CampaignReport,
    wall_ms: f64,
    latencies_ms: Vec<f64>,
    finished_ms: Vec<f64>,
}

/// One timed campaign over the matrix. With a tracer, each pair becomes a
/// span under the pass span.
fn pass(
    cache: &Arc<ProblemCache>,
    functionals: &[FunctionalHandle],
    conditions: &[Condition],
    tracer: Option<(&Arc<Tracer>, u64)>,
) -> Pass {
    let log = Arc::new(Mutex::new(PassLog::default()));
    let pass_span = tracer.map(|(t, run)| (Arc::clone(t), t.open("gate.pass", None, run)));
    let ids: HashMap<(String, Condition), u64> = functionals
        .iter()
        .flat_map(|f| conditions.iter().map(move |&c| (f.name(), c)))
        .enumerate()
        .map(|(i, k)| (k, i as u64))
        .collect();
    let sink = {
        let log = Arc::clone(&log);
        let pass_span = pass_span.clone();
        move |e: &CampaignEvent| {
            let now = Instant::now();
            let mut log = log.lock().expect("pass log poisoned");
            match e {
                CampaignEvent::PairStarted {
                    functional,
                    condition,
                } => {
                    log.started.insert((functional.clone(), *condition), now);
                }
                CampaignEvent::PairFinished {
                    functional,
                    condition,
                    ..
                } => {
                    let key = (functional.clone(), *condition);
                    if let Some(t0) = log.started.get(&key).copied() {
                        log.latencies_ms.push(ms(now - t0));
                        if let Some((t, parent)) = &pass_span {
                            t.record("gate.pair", t0, now, Some(*parent), ids[&key]);
                        }
                    }
                    log.finished.push(now);
                }
                _ => {}
            }
        }
    };
    let t0 = Instant::now();
    let report = Campaign::builder()
        .functionals(functionals.iter().cloned())
        .conditions(conditions.iter().copied())
        .config_policy(|f, _| util::gate_config(f))
        .problem_cache(Arc::clone(cache))
        .on_event(sink)
        .build()
        .expect("the matrix has functionals")
        .run();
    let wall_ms = ms(t0.elapsed());
    if let Some((t, id)) = pass_span {
        t.close(id);
    }
    let log = std::mem::take(&mut *log.lock().expect("pass log poisoned"));
    let mut finished_ms: Vec<f64> = log.finished.iter().map(|&t| ms(t - t0)).collect();
    finished_ms.sort_by(f64::total_cmp);
    Pass {
        report,
        wall_ms,
        latencies_ms: log.latencies_ms,
        finished_ms,
    }
}

/// Check one pass: every mark against the recorded table, the node total,
/// and every counterexample witness against `ψ` through the compiled checker.
///
/// Cells are named by their matrix position: a cell answered from the
/// problem cache carries the handle that first encoded its content (LYP
/// and BLYP share their correlation-only cells), so its outcome's own
/// functional name depends on the encode order.
fn check(report: &CampaignReport, cache: &ProblemCache, out: &mut Outcome) -> u64 {
    let (want, want_nodes) = expected();
    let mut lines = Vec::new();
    let mut nodes = 0;
    let names = report
        .functionals
        .iter()
        .flat_map(|f| report.conditions.iter().map(move |_| f.name()));
    for (name, p) in names.zip(&report.pairs) {
        if p.mark == TableMark::NotApplicable {
            continue;
        }
        let line = mark_line(&name, p.condition, p.mark);
        let mut ok = want.contains(&line) && p.skipped.is_none();
        nodes += p.stats.map_or(0, |s| s.nodes);
        if let (Some(map), Ok(problem)) = (&p.map, cache.encode(&p.functional, p.condition)) {
            for w in map.counterexamples() {
                ok &= !problem.psi_compiled().holds_at(w);
            }
        }
        out.tally(ok);
        lines.push(line);
    }
    if lines.len() != PAIRS {
        out.problem(format!(
            "{} applicable pairs ran, want {PAIRS}",
            lines.len()
        ));
    }
    let (got, expect) = (digest(&lines), digest(&want));
    if got != expect {
        let mut sorted = lines.clone();
        sorted.sort();
        eprintln!("observed marks:\nnodes {nodes}\n{}", sorted.join("\n"));
        out.problem(format!("marks digest {got:016x}, want {expect:016x}"));
    }
    if nodes != want_nodes {
        out.problem(format!("{nodes} nodes, want {want_nodes}"));
    }
    nodes
}

pub fn run(seconds: f64, trace: Option<&Arc<Tracer>>) -> Outcome {
    let mut out = Outcome::new();
    let (functionals, conditions) = matrix();

    // Set-up: encoding and tape compilation of the matrix, several times
    // before the first pass and again after each pass, so its median
    // samples the host over the whole run, as the passes do.
    let mut setups = Vec::new();
    let mut set_up = |times: usize| {
        let mut last = None;
        for _ in 0..times {
            let t0 = Instant::now();
            last = Some(encode(&functionals, &conditions));
            setups.push(t0.elapsed().as_secs_f64());
        }
        last.expect("at least one set-up")
    };
    let (cache, pairs) = set_up(SETUPS_FIRST);

    // Timed part: whole-matrix campaigns for `seconds`. A traced run takes
    // one untraced pass, the baseline of its tracing overhead.
    let (min_passes, seconds) = if trace.is_some() {
        (1, 0.0)
    } else {
        (3, seconds)
    };
    let (mut walls, mut lat) = (Vec::new(), Vec::new());
    let t_all = Instant::now();
    let mut nodes = 0;
    while walls.len() < min_passes
        || t_all.elapsed().as_secs_f64() + median(&walls) / 1e3 <= seconds
    {
        let p = pass(&cache, &functionals, &conditions, None);
        nodes = check(&p.report, &cache, &mut out);
        walls.push(p.wall_ms);
        lat.extend(p.latencies_ms);
        set_up(SETUPS_PER_PASS);
    }
    out.metrics.put("peak_rss_mb", util::peak_rss_mb(), "MB");
    out.metrics.put("setup_s", median(&setups), "s");
    eprintln!(
        "gate_matrix: {} passes, marks digest {:016x}, {nodes} nodes/pass, walls {:?} ms",
        walls.len(),
        digest(&expected().0),
        walls.iter().map(|w| w.round()).collect::<Vec<_>>()
    );
    out.metrics.put("wall_s", median(&walls) / 1e3, "s");
    out.metrics.put("p50_ms", median(&lat), "ms");
    out.metrics.put("p90_ms", quantile(&lat, 0.9), "ms");
    let campaign_s: f64 = walls.iter().sum::<f64>() / 1e3;
    out.metrics
        .put("req_per_s", lat.len() as f64 / campaign_s, "1/s");

    if let Some(tracer) = trace {
        let plain = walls[walls.len() - 1];
        traced(
            &cache,
            (&functionals, &conditions),
            &pairs,
            (plain, nodes),
            tracer,
            &mut out,
        );
    }
    out
}

/// The traced run's extra passes and layer probes.
/// `plain` is the untraced pass wall time and its node total.
fn traced(
    cache: &Arc<ProblemCache>,
    (functionals, conditions): (&[FunctionalHandle], &[Condition]),
    pairs: &[(FunctionalHandle, Condition)],
    (plain, nodes): (f64, u64),
    tracer: &Arc<Tracer>,
    out: &mut Outcome,
) {
    let p = pass(cache, functionals, conditions, Some((tracer, 1)));
    check(&p.report, cache, out);
    out.metrics
        .put("trace.overhead_frac", (p.wall_ms - plain) / plain, "ratio");
    if let [.., second_last, _] = p.finished_ms.as_slice() {
        out.metrics
            .put("campaign.idle_tail_ms", p.wall_ms - second_last, "ms");
    }

    layers::encoder(pairs, &mut out.metrics);
    let problems: Vec<_> = pairs
        .iter()
        .map(|(f, c)| cache.encode(f, *c).expect("pair encoded in set-up"))
        .collect();
    let (probed, pair_ms) = layers::verifier(&problems, tracer, &mut out.metrics);
    if probed != nodes {
        out.problem(format!(
            "sequential verify_run explored {probed} nodes, the campaign {nodes}"
        ));
    }
    let busy = out.metrics.get("verifier.ms").unwrap_or(0.0);
    out.metrics.put(
        "campaign.parallel_eff",
        busy / (plain * util::workers() as f64),
        "ratio",
    );
    layers::kernels(&problems, tracer, &mut out.metrics);
    audit::probe(&problems, &pair_ms, tracer, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_table_is_the_pinned_matrix() {
        let (lines, nodes) = expected();
        assert_eq!(lines.len(), PAIRS);
        assert!(nodes > 0);
    }
}
