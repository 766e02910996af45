//! Regression pins on the checked-in `BENCH_solver.json` snapshot (written
//! by the `solver_bench` binary): schema v9, per-mode `timeouts` counts,
//! the escalation-ladder entry with its timeout trajectory and its wall
//! premium over the session, and the verification-service entry — warm
//! repeat served from cache, marks identical, zero warm tape compilations.
//! CI re-runs the binary separately with its own noise slack.

use std::path::PathBuf;

fn snapshot() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_solver.json");
    std::fs::read_to_string(&path).expect("checked-in BENCH_solver.json")
}

/// Extract the raw text of `"key": <value>` at any nesting level (keys used
/// here are unique in the schema). Good enough for a pinned snapshot; not a
/// JSON parser.
fn field<'a>(json: &'a str, key: &str) -> &'a str {
    let needle = format!("\"{key}\":");
    let start = json
        .find(&needle)
        .unwrap_or_else(|| panic!("missing {key}"))
        + needle.len();
    let rest = json[start..].trim_start();
    if let Some(stripped) = rest.strip_prefix('[') {
        // Array value (flat in this schema): up to the closing bracket.
        return stripped[..stripped.find(']').expect("closing bracket")].trim();
    }
    let end = rest.find([',', '}', ']']).expect("value terminator");
    rest[..end].trim()
}

fn number(json: &str, key: &str) -> f64 {
    field(json, key).parse().unwrap_or_else(|e| {
        panic!("{key} is not a number: {e}");
    })
}

#[test]
fn snapshot_is_schema_v9_without_scheduler_entries() {
    let json = snapshot();
    assert_eq!(field(&json, "schema"), "\"xcv-bench-solver/v9\"");
    // v9 dropped the matrix-order vs cost-aware `campaign` entry and the
    // fitted scheduler model: no scheduler reads a model any more.
    let top: Vec<&str> = json
        .lines()
        .filter_map(|l| l.strip_prefix("  \""))
        .filter_map(|l| l.split('"').next())
        .collect();
    assert_eq!(
        top,
        ["schema", "config", "total", "ladder", "service", "pairs"]
    );
}

#[test]
fn snapshot_mode_entries_count_timeouts() {
    // v5: every mode entry carries a `timeouts` count (box-level budget
    // exhaustions), so a budget-starved benchmark run is visible in the
    // snapshot itself. The three rung-0 `total` modes replay the same
    // search, so their timeout tallies must agree exactly — a drift here
    // means one path stopped exploring the tree the others explored.
    // (The fourth, `ladder` mode's tally legitimately differs — that is
    // the point — and the `"timeouts": [...]` trajectory array is skipped
    // by the scalar parse below.)
    let json = snapshot();
    let totals: Vec<f64> = json
        .match_indices("\"timeouts\":")
        .filter_map(|(i, _)| field(&json[i..], "timeouts").parse().ok())
        .collect();
    assert!(
        totals.len() >= 4,
        "expected a timeouts count in each mode entry, found {}",
        totals.len()
    );
    assert!(!json.contains("\"timeout\":"), "v4 singular key resurfaced");
    let session = totals[0];
    assert!(
        totals[..3].iter().all(|t| *t == session),
        "mode timeout tallies diverged: {totals:?}"
    );
    // totals[3] is the ladder mode, pinned separately below.
}

#[test]
fn snapshot_ladder_entry_pins_the_timeout_tail() {
    // The v6 `ladder` entry: the escalation ladder's whole reason to
    // exist is the timeout tail, so the snapshot pins the trajectory
    // `[rung 0, rung 1, full ladder]` — the full ladder must cut the
    // rung-0 timeout count (620 at the time of pinning) by at least 170
    // boxes without a single Unsat regression, at no more than a 20%
    // wall premium over the plain session it extends (the measured point
    // behind the ladder's constants is 417 timeouts at a 1.10x wall ratio;
    // deeper escalation reaches 399 but at 1.4x wall — see the notes on
    // `DEPTH_CAP` in `crates/solver/src/solve.rs`).
    let json = snapshot();
    // The top-level ladder entry (per-pair records carry a `"ladder":
    // {"nodes": ...}` sub-object each; only the top-level one leads with
    // the escalation name).
    let ladder = &json[json
        .find("\"ladder\": {\"escalation\"")
        .expect("ladder entry")..];
    assert_eq!(field(ladder, "escalation"), "\"full\"");
    let trajectory: Vec<f64> = field(ladder, "timeouts")
        .split(',')
        .map(|t| t.trim().parse().expect("trajectory count"))
        .collect();
    assert_eq!(trajectory.len(), 3, "rung 0, rung 1, full");
    let session = {
        let total = &json[json.find("\"total\"").expect("total entry")..];
        number(total, "timeouts")
    };
    assert_eq!(trajectory[0], session, "trajectory starts at rung 0");
    assert!(
        trajectory[2] <= 450.0,
        "ladder left too much of the timeout tail: {trajectory:?}"
    );
    assert!(
        trajectory[2] <= trajectory[0] - 170.0,
        "ladder lost its pruning power on timeouts: {trajectory:?}"
    );
    assert_eq!(number(ladder, "unsat_regressions"), 0.0);
    assert!(number(ladder, "resolved_timeouts") >= 200.0);
    let wall = number(ladder, "wall_ms");
    let session = number(ladder, "session_wall_ms");
    assert!(wall > 0.0 && session > 0.0);
    assert!(
        wall <= 1.20 * session,
        "ladder mode wall premium regressed over the session: \
         {wall:.0} ms vs {session:.0} ms"
    );
    // At least one previously all-timeout row produces decisions now: the
    // rSCAN / Ec-scaling cell was 64 boxes, 64 timeouts at rung 0.
    let pair = json
        .find("\"functional\": \"rSCAN(reg)\", \"condition\": \"Ec scaling inequality\"")
        .expect("rSCAN Ec-scaling pair record");
    let rec = &json[pair..];
    let pair_session = number(rec, "timeouts");
    let pair_ladder = {
        let l = &rec[rec.find("\"ladder\":").expect("pair ladder entry")..];
        number(l, "timeouts")
    };
    assert!(
        pair_ladder < pair_session,
        "rSCAN / Ec scaling: ladder resolved nothing ({pair_ladder} vs {pair_session})"
    );
}

#[test]
fn snapshot_still_beats_the_seed_architecture() {
    // Carried over from the v2 pins: the compile-once session path keeps
    // its headline speedup on the recorded snapshot.
    let json = snapshot();
    let total = &json[json.find("\"total\"").expect("total entry")..];
    assert!(number(total, "speedup_vs_seed") >= 1.5);
}

#[test]
fn snapshot_service_entry_pins_the_warm_cache_contract() {
    // The v7 `service` entry: the pinned 45-pair extended matrix asked of
    // an in-process xcv-serve daemon cold, then warm. The warm repeat must
    // be served entirely from the result cache — every applicable pair
    // cached, zero tape compilations — with marks asserted identical to an
    // in-process campaign inside the binary before the file is written
    // (the `marks_identical` flag records that). The speedup floor is the
    // service's reason to exist; the measured point at pinning time was
    // ~250x (cold ~22 s, warm ~90 ms).
    let json = snapshot();
    let service = &json[json.find("\"service\"").expect("service entry")..];
    assert_eq!(number(service, "pairs"), 49.0);
    assert_eq!(number(service, "applicable"), 45.0);
    assert_eq!(number(service, "cached_warm"), 45.0);
    assert_eq!(field(service, "marks_identical"), "true");
    assert_eq!(number(service, "compile_count_delta_warm"), 0.0);
    let cold = number(service, "cold_wall_ms");
    let warm = number(service, "warm_wall_ms");
    assert!(cold > 0.0 && warm > 0.0);
    assert!(
        number(service, "speedup") >= 5.0,
        "warm service repeat lost its speedup: cold {cold:.0} ms, warm {warm:.1} ms"
    );
}
