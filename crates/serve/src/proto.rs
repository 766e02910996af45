//! The line-delimited JSON wire protocol between `xcvserve` and its clients.
//!
//! One request per line, a stream of event lines back, reusing the
//! hand-rolled JSON of [`xcv_cert::json`] (the workspace is offline — no
//! serde). Every stream ends with a terminal event: `done` for a verify,
//! `pong`/`stats`/`ok` for the control commands, `error` on any failure.
//!
//! ## Requests
//!
//! ```text
//! {"cmd": "verify", "functionals": ["PBE", "LYP"], "conditions": ["ec1"],
//!  "policy": {"mode": "gate", "budget_ms": 100, "threshold": 0.3}}
//! {"cmd": "stats"}
//! {"cmd": "ping"}
//! {"cmd": "shutdown"}
//! ```
//!
//! An empty (or absent) `conditions` array means all seven. Conditions
//! travel as their stable CLI ids (`ec1`..`ec7`, see [`Condition::id`]);
//! table marks as the tags `verified` / `partial` / `counterexample` /
//! `unknown` / `na`.
//!
//! ## Policies
//!
//! * `gate` — the `xcverify` CI-gate configuration: per-box wall budget and
//!   recursion floor, with the per-arity depth cap derived server-side via
//!   [`Policy::verifier_config`]. The in-process `xcverify` path calls the
//!   *same* function, so `--server` and in-process runs are configured
//!   identically by construction.
//! * `flat` — one explicit node-budgeted [`VerifierConfig`] for every pair
//!   (deterministic: used by `solver_bench --service` and the integration
//!   tests, where bit-identical marks are asserted).
//!
//! ## Events
//!
//! ```text
//! {"event": "started", "functional": "PBE", "condition": "ec1"}
//! {"event": "counterexample", "functional": "LYP", "condition": "ec1", "witness": [..]}
//! {"event": "pair", "functional": "PBE", "condition": "ec1", "mark": "verified",
//!  "wall_ms": 12, "cached": false, "skipped": null}
//! {"event": "done", "pairs": 49, "cached": 45, "solved": 0, "coalesced": 0,
//!  "l1_hits": 45, "l1_misses": 0, "compile_count": 90, "wall_ms": 3, "timeouts": 0}
//! ```
//!
//! `cached: true` marks a level-2 store hit (the pair was answered without
//! solving; its recorded counterexamples are replayed as `counterexample`
//! events first, so a thin client renders cached and fresh pairs
//! identically). The `done` counters expose the cache behaviour a client
//! (or CI) asserts on: `cached`/`solved`/`coalesced` partition the
//! applicable pairs of this request, `l1_*` are the request's
//! compiled-problem cache deltas, `compile_count` is the daemon's
//! process-global tape-compilation counter — flat across a warm request —
//! and `timeouts` counts pairs the request's wall deadline cut, mid-solve or
//! before they started (each also reported as a `pair` event with
//! `skipped: "timeout"`, and none of them stored).

use xcv_cert::json::{escape, fmt_f64, Json};
use xcv_conditions::Condition;
use xcv_core::presets::repro_config;
use xcv_core::{TableMark, VerifierConfig};
use xcv_functionals::Functional;
use xcv_solver::{DeltaSolver, SolveBudget};

/// How a verify request's per-pair [`VerifierConfig`] is derived.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Policy {
    /// The `xcverify` gate configuration: [`repro_config`] with the
    /// per-arity recursion depth cap (spin-resolved 2, meta-GGA 3, else 5).
    Gate { budget_ms: u64, threshold: f64 },
    /// One explicit deterministic config for every pair (sequential,
    /// node-budgeted, no deadline) — the reproducible-benchmark policy.
    Flat {
        delta: f64,
        max_nodes: u64,
        split_threshold: f64,
        max_depth: u32,
    },
}

impl Policy {
    /// The effective verifier configuration for one functional under this
    /// policy. `xcverify` uses this for its in-process campaign too, so the
    /// daemon and the CLI derive identical configurations (and therefore
    /// identical level-2 cache keys) by construction.
    pub fn verifier_config(&self, f: &dyn Functional) -> VerifierConfig {
        match *self {
            Policy::Gate {
                budget_ms,
                threshold,
            } => {
                let max_depth = match f.arity() {
                    4.. => 2, // ζ-resolved: 16 children per split level
                    3 => 3,
                    _ => 5,
                };
                repro_config(budget_ms, threshold, max_depth)
            }
            Policy::Flat {
                delta,
                max_nodes,
                split_threshold,
                max_depth,
            } => VerifierConfig {
                split_threshold,
                solver: DeltaSolver::new(delta, SolveBudget::nodes(max_nodes)),
                parallel: false,
                max_depth,
                pair_deadline_ms: None,
            },
        }
    }

    fn to_json(self) -> String {
        match self {
            Policy::Gate {
                budget_ms,
                threshold,
            } => format!(
                "{{\"mode\": \"gate\", \"budget_ms\": {budget_ms}, \"threshold\": {}}}",
                fmt_f64(threshold)
            ),
            Policy::Flat {
                delta,
                max_nodes,
                split_threshold,
                max_depth,
            } => format!(
                "{{\"mode\": \"flat\", \"delta\": {}, \"max_nodes\": {max_nodes}, \
                 \"split_threshold\": {}, \"max_depth\": {max_depth}}}",
                fmt_f64(delta),
                fmt_f64(split_threshold)
            ),
        }
    }

    fn parse(v: &Json) -> Result<Policy, String> {
        match v.want("mode")?.as_str()? {
            "gate" => Ok(Policy::Gate {
                budget_ms: v.want("budget_ms")?.as_u64()?,
                threshold: v.want("threshold")?.as_f64()?,
            }),
            "flat" => Ok(Policy::Flat {
                delta: v.want("delta")?.as_f64()?,
                max_nodes: v.want("max_nodes")?.as_u64()?,
                split_threshold: v.want("split_threshold")?.as_f64()?,
                max_depth: u32::try_from(v.want("max_depth")?.as_u64()?)
                    .map_err(|e| e.to_string())?,
            }),
            other => Err(format!("unknown policy mode {other:?}")),
        }
    }
}

/// One `verify` query: a sub-matrix (functionals × conditions) plus the
/// configuration policy.
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyRequest {
    /// Registry names (daemon-side alias resolution applies, see
    /// [`crate::canonical_name`]).
    pub functionals: Vec<String>,
    /// Empty = all seven conditions.
    pub conditions: Vec<Condition>,
    pub policy: Policy,
}

/// A client request, one JSON object per line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Verify(VerifyRequest),
    Stats,
    Ping,
    Shutdown,
}

impl Request {
    /// Serialize as one line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Request::Stats => "{\"cmd\": \"stats\"}".to_string(),
            Request::Ping => "{\"cmd\": \"ping\"}".to_string(),
            Request::Shutdown => "{\"cmd\": \"shutdown\"}".to_string(),
            Request::Verify(v) => {
                let fs = v
                    .functionals
                    .iter()
                    .map(|f| format!("\"{}\"", escape(f)))
                    .collect::<Vec<_>>()
                    .join(", ");
                let cs = v
                    .conditions
                    .iter()
                    .map(|c| format!("\"{}\"", c.id()))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "{{\"cmd\": \"verify\", \"functionals\": [{fs}], \"conditions\": [{cs}], \
                     \"policy\": {}}}",
                    v.policy.to_json()
                )
            }
        }
    }

    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let doc = Json::parse(line)?;
        match doc.want("cmd")?.as_str()? {
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "verify" => {
                let functionals = doc
                    .want("functionals")?
                    .as_arr()?
                    .iter()
                    .map(|f| f.as_str().map(str::to_string))
                    .collect::<Result<Vec<_>, _>>()?;
                let conditions = match doc.get("conditions") {
                    None | Some(Json::Null) => Vec::new(),
                    Some(v) => v
                        .as_arr()?
                        .iter()
                        .map(|c| {
                            let id = c.as_str()?;
                            Condition::from_id(id)
                                .ok_or_else(|| format!("unknown condition {id:?}"))
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                };
                Ok(Request::Verify(VerifyRequest {
                    functionals,
                    conditions,
                    policy: Policy::parse(doc.want("policy")?)?,
                }))
            }
            other => Err(format!("unknown command {other:?}")),
        }
    }
}

/// Wire tag of a table mark.
pub fn mark_tag(mark: TableMark) -> &'static str {
    match mark {
        TableMark::Verified => "verified",
        TableMark::PartiallyVerified => "partial",
        TableMark::Counterexample => "counterexample",
        TableMark::Unknown => "unknown",
        TableMark::NotApplicable => "na",
    }
}

/// Parse a wire mark tag.
pub fn parse_mark(tag: &str) -> Option<TableMark> {
    Some(match tag {
        "verified" => TableMark::Verified,
        "partial" => TableMark::PartiallyVerified,
        "counterexample" => TableMark::Counterexample,
        "unknown" => TableMark::Unknown,
        "na" => TableMark::NotApplicable,
        _ => return None,
    })
}

/// The terminal summary of one verify stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Done {
    /// Matrix cells in the request (inapplicable ones included).
    pub pairs: u64,
    /// Answered from the level-2 result store without solving.
    pub cached: u64,
    /// Solved by this request (it was the coalescing leader).
    pub solved: u64,
    /// Of `cached`: pairs that waited on another request's identical
    /// in-flight solve (level-3 coalescing) instead of hitting warm memory.
    pub coalesced: u64,
    /// Compiled-problem (level 1) cache hits/misses during this request.
    pub l1_hits: u64,
    pub l1_misses: u64,
    /// The daemon's process-global tape-compilation counter after this
    /// request ([`xcv_solver::compile_count`]) — flat across a warm repeat.
    pub compile_count: u64,
    pub wall_ms: u64,
    /// Pairs the request's wall deadline cut, mid-solve or before they
    /// started (`skipped: "timeout"` pair events): the request degraded
    /// gracefully instead of running past its deadline — already-solved
    /// pairs were still answered, and nothing a cut pair computed was
    /// stored.
    pub timeouts: u64,
}

/// Daemon-lifetime counters (the `stats` command).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Level 1: compiled-problem cache lines / hits / misses.
    pub problems: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    /// Level 2: memoized results / memo hits / campaign solves / disk
    /// persists / results warm-loaded from the store directory at startup.
    pub results: u64,
    pub result_hits: u64,
    pub solves: u64,
    pub persisted: u64,
    pub warm_loaded: u64,
    /// Level 3: requests that waited on an identical in-flight solve.
    pub coalesced: u64,
    pub compile_count: u64,
    /// Corrupt store documents renamed `*.bad` at warm start (each one
    /// recomputes on first demand instead of serving garbage).
    pub quarantined: u64,
    /// Panics isolated by the per-request / per-solve `catch_unwind`
    /// boundaries — the daemon kept serving through every one of them.
    pub panics: u64,
}

/// One event line of a response stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    Started {
        functional: String,
        condition: Condition,
    },
    Counterexample {
        functional: String,
        condition: Condition,
        witness: Vec<f64>,
    },
    Pair {
        functional: String,
        condition: Condition,
        mark: TableMark,
        wall_ms: u64,
        cached: bool,
        /// `None` when the pair ran to completion; otherwise the skip tag
        /// (`na`, `encode_failed`, `other_shard`, or `timeout` — the
        /// request's wall deadline cut the pair or came before it).
        skipped: Option<String>,
    },
    Done(Done),
    Stats(ServerStats),
    Pong,
    Ok,
    Error {
        message: String,
    },
}

impl Event {
    /// Is this the last event of its stream?
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Event::Done(_) | Event::Stats(_) | Event::Pong | Event::Ok | Event::Error { .. }
        )
    }

    /// Serialize as one line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Event::Started {
                functional,
                condition,
            } => format!(
                "{{\"event\": \"started\", \"functional\": \"{}\", \"condition\": \"{}\"}}",
                escape(functional),
                condition.id()
            ),
            Event::Counterexample {
                functional,
                condition,
                witness,
            } => format!(
                "{{\"event\": \"counterexample\", \"functional\": \"{}\", \"condition\": \"{}\", \
                 \"witness\": [{}]}}",
                escape(functional),
                condition.id(),
                witness
                    .iter()
                    .map(|v| fmt_f64(*v))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Event::Pair {
                functional,
                condition,
                mark,
                wall_ms,
                cached,
                skipped,
            } => format!(
                "{{\"event\": \"pair\", \"functional\": \"{}\", \"condition\": \"{}\", \
                 \"mark\": \"{}\", \"wall_ms\": {wall_ms}, \"cached\": {cached}, \
                 \"skipped\": {}}}",
                escape(functional),
                condition.id(),
                mark_tag(*mark),
                match skipped {
                    Some(tag) => format!("\"{}\"", escape(tag)),
                    None => "null".to_string(),
                }
            ),
            Event::Done(d) => format!(
                "{{\"event\": \"done\", \"pairs\": {}, \"cached\": {}, \"solved\": {}, \
                 \"coalesced\": {}, \"l1_hits\": {}, \"l1_misses\": {}, \
                 \"compile_count\": {}, \"wall_ms\": {}, \"timeouts\": {}}}",
                d.pairs,
                d.cached,
                d.solved,
                d.coalesced,
                d.l1_hits,
                d.l1_misses,
                d.compile_count,
                d.wall_ms,
                d.timeouts
            ),
            Event::Stats(s) => format!(
                "{{\"event\": \"stats\", \"problems\": {}, \"l1_hits\": {}, \"l1_misses\": {}, \
                 \"results\": {}, \"result_hits\": {}, \"solves\": {}, \"persisted\": {}, \
                 \"warm_loaded\": {}, \"coalesced\": {}, \"compile_count\": {}, \
                 \"quarantined\": {}, \"panics\": {}}}",
                s.problems,
                s.l1_hits,
                s.l1_misses,
                s.results,
                s.result_hits,
                s.solves,
                s.persisted,
                s.warm_loaded,
                s.coalesced,
                s.compile_count,
                s.quarantined,
                s.panics
            ),
            Event::Pong => "{\"event\": \"pong\"}".to_string(),
            Event::Ok => "{\"event\": \"ok\"}".to_string(),
            Event::Error { message } => {
                format!(
                    "{{\"event\": \"error\", \"message\": \"{}\"}}",
                    escape(message)
                )
            }
        }
    }

    /// Parse one event line.
    pub fn parse(line: &str) -> Result<Event, String> {
        let doc = Json::parse(line)?;
        let condition = |doc: &Json| -> Result<Condition, String> {
            let id = doc.want("condition")?.as_str()?;
            Condition::from_id(id).ok_or_else(|| format!("unknown condition {id:?}"))
        };
        match doc.want("event")?.as_str()? {
            "started" => Ok(Event::Started {
                functional: doc.want("functional")?.as_str()?.to_string(),
                condition: condition(&doc)?,
            }),
            "counterexample" => Ok(Event::Counterexample {
                functional: doc.want("functional")?.as_str()?.to_string(),
                condition: condition(&doc)?,
                witness: doc
                    .want("witness")?
                    .as_arr()?
                    .iter()
                    .map(Json::as_f64)
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "pair" => {
                let tag = doc.want("mark")?.as_str()?;
                Ok(Event::Pair {
                    functional: doc.want("functional")?.as_str()?.to_string(),
                    condition: condition(&doc)?,
                    mark: parse_mark(tag).ok_or_else(|| format!("unknown mark {tag:?}"))?,
                    wall_ms: doc.want("wall_ms")?.as_u64()?,
                    cached: doc.want("cached")?.as_bool()?,
                    skipped: match doc.want("skipped")? {
                        Json::Null => None,
                        v => Some(v.as_str()?.to_string()),
                    },
                })
            }
            "done" => Ok(Event::Done(Done {
                pairs: doc.want("pairs")?.as_u64()?,
                cached: doc.want("cached")?.as_u64()?,
                solved: doc.want("solved")?.as_u64()?,
                coalesced: doc.want("coalesced")?.as_u64()?,
                l1_hits: doc.want("l1_hits")?.as_u64()?,
                l1_misses: doc.want("l1_misses")?.as_u64()?,
                compile_count: doc.want("compile_count")?.as_u64()?,
                wall_ms: doc.want("wall_ms")?.as_u64()?,
                timeouts: doc.want("timeouts")?.as_u64()?,
            })),
            "stats" => Ok(Event::Stats(ServerStats {
                problems: doc.want("problems")?.as_u64()?,
                l1_hits: doc.want("l1_hits")?.as_u64()?,
                l1_misses: doc.want("l1_misses")?.as_u64()?,
                results: doc.want("results")?.as_u64()?,
                result_hits: doc.want("result_hits")?.as_u64()?,
                solves: doc.want("solves")?.as_u64()?,
                persisted: doc.want("persisted")?.as_u64()?,
                warm_loaded: doc.want("warm_loaded")?.as_u64()?,
                coalesced: doc.want("coalesced")?.as_u64()?,
                compile_count: doc.want("compile_count")?.as_u64()?,
                quarantined: doc.want("quarantined")?.as_u64()?,
                panics: doc.want("panics")?.as_u64()?,
            })),
            "pong" => Ok(Event::Pong),
            "ok" => Ok(Event::Ok),
            "error" => Ok(Event::Error {
                message: doc.want("message")?.as_str()?.to_string(),
            }),
            other => Err(format!("unknown event {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Verify(VerifyRequest {
                functionals: vec!["PBE".into(), "VWN RPA".into()],
                conditions: vec![Condition::EcNonPositivity, Condition::LiebOxford],
                policy: Policy::Gate {
                    budget_ms: 100,
                    threshold: 0.3,
                },
            }),
            Request::Verify(VerifyRequest {
                functionals: vec!["LYP".into()],
                conditions: Vec::new(),
                policy: Policy::Flat {
                    delta: 1e-3,
                    max_nodes: 800,
                    split_threshold: 0.625,
                    max_depth: 2,
                },
            }),
        ];
        for r in reqs {
            let line = r.to_json();
            assert!(!line.contains('\n'));
            assert_eq!(Request::parse(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn events_round_trip() {
        let events = [
            Event::Started {
                functional: "PBE".into(),
                condition: Condition::EcScaling,
            },
            Event::Counterexample {
                functional: "LYP".into(),
                condition: Condition::EcNonPositivity,
                witness: vec![0.1, 2.5e-3, -1.0],
            },
            Event::Pair {
                functional: "B88(ζ)".into(),
                condition: Condition::LiebOxfordExt,
                mark: TableMark::Counterexample,
                wall_ms: 42,
                cached: true,
                skipped: None,
            },
            Event::Pair {
                functional: "LYP".into(),
                condition: Condition::LiebOxford,
                mark: TableMark::NotApplicable,
                wall_ms: 0,
                cached: false,
                skipped: Some("na".into()),
            },
            Event::Done(Done {
                pairs: 49,
                cached: 45,
                solved: 0,
                coalesced: 0,
                l1_hits: 45,
                l1_misses: 0,
                compile_count: 90,
                wall_ms: 3,
                timeouts: 2,
            }),
            Event::Stats(ServerStats {
                quarantined: 1,
                panics: 2,
                ..ServerStats::default()
            }),
            Event::Pong,
            Event::Ok,
            Event::Error {
                message: "unknown functional \"nope\"".into(),
            },
        ];
        for e in events {
            let line = e.to_json();
            assert!(!line.contains('\n'));
            assert_eq!(Event::parse(&line).unwrap(), e, "{line}");
        }
    }

    #[test]
    fn every_mark_has_a_stable_tag() {
        for m in [
            TableMark::Verified,
            TableMark::PartiallyVerified,
            TableMark::Counterexample,
            TableMark::Unknown,
            TableMark::NotApplicable,
        ] {
            assert_eq!(parse_mark(mark_tag(m)), Some(m));
        }
        assert_eq!(parse_mark("nope"), None);
    }

    #[test]
    fn gate_policy_matches_the_cli_depth_caps() {
        use xcv_functionals::{Dfa, IntoFunctional, Registry};
        let policy = Policy::Gate {
            budget_ms: 100,
            threshold: 0.3,
        };
        // LDA/GGA arity 2 → depth 5; meta-GGA arity 3 → 3; spin arity 4 → 2.
        let pbe = Dfa::Pbe.into_handle();
        assert_eq!(policy.verifier_config(pbe.as_ref()).max_depth, 5);
        let scan = Dfa::Scan.into_handle();
        assert_eq!(policy.verifier_config(scan.as_ref()).max_depth, 3);
        let spin = Registry::spin_general().get("PBE(ζ)").unwrap();
        assert_eq!(policy.verifier_config(spin.as_ref()).max_depth, 2);
    }
}
