//! `serve_mixed`: a fresh in-process daemon with its store on local disk,
//! warmed in set-up, then two closed-loop clients (one connection each)
//! sending a seeded stream of sub-matrix `verify` requests: mostly warm
//! keys (level-2 hits), a minority under fresh flat-policy variants, and
//! one identical miss per round sent by both clients at once (coalescing).
//! A cold request of each client and round goes to a daemon started for
//! it, so its problem must be compiled (a level-1 miss) every time.

use crate::util::{self, median, ms, per_call_us, quantile, Outcome, Rng, Tracer};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};
use xcv_conditions::Condition;
use xcv_core::{Campaign, ProblemKey, TableMark};
use xcv_functionals::Registry;
use xcv_serve::{
    Client, Done, Event, Policy, Request, ResultKey, ResultStore, Server, ServerConfig,
    ServerStats, StoredResult, VerifyRequest,
};

/// Functionals warmed in set-up; every hit asks for a subset of their
/// applicable conditions.
const WARM: &[&str] = &["VWN RPA", "PBE", "LYP", "BLYP", "AM05"];
/// Misses on warm functionals: pairs whose flat-policy solve takes one to
/// four milliseconds (short solves keep the round time from riding on how
/// often a long solve is preempted). The coalesced request of each round is
/// drawn from here too.
const MISS: &[(&str, Condition)] = &[
    ("PBE", Condition::ConjTcUpperBound),
    ("LYP", Condition::EcScaling),
    ("LYP", Condition::ConjTcUpperBound),
    ("BLYP", Condition::LiebOxford),
    ("BLYP", Condition::ConjTcUpperBound),
    ("AM05", Condition::LiebOxfordExt),
    ("AM05", Condition::TcUpperBound),
];
/// Cold requests: each is the first request of a daemon started for it, so
/// its problem is encoded and compiled (a level-1 miss) before the solve.
/// Their solves are cheap, so these requests mostly cost the daemon start
/// and the encode.
const COLD: &[(&str, Condition)] = &[
    ("PW92", Condition::EcNonPositivity),
    ("PW92", Condition::EcScaling),
    ("PW92", Condition::UcMonotonicity),
    ("PW92", Condition::TcUpperBound),
    ("PW92", Condition::ConjTcUpperBound),
    ("LSDA-X(ζ)", Condition::LiebOxford),
    ("LSDA-X(ζ)", Condition::LiebOxfordExt),
    ("PBE-X(ζ)", Condition::LiebOxford),
    ("PBE-X(ζ)", Condition::LiebOxfordExt),
];
/// Per client and round: warm hits, then one miss and one cold request.
const HITS_PER_ROUND: usize = 12;
/// Warmed daemons per run, before and after the traffic; `setup_s` is the
/// median of their set-up times.
const SETUPS_BEFORE: usize = 8;
const SETUPS_AFTER: usize = 7;

/// The warm policy (variant 0) and its fresh variants: variant `k`
/// perturbs δ by `k`·1e-9 relative — a new configuration fingerprint, so a
/// new result key, at the same solve cost.
fn policy(variant: u64) -> Policy {
    Policy::Flat {
        delta: 1e-3 * (1.0 + variant as f64 * 1e-9),
        max_nodes: 100,
        split_threshold: 0.6,
        max_depth: 2,
    }
}

/// One request of the stream. Variant 0 is the warm policy (a hit);
/// every miss carries a fresh variant. A cold request goes to a daemon
/// started for it.
#[derive(Clone, Debug, PartialEq)]
pub struct Req {
    pub variant: u64,
    pub cold: bool,
    pub request: VerifyRequest,
}

/// One round of the stream: each client's requests, then the request both
/// send at once.
#[derive(Clone, Debug, PartialEq)]
pub struct Round {
    pub clients: [Vec<Req>; 2],
    pub together: Req,
}

/// The seeded request stream.
pub struct Stream {
    rng: Rng,
    next_variant: u64,
    warm: Vec<(String, Vec<Condition>)>,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        let mut rng = Rng::new(seed);
        // Fresh variants start at a seeded offset, so two seeds never share
        // a miss key.
        let next_variant = 1 + (rng.next_u64() % 1_000_000) * 10_000;
        let registry = Registry::extended();
        let warm = WARM
            .iter()
            .map(|&name| {
                let f = registry.get(name).expect("warm functional is registered");
                let conds = Condition::all()
                    .into_iter()
                    .filter(|c| c.applies_to(f.as_ref()))
                    .collect();
                (name.to_string(), conds)
            })
            .collect();
        Stream {
            rng,
            next_variant,
            warm,
        }
    }

    /// The set-up requests: every warm functional with all its applicable
    /// conditions, in a seeded order.
    pub fn warm_requests(&mut self) -> Vec<VerifyRequest> {
        let mut reqs: Vec<VerifyRequest> = self
            .warm
            .iter()
            .map(|(name, conds)| {
                let mut conditions = conds.clone();
                self.rng.shuffle(&mut conditions);
                VerifyRequest {
                    functionals: vec![name.clone()],
                    conditions,
                    policy: policy(0),
                }
            })
            .collect();
        self.rng.shuffle(&mut reqs);
        reqs
    }

    fn fresh(&mut self, pool: &[(&str, Condition)], cold: bool) -> Req {
        let (name, condition) = pool[self.rng.below(pool.len())];
        let variant = self.next_variant;
        self.next_variant += 1;
        Req {
            variant,
            cold,
            request: VerifyRequest {
                functionals: vec![name.to_string()],
                conditions: vec![condition],
                policy: policy(variant),
            },
        }
    }

    fn hit(&mut self) -> Req {
        let (name, conds) = &self.warm[self.rng.below(self.warm.len())];
        let mut conditions = conds.clone();
        self.rng.shuffle(&mut conditions);
        conditions.truncate(1 + self.rng.below(3));
        Req {
            variant: 0,
            cold: false,
            request: VerifyRequest {
                functionals: vec![name.clone()],
                conditions,
                policy: policy(0),
            },
        }
    }

    pub fn round(&mut self) -> Round {
        let mut client = || {
            let mut reqs: Vec<Req> = (0..HITS_PER_ROUND).map(|_| self.hit()).collect();
            reqs.push(self.fresh(MISS, false));
            reqs.push(self.fresh(COLD, true));
            self.rng.shuffle(&mut reqs);
            reqs
        };
        let clients = [client(), client()];
        let together = self.fresh(MISS, false);
        Round { clients, together }
    }
}

/// What one request came back with.
struct Reply {
    req: Req,
    latency_ms: f64,
    done: Result<Done, String>,
    marks: Vec<(String, Condition, TableMark)>,
    /// The request line and every event received (traced phase only).
    lines: Option<(String, Vec<Event>)>,
}

/// Send one request: on the client's connection, or for a cold request on
/// a connection to a daemon started for it (its latency runs from the
/// start to `done`; the daemon's shutdown is not part of it).
fn send(client: &mut Client, req: &Req, keep_lines: bool) -> Reply {
    let mut marks = Vec::new();
    let mut events = Vec::new();
    let t0 = Instant::now();
    let mut cold = req.cold.then(|| {
        let server = Server::spawn(ServerConfig::default()).expect("bind a localhost port");
        let client = Client::connect(server.addr()).expect("connect to the cold daemon");
        (server, client)
    });
    let client = match &mut cold {
        Some((_, c)) => c,
        None => client,
    };
    let done = client.verify(&req.request, |e| {
        if let Event::Pair {
            functional,
            condition,
            mark,
            skipped: None,
            ..
        } = e
        {
            marks.push((functional.clone(), *condition, *mark));
        }
        if keep_lines {
            events.push(e.clone());
        }
    });
    let latency_ms = ms(t0.elapsed());
    if let Some((mut server, _)) = cold {
        server.shutdown();
    }
    let lines = keep_lines.then(|| (Request::Verify(req.request.clone()).to_json(), events));
    Reply {
        req: req.clone(),
        latency_ms,
        done,
        marks,
        lines,
    }
}

/// A daemon for one phase of the run, and its store directory.
struct Daemon {
    server: Server,
    dir: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Set-up: a fresh daemon on a fresh store directory, warmed by one client.
fn start(stream: &mut Stream, tag: &str, out: &mut Outcome) -> Daemon {
    let dir = crate::work_dir().join(format!("serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::spawn(ServerConfig {
        store_dir: Some(dir.clone()),
        admit_ms: 0, // every solve is finalized to disk
        ..ServerConfig::default()
    })
    .expect("bind a localhost port");
    let mut client = Client::connect(server.addr()).expect("connect to the daemon");
    for req in stream.warm_requests() {
        if let Err(e) = client.verify(&req, |_| {}) {
            out.problem(format!("warm-up {:?}: {e}", req.functionals));
        }
    }
    Daemon { server, dir }
}

/// The closed-loop traffic of one phase: rounds until `seconds` elapse.
struct Traffic {
    replies: Vec<Reply>,
    round_ms: Vec<f64>,
    seconds: f64,
}

fn traffic(daemon: &Daemon, stream: &mut Stream, seconds: f64, tracer: Option<&Tracer>) -> Traffic {
    // Generous upper bound on the rounds that fit (a round takes well over
    // 10 ms): the stream is drawn up front, so it is the same whatever the
    // timing.
    let rounds: Vec<Round> = (0..(seconds * 100.0) as usize + 3)
        .map(|_| stream.round())
        .collect();
    let barrier = Barrier::new(2);
    let stop = AtomicBool::new(false);
    let round_ms = Mutex::new(Vec::new());
    let addr = daemon.server.addr();
    let keep_lines = tracer.is_some();
    let t_all = Instant::now();
    let replies: Vec<Reply> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                let (rounds, barrier, stop, round_ms) = (&rounds, &barrier, &stop, &round_ms);
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect to the daemon");
                    let _ = client.set_read_timeout(Some(Duration::from_secs(60)));
                    let mut replies = Vec::new();
                    for (r, round) in rounds.iter().enumerate() {
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let t_round = Instant::now();
                        let round_span = tracer.map(|t| t.open("serve.round", None, r as u64));
                        let mut one = |req: &Req, seq: u64| {
                            let t0 = Instant::now();
                            let reply = send(&mut client, req, keep_lines);
                            if let Some(t) = tracer {
                                let run = (r as u64) << 8 | seq;
                                t.record("serve.request", t0, Instant::now(), round_span, run);
                            }
                            replies.push(reply);
                        };
                        for (i, req) in round.clients[c].iter().enumerate() {
                            one(req, (c * 64 + i) as u64);
                        }
                        barrier.wait();
                        one(&round.together, 255);
                        if let (Some(t), Some(id)) = (tracer, round_span) {
                            t.close(id);
                        }
                        barrier.wait();
                        if c == 0 {
                            let mut walls = round_ms.lock().expect("round log poisoned");
                            walls.push(ms(t_round.elapsed()));
                            let next = t_all.elapsed().as_secs_f64() + median(&walls) / 1e3;
                            if next > seconds || r + 1 == rounds.len() {
                                stop.store(true, Ordering::SeqCst);
                            }
                        }
                    }
                    replies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Traffic {
        replies,
        round_ms: round_ms.into_inner().expect("round log poisoned"),
        seconds: t_all.elapsed().as_secs_f64(),
    }
}

/// Every reply against its request and an in-process `Campaign` under the
/// same policy: each requested condition must come back exactly once, for
/// the requested functional, with the reference mark. Errors (`busy`
/// included), timeouts and missing or extra pairs are failures.
///
/// A pair the daemon solved may be named after a content-identical
/// functional (LYP and BLYP share their correlation-only problems, and a
/// solve reports whichever handle encoded the problem first); such a name
/// is accepted when both names give the same problem key.
fn check(replies: &[Reply], out: &mut Outcome) {
    let registry = Registry::spin_general();
    let mut groups: HashMap<(u64, String), Vec<Condition>> = HashMap::new();
    for r in replies {
        for name in &r.req.request.functionals {
            let conds = groups.entry((r.req.variant, name.clone())).or_default();
            for c in &r.req.request.conditions {
                if !conds.contains(c) {
                    conds.push(*c);
                }
            }
        }
    }
    let groups: Vec<((u64, String), Vec<Condition>)> = groups.into_iter().collect();
    let reference: HashMap<(u64, String, Condition), TableMark> = std::thread::scope(|s| {
        let halves: Vec<_> = groups
            .chunks(groups.len().div_ceil(2).max(1))
            .map(|chunk| {
                let registry = &registry;
                s.spawn(move || {
                    let mut marks = Vec::new();
                    for ((variant, name), conds) in chunk {
                        let f = registry
                            .get(name)
                            .expect("requested functional is registered");
                        let p = policy(*variant);
                        let report = Campaign::builder()
                            .functional(f)
                            .conditions(conds.iter().copied())
                            .config_policy(move |f, _| p.verifier_config(f))
                            .build()
                            .expect("one functional")
                            .run();
                        for (c, o) in conds.iter().zip(&report.pairs) {
                            marks.push(((*variant, name.clone(), *c), o.mark));
                        }
                    }
                    marks
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let same_problem = |a: &str, b: &str, c: Condition| {
        let key = |name: &str| registry.get(name).and_then(|f| ProblemKey::of(&f, c).ok());
        key(a).is_some() && key(a) == key(b)
    };
    let mut aliased = 0;
    for r in replies {
        let request = &r.req.request;
        let mut ok = match &r.done {
            Ok(d) => d.timeouts == 0,
            Err(e) => {
                eprintln!("perfbench: request failed: {e}");
                false
            }
        };
        let wanted: Vec<(&String, Condition)> = request
            .functionals
            .iter()
            .flat_map(|f| request.conditions.iter().map(move |&c| (f, c)))
            .collect();
        ok &= r.marks.len() == wanted.len();
        for &(name, c) in &wanted {
            let answers: Vec<&(String, Condition, TableMark)> = r
                .marks
                .iter()
                .filter(|(f, mc, _)| *mc == c && (f == name || same_problem(f, name, c)))
                .collect();
            ok &= answers.len() == 1;
            if let [(f, _, mark)] = answers.as_slice() {
                aliased += usize::from(f != name);
                ok &= reference.get(&(r.req.variant, name.clone(), c)) == Some(mark);
            }
        }
        if !ok {
            eprintln!("perfbench: wrong reply to {request:?}: {:?}", r.marks);
        }
        out.tally(ok);
    }
    if aliased > 0 {
        eprintln!("serve_mixed: {aliased} pairs named after a content-identical functional");
    }
}

pub fn run(seed: u64, seconds: f64, trace: Option<&Arc<Tracer>>) -> Outcome {
    let mut out = Outcome::new();
    let mut stream = Stream::new(seed);
    // Set-up: warmed daemons before the traffic and again after it, so the
    // median samples the host over the whole run; the last one before the
    // traffic serves it.
    let (before, after) = if trace.is_some() {
        (1, 0)
    } else {
        (SETUPS_BEFORE, SETUPS_AFTER)
    };
    let mut setups = Vec::new();
    let mut set_up = |stream: &mut Stream, i: usize, out: &mut Outcome| {
        let t0 = Instant::now();
        let daemon = start(stream, &format!("setup{i}"), out);
        setups.push(t0.elapsed().as_secs_f64());
        daemon
    };
    let mut daemon = None;
    for i in 0..before {
        drop(daemon.take());
        daemon = Some(set_up(&mut stream, i, &mut out));
    }
    let daemon = daemon.expect("set-up ran");

    let phase = if trace.is_some() {
        seconds / 2.0
    } else {
        seconds
    };
    let t = traffic(&daemon, &mut stream, phase, None);
    drop(daemon);
    let lat: Vec<f64> = t.replies.iter().map(|r| r.latency_ms).collect();
    eprintln!(
        "serve_mixed: {} rounds, {} requests in {:.2} s, median round {:.2} ms",
        t.round_ms.len(),
        lat.len(),
        t.seconds,
        median(&t.round_ms)
    );
    out.metrics.put("wall_s", median(&t.round_ms) / 1e3, "s");
    out.metrics.put("p50_ms", median(&lat), "ms");
    out.metrics.put("p90_ms", quantile(&lat, 0.9), "ms");
    out.metrics
        .put("req_per_s", lat.len() as f64 / t.seconds, "1/s");
    // Peak memory of the workload itself, before the reference solves.
    out.metrics.put("peak_rss_mb", util::peak_rss_mb(), "MB");
    for i in before..before + after {
        drop(set_up(&mut stream, i, &mut out));
    }
    out.metrics.put("setup_s", median(&setups), "s");
    check(&t.replies, &mut out);

    if let Some(tracer) = trace {
        // The traced phase replays the same stream from its start on a
        // fresh daemon, so both phases see the same mix of misses.
        let mut stream = Stream::new(seed);
        let daemon = start(&mut stream, "traced", &mut out);
        let before = daemon.server.stats();
        let traced = traffic(&daemon, &mut stream, phase, Some(tracer));
        let after = daemon.server.stats();
        drop(daemon);
        check(&traced.replies, &mut out);
        let plain = median(&t.round_ms);
        out.metrics.put(
            "trace.overhead_frac",
            (median(&traced.round_ms) - plain) / plain,
            "ratio",
        );
        serve_layers(&traced.replies, (before, after), &mut out);
        store_layers(&mut out);
        proto_layers(&traced.replies, &mut out);
    }
    out
}

/// Client-side latency by outcome, the `done` counters, and daemon stats.
fn serve_layers(replies: &[Reply], (before, after): (ServerStats, ServerStats), out: &mut Outcome) {
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    let mut sum = Done::default();
    let mut busy = 0;
    for r in replies {
        match &r.done {
            Ok(d) => {
                sum.cached += d.cached;
                sum.solved += d.solved;
                sum.coalesced += d.coalesced;
                sum.l1_hits += d.l1_hits;
                sum.l1_misses += d.l1_misses;
                if d.solved > 0 {
                    misses.push(r.latency_ms);
                } else if d.coalesced == 0 && r.req.variant == 0 {
                    hits.push(r.latency_ms);
                }
            }
            Err(e) if e.starts_with("busy") => busy += 1,
            Err(_) => {}
        }
    }
    let m = &mut out.metrics;
    m.put("serve.hit_p50_ms", median(&hits), "ms");
    m.put("serve.hit_p99_ms", quantile(&hits, 0.99), "ms");
    m.put("serve.miss_p50_ms", median(&misses), "ms");
    m.put("serve.cached", sum.cached as f64, "count");
    m.put("serve.solved", sum.solved as f64, "count");
    m.put("serve.coalesced", sum.coalesced as f64, "count");
    let ratio = |a: u64, b: u64| a as f64 / (a + b).max(1) as f64;
    m.put("serve.l2_hit_ratio", ratio(sum.cached, sum.solved), "ratio");
    m.put(
        "serve.l1_hit_ratio",
        ratio(sum.l1_hits, sum.l1_misses),
        "ratio",
    );
    m.put(
        "serve.compile_delta",
        (after.compile_count - before.compile_count) as f64,
        "count",
    );
    m.put("serve.busy", f64::from(busy), "count");
    m.put("store.persisted", after.persisted as f64, "count");
}

/// A standalone `ResultStore` on local disk: the finalize path (memoize,
/// write, fsync, rename) and the claim of a memoized key.
fn store_layers(out: &mut Outcome) {
    let dir = crate::work_dir().join(format!("store-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir, 0);
    let f = Registry::extended().get("PBE").expect("PBE is registered");
    let problem = ProblemKey::of(&f, Condition::EcNonPositivity).expect("PBE ec1 applies");
    let result = StoredResult {
        functional: f.name(),
        condition: Condition::EcNonPositivity,
        mark: TableMark::Counterexample,
        witnesses: vec![vec![1.25, 2.5]; 8],
        wall_ms: 3,
        regions: [9, 4, 0, 3],
    };
    let keys: Vec<ResultKey> = (0..64)
        .map(|i| ResultKey {
            problem,
            config_fp: 0x5eed_0000 + i,
        })
        .collect();
    let mut finalize = Vec::new();
    for &key in &keys {
        store.try_claim(key);
        let t0 = Instant::now();
        store.finalize(key, result.clone());
        finalize.push(ms(t0.elapsed()));
    }
    let mut i = 0;
    let claim = per_call_us(15, 64, || {
        i += 1;
        std::hint::black_box(store.try_claim(keys[i % keys.len()]));
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    out.metrics
        .put("store.finalize_ms", median(&finalize), "ms");
    out.metrics.put("store.claim_us", claim, "us");
}

/// The wire codec on lines the traced phase actually sent and received.
fn proto_layers(replies: &[Reply], out: &mut Outcome) {
    let sample = |lines: Vec<String>, parse: &dyn Fn(&str) -> bool| {
        let per_line: Vec<f64> = lines
            .iter()
            .take(400)
            .map(|l| per_call_us(3, 16, || assert!(parse(std::hint::black_box(l)))))
            .collect();
        median(&per_line)
    };
    let traced = || replies.iter().step_by(7).filter_map(|r| r.lines.as_ref());
    let requests = traced().map(|(req, _)| req.clone()).collect();
    let events = traced()
        .flat_map(|(_, events)| events.iter().map(Event::to_json))
        .collect();
    let m = &mut out.metrics;
    m.put(
        "proto.request_parse_us",
        sample(requests, &|l| Request::parse(l).is_ok()),
        "us",
    );
    m.put(
        "proto.event_parse_us",
        sample(events, &|l| Event::parse(l).is_ok()),
        "us",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_rounds(seed: u64) -> (Vec<VerifyRequest>, Vec<Round>) {
        let mut s = Stream::new(seed);
        (s.warm_requests(), (0..20).map(|_| s.round()).collect())
    }

    #[test]
    fn seed_fixes_the_request_stream() {
        assert_eq!(first_rounds(11), first_rounds(11));
        assert_ne!(first_rounds(11).1, first_rounds(12).1);
    }

    #[test]
    fn stream_mix_is_mostly_hits_with_fresh_misses() {
        let (_, rounds) = first_rounds(3);
        let reqs: Vec<&Req> = rounds
            .iter()
            .flat_map(|r| r.clients.iter().flatten().chain([&r.together]))
            .collect();
        let hits = reqs.iter().filter(|r| r.variant == 0).count();
        assert_eq!(hits, 20 * 2 * HITS_PER_ROUND);
        assert_eq!(reqs.iter().filter(|r| r.cold).count(), 20 * 2);
        let mut variants: Vec<u64> = reqs
            .iter()
            .filter(|r| r.variant != 0)
            .map(|r| r.variant)
            .collect();
        let n = variants.len();
        variants.sort();
        variants.dedup();
        assert_eq!(variants.len(), n, "every miss carries a fresh policy");
        assert!(reqs
            .iter()
            .filter(|r| r.variant == 0)
            .all(|r| r.request.policy == policy(0) && !r.request.conditions.is_empty()));
    }
}
