//! The daemon: a localhost TCP accept loop, thread-per-connection request
//! handling, and the verify path that ties the three cache levels together.
//!
//! A verify request walks its matrix in functional-major order and sorts
//! every applicable pair into one of three buckets with a single
//! non-blocking [`ResultStore::try_claim`]:
//!
//! * **Hit** — replay the memoized answer immediately (started event,
//!   recorded witnesses, `pair` event with `cached: true`).
//! * **Leader** — this request owns the solve. All leads for one
//!   functional run as one [`Campaign`] (compiling through the shared
//!   level-1 [`ProblemCache`], streaming its events down the wire as they
//!   happen), and every pair that ran to completion is finalized into the
//!   store.
//! * **Busy** — another request is already solving the identical key.
//!   Deferred, and waited on only *after* this request's own leads are
//!   finalized — the invariant that makes coalescing deadlock-free. A
//!   waiter whose leader abandoned the key claims it and solves it through
//!   the same path as its own leads.
//!
//! ## Fault tolerance
//!
//! The daemon assumes requests fail: every leadership taken in pass 1 is
//! held through a [`LeaderGuard`], every campaign and each whole request
//! runs under `catch_unwind`, and a panic anywhere releases the unwinding
//! thread's claims so coalesced waiters re-claim and take over the solve
//! instead of deadlocking. Accepted sockets carry read/write timeouts, an
//! optional per-request wall deadline degrades gracefully, waits on other
//! requests' solves are bounded, request lines are length-capped, and a
//! connection cap rejects overload with an explicit `busy` error instead of
//! queueing unboundedly.
//!
//! The request deadline is one [`CancelToken::until`] handed to every
//! campaign the request runs. Pairs it cuts, mid-solve or before they
//! start, come back [`SkipReason::Cancelled`]: they stream as
//! `skipped: "timeout"`, count in `done.timeouts`, and their claims are
//! abandoned, never finalized — a cut pair never reaches the store.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use xcv_conditions::Condition;
use xcv_core::cache::{ProblemCache, ProblemKey};
use xcv_core::{
    Campaign, CampaignEvent, CancelToken, FaultPlan, FaultSite, RegionMap, RegionStatus,
    SkipReason, TableMark,
};
use xcv_functionals::{FunctionalHandle, Registry};

use crate::proto::{Done, Event, Policy, Request, ServerStats, VerifyRequest};
use crate::store::{Claim, LeaderGuard, ResultKey, ResultStore, StoredResult, WaitOutcome};

/// Longest accepted request line (bytes, newline included). A line past
/// the cap gets a structured error and the connection is closed — with
/// the line unterminated there is no resynchronization point.
const MAX_REQUEST_LINE: u64 = 1 << 20;

/// Resolve the CLI spellings of functional names to registry names. The
/// daemon and `xcverify --dfa` both resolve through this table, so a
/// client can send whatever the CLI accepts. [`Registry::get`] is
/// case-insensitive on the result.
pub fn canonical_name(name: &str) -> String {
    match name.to_ascii_uppercase().as_str() {
        "VWN" | "VWN_RPA" | "VWNRPA" => "VWN RPA".to_string(),
        "RSCAN" | "RSCAN_REG" => "rSCAN(reg)".to_string(),
        "PBE_SPIN" | "PBEZ" | "PBE(Z)" => "PBE(ζ)".to_string(),
        "PW92_SPIN" | "PW92Z" | "PW92(Z)" => "PW92(ζ)".to_string(),
        "LSDA_X" | "LSDAX" | "LSDA-X" | "LSDA-X(Z)" => "LSDA-X(ζ)".to_string(),
        "B88_SPIN" | "B88Z" | "B88(Z)" => "B88(ζ)".to_string(),
        "PBEX_SPIN" | "PBEX" | "PBE-X" | "PBE-X(Z)" => "PBE-X(ζ)".to_string(),
        _ => name.to_string(),
    }
}

/// Daemon configuration.
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// [`Server::addr`]).
    pub addr: String,
    /// Level-2 store directory (`None`: in-memory only, nothing survives
    /// the process).
    pub store_dir: Option<PathBuf>,
    /// Persistence admission threshold: results whose solve took at least
    /// this many milliseconds are written to `store_dir`; cheaper ones are
    /// recomputed on restart.
    pub admit_ms: u64,
    /// Socket read timeout: a connection idle (or wedged mid-line) this
    /// long is reaped. `None` disables.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout: an event write blocked this long on a stalled
    /// client fails (the request keeps solving; results still land in the
    /// store). `None` disables.
    pub write_timeout: Option<Duration>,
    /// Per-request wall deadline: pairs not finished when it expires are
    /// cancelled and reported with `skipped: "timeout"`; nothing they
    /// computed is stored. `None` disables (the policy's own budgets still
    /// apply).
    pub request_deadline_ms: Option<u64>,
    /// Concurrent-connection cap: connections past it are rejected with an
    /// explicit `busy` error line instead of queueing.
    pub max_connections: usize,
    /// Upper bound on any single wait for *another* request's in-flight
    /// solve (pass 3). A wedged leader therefore wedges nobody else for
    /// longer than this.
    pub wait_timeout: Duration,
    /// Deterministic fault-injection plan (test harness hook; `None` in
    /// production).
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            store_dir: None,
            admit_ms: 5,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            request_deadline_ms: None,
            max_connections: 64,
            wait_timeout: Duration::from_secs(120),
            fault_plan: None,
        }
    }
}

struct State {
    registry: Registry,
    problems: Arc<ProblemCache>,
    results: ResultStore,
    request_deadline_ms: Option<u64>,
    wait_timeout: Duration,
    fault_plan: Option<Arc<FaultPlan>>,
    /// Panics isolated at the request / campaign `catch_unwind` boundaries.
    panics: AtomicU64,
    /// Live connection threads (the accept loop's backpressure gauge).
    active: AtomicUsize,
}

/// A running daemon. Dropping it shuts the accept loop down.
pub struct Server {
    addr: SocketAddr,
    state: Arc<State>,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving. The registry is [`Registry::spin_general`]
    /// — every builtin plus the spin-resolved citizens, a superset of what
    /// `xcverify` exposes.
    pub fn spawn(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let mut results = match &config.store_dir {
            Some(dir) => ResultStore::open(dir, config.admit_ms),
            None => ResultStore::in_memory(),
        };
        if let Some(plan) = &config.fault_plan {
            results.set_fault_plan(Arc::clone(plan));
        }
        let state = Arc::new(State {
            registry: Registry::spin_general(),
            problems: Arc::new(ProblemCache::new()),
            results,
            request_deadline_ms: config.request_deadline_ms,
            wait_timeout: config.wait_timeout,
            fault_plan: config.fault_plan,
            panics: AtomicU64::new(0),
            active: AtomicUsize::new(0),
        });
        let max_connections = config.max_connections.max(1);
        let (read_timeout, write_timeout) = (config.read_timeout, config.write_timeout);
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // Backpressure: past the cap, answer one explicit busy
                    // line and drop — never an unbounded thread pile-up,
                    // never a silent hang on the client side.
                    let admitted = state
                        .active
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                            (n < max_connections).then_some(n + 1)
                        })
                        .is_ok();
                    if !admitted {
                        let mut stream = stream;
                        let busy = Event::Error {
                            message: "busy: connection limit reached, retry later".to_string(),
                        };
                        let _ = writeln!(stream, "{}", busy.to_json());
                        continue;
                    }
                    let _ = stream.set_read_timeout(read_timeout);
                    let _ = stream.set_write_timeout(write_timeout);
                    // Control round trips (ping, stats, the error replies
                    // the fuzz suite hammers) are latency-bound: without
                    // this, Nagle + delayed ACK cost ~40ms per turn.
                    let _ = stream.set_nodelay(true);
                    let state = Arc::clone(&state);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        // Balance the admission count however the handler
                        // exits — return, panic, or reap.
                        struct Slot<'a>(&'a AtomicUsize);
                        impl Drop for Slot<'_> {
                            fn drop(&mut self) {
                                self.0.fetch_sub(1, Ordering::SeqCst);
                            }
                        }
                        let _slot = Slot(&state.active);
                        handle_conn(stream, &state, &stop);
                    });
                }
            })
        };
        Ok(Server {
            addr,
            state,
            stop,
            accept: Some(accept),
        })
    }

    /// The actual bound address (resolves an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Daemon-lifetime cache statistics.
    pub fn stats(&self) -> ServerStats {
        stats_of(&self.state)
    }

    /// Stop accepting connections and join the accept loop. In-flight
    /// connection threads finish their current request.
    pub fn shutdown(&mut self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            // Unblock the accept loop with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
        }
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }

    /// Block until the daemon is shut down (by a `shutdown` request or
    /// [`Server::shutdown`]).
    pub fn wait(&mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn stats_of(state: &State) -> ServerStats {
    let (l1_hits, l1_misses) = state.problems.stats();
    let (results, result_hits, solves, coalesced, persisted, warm_loaded, quarantined) =
        state.results.counters();
    ServerStats {
        problems: state.problems.len() as u64,
        l1_hits,
        l1_misses,
        results,
        result_hits,
        solves,
        persisted,
        warm_loaded,
        coalesced,
        compile_count: xcv_solver::compile_count(),
        quarantined,
        panics: state.panics.load(Ordering::Relaxed),
    }
}

/// The shared event writer of one connection. Once a write fails the
/// stream is marked dead and later sends are skipped — a vanished or
/// stalled client must not block the solve (the result still lands in the
/// store for the next asker), and with a socket write timeout set, a stall
/// costs at most one timeout before the stream goes dead.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    dead: AtomicBool,
    fault_plan: Option<Arc<FaultPlan>>,
}

type Writer = Arc<ConnWriter>;

impl ConnWriter {
    fn send(&self, event: &Event) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        if let Some(plan) = &self.fault_plan {
            if plan.should_fire(FaultSite::ClientStall) {
                // Injected slow consumer: the event write stalls.
                std::thread::sleep(Duration::from_millis(25));
            }
        }
        let mut w = self.stream.lock().unwrap_or_else(PoisonError::into_inner);
        if writeln!(w, "{}", event.to_json()).is_err() {
            self.dead.store(true, Ordering::Relaxed);
        }
    }

    fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.stream
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .local_addr()
    }
}

fn send(writer: &Writer, event: &Event) {
    writer.send(event);
}

fn handle_conn(stream: TcpStream, state: &Arc<State>, stop: &Arc<AtomicBool>) {
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    let writer: Writer = Arc::new(ConnWriter {
        stream: Mutex::new(stream),
        dead: AtomicBool::new(false),
        fault_plan: state.fault_plan.clone(),
    });
    let mut reader = BufReader::new(reader);
    loop {
        // Length-capped line read: `take` bounds how much one request line
        // may buffer, so an unterminated flood cannot balloon memory.
        let mut line = String::new();
        match (&mut reader)
            .take(MAX_REQUEST_LINE + 1)
            .read_line(&mut line)
        {
            // EOF, a reaped idle/hung connection (read timeout), or any
            // other transport error: the connection is done.
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.len() as u64 > MAX_REQUEST_LINE {
            send(
                &writer,
                &Event::Error {
                    message: format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
                },
            );
            break; // unterminated line: no resynchronization point
        }
        if line.trim().is_empty() {
            // A bare newline is ignored; a partial line at EOF with no
            // content ends the connection on the next read.
            continue;
        }
        match Request::parse(&line) {
            Err(e) => send(&writer, &Event::Error { message: e }),
            Ok(Request::Ping) => send(&writer, &Event::Pong),
            Ok(Request::Stats) => send(&writer, &Event::Stats(stats_of(state))),
            Ok(Request::Shutdown) => {
                send(&writer, &Event::Ok);
                if !stop.swap(true, Ordering::SeqCst) {
                    if let Ok(addr) = writer.local_addr() {
                        let _ = TcpStream::connect(addr);
                    }
                }
                break;
            }
            Ok(Request::Verify(req)) => {
                // Panic isolation, outer boundary: whatever unwinds out of
                // the verify path (solver bug, injected fault) is caught
                // here. Unwinding drops every LeaderGuard the request held,
                // abandoning its claims so coalesced waiters take over; the
                // client gets a structured error; the daemon keeps serving.
                let unwound = catch_unwind(AssertUnwindSafe(|| {
                    handle_verify(state, &writer, &req);
                }));
                if unwound.is_err() {
                    state.panics.fetch_add(1, Ordering::Relaxed);
                    send(
                        &writer,
                        &Event::Error {
                            message: "internal panic while serving the request; \
                                      claims released, daemon still serving"
                                .to_string(),
                        },
                    );
                }
            }
        }
    }
}

/// Replay a memoized result as the same event sequence a fresh solve
/// streams, with `cached` flagged on the terminal pair event. The
/// functional is named as *this* request spelled it, so cached answers
/// are indistinguishable from fresh ones to a thin client.
fn replay(writer: &Writer, functional: &str, condition: Condition, r: &StoredResult, cached: bool) {
    send(
        writer,
        &Event::Started {
            functional: functional.to_string(),
            condition,
        },
    );
    for w in &r.witnesses {
        send(
            writer,
            &Event::Counterexample {
                functional: functional.to_string(),
                condition,
                witness: w.clone(),
            },
        );
    }
    send(
        writer,
        &Event::Pair {
            functional: functional.to_string(),
            condition,
            mark: r.mark,
            wall_ms: r.wall_ms,
            cached,
            skipped: None,
        },
    );
}

/// The wire tag of a skipped pair. The daemon cancels a campaign only at
/// the request deadline, so `Cancelled` is a timeout.
fn skip_tag(reason: SkipReason) -> &'static str {
    match reason {
        SkipReason::NotApplicable => "na",
        SkipReason::EncodeFailed => "encode_failed",
        SkipReason::Cancelled => "timeout",
        SkipReason::OtherShard => "other_shard",
    }
}

/// A campaign event as the wire event a client sees.
fn wire_event(ev: &CampaignEvent) -> Event {
    match ev {
        CampaignEvent::PairStarted {
            functional,
            condition,
        } => Event::Started {
            functional: functional.clone(),
            condition: *condition,
        },
        CampaignEvent::CounterexampleFound {
            functional,
            condition,
            witness,
        } => Event::Counterexample {
            functional: functional.clone(),
            condition: *condition,
            witness: witness.clone(),
        },
        CampaignEvent::PairFinished {
            functional,
            condition,
            mark,
            wall_ms,
        } => Event::Pair {
            functional: functional.clone(),
            condition: *condition,
            mark: *mark,
            wall_ms: u64::try_from(*wall_ms).unwrap_or(u64::MAX),
            cached: false,
            skipped: None,
        },
        CampaignEvent::PairSkipped {
            functional,
            condition,
            reason,
        } => Event::Pair {
            functional: functional.clone(),
            condition: *condition,
            mark: if *reason == SkipReason::NotApplicable {
                TableMark::NotApplicable
            } else {
                TableMark::Unknown
            },
            wall_ms: 0,
            cached: false,
            skipped: Some(skip_tag(*reason).to_string()),
        },
    }
}

fn region_census(map: &RegionMap) -> [u64; 4] {
    let mut census = [0u64; 4];
    for r in &map.regions {
        census[match r.status {
            RegionStatus::Verified => 0,
            RegionStatus::Counterexample(_) => 1,
            RegionStatus::Inconclusive => 2,
            RegionStatus::Timeout | RegionStatus::Cancelled => 3,
        }] += 1;
    }
    census
}

/// One lead pair: the handle, the cell, and its full result key.
struct Lead {
    functional: FunctionalHandle,
    condition: Condition,
    key: ResultKey,
}

/// Emit the `skipped: "timeout"` pair event for a deferred pair the
/// request's wall deadline expired on while it waited.
fn send_timeout(writer: &Writer, functional: &str, condition: Condition, done: &mut Done) {
    done.timeouts += 1;
    let skipped = CampaignEvent::PairSkipped {
        functional: functional.to_string(),
        condition,
        reason: SkipReason::Cancelled,
    };
    send(writer, &wire_event(&skipped));
}

fn stored_result_of(outcome: &xcv_core::PairOutcome) -> StoredResult {
    let map = outcome.map.as_ref();
    StoredResult {
        functional: outcome.functional_name(),
        condition: outcome.condition,
        mark: outcome.mark,
        witnesses: map
            .map(|m| {
                m.counterexamples()
                    .into_iter()
                    .map(<[f64]>::to_vec)
                    .collect()
            })
            .unwrap_or_default(),
        wall_ms: u64::try_from(outcome.wall_ms).unwrap_or(u64::MAX),
        regions: map.map(region_census).unwrap_or_default(),
    }
}

/// Solve one functional's leads as one campaign on the request's stop
/// signal, streaming its events to the client, and finalize every pair that
/// ran to completion into the store. A pair the deadline cut (or never
/// started) streamed as `skipped: "timeout"`; dropping its guard abandons
/// the claim. `Err` means the campaign panicked: the client has its error
/// event, every guard in `guards` is released, and the caller returns.
fn solve_leads(
    state: &State,
    writer: &Writer,
    leads: &[Lead],
    guards: &mut HashMap<ResultKey, LeaderGuard<'_>>,
    policy: Policy,
    cancel: &CancelToken,
    done: &mut Done,
) -> Result<(), ()> {
    let name = leads[0].functional.name();
    let mut builder = Campaign::builder()
        .functional(leads[0].functional.clone())
        .conditions(leads.iter().map(|l| l.condition))
        .config_policy(move |f, _| policy.verifier_config(f))
        .problem_cache(Arc::clone(&state.problems))
        .cancel_token(cancel.clone())
        .on_event({
            let writer = Arc::clone(writer);
            move |ev| send(&writer, &wire_event(ev))
        });
    if let Some(plan) = &state.fault_plan {
        builder = builder.fault_plan(Arc::clone(plan));
    }
    let campaign = builder
        .build()
        .expect("a campaign over one functional always builds");
    // Panic isolation, inner boundary: a panicking solve (one worker's
    // panic propagates out of `campaign.run()`) must release the claims and
    // fail the request — the coalesced waiters re-claim and take the solve
    // over.
    let Ok(report) = catch_unwind(AssertUnwindSafe(|| campaign.run())) else {
        state.panics.fetch_add(1, Ordering::Relaxed);
        guards.clear(); // abandon every unfinalized claim
        send(
            writer,
            &Event::Error {
                message: format!("campaign for {name} panicked; claims released"),
            },
        );
        return Err(());
    };
    for outcome in &report.pairs {
        let Some(lead) = leads.iter().find(|l| l.condition == outcome.condition) else {
            continue;
        };
        let Some(guard) = guards.remove(&lead.key) else {
            continue;
        };
        match outcome.skipped {
            // Dropping the guard abandons the claim; the pair event already
            // streamed with its skip tag.
            Some(reason) => {
                drop(guard);
                if reason == SkipReason::Cancelled {
                    done.timeouts += 1;
                }
            }
            None => {
                done.solved += 1;
                guard.finalize(stored_result_of(outcome));
            }
        }
    }
    Ok(())
}

fn handle_verify(state: &Arc<State>, writer: &Writer, req: &VerifyRequest) {
    let start = Instant::now();
    // One stop signal for everything this request runs: a deadline past the
    // end of time is no deadline.
    let deadline = state
        .request_deadline_ms
        .and_then(|ms| start.checked_add(Duration::from_millis(ms)));
    let cancel = deadline.map_or_else(CancelToken::new, CancelToken::until);
    // Resolve every functional up front — an unknown name fails the whole
    // request before any work happens.
    let mut handles = Vec::new();
    for name in &req.functionals {
        match state.registry.get(&canonical_name(name)) {
            Some(h) => handles.push(h),
            None => {
                send(
                    writer,
                    &Event::Error {
                        message: format!("unknown functional {name:?}"),
                    },
                );
                return;
            }
        }
    }
    let conditions: Vec<Condition> = if req.conditions.is_empty() {
        Condition::all().to_vec()
    } else {
        req.conditions.clone()
    };
    let policy = req.policy;
    let (l1_hits_0, l1_misses_0) = state.problems.stats();
    let mut done = Done {
        pairs: (handles.len() * conditions.len()) as u64,
        ..Done::default()
    };

    // Pass 1: claim every applicable pair, matrix order.
    let mut leads: Vec<Lead> = Vec::new();
    let mut deferred: Vec<Lead> = Vec::new();
    for f in &handles {
        for &condition in &conditions {
            if !condition.applies_to(f.as_ref()) {
                send(
                    writer,
                    &Event::Pair {
                        functional: f.name(),
                        condition,
                        mark: TableMark::NotApplicable,
                        wall_ms: 0,
                        cached: false,
                        skipped: Some("na".to_string()),
                    },
                );
                continue;
            }
            let key = match ProblemKey::of(f, condition) {
                Ok(k) => k,
                Err(_) => {
                    send(
                        writer,
                        &Event::Pair {
                            functional: f.name(),
                            condition,
                            mark: TableMark::Unknown,
                            wall_ms: 0,
                            cached: false,
                            skipped: Some("encode_failed".to_string()),
                        },
                    );
                    continue;
                }
            };
            let key = ResultKey {
                problem: key,
                config_fp: policy.verifier_config(f.as_ref()).fingerprint(),
            };
            let lead = Lead {
                functional: f.clone(),
                condition,
                key,
            };
            match state.results.try_claim(key) {
                Claim::Hit(r) => {
                    replay(writer, &f.name(), condition, &r, true);
                    done.cached += 1;
                }
                Claim::Leader => leads.push(lead),
                Claim::Busy => deferred.push(lead),
            }
        }
    }

    // Every leadership goes under an RAII guard *now*: any exit from this
    // function — early return, panic unwinding to the connection boundary —
    // abandons whatever was not finalized, waking coalesced waiters to
    // re-claim. No path leaks a claim.
    let mut guards: HashMap<ResultKey, LeaderGuard<'_>> = leads
        .iter()
        .map(|l| (l.key, state.results.guard(l.key)))
        .collect();

    // Pass 2: solve the leads, one campaign per functional (a campaign is
    // a full sub-matrix; different functionals may lead different
    // condition subsets). Events stream to the client as they happen. A
    // campaign started after the deadline skips its own pairs, so the
    // remaining groups drain cheaply.
    let mut by_functional: Vec<Vec<Lead>> = Vec::new();
    for lead in leads {
        match by_functional
            .iter_mut()
            .find(|group| group[0].functional.name() == lead.functional.name())
        {
            Some(group) => group.push(lead),
            None => by_functional.push(vec![lead]),
        }
    }
    for group in &by_functional {
        let solved = solve_leads(
            state,
            writer,
            group,
            &mut guards,
            policy,
            &cancel,
            &mut done,
        );
        if solved.is_err() {
            return;
        }
    }
    drop(guards); // every lead is finalized or abandoned by here

    // Pass 3: only now — with every owned leadership finalized — block on
    // the pairs other requests were solving, each wait bounded. If a
    // leader abandoned one, claim it ourselves and solve it like a lead.
    for lead in deferred {
        loop {
            if cancel.is_cancelled() {
                send_timeout(writer, &lead.functional.name(), lead.condition, &mut done);
                break;
            }
            let wait = deadline.map_or(state.wait_timeout, |d| {
                state
                    .wait_timeout
                    .min(d.saturating_duration_since(Instant::now()))
            });
            match state.results.wait_for_timeout(lead.key, wait) {
                WaitOutcome::TimedOut => {
                    send_timeout(writer, &lead.functional.name(), lead.condition, &mut done);
                    break;
                }
                WaitOutcome::Ready(Some(r)) => {
                    replay(writer, &lead.functional.name(), lead.condition, &r, true);
                    done.cached += 1;
                    done.coalesced += 1;
                    break;
                }
                WaitOutcome::Ready(None) => {}
            }
            match state.results.try_claim(lead.key) {
                Claim::Hit(r) => {
                    replay(writer, &lead.functional.name(), lead.condition, &r, true);
                    done.cached += 1;
                    break;
                }
                Claim::Busy => continue,
                Claim::Leader => {
                    let mut guard = HashMap::from([(lead.key, state.results.guard(lead.key))]);
                    let solo = std::slice::from_ref(&lead);
                    if solve_leads(state, writer, solo, &mut guard, policy, &cancel, &mut done)
                        .is_err()
                    {
                        return;
                    }
                    break;
                }
            }
        }
    }

    let (l1_hits_1, l1_misses_1) = state.problems.stats();
    done.l1_hits = l1_hits_1 - l1_hits_0;
    done.l1_misses = l1_misses_1 - l1_misses_0;
    done.compile_count = xcv_solver::compile_count();
    done.wall_ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
    send(writer, &Event::Done(done));
}
