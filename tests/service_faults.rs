//! Deterministic fault-injection suite for the verification service.
//!
//! Every scenario here drives the real daemon through the real TCP wire
//! protocol with faults injected by [`xcv_core::FaultPlan`] — a
//! deterministic, seeded hook with no wall-clock randomness, so each
//! failure fires at exactly the same request arrival on every run. What
//! the suite pins is the service's fault contract:
//!
//! * injected leader panics are isolated — coalesced waiters take the
//!   solve over and finish with marks bit-identical to a fault-free run;
//! * store files corrupted at persist time are quarantined at the next
//!   warm start (never crash, never serve garbage) and the pair recomputes
//!   to the same mark;
//! * truncated campaign checkpoints are quarantined and recomputed, with
//!   identical marks;
//! * a hung client stalls only its own connection — it is reaped by the
//!   read timeout while a healthy concurrent client completes;
//! * connections past the cap get one explicit `busy` error line, and a
//!   freed slot admits the next client;
//! * an expired per-request deadline degrades gracefully: solved pairs
//!   answer, the rest stream as timeouts, the accounting adds up, and the
//!   daemon keeps serving;
//! * a pair a request deadline cuts mid-solve is never stored: a restarted
//!   daemon without the deadline answers with the in-process mark.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use xcv_conditions::Condition;
use xcv_core::{Campaign, FaultPlan, FaultRule, FaultSite, TableMark};
use xcv_functionals::Registry;
use xcv_serve::{Client, Done, Event, Policy, Server, ServerConfig, VerifyRequest};

/// The same small deterministic flat policy the service tests use:
/// node-budgeted, sequential, cheap enough to solve in milliseconds.
fn flat(max_nodes: u64) -> Policy {
    Policy::Flat {
        delta: 1e-3,
        max_nodes,
        split_threshold: 0.625,
        max_depth: 1,
    }
}

type Marks = BTreeMap<(String, String), TableMark>;

/// Run one verify, collecting `(functional, condition-id) -> mark` for
/// every non-skipped pair. `Err` is the server's structured error message.
fn try_verify_marks(client: &mut Client, req: &VerifyRequest) -> Result<(Marks, Done), String> {
    let mut marks = Marks::new();
    let done = client.verify(req, |e| {
        if let Event::Pair {
            functional,
            condition,
            mark,
            skipped: None,
            ..
        } = e
        {
            marks.insert((functional.clone(), condition.id().to_string()), *mark);
        }
    })?;
    Ok((marks, done))
}

/// Fault-free in-process reference marks for one (functional, conditions)
/// cell set — the campaign path the daemon must agree with bit-identically,
/// faults or not.
fn reference_marks(functional: &str, conditions: &[Condition], policy: Policy) -> Marks {
    let handle = Registry::spin_general()
        .get(functional)
        .expect("known functional");
    let report = Campaign::builder()
        .functional(handle)
        .conditions(conditions.iter().copied())
        .config_policy(move |f, _| policy.verifier_config(f))
        .build()
        .expect("at least one pair")
        .run();
    report
        .pairs
        .iter()
        .filter(|p| p.skipped.is_none())
        .map(|p| ((p.functional_name(), p.condition.id().to_string()), p.mark))
        .collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xcv_faults_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// N injected leader panics: the first two requests to reach the solver
/// panic mid-solve. Their clients get a structured error; the coalesced
/// waiters wake (the dropped `LeaderGuard` abandons the claim), re-claim,
/// and one of them finishes the solve — every surviving answer carries the
/// fault-free mark. Completion of all eight threads *is* the no-deadlock
/// assertion (each wait is bounded by `wait_timeout`).
#[test]
fn injected_leader_panics_are_isolated_and_waiters_take_over() {
    let plan = Arc::new(FaultPlan::new(7).arm(FaultSite::SolverPanic, FaultRule::First(2)));
    let server = Server::spawn(ServerConfig {
        wait_timeout: Duration::from_secs(30),
        fault_plan: Some(Arc::clone(&plan)),
        ..ServerConfig::default()
    })
    .expect("ephemeral port");
    let addr = server.addr();
    let policy = flat(400);
    let condition = Condition::EcNonPositivity;
    let req = VerifyRequest {
        functionals: vec!["VWN RPA".to_string()],
        conditions: vec![condition],
        policy,
    };
    let answers: Vec<Result<(Marks, Done), String>> = (0..8)
        .map(|_| {
            let req = req.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                try_verify_marks(&mut client, &req)
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    let reference = reference_marks("VWN RPA", &[condition], policy);
    assert_eq!(reference.len(), 1, "one applicable pair");
    let failed = answers.iter().filter(|a| a.is_err()).count();
    assert_eq!(
        failed, 2,
        "exactly the two injected panics fail their own requests: {answers:?}"
    );
    for a in &answers {
        match a {
            Err(e) => assert!(e.contains("panicked"), "structured panic error, got {e:?}"),
            Ok((marks, done)) => {
                assert_eq!(marks, &reference, "survivors get the fault-free marks");
                assert_eq!(done.cached + done.solved, 1);
            }
        }
    }
    assert_eq!(
        plan.fired(FaultSite::SolverPanic),
        2,
        "both injections fired"
    );
    let stats = server.stats();
    assert_eq!(stats.panics, 2, "each isolated panic is counted");
    // The daemon is still fully serviceable after isolating two panics.
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("daemon still serving");
    let (marks, done) = try_verify_marks(&mut client, &req).expect("verify after faults");
    assert_eq!(marks, reference);
    assert_eq!(done.cached, 1, "the survivors' solve was memoized");
}

/// A persist-time corruption (the injected fault writes a torn half-file)
/// is caught at the next warm start by the content checksum: the document
/// is quarantined to `*.bad`, counted, and its pair silently recomputes to
/// the identical mark. Nothing crashes and nothing corrupt is ever served.
#[test]
fn corrupted_store_files_are_quarantined_and_recomputed() {
    let dir = temp_dir("store");
    let plan = Arc::new(FaultPlan::new(3).arm(FaultSite::StoreCorrupt, FaultRule::First(1)));
    let req = VerifyRequest {
        functionals: vec!["PBE".to_string(), "LYP".to_string()],
        conditions: Vec::new(), // all seven
        policy: flat(150),
    };
    let (first_marks, first_solved) = {
        let mut server = Server::spawn(ServerConfig {
            store_dir: Some(dir.clone()),
            admit_ms: 0, // persist everything, however cheap
            fault_plan: Some(Arc::clone(&plan)),
            ..ServerConfig::default()
        })
        .expect("ephemeral port");
        let mut client = Client::connect(server.addr()).expect("connect");
        let (marks, done) = try_verify_marks(&mut client, &req).expect("verify");
        assert!(done.solved > 1);
        server.shutdown();
        (marks, done.solved)
    };
    assert_eq!(plan.fired(FaultSite::StoreCorrupt), 1, "one torn write");

    // Restart (fault-free) over the same directory: the torn document must
    // be quarantined, every healthy one warm-loaded.
    let mut server = Server::spawn(ServerConfig {
        store_dir: Some(dir.clone()),
        admit_ms: 0,
        ..ServerConfig::default()
    })
    .expect("ephemeral port");
    let stats = server.stats();
    assert_eq!(
        stats.quarantined, 1,
        "the torn file is quarantined, not fatal"
    );
    assert_eq!(stats.warm_loaded, first_solved - 1);
    let bad = std::fs::read_dir(&dir)
        .expect("store dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "bad"))
        .count();
    assert_eq!(bad, 1, "quarantine keeps the evidence as *.bad");

    let mut client = Client::connect(server.addr()).expect("connect");
    let (marks, done) = try_verify_marks(&mut client, &req).expect("verify");
    assert_eq!(marks, first_marks, "recomputed pair lands on the same mark");
    assert_eq!(done.solved, 1, "only the quarantined pair re-solves");
    assert_eq!(done.cached, first_solved - 1);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint truncated mid-write (torn copy, full disk, kill -9) must
/// not wedge the gate: the campaign quarantines it to `*.bad`, recomputes
/// from scratch, and lands on marks identical to the uninterrupted run.
#[test]
fn truncated_checkpoints_are_quarantined_and_recomputed() {
    let dir = temp_dir("ckpt");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt = dir.join("gate.json");
    let policy = flat(150);
    let run = || {
        Campaign::builder()
            .functional(Registry::extended().get("LYP").expect("LYP"))
            .conditions(Condition::all())
            .config_policy(move |f, _| policy.verifier_config(f))
            .checkpoint(ckpt.clone())
            .build()
            .expect("pairs")
            .run()
    };
    let baseline: Marks = run()
        .pairs
        .iter()
        .filter(|p| p.skipped.is_none())
        .map(|p| ((p.functional_name(), p.condition.id().to_string()), p.mark))
        .collect();
    assert!(!baseline.is_empty());

    // Tear the checkpoint in half — no longer parseable JSON.
    let text = std::fs::read_to_string(&ckpt).expect("checkpoint written");
    std::fs::write(&ckpt, &text[..text.len() / 2]).expect("truncate");

    let rerun: Marks = run()
        .pairs
        .iter()
        .filter(|p| p.skipped.is_none())
        .map(|p| ((p.functional_name(), p.condition.id().to_string()), p.mark))
        .collect();
    assert_eq!(rerun, baseline, "full recompute, identical marks");
    assert!(
        dir.join("gate.json.bad").exists(),
        "the torn checkpoint is kept for postmortem"
    );
    let healthy = std::fs::read_to_string(&ckpt).expect("fresh checkpoint");
    assert!(healthy.len() > text.len() / 2, "checkpoint rewritten whole");
    std::fs::remove_dir_all(&dir).ok();
}

/// A client that sends half a request line and then wedges holds only its
/// own connection: a healthy concurrent client solves and completes, and
/// the read timeout reaps the wedged socket.
#[test]
fn hung_clients_are_reaped_without_blocking_others() {
    let mut server = Server::spawn(ServerConfig {
        read_timeout: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    })
    .expect("ephemeral port");
    let addr = server.addr();

    // The wedge: half a request, no newline, then silence.
    let mut hung = TcpStream::connect(addr).expect("connect");
    hung.write_all(b"{\"cmd\": \"veri").expect("partial write");

    // A healthy client is fully served while the wedged one idles.
    let mut client = Client::connect(addr).expect("connect");
    let req = VerifyRequest {
        functionals: vec!["VWN RPA".to_string()],
        conditions: vec![Condition::EcNonPositivity],
        policy: flat(400),
    };
    let (marks, done) = try_verify_marks(&mut client, &req).expect("healthy client verifies");
    assert_eq!(marks.len(), 1);
    assert_eq!(done.cached + done.solved, 1);

    // The reap: within the read timeout the daemon closes the wedged
    // connection — the next read sees EOF (or a reset), never a hang.
    hung.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client timeout");
    let mut buf = [0u8; 64];
    match hung.read(&mut buf) {
        Ok(0) => {} // clean EOF: reaped
        Err(e) => assert!(
            !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "connection was never reaped: {e}"
        ),
        Ok(n) => panic!("unexpected bytes from a reaped connection: {n}"),
    }
    server.shutdown();
}

/// Past the connection cap, the daemon answers one explicit `busy` error
/// line and drops — and once the occupying client leaves, the freed slot
/// admits the next one.
#[test]
fn connection_cap_rejects_with_an_explicit_busy_line() {
    let mut server = Server::spawn(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    })
    .expect("ephemeral port");
    let addr = server.addr();

    let mut occupier = Client::connect(addr).expect("connect");
    occupier.ping().expect("slot holder is live");

    // The accept loop admits connections asynchronously, so poll until the
    // over-cap connection has observably been rejected.
    let mut rejected = false;
    for _ in 0..100 {
        let stream = TcpStream::connect(addr).expect("tcp connect always succeeds");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut line = String::new();
        match BufReader::new(stream).read_line(&mut line) {
            Ok(n) if n > 0 => {
                assert!(
                    line.contains("busy"),
                    "explicit busy diagnostic, got {line:?}"
                );
                rejected = true;
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(10)), // raced the slot
        }
    }
    assert!(rejected, "over-cap connection never saw the busy line");

    // Freeing the slot re-admits: a fresh client gets served.
    drop(occupier);
    let mut admitted = false;
    for _ in 0..100 {
        if let Ok(mut c) = Client::connect(addr) {
            if c.ping().is_ok() {
                admitted = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(admitted, "freed slot was never re-admitted");
    server.shutdown();
}

/// An expired per-request wall deadline degrades gracefully: whatever is
/// already answered streams normally, every remaining pair is reported as
/// `skipped: "timeout"`, the `done` accounting adds up exactly, and the
/// connection survives for the next request.
#[test]
fn request_deadline_degrades_gracefully() {
    let mut server = Server::spawn(ServerConfig {
        request_deadline_ms: Some(0), // already expired: everything times out
        ..ServerConfig::default()
    })
    .expect("ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connect");
    let req = VerifyRequest {
        functionals: vec!["LYP".to_string()],
        conditions: Vec::new(), // all seven
        policy: flat(150),
    };
    let mut answered = 0u64;
    let mut na = 0u64;
    let mut timed_out = 0u64;
    let done = client
        .verify(&req, |e| {
            if let Event::Pair { skipped, .. } = e {
                match skipped.as_deref() {
                    None => answered += 1,
                    Some("na") => na += 1,
                    Some("timeout") => timed_out += 1,
                    Some(other) => panic!("unexpected skip tag {other:?}"),
                }
            }
        })
        .expect("a timed-out request still completes structurally");
    assert!(done.timeouts > 0, "the deadline fired");
    assert_eq!(done.timeouts, timed_out, "summary matches the event stream");
    assert_eq!(done.solved + done.cached, answered);
    assert_eq!(
        answered + na + timed_out,
        done.pairs,
        "every pair is accounted for: answered, inapplicable, or timed out"
    );
    client
        .ping()
        .expect("connection survives a timed-out request");
    server.shutdown();
}

/// A 50 ms request deadline lands in the middle of SCAN's Tc-bound solve
/// (about a second in a release build). Daemon A, which persists every
/// result, must answer that pair either as a `timeout` skip or with the
/// in-process mark — never with what the cut left. Daemon B, restarted on
/// the same store without a deadline, must then serve the in-process mark.
#[test]
fn request_deadline_never_reaches_the_store() {
    let dir = temp_dir("deadline");
    let policy = Policy::Flat {
        delta: 1e-3,
        max_nodes: 800,
        split_threshold: 0.3,
        max_depth: 2,
    };
    let condition = Condition::TcUpperBound;
    let reference = reference_marks("SCAN", &[condition], policy);
    let want = reference[&("SCAN".to_string(), condition.id().to_string())];
    assert_eq!(want, TableMark::PartiallyVerified);
    let req = VerifyRequest {
        functionals: vec!["SCAN".to_string()],
        conditions: vec![condition],
        policy,
    };
    let serve = |request_deadline_ms: Option<u64>| {
        let mut server = Server::spawn(ServerConfig {
            store_dir: Some(dir.clone()),
            admit_ms: 0, // persist everything, however cheap
            request_deadline_ms,
            ..ServerConfig::default()
        })
        .expect("ephemeral port");
        let mut client = Client::connect(server.addr()).expect("connect");
        let mut pairs = Vec::new();
        client
            .verify(&req, |e| {
                if let Event::Pair { mark, skipped, .. } = e {
                    pairs.push((*mark, skipped.clone()));
                }
            })
            .expect("verify");
        server.shutdown();
        pairs
    };

    let cut = serve(Some(50));
    assert_eq!(cut.len(), 1, "one pair event: {cut:?}");
    for (mark, skipped) in &cut {
        assert!(
            skipped.as_deref() == Some("timeout") || (skipped.is_none() && *mark == want),
            "the deadline daemon answered {mark:?} (skipped {skipped:?}); in-process is {want:?}"
        );
    }
    let fresh = serve(None);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        fresh,
        vec![(want, None)],
        "a restarted daemon must not serve what the deadline cut"
    );
}
