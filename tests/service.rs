//! Integration tests for the verification service: an in-process daemon on
//! an ephemeral port, driven through the real TCP wire protocol.
//!
//! What is pinned here is the service's one contract: *identical marks,
//! different wall-clock*. A warm repeat of the extended 45-pair matrix must
//! answer entirely from the level-2 result cache (zero solves, flat
//! process-global tape-compile counter), a config change must fall back to
//! the level-1 compiled-problem cache (fresh solves, still zero new tape
//! compilations), N concurrent identical queries must coalesce onto one
//! solve, and a daemon restarted over the same store directory must warm
//! from disk.

use std::collections::BTreeMap;
use xcv_core::{Campaign, TableMark};
use xcv_functionals::Registry;
use xcv_serve::{Client, Event, Policy, Server, ServerConfig, VerifyRequest};

/// A small deterministic flat policy: node-budgeted, sequential, cheap
/// enough that the whole 45-pair matrix solves in seconds.
fn flat(max_nodes: u64) -> Policy {
    Policy::Flat {
        delta: 1e-3,
        max_nodes,
        split_threshold: 0.625,
        max_depth: 1,
    }
}

fn extended_request(policy: Policy) -> VerifyRequest {
    VerifyRequest {
        functionals: Registry::extended()
            .names()
            .iter()
            .map(|n| n.to_string())
            .collect(),
        conditions: Vec::new(), // all seven
        policy,
    }
}

/// Run one verify and collect `(functional, condition-id) -> mark` plus the
/// terminal summary. Event order is completion order on a cold pass and
/// matrix order warm, so marks are compared as a map, never as a sequence.
fn verify_marks(
    client: &mut Client,
    req: &VerifyRequest,
) -> (BTreeMap<(String, String), TableMark>, xcv_serve::Done) {
    let mut marks = BTreeMap::new();
    let done = client
        .verify(req, |e| {
            if let Event::Pair {
                functional,
                condition,
                mark,
                ..
            } = e
            {
                let prev = marks.insert((functional.clone(), condition.id().to_string()), *mark);
                assert!(prev.is_none(), "duplicate pair event for {functional}");
            }
        })
        .expect("verify succeeds");
    (marks, done)
}

#[test]
fn warm_pass_is_cached_and_marks_match_in_process_campaign() {
    let mut server = Server::spawn(ServerConfig::default()).expect("ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connect");
    let policy = flat(150);
    let req = extended_request(policy);

    let (cold_marks, cold) = verify_marks(&mut client, &req);
    assert_eq!(cold.pairs, 49, "7 functionals x 7 conditions");
    // Even the cold pass dedupes: BLYP's five correlation conditions are
    // *content-identical* to LYP's (BLYP = B88 exchange + LYP correlation,
    // and ec1/ec2/ec3/ec6/ec7 test only Ec), so those cells hit the result
    // cache the moment LYP's land — 40 distinct problems in a 45-pair
    // matrix.
    assert_eq!(cold.cached, 5);
    assert_eq!(cold.solved, 40, "40 distinct problems solved cold");
    assert_eq!(cold.l1_misses, 40, "every distinct problem compiled once");

    // Warm repeat: all 45 applicable pairs answered from the result store,
    // nothing solved, and the daemon's problem cache untouched. (The
    // strict flat-compile_count assertion lives in tests/service_compile.rs
    // — its own test binary — because the counter is process-global and
    // sibling tests in this one compile tapes concurrently.)
    let (warm_marks, warm) = verify_marks(&mut client, &req);
    assert_eq!(warm_marks, cold_marks, "marks must be bit-identical");
    assert_eq!(warm.cached, 45);
    assert_eq!(warm.solved, 0);
    assert_eq!(
        (warm.l1_hits, warm.l1_misses),
        (0, 0),
        "a fully warm pass never reaches the problem cache"
    );

    // The service's marks are the campaign's marks: same matrix, same
    // config, solved in-process without any daemon.
    let reference = Campaign::builder()
        .registry(&Registry::extended())
        .config_policy(move |f, _| policy.verifier_config(f))
        .build()
        .unwrap()
        .run();
    for p in &reference.pairs {
        let key = (p.functional_name(), p.condition.id().to_string());
        assert_eq!(
            warm_marks.get(&key),
            Some(&p.mark),
            "service and in-process campaign disagree on {key:?}"
        );
    }

    // A changed solver config is a different level-2 key: everything
    // re-solves — but through the level-1 compiled-problem cache, so the
    // tape-compile counter stays flat while the problem cache reports hits.
    let (_, reconfigured) = verify_marks(&mut client, &extended_request(flat(200)));
    assert_eq!(
        reconfigured.solved, 40,
        "new config fingerprint: no L2 hits"
    );
    // All level-1 hits, zero misses: every re-solve reused a compiled
    // problem — only misses ever compile a tape.
    assert_eq!(reconfigured.l1_hits, 40, "same problems: all L1 hits");
    assert_eq!(reconfigured.l1_misses, 0);
    server.shutdown();
}

#[test]
fn solves_through_shared_problems_stream_the_requested_name() {
    // BLYP's correlation-only cells are content-identical to LYP's, so an
    // LYP request leaves them in the level-1 problem cache. A BLYP request
    // under a new policy misses level 2 and solves through the problems
    // LYP encoded; every event it streams must still name BLYP.
    let mut server = Server::spawn(ServerConfig::default()).expect("ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connect");
    let ask = |functional: &str, policy| VerifyRequest {
        functionals: vec![functional.to_string()],
        conditions: Vec::new(),
        policy,
    };
    let (_, lyp) = verify_marks(&mut client, &ask("LYP", flat(150)));
    assert_eq!(lyp.solved, 5, "LYP's five correlation conditions");
    let mut names = Vec::new();
    let mut pair_events = 0;
    let done = client
        .verify(&ask("BLYP", flat(200)), |e| match e {
            Event::Pair { functional, .. } => {
                pair_events += 1;
                names.push(functional.clone());
            }
            Event::Started { functional, .. } | Event::Counterexample { functional, .. } => {
                names.push(functional.clone())
            }
            _ => {}
        })
        .expect("verify succeeds");
    assert_eq!(done.l1_hits, 5, "BLYP reused LYP's compiled problems");
    assert_eq!(done.solved, 7, "new policy: no level-2 hits");
    assert_eq!(pair_events, done.pairs);
    assert!(names.iter().all(|n| n == "BLYP"), "{names:?}");
    server.shutdown();
}

#[test]
fn concurrent_identical_queries_coalesce_to_one_solve() {
    let server = Server::spawn(ServerConfig::default()).expect("ephemeral port");
    let addr = server.addr();
    // One pair, asked by 8 clients at once. Exactly one becomes the
    // leader; the rest wait on the in-flight solve (level 3) or hit the
    // memo, and every answer carries the same mark.
    let req = VerifyRequest {
        functionals: vec!["VWN RPA".to_string()],
        conditions: vec![xcv_conditions::Condition::EcNonPositivity],
        policy: flat(400),
    };
    let answers: Vec<_> = (0..8)
        .map(|_| {
            let req = req.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                verify_marks(&mut client, &req)
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    let (first_marks, _) = &answers[0];
    let mut solved_total = 0;
    for (marks, done) in &answers {
        assert_eq!(marks, first_marks);
        assert_eq!(done.cached + done.solved, 1);
        solved_total += done.solved;
    }
    assert_eq!(solved_total, 1, "8 identical queries, exactly one solve");
    let stats = server.stats();
    assert_eq!(stats.solves, 1);
    assert_eq!(stats.result_hits, 7);
}

#[test]
fn restarted_daemon_warms_from_the_store_directory() {
    let dir = std::env::temp_dir().join(format!("xcv_service_store_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = || ServerConfig {
        store_dir: Some(dir.clone()),
        admit_ms: 0, // persist everything, however cheap
        ..ServerConfig::default()
    };
    let req = VerifyRequest {
        functionals: vec!["PBE".to_string(), "LYP".to_string()],
        conditions: Vec::new(),
        policy: flat(150),
    };
    let (first_marks, first_solved) = {
        let mut server = Server::spawn(config()).expect("ephemeral port");
        let mut client = Client::connect(server.addr()).expect("connect");
        let (marks, done) = verify_marks(&mut client, &req);
        assert!(done.solved > 0);
        server.shutdown();
        (marks, done.solved)
    };
    // A fresh daemon over the same directory answers without solving.
    let mut server = Server::spawn(config()).expect("ephemeral port");
    assert_eq!(
        server.stats().warm_loaded,
        first_solved,
        "every persisted result loaded from disk"
    );
    let mut client = Client::connect(server.addr()).expect("connect");
    let (marks, done) = verify_marks(&mut client, &req);
    assert_eq!(marks, first_marks);
    assert_eq!(done.solved, 0, "fully warm from disk");
    assert_eq!(done.cached, first_solved);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn protocol_control_commands_round_trip() {
    let mut server = Server::spawn(ServerConfig::default()).expect("ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ping().expect("pong");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.results, 0);
    // Unknown functionals fail the request without killing the connection.
    let err = client
        .verify(
            &VerifyRequest {
                functionals: vec!["NOPE".to_string()],
                conditions: Vec::new(),
                policy: flat(100),
            },
            |_| {},
        )
        .expect_err("unknown functional");
    assert!(err.contains("NOPE"), "{err}");
    client.ping().expect("connection still alive");
    server.shutdown();
}
