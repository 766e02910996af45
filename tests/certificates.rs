//! Acceptance tests for the replayable-certificate subsystem and the
//! checkpoint/shard campaign machinery:
//!
//! * every certificate a campaign emits replays under the independent
//!   checker (`xcv_cert::check`, the library behind `xcvcheck`) and
//!   survives its JSON wire format;
//! * **mutation**: corrupting a cover box, a witness coordinate, or an
//!   Unsat leaf's evidence in a pinned certificate must be rejected —
//!   a certificate that still "checks" after tampering certifies nothing;
//! * **resume**: a campaign killed mid-matrix (mid-pair, even) via
//!   [`CancelToken`] — by hand or at a [`CancelToken::until`] deadline —
//!   and resumed from its checkpoint produces marks, aggregate solver
//!   statistics, and region multisets identical to an uninterrupted run;
//! * **shard**: two half-matrix shards merge (in-process and through the
//!   checkpoint files) to exactly the single-process matrix.
//!
//! Everything here runs under node-only solve budgets with
//! `pair_deadline_ms: None`, so every run of the same cell explores the
//! same tree — the bit-identity claims are exact, not statistical.

use std::time::{Duration, Instant};
use xcverifier::prelude::*;
use xcverifier::serve::Policy;

/// Deterministic coarse settings: node budget only, no wall clock anywhere.
fn det_config(nodes: u64, max_depth: u32) -> VerifierConfig {
    VerifierConfig {
        split_threshold: 1.25,
        solver: DeltaSolver::new(1e-3, SolveBudget::nodes(nodes)),
        parallel: false,
        max_depth,
        pair_deadline_ms: None,
    }
}

/// A small matrix with both verdict flavors: VWN RPA satisfies EC1 (Unsat
/// traces everywhere), LYP's implementation does not (witness regions).
fn emitting_report() -> CampaignReport {
    Campaign::builder()
        .functionals([Dfa::VwnRpa, Dfa::Lyp])
        .conditions([Condition::EcNonPositivity])
        .config(det_config(20_000, 4))
        .emit_certificates(true)
        .build()
        .unwrap()
        .run()
}

#[test]
fn emitted_certificates_replay_and_survive_the_wire_format() {
    let report = emitting_report();
    assert_eq!(
        report.mark("VWN RPA", Condition::EcNonPositivity),
        Some(TableMark::Verified)
    );
    assert_eq!(
        report.mark("LYP", Condition::EcNonPositivity),
        Some(TableMark::Counterexample)
    );
    for p in &report.pairs {
        let cert = p
            .certificate
            .as_ref()
            .unwrap_or_else(|| panic!("{} should certify", p.functional_name()));
        // Replays in-process...
        let audit = xcverifier::cert::check(cert).expect("fresh certificate replays");
        assert_eq!(audit.regions, cert.regions.len());
        // ...and through the exact JSON the `xcvcheck` binary reads.
        let back = Certificate::parse(&cert.to_json()).expect("wire format round-trips");
        let audit2 = xcverifier::cert::check(&back).expect("parsed certificate replays");
        assert_eq!(audit.replayed_leaves, audit2.replayed_leaves);
        assert_eq!(audit.witnesses, audit2.witnesses);
        match p.mark {
            TableMark::Verified => assert!(audit.replayed_leaves > 0 && audit.witnesses == 0),
            TableMark::Counterexample => assert!(audit.witnesses > 0),
            other => panic!("unexpected mark {other:?}"),
        }
    }

    // The files `write_certificates` persists are the same wire format.
    let dir = std::env::temp_dir().join(format!("xcv_certs_{}", std::process::id()));
    let paths = report.write_certificates(&dir).unwrap();
    assert_eq!(paths.len(), 2);
    for path in &paths {
        let text = std::fs::read_to_string(path).unwrap();
        let cert = Certificate::parse(&text).expect("persisted certificate parses");
        xcverifier::cert::check(&cert).expect("persisted certificate replays");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mutated_certificates_are_rejected() {
    let report = emitting_report();
    let lyp = report
        .pairs
        .iter()
        .find(|p| p.functional_name() == "LYP")
        .unwrap()
        .certificate
        .as_ref()
        .expect("LYP certifies")
        .clone();
    // The pinned original replays; every mutation below must not. Each
    // mutant is pushed through the JSON round trip first, so the rejection
    // is exactly what `xcvcheck` would do to a tampered file.
    xcverifier::cert::check(&lyp).expect("pinned certificate replays");
    let rejects = |mutant: Certificate, what: &str| {
        let back = Certificate::parse(&mutant.to_json())
            .unwrap_or_else(|e| panic!("{what}: mutant must fail check(), not parse(): {e}"));
        assert!(
            xcverifier::cert::check(&back).is_err(),
            "{what}: tampered certificate still replays"
        );
    };

    // (1) Corrupt a cover box: shrink one region — the cover no longer
    // tiles the domain, so the certificate no longer speaks for all of it.
    let mut m = lyp.clone();
    let b = m.regions[0].bounds[0];
    m.regions[0].bounds[0] = Interval::new(b.lo, b.lo + 0.75 * (b.hi - b.lo));
    rejects(m, "shrunken cover box");

    // (2) Corrupt a witness coordinate: the claimed violation point no
    // longer lies in (or violates anything about) its region.
    let mut m = lyp.clone();
    let ce = m
        .regions
        .iter_mut()
        .find_map(|r| match &mut r.verdict {
            CertVerdict::Counterexample { witness } => Some(witness),
            _ => None,
        })
        .expect("LYP has witness regions");
    ce[1] = 1.0e6;
    rejects(m, "corrupted witness coordinate");

    // (3) Corrupt an Unsat leaf: claim a single-prune proof for a region
    // that genuinely contains a violation — the checker's own contraction
    // of ¬ψ cannot come back empty there.
    let mut m = lyp.clone();
    let fake = m
        .regions
        .iter_mut()
        .find(|r| matches!(r.verdict, CertVerdict::Counterexample { .. }))
        .unwrap();
    fake.verdict = CertVerdict::Verified {
        trace: vec![CertEvent::Pruned],
    };
    rejects(m, "fake Unsat leaf over a violating region");

    // (3b) And the dual: empty out a real Unsat leaf's evidence — a trace
    // that ends with boxes still outstanding proves nothing.
    let mut m = lyp;
    let verified = m
        .regions
        .iter_mut()
        .find(|r| matches!(&r.verdict, CertVerdict::Verified { trace } if !trace.is_empty()))
        .expect("LYP has verified regions");
    verified.verdict = CertVerdict::Verified { trace: Vec::new() };
    rejects(m, "emptied Unsat trace");
}

/// The per-pair facts the resume and shard equivalence claims pin: mark,
/// skip reason, aggregate solver statistics, and the full region multiset.
fn fingerprint(report: &CampaignReport) -> Vec<String> {
    let mut out = Vec::new();
    for p in &report.pairs {
        let stats = p
            .stats
            .map(|s| format!("{}/{}/{}/{}", s.nodes, s.pruned, s.branched, s.max_depth))
            .unwrap_or_default();
        let mut regions: Vec<String> = p
            .map
            .iter()
            .flat_map(|m| &m.regions)
            .map(|r| format!("{:?} {:?}", r.domain, r.status))
            .collect();
        regions.sort();
        out.push(format!(
            "{} {:?} {:?} {:?} [{stats}] {}",
            p.functional_name(),
            p.condition,
            p.mark,
            p.skipped,
            regions.join("; ")
        ));
    }
    out.sort();
    out
}

#[test]
fn checkpoint_resume_reproduces_the_uninterrupted_run() {
    let config = det_config(10_000, 3);
    let build = || {
        Campaign::builder()
            .registry(&Registry::builtin())
            .conditions([Condition::EcNonPositivity])
            .config(config.clone())
    };

    // Reference: one uninterrupted run.
    let reference = build().build().unwrap().run();

    // Interrupted run: cancel the whole campaign the moment the first
    // counterexample streams — guaranteed mid-pair (LYP's EC1 violations
    // surface long before its box tree is exhausted), so the checkpoint
    // records a partially explored cell, not just whole-cell progress.
    let ckpt = std::env::temp_dir().join(format!("xcv_resume_{}.json", std::process::id()));
    std::fs::remove_file(&ckpt).ok();
    let token = CancelToken::new();
    let t = token.clone();
    let interrupted = build()
        .checkpoint(&ckpt)
        .cancel_token(token)
        .on_event(move |e| {
            if matches!(e, CampaignEvent::CounterexampleFound { .. }) {
                t.cancel();
            }
        })
        .build()
        .unwrap()
        .run();
    assert!(
        interrupted
            .pairs
            .iter()
            .any(|p| p.skipped == Some(SkipReason::Cancelled)),
        "the cancel must actually interrupt the matrix"
    );
    assert_ne!(fingerprint(&interrupted), fingerprint(&reference));

    // Resume from the checkpoint: completed cells restore verbatim,
    // interrupted cells re-verify exactly their cancelled leaves — and the
    // whole matrix comes out identical to never having been killed.
    let resumed = build().checkpoint(&ckpt).build().unwrap().run();
    std::fs::remove_file(&ckpt).ok();
    assert_eq!(fingerprint(&resumed), fingerprint(&reference));
}

/// SCAN's Tc upper bound under a flat node-budgeted policy: about a second
/// of solving in a release build, so a 50 ms deadline always cuts it.
fn scan_tc() -> CampaignBuilder {
    let policy = Policy::Flat {
        delta: 1e-3,
        max_nodes: 800,
        split_threshold: 0.3,
        max_depth: 2,
    };
    Campaign::builder()
        .functional(Dfa::Scan)
        .conditions([Condition::TcUpperBound])
        .config_policy(move |f, _| policy.verifier_config(f))
}

#[test]
fn deadline_cut_checkpoint_resumes_to_the_uninterrupted_run() {
    let reference = scan_tc().build().unwrap().run();
    assert_eq!(
        reference.mark("SCAN", Condition::TcUpperBound),
        Some(TableMark::PartiallyVerified)
    );

    // A deadline cuts the pair: it must come back cancelled, with the
    // checkpoint recording where it stopped — not answered with the
    // timeouts the cut left behind.
    let ckpt = std::env::temp_dir().join(format!("xcv_deadline_{}.json", std::process::id()));
    std::fs::remove_file(&ckpt).ok();
    let cut = scan_tc()
        .checkpoint(&ckpt)
        .cancel_token(CancelToken::until(
            Instant::now() + Duration::from_millis(50),
        ))
        .build()
        .unwrap()
        .run();
    assert_eq!(
        cut.pairs[0].skipped,
        Some(SkipReason::Cancelled),
        "the deadline cut the pair, so it must not read as answered: {:?}",
        cut.pairs[0].mark
    );

    // Rerun on that checkpoint without a deadline: the resumed pair is the
    // uninterrupted one, node for node and region for region.
    let resumed = scan_tc().checkpoint(&ckpt).build().unwrap().run();
    std::fs::remove_file(&ckpt).ok();
    assert_eq!(fingerprint(&resumed), fingerprint(&reference));
}

#[test]
fn two_shards_merge_to_the_single_process_matrix() {
    let config = det_config(6_000, 2);
    let build = || {
        Campaign::builder()
            .registry(&Registry::builtin())
            .conditions([Condition::EcNonPositivity])
            .config(config.clone())
    };
    let single = build().build().unwrap().run();

    let dir = std::env::temp_dir();
    let ck = |i: usize| dir.join(format!("xcv_shard{i}_{}.json", std::process::id()));
    std::fs::remove_file(ck(0)).ok();
    std::fs::remove_file(ck(1)).ok();
    let shard0 = build().shard(0, 2).checkpoint(ck(0)).build().unwrap().run();
    let shard1 = build().shard(1, 2).checkpoint(ck(1)).build().unwrap().run();

    // Both shards see the full matrix shape; each ran a strict subset.
    for s in [&shard0, &shard1] {
        assert_eq!(s.pairs.len(), single.pairs.len());
        assert!(s
            .pairs
            .iter()
            .any(|p| p.skipped == Some(SkipReason::OtherShard)));
    }
    // Disjoint and exhaustive: every cell ran in exactly one shard.
    for (a, b) in shard0.pairs.iter().zip(&shard1.pairs) {
        assert_eq!(
            a.skipped == Some(SkipReason::OtherShard),
            b.skipped != Some(SkipReason::OtherShard),
            "{}/{:?} must run in exactly one shard",
            a.functional_name(),
            a.condition
        );
    }

    // In-process merge: bit-identical to the single-process run.
    let merged = CampaignReport::merge([shard0, shard1]).unwrap();
    assert_eq!(fingerprint(&merged), fingerprint(&single));

    // File-level merge (what `xcverify --merge` does): the union of the two
    // shard checkpoints carries the same marks as the single-process run.
    let mut union: Vec<(String, String, String)> = checkpoint_marks(ck(0))
        .unwrap()
        .into_iter()
        .chain(checkpoint_marks(ck(1)).unwrap())
        .map(|(f, c, m)| (f, format!("{c:?}"), format!("{m:?}")))
        .collect();
    union.sort();
    let mut want: Vec<(String, String, String)> = single
        .pairs
        .iter()
        .filter(|p| p.skipped.is_none())
        .map(|p| {
            (
                p.functional_name(),
                format!("{:?}", p.condition),
                format!("{:?}", p.mark),
            )
        })
        .collect();
    want.sort();
    assert_eq!(union, want);
    std::fs::remove_file(ck(0)).ok();
    std::fs::remove_file(ck(1)).ok();
}
