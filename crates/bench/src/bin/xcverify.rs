//! `xcverify` — a CI-style command-line checker, the integration mode the
//! paper proposes for LIBXC's continuous integration (Section VI-B), now a
//! thin shell over the campaign engine and the functional registry.
//!
//! ```text
//! xcverify --dfa PBE --condition ec1 [--budget-ms 100] [--threshold 0.3] [--quiet]
//! xcverify --dfa LYP --all [--deadline-ms N]
//! xcverify --spin [--dfa "PBE(ζ)"] [...]      gate the ζ-resolved matrix
//! xcverify --matrix [--emit-certs DIR] [...]  gate the whole extended matrix
//! xcverify --matrix --shard 0/2 --checkpoint s0.json [...]
//! xcverify --merge s0.json s1.json            union sharded checkpoints
//! xcverify --merge --allow-missing s*.json    tolerate absent shards (exit 3)
//! xcverify --server 127.0.0.1:7878 --matrix   answer from a running xcvserve
//! xcverify --server ADDR --fallback-local ... degrade to in-process on failure
//! xcverify --list [--spin]
//! ```
//!
//! `--spin` registers the spin-resolved (`ζ ≠ 0`) citizens next to the
//! built-ins; without `--dfa` it gates the whole ζ-resolved matrix
//! (`PBE(ζ)`, `PW92(ζ)`, `LSDA-X(ζ)` × every applicable condition) in one
//! campaign. `--matrix` does the same for the extended charge-only registry.
//!
//! `--emit-certs DIR` records a replayable proof certificate per pair and
//! writes them to `DIR`; audit them independently with `xcvcheck DIR`. On a
//! failed gate the certificate path is printed next to each refuted pair's
//! witnesses, so the refutation ships with its own replayable evidence.
//!
//! `--ladder` arms the contractor escalation ladder ([`xcv_solver::
//! Escalation::Full`]) in every pair's verifier config: boxes where HC4
//! stalls get interval-Newton sweeps and 3B slab shaving instead of timing
//! out. Marks only ever improve — timeouts become decisions, spurious δ-sat
//! leaves become sound `Unsat` proofs — and every ladder step stays
//! replayable under `--emit-certs`, whose certificate headers record the
//! ladder as part of the config that ran.
//!
//! `--deadline-ms N` stops the whole run N ms after it starts. Pairs not
//! started by then, and pairs still running, are reported as never run
//! (exit 3), never with the partial mark the cut left behind; with
//! `--checkpoint`, re-running the command resumes them where they stopped.
//!
//! `--checkpoint PATH` persists progress (atomically, after every pair);
//! re-running the same command resumes mid-matrix — even mid-pair — with
//! identical marks. `--shard i/n` runs only the i-th of `n` deterministic
//! LPT shards, dealt longest-first by the matrix-only `pair_cost`;
//! `--merge` unions the shard checkpoints and prints the
//! combined matrix, sorted, one `functional / condition: mark` per line.
//! With `--allow-missing`, absent or unreadable shard checkpoints are
//! reported on stderr and the merge of the rest still prints, exiting 3 —
//! an incomplete union is auditable but never reads as a green gate.
//!
//! `--server ADDR` answers the same query through a running `xcvserve`
//! daemon instead of solving in-process: identical per-pair output lines,
//! identical exit codes, identical marks (both paths derive their verifier
//! configuration from the same [`xcv_serve::Policy`]), but warm queries
//! return from the daemon's result cache without solving anything. With
//! `--fallback-local`, an unreachable or failing daemon degrades to the
//! in-process path (stderr warning, bit-identical marks) instead of
//! failing the gate on infrastructure.
//!
//! Exit status: 0 when every checked condition ran and none was refuted;
//! 1 when any counterexample is found; 2 on usage errors; 3 when the
//! `--deadline-ms` deadline (or a defect in the functional) cut or skipped
//! one or more conditions — an incomplete run must not read as a green
//! gate. A CI job can therefore gate a functional-implementation change on
//! `xcverify`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use xcv_conditions::Condition;
use xcv_core::{
    checkpoint_marks, Campaign, CampaignEvent, CampaignReport, CancelToken, SkipReason, TableMark,
};
use xcv_functionals::{FunctionalHandle, Registry};
use xcv_serve::{canonical_name, Client, Event, Policy, VerifyRequest};

fn parse_condition(name: &str) -> Option<Condition> {
    match name.to_ascii_lowercase().as_str() {
        "ec1" | "nonpositivity" => Some(Condition::EcNonPositivity),
        "ec2" | "scaling" => Some(Condition::EcScaling),
        "ec3" | "uc" => Some(Condition::UcMonotonicity),
        "ec4" | "lo" => Some(Condition::LiebOxford),
        "ec5" | "lo-ext" => Some(Condition::LiebOxfordExt),
        "ec6" | "tc" => Some(Condition::TcUpperBound),
        "ec7" | "conj-tc" => Some(Condition::ConjTcUpperBound),
        _ => None,
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: xcverify --dfa <PBE|SCAN|LYP|AM05|VWN_RPA|RSCAN|BLYP> \
         (--condition <ec1..ec7> | --all) [--budget-ms N] [--threshold T] \
         [--deadline-ms N] [--spin] [--ladder] [--expect-pairs N] \
         [--emit-certs DIR] [--checkpoint PATH] [--shard I/N] [--quiet]\n\
         \u{20}      xcverify --spin [--all]   (gate the whole ζ-resolved matrix)\n\
         \u{20}      xcverify --matrix [--all] (gate the whole extended matrix)\n\
         \u{20}      xcverify --merge [--allow-missing] CKPT.json... (union shard checkpoints)\n\
         \u{20}      xcverify --server ADDR [--fallback-local] ...  (query a running xcvserve daemon)\n\
         \u{20}      xcverify --list [--spin]\n\
         \u{20}      --expect-pairs N pins the applicable cell count: a grown or \
         shrunken matrix exits 2 before anything runs"
    );
    ExitCode::from(2)
}

/// `--merge`: union the per-shard (or interrupted-run) checkpoints and print
/// the combined matrix, sorted, in the same `functional / condition: mark`
/// shape the live gate streams — so a two-shard run is auditable against a
/// single-process run with a plain `diff`. `--allow-missing` downgrades an
/// absent or unreadable shard from a hard usage error to a reported gap:
/// the surviving union still prints, but the exit code is 3 — the same
/// "incomplete gate" verdict a deadline-skipped live run gets.
fn merge_checkpoints(args: &[String]) -> ExitCode {
    let allow_missing = args.iter().any(|a| a == "--allow-missing");
    let files: Vec<&String> = args.iter().filter(|a| *a != "--allow-missing").collect();
    if files.is_empty() {
        return usage();
    }
    let mut missing = Vec::new();
    // Each mark remembers which shard file contributed it, so a conflict
    // names both offending checkpoints — the first thing an operator needs
    // to triage a mixed-version or mixed-config shard fleet.
    let mut merged = std::collections::BTreeMap::<(String, String), (TableMark, String)>::new();
    for file in files {
        let marks = match checkpoint_marks(file) {
            Ok(m) => m,
            Err(e) if allow_missing => {
                eprintln!("--merge: missing shard {file}: {e}");
                missing.push(file.clone());
                continue;
            }
            Err(e) => {
                eprintln!("--merge {file}: {e}");
                return ExitCode::from(2);
            }
        };
        for (functional, condition, mark) in marks {
            let key = (functional, condition.to_string());
            if let Some((prev, prev_file)) = merged.get(&key) {
                if *prev != mark {
                    eprintln!(
                        "--merge: conflicting marks for {} / {}: \
                         {prev} (from {prev_file}) vs {mark} (from {file}); \
                         shards disagree — were they run with the same \
                         binary and policy?",
                        key.0, key.1
                    );
                    return ExitCode::from(2);
                }
                continue; // keep the first contributor's attribution
            }
            merged.insert(key, (mark, file.to_string()));
        }
    }
    for ((functional, condition), (mark, _)) in &merged {
        println!("{functional} / {condition}: {mark}");
    }
    if !missing.is_empty() {
        eprintln!(
            "warning: {} shard checkpoint(s) missing ({}); union is incomplete",
            missing.len(),
            missing.join(", ")
        );
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}

/// `--server ADDR`: run the gate as a thin client of a running `xcvserve`.
/// Output lines, counterexample capping, and exit codes match the
/// in-process path exactly; only the execution engine differs — the daemon
/// answers warm queries from its result cache without solving.
///
/// `Err` means the daemon was unusable (connect failure, transport error,
/// or a server-side `error` event): with `--fallback-local` armed the
/// caller degrades to the in-process path, so when buffering is requested
/// all stdout lines are held back until the server run actually completes —
/// a half-streamed server run followed by a full local run must not print
/// its pairs twice.
fn run_against_server(
    addr: &str,
    registry: &Registry,
    targets: &[FunctionalHandle],
    conditions: &[Condition],
    policy: Policy,
    quiet: bool,
    buffer_output: bool,
) -> Result<ExitCode, String> {
    let mut client = Client::connect_retry(addr, 3, std::time::Duration::from_millis(50))
        .map_err(|e| format!("{e}"))?;
    let request = VerifyRequest {
        functionals: targets.iter().map(|f| f.name()).collect(),
        conditions: conditions.to_vec(),
        policy,
    };
    let mut any_ce = false;
    let mut unrun: Vec<String> = Vec::new();
    let mut shown = std::collections::HashMap::<String, usize>::new();
    let mut held: Vec<String> = Vec::new();
    let done = client.verify(&request, |event| {
        let mut out = |line: String| {
            if buffer_output {
                held.push(line);
            } else {
                println!("{line}");
            }
        };
        match event {
            Event::Counterexample {
                functional,
                condition,
                witness,
            } => {
                if quiet {
                    return;
                }
                let n = shown
                    .entry(format!("{functional}/{}", condition.name()))
                    .or_insert(0);
                *n += 1;
                if *n <= 5 {
                    let coords = match registry.get(functional) {
                        Some(f) => f.var_space().label_point(witness),
                        None => witness
                            .iter()
                            .map(|v| format!("{v:.4}"))
                            .collect::<Vec<_>>()
                            .join(", "),
                    };
                    out(format!(
                        "  [{}] counterexample at ({coords})",
                        condition.id()
                    ));
                }
            }
            Event::Pair {
                functional,
                condition,
                mark,
                skipped,
                ..
            } => match skipped {
                None => {
                    if *mark == TableMark::Counterexample {
                        any_ce = true;
                    }
                    if !quiet {
                        out(format!("{functional} / {condition}: {mark}"));
                    }
                }
                Some(tag) if tag != "na" && tag != "other_shard" => {
                    unrun.push(format!("{functional}/{}", condition.id()));
                }
                Some(_) => {}
            },
            _ => {}
        }
    });
    let done = done?;
    for line in held {
        println!("{line}");
    }
    if !quiet {
        eprintln!(
            "server cache: {}/{} warm",
            done.cached,
            done.cached + done.solved
        );
    }
    if any_ce {
        return Ok(ExitCode::FAILURE);
    }
    if !unrun.is_empty() {
        eprintln!(
            "warning: {} condition(s) never ran ({}); gate is inconclusive",
            unrun.len(),
            unrun.join(", ")
        );
        return Ok(ExitCode::from(3));
    }
    Ok(ExitCode::SUCCESS)
}

/// Parse `--shard I/N` (e.g. `0/2`).
fn parse_shard(s: &str) -> Option<(usize, usize)> {
    let (i, n) = s.split_once('/')?;
    let (i, n) = (i.parse().ok()?, n.parse().ok()?);
    (n >= 1 && i < n).then_some((i, n))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--merge` is a pure file mode: no campaign, no registry.
    if args.first().map(String::as_str) == Some("--merge") {
        return merge_checkpoints(&args[1..]);
    }
    // `--spin` changes which names resolve, so scan for it before parsing.
    let spin = args.iter().any(|a| a == "--spin");
    let registry = if spin {
        Registry::spin_general()
    } else {
        Registry::extended()
    };
    let mut dfa: Option<FunctionalHandle> = None;
    let mut condition: Option<Condition> = None;
    let mut all = false;
    let mut budget_ms = 100u64;
    let mut threshold = 0.3f64;
    let mut deadline_ms: Option<u64> = None;
    let mut expect_pairs: Option<usize> = None;
    let mut quiet = false;
    let mut matrix = false;
    let mut emit_certs: Option<PathBuf> = None;
    let mut checkpoint: Option<PathBuf> = None;
    let mut shard: Option<(usize, usize)> = None;
    let mut ladder = false;
    let mut server: Option<String> = None;
    let mut fallback_local = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                println!("DFAs: {}", registry.names().join(" "));
                println!("conditions:");
                for c in Condition::all() {
                    println!("  {:8} {}", c.id(), c);
                }
                return ExitCode::SUCCESS;
            }
            "--dfa" => {
                i += 1;
                // Aliases included: the spin citizens get ASCII aliases so
                // no shell has to type `ζ`.
                dfa = args.get(i).and_then(|s| registry.get(&canonical_name(s)));
                if dfa.is_none() {
                    return usage();
                }
            }
            "--condition" => {
                i += 1;
                condition = args.get(i).and_then(|s| parse_condition(s));
                if condition.is_none() {
                    return usage();
                }
            }
            "--all" => all = true,
            "--spin" => {} // consumed by the pre-scan above
            "--budget-ms" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(v) => budget_ms = v,
                    None => return usage(),
                }
            }
            "--threshold" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(v) => threshold = v,
                    None => return usage(),
                }
            }
            "--deadline-ms" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(v) => deadline_ms = Some(v),
                    None => return usage(),
                }
            }
            "--expect-pairs" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(v) => expect_pairs = Some(v),
                    None => return usage(),
                }
            }
            "--quiet" => quiet = true,
            "--matrix" => matrix = true,
            "--ladder" => ladder = true,
            "--emit-certs" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => emit_certs = Some(PathBuf::from(dir)),
                    None => return usage(),
                }
            }
            "--checkpoint" => {
                i += 1;
                match args.get(i) {
                    Some(path) => checkpoint = Some(PathBuf::from(path)),
                    None => return usage(),
                }
            }
            "--shard" => {
                i += 1;
                match args.get(i).and_then(|s| parse_shard(s)) {
                    Some(v) => shard = Some(v),
                    None => return usage(),
                }
            }
            "--server" => {
                i += 1;
                match args.get(i) {
                    Some(addr) => server = Some(addr.clone()),
                    None => return usage(),
                }
            }
            "--fallback-local" => fallback_local = true,
            _ => return usage(),
        }
        i += 1;
    }
    // `--spin` without `--dfa` gates the whole ζ-resolved matrix; `--matrix`
    // gates the whole (extended) registry; otherwise a functional is
    // mandatory.
    let targets: Vec<FunctionalHandle> = match &dfa {
        Some(d) => vec![std::sync::Arc::clone(d)],
        None if spin => Registry::spin().handles().to_vec(),
        None if matrix => registry.handles().to_vec(),
        None => return usage(),
    };
    let conditions: Vec<Condition> = if targets.len() > 1 {
        // Multi-functional gate: keep every requested (or all) conditions;
        // inapplicable cells come back as legitimate `−` skips.
        match condition {
            Some(c) => vec![c],
            None => Condition::all().to_vec(),
        }
    } else if all {
        Condition::all()
            .into_iter()
            .filter(|c| c.applies_to(targets[0].as_ref()))
            .collect()
    } else {
        match condition {
            Some(c) if c.applies_to(targets[0].as_ref()) => vec![c],
            Some(c) => {
                eprintln!("{c} does not apply to {}", targets[0].name());
                return ExitCode::from(2);
            }
            None => return usage(),
        }
    };
    // Pinned-matrix assertion: a CI gate that silently runs more or fewer
    // cells than it did yesterday is not the gate it claims to be. Checked
    // before anything runs, so a grown matrix fails fast as a usage error.
    if let Some(want) = expect_pairs {
        let applicable: usize = targets
            .iter()
            .map(|f| {
                conditions
                    .iter()
                    .filter(|c| c.applies_to(f.as_ref()))
                    .count()
            })
            .sum();
        if applicable != want {
            eprintln!(
                "matrix changed: {applicable} applicable pair(s), --expect-pairs said {want}; \
                 update the pin deliberately"
            );
            return ExitCode::from(2);
        }
    }

    // Both execution paths — in-process campaign and `--server` daemon —
    // derive every pair's verifier configuration from this one policy
    // value, so their marks (and the daemon's cache keys) agree by
    // construction.
    let policy = Policy::Gate {
        budget_ms,
        threshold,
    };
    if fallback_local && server.is_none() {
        eprintln!("--fallback-local requires --server");
        return ExitCode::from(2);
    }
    if let Some(addr) = &server {
        // The daemon owns scheduling and persistence; the flags that steer
        // the in-process campaign's execution have no server-side meaning.
        if ladder
            || checkpoint.is_some()
            || shard.is_some()
            || emit_certs.is_some()
            || deadline_ms.is_some()
        {
            eprintln!(
                "--server is incompatible with --ladder/--checkpoint/--shard/\
                 --emit-certs/--deadline-ms (the daemon owns execution)"
            );
            return ExitCode::from(2);
        }
        match run_against_server(
            addr,
            &registry,
            &targets,
            &conditions,
            policy,
            quiet,
            fallback_local,
        ) {
            Ok(code) => return code,
            Err(e) if fallback_local => {
                // Degrade, don't die: the in-process path derives its
                // verifier configuration from the same `policy`, so the
                // marks are bit-identical — only the cache warmth is lost.
                eprintln!("--server {addr}: {e}; falling back to in-process verification");
            }
            Err(e) => {
                eprintln!("--server {addr}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    // `--ladder` arms the contractor escalation ladder in the config each
    // pair runs: a box that times out at rung 0 is retried with
    // interval-Newton and 3B shaving.
    let mut builder = Campaign::builder()
        .functionals(targets)
        .conditions(conditions)
        .config_policy(move |f, _| {
            let mut config = policy.verifier_config(f);
            if ladder {
                config.solver.escalation = xcv_solver::Escalation::Full;
            }
            config
        });
    // A deadline past the end of time is no deadline.
    if let Some(deadline) =
        deadline_ms.and_then(|ms| Instant::now().checked_add(Duration::from_millis(ms)))
    {
        builder = builder.cancel_token(CancelToken::until(deadline));
    }
    if emit_certs.is_some() {
        builder = builder.emit_certificates(true);
    }
    if let Some(path) = &checkpoint {
        builder = builder.checkpoint(path.clone());
    }
    if let Some((index, of)) = shard {
        builder = builder.shard(index, of);
    }
    if !quiet {
        // Pairs run concurrently, so cap witness lines per (functional,
        // condition) pair and label each line with its pair. Witness
        // coordinates are labeled by the functional's typed variable space
        // (`rs=…, s_up=…`), so a per-spin axis never reads as an α.
        let spaces = registry.clone();
        let shown = std::sync::Mutex::new(std::collections::HashMap::<String, usize>::new());
        builder = builder.on_event(move |e| match e {
            CampaignEvent::PairFinished {
                functional,
                condition,
                mark,
                ..
            } => println!("{functional} / {condition}: {mark}"),
            CampaignEvent::CounterexampleFound {
                functional,
                condition,
                witness,
            } => {
                let n = {
                    let mut map = shown.lock().expect("poisoned");
                    let n = map
                        .entry(format!("{functional}/{}", condition.name()))
                        .or_insert(0);
                    *n += 1;
                    *n
                };
                if n <= 5 {
                    let coords = match spaces.get(functional) {
                        Some(f) => f.var_space().label_point(witness),
                        None => witness
                            .iter()
                            .map(|v| format!("{v:.4}"))
                            .collect::<Vec<_>>()
                            .join(", "),
                    };
                    println!("  [{}] counterexample at ({coords})", condition.id());
                }
            }
            _ => {}
        });
    }
    let report = builder.build().expect("at least one functional").run();
    if let Some(dir) = &emit_certs {
        match report.write_certificates(dir) {
            Ok(paths) => {
                if !quiet {
                    eprintln!("wrote {} certificate(s) to {}", paths.len(), dir.display());
                }
            }
            Err(e) => {
                eprintln!("--emit-certs {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
    }
    if report.count(|m| m == TableMark::Counterexample) > 0 {
        // A refuted pair ships its own evidence: point at the replayable
        // certificate (audit with `xcvcheck`) next to the witnesses already
        // streamed above.
        if let Some(dir) = &emit_certs {
            for p in &report.pairs {
                if p.mark == TableMark::Counterexample && p.certificate.is_some() {
                    println!(
                        "{} / {}: certificate {}",
                        p.functional_name(),
                        p.condition,
                        dir.join(CampaignReport::certificate_file_name(
                            &p.functional_name(),
                            p.condition,
                        ))
                        .display()
                    );
                }
            }
        }
        return ExitCode::FAILURE;
    }
    // A condition the campaign never ran or did not finish (deadline hit,
    // defect) is not a pass: refuse to green-light an incomplete gate.
    // Cells owned by a sibling `--shard` process are its responsibility,
    // not an incomplete run here — `--merge` audits the union.
    let unrun: Vec<String> = report
        .pairs
        .iter()
        .filter(|p| {
            !matches!(
                p.skipped,
                None | Some(SkipReason::NotApplicable) | Some(SkipReason::OtherShard)
            )
        })
        .map(|p| format!("{}/{}", p.functional_name(), p.condition.id()))
        .collect();
    if !unrun.is_empty() {
        eprintln!(
            "warning: {} condition(s) never ran ({}); gate is inconclusive",
            unrun.len(),
            unrun.join(", ")
        );
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
