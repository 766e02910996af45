//! Solver throughput benchmark: compile-once sessions vs the seed per-call
//! path, on a deterministic box schedule per Table I pair.
//!
//! ```text
//! solver_bench [--nodes N] [--depth D] [--out FILE] [--extended] [--spin]
//! solver_bench --service [--nodes N]     (service cold/warm benchmark only, no JSON)
//! ```
//!
//! For every applicable (functional, condition) pair the PB domain is split
//! `--depth` times (the verifier's `split(D)` schedule), and each resulting
//! box is solved with a `--nodes` node budget four ways:
//!
//! * **session**   — one `CompiledFormula` + one `SolveScratch` shared
//!   across the whole schedule;
//! * **recompile** — the scalar tape machinery, recompiled per box
//!   (isolates the compilation overhead the session removes);
//! * **seed**      — the original architecture, vendored in
//!   [`xcv_bench::seed_baseline`]: contractor rebuilt per box over
//!   hash-mapped `IntervalEnv` storage, branch scoring through the
//!   allocating recursive evaluator;
//! * **ladder**    — the session with the full contractor
//!   escalation ladder ([`Escalation::Full`]): stalled boxes get
//!   interval-Newton sweeps (rung 1) and 3B slab shaving (rung 2) instead
//!   of burning the node budget on bisection. Per box, the outcome may
//!   cross the Timeout boundary in either direction (a timeout becomes a
//!   decision; rarely, a *spurious* rung-0 δ-sat is re-opened when Newton
//!   prunes the sub-δ box HC4 gave up on) and may strengthen a spurious
//!   δ-sat into a sound `Unsat` proof, but is asserted to never regress
//!   an Unsat — Unsat→δ-Sat would be a soundness bug.
//!
//! Results (boxes, solver nodes, wall-clock, nodes/sec, speedups) are
//! printed as a table and written as JSON to `--out` (default
//! `BENCH_solver.json`) — the checked-in snapshot tracks the perf
//! trajectory across PRs.
//!
//! The JSON is schema v9. v5 renamed every mode entry's `timeout` count to
//! `timeouts`. v6 added the `ladder` mode and a top-level `ladder` entry
//! whose `timeouts` array is the trajectory `[rung 0, ≤ rung 1, ≤ rung 2]`
//! — the timeout count as each rung of the ladder is enabled over the same
//! matrix. v7 added the `service` entry: the pinned extended matrix asked
//! of an in-process `xcv-serve` daemon cold then warm, with the warm pass
//! asserted mark-identical to an in-process [`Campaign`] and compile-free.
//! v8 dropped the batched engine's mode and entry and times the ladder
//! against the session. v9 dropped the `campaign` entry (matrix-order vs
//! cost-aware scheduling) and the fitted scheduler model: campaigns
//! dispatch costliest-first by `pair_cost` to a pulling pool, and no
//! scheduler reads a model any more. `tests/bench_snapshot.rs` pins the
//! checked-in snapshot.

use std::fmt::Write as _;
use std::time::Instant;
use xcv_bench::seed_baseline::seed_solve_with_stats;
use xcv_core::{Campaign, Encoder};
use xcv_functionals::Registry;
use xcv_solver::{BoxDomain, DeltaSolver, Escalation, Outcome, SolveBudget, SolveScratch};

struct Opts {
    nodes: u64,
    depth: u32,
    out: String,
    extended: bool,
    spin: bool,
    service_only: bool,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        nodes: 800,
        depth: 2,
        out: "BENCH_solver.json".into(),
        extended: false,
        spin: false,
        service_only: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--nodes" => {
                i += 1;
                o.nodes = args[i].parse().expect("--nodes takes an integer");
            }
            "--depth" => {
                i += 1;
                o.depth = args[i].parse().expect("--depth takes an integer");
            }
            "--out" => {
                i += 1;
                o.out = args[i].clone();
            }
            "--extended" => o.extended = true,
            "--spin" => o.spin = true,
            "--service" => o.service_only = true,
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    o
}

/// Counters for one run mode over a pair's box schedule.
#[derive(Default, Clone, Copy)]
struct ModeResult {
    nodes: u64,
    unsat: u64,
    delta_sat: u64,
    timeout: u64,
    wall_s: f64,
}

impl ModeResult {
    fn knodes_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.nodes as f64 / self.wall_s / 1e3
        } else {
            f64::INFINITY
        }
    }

    fn absorb_outcome(&mut self, outcome: &Outcome) {
        match outcome {
            Outcome::Unsat => self.unsat += 1,
            Outcome::DeltaSat(_) => self.delta_sat += 1,
            Outcome::Timeout => self.timeout += 1,
        }
    }
}

/// The ladder may move boxes across the Timeout boundary in either
/// direction — a rung-0 timeout becomes a decision, and (rarely) a
/// *spurious* rung-0 δ-sat becomes more search when Newton prunes the
/// sub-δ box HC4 had given up on — and it may *strengthen* a spurious
/// δ-sat into `Unsat` (sound by construction: `Unsat` is only ever
/// emitted when interval reasoning proves the box empty, which is
/// impossible when a real solution exists). The one forbidden
/// transition is the reverse, `Unsat -> DeltaSat`: discarding a sound
/// proof for a weaker claim would be a soundness bug, not a budget
/// artifact.
fn no_unsat_regression(before: &Outcome, after: &Outcome) -> bool {
    !matches!((before, after), (Outcome::Unsat, Outcome::DeltaSat(_)))
}

fn box_schedule(domain: &BoxDomain, depth: u32) -> Vec<BoxDomain> {
    let mut boxes = vec![domain.clone()];
    for _ in 0..depth {
        boxes = boxes.iter().flat_map(|b| b.split_all()).collect();
    }
    boxes
}

fn json_mode(m: &ModeResult) -> String {
    format!(
        "{{\"nodes\": {}, \"unsat\": {}, \"delta_sat\": {}, \"timeouts\": {}, \
         \"wall_ms\": {:.3}, \"knodes_per_sec\": {:.1}}}",
        m.nodes,
        m.unsat,
        m.delta_sat,
        m.timeout,
        m.wall_s * 1e3,
        m.knodes_per_sec()
    )
}

/// The verification-service benchmark: the pinned extended matrix (45
/// applicable of 49 cells) asked of an in-process `xcv-serve` daemon cold,
/// then again warm. The warm pass must answer every applicable pair from
/// the level-2 result cache (zero solves), with a flat process-global
/// tape-compile counter, and with marks identical to an in-process
/// [`Campaign`] over the same matrix under the same flat config — the
/// service is pure speed, never a different answer. Returns the `service`
/// JSON entry for the benchmark snapshot.
fn service_bench(nodes: u64) -> String {
    use xcv_serve::{Client, Event, Policy, Server, ServerConfig, VerifyRequest};
    let registry = Registry::extended();
    // The daemon derives its VerifierConfig (and cache keys) from this
    // policy; the in-process reference campaign runs the same one.
    let policy = Policy::Flat {
        delta: 1e-3,
        max_nodes: nodes,
        split_threshold: 0.625,
        max_depth: 2,
    };
    let reference = Campaign::builder()
        .registry(&registry)
        .config_policy(move |f, _| policy.verifier_config(f))
        .build()
        .expect("registry is non-empty")
        .run();
    let mut reference_marks: Vec<(String, String, xcv_core::TableMark)> = reference
        .pairs
        .iter()
        .map(|p| (p.functional_name(), p.condition.id().to_string(), p.mark))
        .collect();
    reference_marks.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));

    let mut server = Server::spawn(ServerConfig::default()).expect("bind an ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connect to in-process daemon");
    let request = VerifyRequest {
        functionals: registry.names().iter().map(|n| n.to_string()).collect(),
        conditions: Vec::new(), // all seven
        policy,
    };
    let pass = |client: &mut Client| {
        let mut marks = Vec::new();
        let t0 = Instant::now();
        let done = client
            .verify(&request, |e| {
                if let Event::Pair {
                    functional,
                    condition,
                    mark,
                    ..
                } = e
                {
                    marks.push((functional.clone(), condition.id().to_string(), *mark));
                }
            })
            .expect("service verify");
        let wall_s = t0.elapsed().as_secs_f64();
        marks.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        (wall_s, done, marks)
    };
    let (cold_s, cold, cold_marks) = pass(&mut client);
    let (warm_s, warm, warm_marks) = pass(&mut client);
    server.shutdown();

    // Hard identities: the service changes wall-clock, never marks.
    assert_eq!(
        cold_marks, reference_marks,
        "service cold marks diverged from the in-process campaign"
    );
    assert_eq!(warm_marks, cold_marks, "warm marks diverged from cold");
    assert_eq!(warm.solved, 0, "warm pass re-solved a cached pair");
    let compile_delta = warm.compile_count - cold.compile_count;
    assert_eq!(compile_delta, 0, "warm pass compiled a tape");
    let applicable = cold.cached + cold.solved;
    let speedup = cold_s / warm_s.max(1e-6);
    println!(
        "service: {} cells ({} applicable), cold {:.0} ms, warm {:.3} ms ({:.0}x), \
         warm cached {}/{}, warm l1 {}/{} hit, compile delta {}",
        cold.pairs,
        applicable,
        cold_s * 1e3,
        warm_s * 1e3,
        speedup,
        warm.cached,
        applicable,
        warm.l1_hits,
        warm.l1_hits + warm.l1_misses,
        compile_delta,
    );
    format!(
        "{{\"pairs\": {}, \"applicable\": {}, \"cold_wall_ms\": {:.3}, \"warm_wall_ms\": {:.3}, \
         \"speedup\": {:.1}, \"cached_warm\": {}, \"l1_hits_warm\": {}, \"l1_misses_warm\": {}, \
         \"marks_identical\": true, \"compile_count_delta_warm\": {}}}",
        cold.pairs,
        applicable,
        cold_s * 1e3,
        warm_s * 1e3,
        speedup,
        warm.cached,
        warm.l1_hits,
        warm.l1_misses,
        compile_delta,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_opts(&args);
    if opts.service_only {
        service_bench(opts.nodes);
        return;
    }
    let problems = if opts.spin {
        Encoder::encode_all_spin()
    } else if opts.extended {
        Encoder::encode_all_extended()
    } else {
        Encoder::encode_all()
    };
    let solver = DeltaSolver::new(1e-3, SolveBudget::nodes(opts.nodes));
    // Rung 1 (Newton only) exists solely to attribute the timeout
    // trajectory per rung.
    let rung1_solver = solver.clone().with_escalation(Escalation::Newton);
    let ladder_solver = solver.clone().with_escalation(Escalation::Full);
    println!(
        "== solver_bench: {} pairs, split depth {}, {} nodes/box ==",
        problems.len(),
        opts.depth,
        opts.nodes,
    );
    println!(
        "{:<12} {:<28} {:>5} {:>10} {:>10} {:>10} {:>10} {:>9} {:>7}",
        "functional",
        "condition",
        "boxes",
        "sess kn/s",
        "rcmp kn/s",
        "seed kn/s",
        "ladd kn/s",
        "vs seed",
        "t.o. -"
    );
    let mut records = Vec::new();
    let mut totals = [ModeResult::default(); 4];
    let mut rung1_timeouts = 0u64;
    let mut resolved_timeouts = 0u64;
    let mut regressed_timeouts = 0u64;
    let mut strengthened_decisions = 0u64;
    for p in &problems {
        let boxes = box_schedule(&p.domain, opts.depth);
        // Session mode: the problem's compiled formula + one scratch, shared
        // across the schedule (one warm box first so lazy state and code
        // paths are faulted in evenly across modes).
        let mut scratch = SolveScratch::new();
        let _ = solver.solve_compiled(&boxes[0], p.compiled(), &mut scratch);
        let mut session = ModeResult::default();
        let mut session_outcomes = Vec::with_capacity(boxes.len());
        let t0 = Instant::now();
        for b in &boxes {
            let (outcome, stats) = solver.solve_compiled_with_stats(b, p.compiled(), &mut scratch);
            session.nodes += stats.nodes;
            session.absorb_outcome(&outcome);
            session_outcomes.push(outcome);
        }
        session.wall_s = t0.elapsed().as_secs_f64();
        // Recompile mode: same tapes, compiled per call.
        let mut recompile = ModeResult::default();
        let t0 = Instant::now();
        for b in &boxes {
            let (outcome, stats) = solver.solve_with_stats(b, p.negation());
            recompile.nodes += stats.nodes;
            recompile.absorb_outcome(&outcome);
        }
        recompile.wall_s = t0.elapsed().as_secs_f64();
        // Seed mode: the vendored original architecture.
        let mut seed = ModeResult::default();
        let t0 = Instant::now();
        for b in &boxes {
            let (outcome, stats) = seed_solve_with_stats(&solver, b, p.negation());
            seed.nodes += stats.nodes;
            seed.absorb_outcome(&outcome);
        }
        seed.wall_s = t0.elapsed().as_secs_f64();
        // Ladder mode: the session with the full escalation ladder.
        // Per box the outcome may cross the Timeout boundary either way and
        // may strengthen a spurious δ-sat into Unsat, but must never
        // regress an Unsat proof (see [`no_unsat_regression`]).
        let _ = ladder_solver.solve_compiled(&boxes[0], p.compiled(), &mut scratch);
        let mut ladder = ModeResult::default();
        let t0 = Instant::now();
        for (b, before) in boxes.iter().zip(&session_outcomes) {
            let (outcome, stats) =
                ladder_solver.solve_compiled_with_stats(b, p.compiled(), &mut scratch);
            ladder.nodes += stats.nodes;
            ladder.absorb_outcome(&outcome);
            assert!(
                no_unsat_regression(before, &outcome),
                "ladder regressed an Unsat proof on {} / {}: {:?} -> {:?}",
                p.functional_name(),
                p.condition.name(),
                before,
                outcome
            );
            match (before, &outcome) {
                (Outcome::Timeout, o) if *o != Outcome::Timeout => resolved_timeouts += 1,
                (b, Outcome::Timeout) if *b != Outcome::Timeout => regressed_timeouts += 1,
                (Outcome::DeltaSat(_), Outcome::Unsat) => strengthened_decisions += 1,
                _ => {}
            }
        }
        ladder.wall_s = t0.elapsed().as_secs_f64();
        // Rung-1 stop (Newton only, no 3B shaving): untabulated, it exists
        // to attribute the timeout trajectory to the individual rungs.
        for (b, before) in boxes.iter().zip(&session_outcomes) {
            let (outcome, _) =
                rung1_solver.solve_compiled_with_stats(b, p.compiled(), &mut scratch);
            assert!(
                no_unsat_regression(before, &outcome),
                "rung-1 ladder regressed an Unsat proof on {} / {}: {:?} -> {:?}",
                p.functional_name(),
                p.condition.name(),
                before,
                outcome
            );
            if outcome == Outcome::Timeout {
                rung1_timeouts += 1;
            }
        }
        // Both compiled modes run the same deterministic search under a
        // pure node budget: any divergence is a correctness bug, not a
        // benchmark artifact.
        let counts = |m: &ModeResult| (m.unsat, m.delta_sat, m.timeout);
        assert_eq!(
            counts(&session),
            counts(&recompile),
            "session and recompile outcomes diverged on {} / {}",
            p.functional_name(),
            p.condition.name()
        );
        // The vendored seed always bisects the globally widest axis; the
        // current solver deliberately never splits axes the formula does
        // not mention, so a pair whose atom leaves some axis untouched
        // (several ζ-resolved cells) legitimately decides cells the seed
        // burns its budget splitting. Tally identity with the seed is only
        // asserted where the policies coincide — full support.
        let full_support = (0..p.domain.ndim()).all(|i| p.compiled().supports_axis(i));
        if full_support {
            assert_eq!(
                counts(&session),
                counts(&seed),
                "session and seed outcomes diverged on {} / {}",
                p.functional_name(),
                p.condition.name()
            );
        }
        let vs_seed = seed.wall_s / session.wall_s.max(1e-12);
        let vs_recompile = recompile.wall_s / session.wall_s.max(1e-12);
        println!(
            "{:<12} {:<28} {:>5} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>8.2}x {:>7}",
            p.functional_name(),
            p.condition.name(),
            boxes.len(),
            session.knodes_per_sec(),
            recompile.knodes_per_sec(),
            seed.knodes_per_sec(),
            ladder.knodes_per_sec(),
            vs_seed,
            session.timeout as i64 - ladder.timeout as i64
        );
        let mut rec = String::new();
        let _ = write!(
            rec,
            "    {{\"functional\": \"{}\", \"condition\": \"{}\", \"boxes\": {}, \
             \"session\": {}, \"recompile\": {}, \"seed\": {}, \"ladder\": {}, \
             \"speedup_vs_seed\": {:.2}, \"speedup_vs_recompile\": {:.2}}}",
            p.functional_name(),
            p.condition.name(),
            boxes.len(),
            json_mode(&session),
            json_mode(&recompile),
            json_mode(&seed),
            json_mode(&ladder),
            vs_seed,
            vs_recompile,
        );
        records.push(rec);
        for (t, m) in totals.iter_mut().zip([session, recompile, seed, ladder]) {
            t.nodes += m.nodes;
            t.unsat += m.unsat;
            t.delta_sat += m.delta_sat;
            t.timeout += m.timeout;
            t.wall_s += m.wall_s;
        }
    }
    let [total_session, total_recompile, total_seed, total_ladder] = totals;
    let total_vs_seed = total_seed.wall_s / total_session.wall_s.max(1e-12);
    println!(
        "ladder: timeouts {} -> {} (rung 1) -> {} (full); {} resolved, {} re-opened \
         (spurious rung-0 delta-sat), {} strengthened (delta-sat -> unsat), 0 unsat \
         regressions; wall {:.0} ms vs session {:.0} ms",
        total_session.timeout,
        rung1_timeouts,
        total_ladder.timeout,
        resolved_timeouts,
        regressed_timeouts,
        strengthened_decisions,
        total_ladder.wall_s * 1e3,
        total_session.wall_s * 1e3,
    );
    println!(
        "total: session {:.1} knodes/s ({:.0} ms), recompile {:.1} knodes/s ({:.0} ms), seed \
         {:.1} knodes/s ({:.0} ms) => {:.2}x vs seed",
        total_session.knodes_per_sec(),
        total_session.wall_s * 1e3,
        total_recompile.knodes_per_sec(),
        total_recompile.wall_s * 1e3,
        total_seed.knodes_per_sec(),
        total_seed.wall_s * 1e3,
        total_vs_seed,
    );
    // The service benchmark runs last: it spins its own in-process daemon
    // and is independent of the per-box modes above.
    let service_json = service_bench(opts.nodes);
    let json = format!(
        "{{\n  \"schema\": \"xcv-bench-solver/v9\",\n  \"config\": {{\"nodes_per_box\": {}, \
         \"split_depth\": {}, \"delta\": 1e-3, \"pairs\": {}}},\n  \"total\": {{\"session\": {}, \
         \"recompile\": {}, \"seed\": {}, \"ladder\": {}, \"speedup_vs_seed\": {:.2}}},\n  \
         \"ladder\": {{\"escalation\": \"full\", \"wall_ms\": {:.3}, \
         \"session_wall_ms\": {:.3}, \"timeouts\": [{}, {}, {}], \"resolved_timeouts\": {}, \
         \"regressed_timeouts\": {}, \"strengthened_decisions\": {}, \
         \"unsat_regressions\": 0}},\n  \"service\": {},\n  \"pairs\": [\n{}\n  ]\n}}\n",
        opts.nodes,
        opts.depth,
        problems.len(),
        json_mode(&total_session),
        json_mode(&total_recompile),
        json_mode(&total_seed),
        json_mode(&total_ladder),
        total_vs_seed,
        total_ladder.wall_s * 1e3,
        total_session.wall_s * 1e3,
        total_session.timeout,
        rung1_timeouts,
        total_ladder.timeout,
        resolved_timeouts,
        regressed_timeouts,
        strengthened_decisions,
        service_json,
        records.join(",\n")
    );
    std::fs::write(&opts.out, json).expect("write bench json");
    println!("wrote {}", opts.out);
}
