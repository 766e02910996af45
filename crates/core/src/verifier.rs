//! Algorithm 1: the recursive domain-splitting verifier.
//!
//! The recursion solves `φ_D ∧ ¬ψ` on every sub-box, but never compiles
//! anything: the [`EncodedProblem`] carries the formula pre-compiled (one
//! [`xcv_solver::CompiledFormula`] per problem, built at encode time) and
//! each worker thread keeps one lazily-grown [`xcv_solver::SolveScratch`] in
//! a `thread_local`, reused across every box — and every problem — that
//! thread ever touches.

use crate::campaign::CancelToken;
use crate::encoder::EncodedProblem;
use crate::region::{Region, RegionMap, RegionStatus};
use rayon::prelude::*;
use std::cell::RefCell;
use std::time::Instant;
use xcv_solver::{BoxDomain, DeltaSolver, Outcome, SolveScratch, SolveStats, SolveTrace};

thread_local! {
    /// Per-worker solver scratch. Buffers grow to the largest problem the
    /// thread has seen and are reused verbatim afterwards.
    static SCRATCH: RefCell<SolveScratch> = RefCell::new(SolveScratch::new());
}

/// Configuration of the verifier.
#[derive(Clone, Debug)]
pub struct VerifierConfig {
    /// The recursion floor `t` on sub-domain width (the paper used 0.05).
    pub split_threshold: f64,
    /// The δ-complete solver (δ and per-box budget).
    pub solver: DeltaSolver,
    /// Fan the recursion out over rayon's thread pool.
    pub parallel: bool,
    /// How deep into the recursion new rayon tasks are spawned (when
    /// `parallel` is set): levels with `depth <= parallel_depth` fan out
    /// across the pool, deeper sub-boxes run sequentially on the worker
    /// that produced them. With `split_all` producing 2^ndim children per
    /// level, the first few levels already saturate the machine, and
    /// deeper spawning only adds scheduling overhead.
    pub parallel_depth: u32,
    /// Cap on the recursion depth (safety net; the width floor normally
    /// terminates first).
    pub max_depth: u32,
    /// Total wall-clock deadline for one `verify` call, in milliseconds.
    /// Boxes reached after the deadline are recorded as `Timeout` without
    /// solving (the whole-run analogue of the paper's per-call dReal limit).
    pub pair_deadline_ms: Option<u64>,
}

impl Default for VerifierConfig {
    fn default() -> Self {
        VerifierConfig {
            split_threshold: 0.05,
            solver: DeltaSolver::default(),
            parallel: true,
            parallel_depth: 3,
            max_depth: 12,
            pair_deadline_ms: None,
        }
    }
}

impl VerifierConfig {
    /// A stable 64-bit fingerprint of every field that can change a run's
    /// *verdict or coverage*: the recursion floor, depth cap, pair
    /// deadline, and the full [`DeltaSolver::fingerprint`]. `parallel` /
    /// `parallel_depth` are deliberately excluded — they re-order work
    /// without changing any region or mark, and a memoized result must
    /// stay valid across machines with different core counts.
    pub fn fingerprint(&self) -> u64 {
        // Destructured without `..`: a new field does not compile until it
        // is hashed here or named below as one that cannot change a mark.
        let VerifierConfig {
            split_threshold,
            solver,
            parallel: _,
            parallel_depth: _,
            max_depth,
            pair_deadline_ms,
        } = self;
        let mut h = crate::cache::fnv1a_str("xcv-verifier-config/v1");
        let mut eat = |v: u64| h = crate::cache::fnv1a(h, &v.to_le_bytes());
        eat(split_threshold.to_bits());
        eat((*max_depth).into());
        match *pair_deadline_ms {
            None => eat(u64::MAX),
            Some(ms) => {
                eat(0);
                eat(ms);
            }
        }
        eat(solver.fingerprint());
        h
    }
}

/// Per-call options for [`Verifier::verify_run`] — everything about *one*
/// run that is not verifier configuration: cooperative cancellation,
/// certificate trace recording, and the depth offset used when a
/// checkpointed campaign resumes a subtree in place.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Checked at every recursion step: once it fires (by hand or at its
    /// deadline), unexamined boxes are recorded as
    /// [`RegionStatus::Cancelled`] leaves (resumable later) instead of
    /// being solved. The default token never fires.
    pub cancel: CancelToken,
    /// Record a [`SolveTrace`] for every `Verified` leaf — the raw
    /// material for `xcv-cert` proof certificates.
    pub record_traces: bool,
    /// Recursion depth the root box is considered to be at. A resumed
    /// `Cancelled` leaf re-verified with its recorded depth sees the exact
    /// `max_depth`/`split_threshold` horizon of the uninterrupted run.
    pub base_depth: u32,
}

/// Extra per-region data from [`Verifier::verify_run`], index-aligned with
/// [`RegionMap::regions`].
#[derive(Clone, Debug)]
pub struct RegionDetail {
    /// Recursion depth at which the region became a leaf.
    pub depth: u32,
    /// The solver trace (only on `Verified` leaves, only when
    /// [`RunOptions::record_traces`] was set).
    pub trace: Option<SolveTrace>,
}

/// The result of [`Verifier::verify_run`].
#[derive(Clone, Debug)]
pub struct RunOutput {
    pub map: RegionMap,
    pub stats: SolveStats,
    /// One entry per region of `map`, same order.
    pub details: Vec<RegionDetail>,
}

/// The VERIFIER component of XCVerifier (Algorithm 1).
#[derive(Clone, Debug, Default)]
pub struct Verifier {
    pub config: VerifierConfig,
}

impl Verifier {
    pub fn new(config: VerifierConfig) -> Self {
        Verifier { config }
    }

    /// Verify an encoded problem over its own PB domain.
    pub fn verify(&self, problem: &EncodedProblem) -> RegionMap {
        self.verify_with_stats(problem).0
    }

    /// [`Verifier::verify`] returning the solver statistics aggregated over
    /// the whole box tree (nodes explored, prunes, branches, max depth) —
    /// the raw material for throughput reporting.
    pub fn verify_with_stats(&self, problem: &EncodedProblem) -> (RegionMap, SolveStats) {
        let out = self.verify_run(&problem.domain, problem, &RunOptions::default());
        (out.map, out.stats)
    }

    /// The fully-general entry point: verify `problem` over `domain` with
    /// cancellation, trace recording, and a depth offset (see
    /// [`RunOptions`]). All other `verify*` methods are sugar over this.
    pub fn verify_run(
        &self,
        domain: &BoxDomain,
        problem: &EncodedProblem,
        opts: &RunOptions,
    ) -> RunOutput {
        let start = Instant::now();
        let (leaves, stats) = self.go(domain, problem, opts.base_depth, start, opts);
        let (regions, details) = leaves.into_iter().unzip();
        RunOutput {
            map: RegionMap::new(domain.clone(), regions),
            stats,
            details,
        }
    }

    fn past_deadline(&self, start: Instant) -> bool {
        // Compare in u128: `as_millis() as u64` would wrap after ~585 My of
        // elapsed time, but more importantly truncating the comparison width
        // invites silent bugs if the deadline type ever widens.
        self.config
            .pair_deadline_ms
            .is_some_and(|ms| start.elapsed().as_millis() > u128::from(ms))
    }

    /// One step of Algorithm 1 on box `d`:
    ///
    /// * solve `φ_D ∧ ¬ψ` — `Unsat` verifies the box outright;
    /// * `δ-SAT` with a model that exactly violates `ψ` is a counterexample,
    ///   an invalid model is inconclusive; a timeout is recorded;
    /// * on everything but `Unsat`, split every dimension (`split(D)`) and
    ///   recurse until the width floor `t`, isolating the violating regions.
    fn go(
        &self,
        d: &BoxDomain,
        problem: &EncodedProblem,
        depth: u32,
        start: Instant,
        opts: &RunOptions,
    ) -> (Vec<(Region, RegionDetail)>, SolveStats) {
        let mut stats = SolveStats::default();
        let leaf = |status: RegionStatus, trace: Option<SolveTrace>| {
            vec![(
                Region {
                    domain: d.clone(),
                    status,
                },
                RegionDetail { depth, trace },
            )]
        };
        if opts.cancel.is_cancelled() {
            return (leaf(RegionStatus::Cancelled, None), stats);
        }
        if self.past_deadline(start) {
            return (leaf(RegionStatus::Timeout, None), stats);
        }
        // Solve against the pre-compiled problem with this worker's scratch.
        // The borrow is scoped: it ends before the recursion below fans out
        // (children solved on this thread reuse the same scratch).
        let (status, trace) = SCRATCH.with(|s| {
            let mut scratch = s.borrow_mut();
            let run = |solver: &DeltaSolver,
                       scratch: &mut SolveScratch|
             -> (Outcome, SolveStats, Option<SolveTrace>) {
                if opts.record_traces {
                    let (o, bs, t) = solver.solve_compiled_traced(d, problem.compiled(), scratch);
                    (o, bs, Some(t))
                } else {
                    let (o, bs) = solver.solve_compiled_with_stats(d, problem.compiled(), scratch);
                    (o, bs, None)
                }
            };
            // The escalation ladder runs as a *retry*: the primary solve is
            // always the plain rung-0 engine, and only a box that exhausts
            // its budget is re-solved with the contractors armed. Decided
            // boxes keep their rung-0 outcome bit for bit, so arming the
            // ladder can only turn timeouts into decisions — a pair's table
            // mark never regresses.
            let esc = self.config.solver.escalation;
            let mut solver = self.config.solver.clone();
            solver.escalation = xcv_solver::Escalation::off();
            let (mut outcome, box_stats, mut trace) = run(&solver, &mut scratch);
            stats.absorb(box_stats);
            if esc.max_rung > 0 && matches!(outcome, Outcome::Timeout) && !self.past_deadline(start)
            {
                solver.escalation = esc;
                let (o, bs, t) = run(&solver, &mut scratch);
                stats.absorb(bs);
                outcome = o;
                trace = t;
            }
            match outcome {
                // The trace only certifies Unsat leaves; drop it elsewhere.
                Outcome::Unsat => (RegionStatus::Verified, trace),
                Outcome::DeltaSat(model) => {
                    // valid(x): does the model *exactly* violate ψ?
                    if !problem
                        .psi_compiled()
                        .holds_at_with(&model, scratch.f64_buf())
                    {
                        (RegionStatus::Counterexample(model), None)
                    } else {
                        (RegionStatus::Inconclusive, None)
                    }
                }
                Outcome::Timeout => (RegionStatus::Timeout, None),
            }
        });
        // Verified boxes are final; others split until the width floor.
        let can_split =
            d.max_width() / 2.0 >= self.config.split_threshold && depth < self.config.max_depth;
        if matches!(status, RegionStatus::Verified) || !can_split {
            return (leaf(status, trace), stats);
        }
        let children = d.split_all();
        let (regions, child_stats) = if self.config.parallel && depth <= self.config.parallel_depth
        {
            children
                .par_iter()
                .map(|c| self.go(c, problem, depth + 1, start, opts))
                .reduce(
                    || (Vec::new(), SolveStats::default()),
                    |(mut a, mut sa), (mut b, sb)| {
                        a.append(&mut b);
                        sa.absorb(sb);
                        (a, sa)
                    },
                )
        } else {
            let mut out = Vec::new();
            let mut acc = SolveStats::default();
            for c in &children {
                let (r, s) = self.go(c, problem, depth + 1, start, opts);
                out.extend(r);
                acc.absorb(s);
            }
            (out, acc)
        };
        stats.absorb(child_stats);
        (regions, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use crate::region::TableMark;
    use xcv_conditions::Condition;
    use xcv_functionals::Dfa;
    use xcv_solver::SolveBudget;

    fn quick_verifier(budget_nodes: u64) -> Verifier {
        Verifier::new(VerifierConfig {
            split_threshold: 0.6, // coarse for test speed
            solver: DeltaSolver::new(1e-3, SolveBudget::nodes(budget_nodes)),
            parallel: false,
            parallel_depth: 3,
            max_depth: 6,
            pair_deadline_ms: None,
        })
    }

    #[test]
    fn fingerprint_covers_exactly_the_mark_changing_fields() {
        let base = quick_verifier(800).config;
        let fp = base.fingerprint();
        // The parallelism knobs only re-order work, so they must not move
        // the fingerprint.
        type Change = (&'static str, bool, fn(&mut VerifierConfig));
        let changes: [Change; 6] = [
            ("split_threshold", true, |c| c.split_threshold = 0.3),
            ("max_depth", true, |c| c.max_depth = 7),
            ("pair_deadline_ms", true, |c| c.pair_deadline_ms = Some(400)),
            ("solver", true, |c| c.solver.delta = 2e-3),
            ("parallel", false, |c| c.parallel = !c.parallel),
            ("parallel_depth", false, |c| c.parallel_depth = 5),
        ];
        for (field, hashed, change) in changes {
            let mut changed = base.clone();
            change(&mut changed);
            assert_eq!(changed.fingerprint() != fp, hashed, "{field}");
        }
        let deadline = |ms| VerifierConfig {
            pair_deadline_ms: Some(ms),
            ..base.clone()
        };
        assert_ne!(deadline(400).fingerprint(), deadline(401).fingerprint());
    }

    #[test]
    fn vwn_ec1_fully_verified() {
        let p = Encoder::encode(Dfa::VwnRpa, Condition::EcNonPositivity).unwrap();
        let map = quick_verifier(50_000).verify(&p);
        assert_eq!(map.table_mark(), TableMark::Verified);
    }

    #[test]
    fn lyp_ec1_counterexample_found() {
        let p = Encoder::encode(Dfa::Lyp, Condition::EcNonPositivity).unwrap();
        let map = quick_verifier(50_000).verify(&p);
        assert_eq!(map.table_mark(), TableMark::Counterexample);
        // Every witness must exactly violate ψ and lie at large s.
        for ce in map.counterexamples() {
            assert!(!p.psi().holds_at(ce), "witness must violate the condition");
            assert!(ce[1] > 1.0, "LYP EC1 violations live at large s: {ce:?}");
        }
    }

    #[test]
    fn zero_budget_times_out_everywhere() {
        let p = Encoder::encode(Dfa::VwnRpa, Condition::EcNonPositivity).unwrap();
        let v = Verifier::new(VerifierConfig {
            split_threshold: 2.0,
            solver: DeltaSolver::new(1e-3, SolveBudget::nodes(0)),
            parallel: false,
            parallel_depth: 3,
            max_depth: 3,
            pair_deadline_ms: None,
        });
        let map = v.verify(&p);
        assert_eq!(map.table_mark(), TableMark::Unknown);
        assert!(map
            .regions
            .iter()
            .all(|r| matches!(r.status, RegionStatus::Timeout)));
    }

    #[test]
    fn region_map_partitions_domain() {
        let p = Encoder::encode(Dfa::Lyp, Condition::EcNonPositivity).unwrap();
        let map = quick_verifier(20_000).verify(&p);
        assert!(map.covers_probe_grid(6), "region map must cover the domain");
    }

    #[test]
    fn parallel_and_sequential_agree_on_mark() {
        let p = Encoder::encode(Dfa::VwnRpa, Condition::EcScaling).unwrap();
        let seq = quick_verifier(50_000).verify(&p);
        let mut cfg = quick_verifier(50_000).config;
        cfg.parallel = true;
        let par = Verifier::new(cfg).verify(&p);
        assert_eq!(seq.table_mark(), par.table_mark());
    }

    #[test]
    fn pair_deadline_caps_work() {
        // A 1 ms pair deadline must leave most of a hard problem undecided,
        // quickly, while keeping the region map a partition.
        let p = Encoder::encode(Dfa::Scan, Condition::UcMonotonicity).unwrap();
        let v = Verifier::new(VerifierConfig {
            split_threshold: 0.3,
            solver: DeltaSolver::new(1e-3, SolveBudget::nodes(1_000)),
            parallel: false,
            parallel_depth: 3,
            max_depth: 8,
            pair_deadline_ms: Some(1),
        });
        let t0 = std::time::Instant::now();
        let map = v.verify(&p);
        assert!(t0.elapsed().as_secs() < 30);
        assert!(map.covers_probe_grid(4));
    }

    #[test]
    fn stats_aggregate_across_the_tree() {
        let p = Encoder::encode(Dfa::Lyp, Condition::EcNonPositivity).unwrap();
        let (map, stats) = quick_verifier(20_000).verify_with_stats(&p);
        assert!(map.regions.len() > 1, "recursion must have split");
        assert!(
            stats.nodes >= map.regions.len() as u64,
            "every region solved at least one box: {stats:?}"
        );
        // The compile-once invariant itself (counter flat across verify) is
        // asserted in the dedicated `tests/compile_once.rs` binary, where no
        // concurrent test compiles formulas under our feet.
    }

    #[test]
    fn pbe_ec7_finds_upper_left_counterexample() {
        let p = Encoder::encode(Dfa::Pbe, Condition::ConjTcUpperBound).unwrap();
        let map = quick_verifier(30_000).verify(&p);
        assert_eq!(map.table_mark(), TableMark::Counterexample);
        let ces = map.counterexamples();
        assert!(!ces.is_empty());
        // Fig. 1f: violations in the small-rs / large-s corner.
        assert!(ces.iter().any(|c| c[0] < 2.5 && c[1] > 1.0), "{ces:?}");
    }
}
