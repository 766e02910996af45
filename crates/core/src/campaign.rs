//! The campaign engine: whole verification matrices as one scheduled,
//! budgeted, observable unit.
//!
//! The paper's headline artifact is not a single verdict but the Table I/II
//! *matrix* — every applicable (functional, condition) pair verified in one
//! run. [`Campaign`] makes that matrix a first-class value:
//!
//! * **building** — [`Campaign::builder`] takes any mix of registry handles
//!   (built-in `Dfa` variants, runtime-registered DSL functionals), a
//!   condition subset (default: all seven), and a [`VerifierConfig`];
//! * **scheduling** — every cell is encoded up front, then the cells are
//!   handed to rayon costliest-first by [`pair_cost`] (ties in matrix
//!   order). The pool's workers pull one cell at a time, so the order alone
//!   gives greedy longest-first scheduling: no cell waits behind another in
//!   a fixed share of the matrix. Every pair runs exactly the
//!   [`VerifierConfig`] its config policy returns;
//! * **stopping** — one [`CancelToken`] stops the campaign, from any thread
//!   or, built with [`CancelToken::until`], at a wall-clock deadline. Pairs
//!   not started are skipped and a running pair's unexamined boxes become
//!   [`RegionStatus::Cancelled`] leaves, so a cut pair is reported as
//!   [`SkipReason::Cancelled`], never as answered, and a checkpoint resumes
//!   it mid-tree;
//! * **observing** — [`CampaignEvent`]s stream through a callback (or the
//!   [`CampaignBuilder::event_channel`] convenience) as pairs start, finish,
//!   and produce counterexamples;
//! * **reporting** — the result is a structured [`CampaignReport`] that
//!   `xcv_report` renders directly into the paper's Tables I/II.

use crate::cache::ProblemCache;
use crate::certify::build_certificate;
use crate::checkpoint::{self, CheckpointCell, CheckpointRegion};
use crate::encoder::{EncodedProblem, Encoder};
use crate::region::{RegionMap, RegionStatus, TableMark};
use crate::verifier::{RegionDetail, RunOptions, RunOutput, Verifier, VerifierConfig};
use rayon::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xcv_cert::Certificate;
use xcv_conditions::Condition;
use xcv_functionals::{FunctionalHandle, IntoFunctional, Registry, XcvError};
use xcv_solver::SolveStats;

/// The campaign's one stop signal. Clone it, hand the clone to another
/// thread (or a ctrl-c handler), and call [`CancelToken::cancel`]; a token
/// built with [`CancelToken::until`] also fires by itself once its deadline
/// has passed. Either way, pairs that have not started are skipped and a
/// running pair's unexamined boxes become `Cancelled` leaves. The default
/// token never fires on its own.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that fires once `deadline` has passed (or when cancelled
    /// earlier).
    pub fn until(deadline: Instant) -> Self {
        CancelToken {
            cancelled: Arc::default(),
            deadline: Some(deadline),
        }
    }

    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Family size class of a cell's expression DAG (the static cost feature).
fn family_class(f: &dyn xcv_functionals::Functional) -> u64 {
    match f.info().family {
        xcv_functionals::Family::Lda => 1,
        xcv_functionals::Family::Gga => 4,
        xcv_functionals::Family::MetaGga => 16,
    }
}

/// Differentiation-depth class of the condition's encoded atom.
fn condition_class(condition: Condition) -> u64 {
    match condition {
        // F_c alone.
        Condition::EcNonPositivity => 1,
        // F_xc, no derivative.
        Condition::LiebOxfordExt => 2,
        // One rs-derivative.
        Condition::EcScaling | Condition::ConjTcUpperBound => 3,
        // One derivative plus the rs → ∞ substitution copy of F_c.
        Condition::TcUpperBound => 4,
        // F_xc plus a derivative.
        Condition::LiebOxford => 5,
        // Second derivative.
        Condition::UcMonotonicity => 6,
    }
}

/// The hand-weighted scheduler cost for one (functional, condition) cell:
/// split fan-out (`2^ndim` children per recursion level) × family
/// (expression size class) × condition class (differentiation depth of the
/// encoded atom). The absolute scale is meaningless — only ratios matter,
/// and only for ordering and shard ownership; the model never gates work.
/// It depends only on the matrix, so every process ranks cells alike.
pub fn pair_cost(f: &dyn xcv_functionals::Functional, condition: Condition) -> u64 {
    let fanout = 1u64 << f.var_space().ndim().min(8);
    family_class(f) * fanout * condition_class(condition)
}

/// One scheduled matrix cell: the functional and condition it stands for,
/// its modeled cost, and the encoded problem (or why it never encoded).
/// Problems sit behind `Arc` so an attached [`ProblemCache`] can share one
/// compiled instance across campaigns — which is why the cell keeps its own
/// handle: a cached problem may have been encoded for a content-identical
/// functional (BLYP's correlation-only cells are LYP's), so names, events,
/// checkpoint keys and config lookups come from the cell, never from
/// `EncodedProblem::functional`.
struct CampaignCell {
    functional: FunctionalHandle,
    condition: Condition,
    cost: u64,
    problem: Result<Arc<EncodedProblem>, SkipReason>,
}

/// Why a pair was not verified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkipReason {
    /// The condition does not apply to the functional (Table I's `−`).
    NotApplicable,
    /// Encoding failed for a reason *other* than inapplicability — e.g. a
    /// functional whose metadata claims an exchange part its
    /// implementation does not provide. The cell is undecided, and the
    /// defect is surfaced rather than rendered as a legitimate `−`.
    EncodeFailed,
    /// The campaign's [`CancelToken`] fired first — by hand or at its
    /// deadline — before the pair started, or mid-pair: the outcome's map
    /// then contains the [`RegionStatus::Cancelled`] leaves a checkpointed
    /// resume picks up from.
    Cancelled,
    /// A `--shard i/n` run assigned this cell to a different shard; merge
    /// the shard reports with [`CampaignReport::merge`].
    OtherShard,
}

/// Progress notifications streamed while a campaign runs. Delivered from
/// worker threads in completion order, not matrix order.
#[derive(Clone, Debug)]
pub enum CampaignEvent {
    PairStarted {
        functional: String,
        condition: Condition,
    },
    /// A δ-SAT model that exactly violates ψ was found for this pair. One
    /// event per (deduplicated) witness, emitted after the pair's
    /// verification completes and before its `PairFinished` — witnesses are
    /// not streamed mid-verify, so cancellation reacts at pair granularity.
    CounterexampleFound {
        functional: String,
        condition: Condition,
        witness: Vec<f64>,
    },
    PairFinished {
        functional: String,
        condition: Condition,
        mark: TableMark,
        wall_ms: u128,
    },
    PairSkipped {
        functional: String,
        condition: Condition,
        reason: SkipReason,
    },
}

/// Everything the campaign produced for one matrix cell.
#[derive(Clone, Debug)]
pub struct PairOutcome {
    pub functional: FunctionalHandle,
    pub condition: Condition,
    /// The Table I mark ([`TableMark::NotApplicable`] for `−` cells,
    /// [`TableMark::Unknown`] for pairs that never ran).
    pub mark: TableMark,
    /// The verifier's region map (absent for inapplicable or skipped pairs).
    pub map: Option<RegionMap>,
    pub wall_ms: u128,
    /// Set when the pair never ran — or, for [`SkipReason::Cancelled`]
    /// with a map present, ran partially (resumable from a checkpoint).
    pub skipped: Option<SkipReason>,
    /// The scheduler's modeled cost for this cell (see [`pair_cost`]).
    pub cost: u64,
    /// Aggregated solver statistics over the pair's whole box tree (absent
    /// when the pair never ran).
    pub stats: Option<SolveStats>,
    /// Recursion depth of each region of `map`, index-aligned with
    /// `map.regions` (absent when the pair never ran). Persisted in
    /// checkpoints so resumed leaves re-verify at their original depth.
    pub region_depths: Option<Vec<u32>>,
    /// The replayable proof certificate, when
    /// [`CampaignBuilder::emit_certificates`] was set and the run was
    /// replayable (complete HC4 traces, no cancellation).
    pub certificate: Option<Certificate>,
}

impl PairOutcome {
    pub fn functional_name(&self) -> String {
        self.functional.name()
    }
}

/// The structured result of a campaign run: one [`PairOutcome`] per matrix
/// cell, in functional-major (column-major) matrix order.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The functionals of the campaign, in builder order.
    pub functionals: Vec<FunctionalHandle>,
    /// The conditions of the campaign, in builder order.
    pub conditions: Vec<Condition>,
    pub pairs: Vec<PairOutcome>,
    /// Total campaign wall time.
    pub wall_ms: u128,
}

impl CampaignReport {
    /// The outcome for a cell, by functional name (case-insensitive).
    pub fn outcome(&self, functional: &str, condition: Condition) -> Option<&PairOutcome> {
        self.pairs.iter().find(|p| {
            p.condition == condition && p.functional.name().eq_ignore_ascii_case(functional)
        })
    }

    /// The Table I mark for a cell.
    pub fn mark(&self, functional: &str, condition: Condition) -> Option<TableMark> {
        self.outcome(functional, condition).map(|p| p.mark)
    }

    /// Pairs that actually encoded (inapplicable and encode-failed cells
    /// excluded).
    pub fn encoded_pairs(&self) -> usize {
        self.pairs
            .iter()
            .filter(|p| {
                !matches!(
                    p.skipped,
                    Some(SkipReason::NotApplicable | SkipReason::EncodeFailed)
                )
            })
            .count()
    }

    /// Count cells by mark predicate (for the paper's summary lines).
    pub fn count(&self, pred: impl Fn(TableMark) -> bool) -> usize {
        self.pairs.iter().filter(|p| pred(p.mark)).count()
    }

    /// All counterexample witnesses, as (functional name, condition, point).
    pub fn counterexamples(&self) -> Vec<(String, Condition, Vec<f64>)> {
        let mut out = Vec::new();
        for p in &self.pairs {
            if let Some(map) = &p.map {
                for ce in map.counterexamples() {
                    out.push((p.functional.name(), p.condition, ce.to_vec()));
                }
            }
        }
        out
    }

    /// The certificate file name for a cell (deterministic slug, shared by
    /// [`CampaignReport::write_certificates`] and the `xcverify` gate).
    pub fn certificate_file_name(functional: &str, condition: Condition) -> String {
        let slug = |s: &str| -> String {
            s.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect()
        };
        format!(
            "{}__{}.json",
            slug(functional),
            slug(&format!("{condition:?}"))
        )
    }

    /// Write every attached certificate (see
    /// [`CampaignBuilder::emit_certificates`]) into `dir`, one JSON file
    /// per certified pair, creating the directory. Returns the written
    /// paths in matrix order; each file replays standalone under
    /// `xcvcheck`.
    pub fn write_certificates(&self, dir: impl AsRef<Path>) -> std::io::Result<Vec<PathBuf>> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut out = Vec::new();
        for p in &self.pairs {
            if let Some(cert) = &p.certificate {
                let path = dir.join(Self::certificate_file_name(
                    &p.functional_name(),
                    p.condition,
                ));
                std::fs::write(&path, cert.to_json())?;
                out.push(path);
            }
        }
        Ok(out)
    }

    /// Merge the reports of a sharded campaign (each produced with
    /// [`CampaignBuilder::shard`] over the same matrix): for every cell the
    /// shard that *owned* it contributes its outcome, the
    /// [`SkipReason::OtherShard`] placeholders of the rest are discarded.
    /// Errors when the reports cover different matrices.
    pub fn merge(
        reports: impl IntoIterator<Item = CampaignReport>,
    ) -> Result<CampaignReport, String> {
        let mut iter = reports.into_iter();
        let mut base = iter.next().ok_or("no reports to merge")?;
        for other in iter {
            if other.pairs.len() != base.pairs.len() {
                return Err(format!(
                    "cannot merge: {} cells vs {}",
                    other.pairs.len(),
                    base.pairs.len()
                ));
            }
            for (a, b) in base.pairs.iter_mut().zip(other.pairs) {
                if a.functional.name() != b.functional.name() || a.condition != b.condition {
                    return Err(format!(
                        "cannot merge: cell {} / {:?} vs {} / {:?}",
                        a.functional.name(),
                        a.condition,
                        b.functional.name(),
                        b.condition
                    ));
                }
                if a.skipped == Some(SkipReason::OtherShard)
                    && b.skipped != Some(SkipReason::OtherShard)
                {
                    *a = b;
                }
            }
            base.wall_ms = base.wall_ms.max(other.wall_ms);
        }
        Ok(base)
    }
}

/// Cell indices costliest-first by [`pair_cost`], ties in matrix order: the
/// order a campaign dispatches its cells in, and the ranking its shards are
/// dealt from.
fn costliest_first(cells: &[CampaignCell]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cells.len()).collect();
    // A stable sort: equal costs keep matrix order.
    order.sort_by_key(|&i| std::cmp::Reverse(cells[i].cost));
    order
}

/// Deterministic LPT assignment of cells to `of` shards: in
/// [`costliest_first`] order, each cell goes to the least-loaded shard so
/// far (ties to the lowest shard index). [`pair_cost`] depends only on the
/// matrix, so every process computing this over the same matrix produces
/// the same assignment — the whole point: shards coordinate by
/// construction, not by communication. Cells that never encoded stay
/// unassigned; every shard reports those identically.
fn shard_assignment(cells: &[CampaignCell], of: usize) -> Vec<Option<usize>> {
    let mut loads = vec![0u64; of];
    let mut owner = vec![None; cells.len()];
    for i in costliest_first(cells) {
        if cells[i].problem.is_err() {
            continue;
        }
        let s = (0..of)
            .min_by_key(|&s| loads[s])
            .expect("at least one shard");
        owner[i] = Some(s);
        loads[s] += cells[i].cost;
    }
    owner
}

type EventCallback = Arc<dyn Fn(&CampaignEvent) + Send + Sync>;
type ConfigPolicy =
    Arc<dyn Fn(&dyn xcv_functionals::Functional, Condition) -> VerifierConfig + Send + Sync>;

/// Builder for [`Campaign`]; see the [crate documentation](crate).
pub struct CampaignBuilder {
    functionals: Vec<FunctionalHandle>,
    conditions: Vec<Condition>,
    config_policy: ConfigPolicy,
    problem_cache: Option<Arc<ProblemCache>>,
    emit_certificates: bool,
    checkpoint: Option<PathBuf>,
    shard: Option<(usize, usize)>,
    on_event: Vec<EventCallback>,
    cancel: CancelToken,
    fault_plan: Option<Arc<crate::fault::FaultPlan>>,
}

impl CampaignBuilder {
    /// Add functionals (any `impl IntoFunctional`: `Dfa` variants, handles).
    pub fn functionals<I, F>(mut self, fs: I) -> Self
    where
        I: IntoIterator<Item = F>,
        F: IntoFunctional,
    {
        self.functionals
            .extend(fs.into_iter().map(IntoFunctional::into_handle));
        self
    }

    /// Add one functional.
    pub fn functional(mut self, f: impl IntoFunctional) -> Self {
        self.functionals.push(f.into_handle());
        self
    }

    /// Add every functional of a registry, in registration order.
    pub fn registry(mut self, registry: &Registry) -> Self {
        self.functionals.extend(registry.iter().cloned());
        self
    }

    /// Restrict the conditions (default: all seven, Table I row order).
    pub fn conditions(mut self, cs: impl IntoIterator<Item = Condition>) -> Self {
        self.conditions = cs.into_iter().collect();
        self
    }

    /// The verifier configuration every pair runs with (per-pair deadline
    /// and escalation ladder included, via
    /// [`VerifierConfig::pair_deadline_ms`] and the solver's escalation).
    pub fn config(self, config: VerifierConfig) -> Self {
        self.config_policy(move |_, _| config.clone())
    }

    /// Derive the verifier configuration per pair instead of using one base
    /// config — e.g. coarser recursion floors for 3-D meta-GGA domains, the
    /// way the reproduction binary tunes per family. Each pair runs exactly
    /// the config this returns.
    pub fn config_policy(
        mut self,
        policy: impl Fn(&dyn xcv_functionals::Functional, Condition) -> VerifierConfig
            + Send
            + Sync
            + 'static,
    ) -> Self {
        self.config_policy = Arc::new(policy);
        self
    }

    /// Encode cells through a shared [`ProblemCache`] (level 1 of the
    /// verification service): pairs whose content key is already cached
    /// reuse the compiled problem instead of re-running encode + tape
    /// compilation. Attach the same `Arc` to successive campaigns to make
    /// repeat matrices encode-free (observable as a flat
    /// [`xcv_solver::compile_count`]).
    pub fn problem_cache(mut self, cache: Arc<ProblemCache>) -> Self {
        self.problem_cache = Some(cache);
        self
    }

    /// Record a solver trace for every verified leaf and attach a
    /// replayable [`Certificate`] to each completed pair (write them out
    /// with [`CampaignReport::write_certificates`]; audit with the
    /// standalone `xcvcheck` binary). Every certificate is replayed
    /// through `xcv_cert::check` before being attached.
    pub fn emit_certificates(mut self, on: bool) -> Self {
        self.emit_certificates = on;
        self
    }

    /// Persist a checkpoint at `path`, atomically rewritten after every
    /// pair. If the file already exists when the campaign runs, completed
    /// cells are restored without re-solving and interrupted cells (the
    /// `Cancelled` leaves a fired [`CancelToken`] left behind) are resumed in
    /// place — with a deterministic node-budgeted config, the resumed
    /// matrix reproduces the uninterrupted run's marks and aggregate
    /// statistics exactly.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Run only shard `index` of `of`: cells are dealt longest-first to the
    /// least-loaded shard by [`pair_cost`], which depends only on the
    /// matrix, so every process over the same matrix agrees on who owns
    /// what. Cells owned by other shards are reported as
    /// [`SkipReason::OtherShard`]; combine the per-shard reports with
    /// [`CampaignReport::merge`].
    ///
    /// # Panics
    /// When `index >= of` or `of == 0` (a caller bug, not a data error).
    pub fn shard(mut self, index: usize, of: usize) -> Self {
        assert!(of >= 1 && index < of, "shard {index}/{of} out of range");
        self.shard = Some((index, of));
        self
    }

    /// Stream events to a callback (may be called from worker threads;
    /// multiple callbacks compose).
    pub fn on_event(mut self, f: impl Fn(&CampaignEvent) + Send + Sync + 'static) -> Self {
        self.on_event.push(Arc::new(f));
        self
    }

    /// Convenience: stream events into an `mpsc` channel instead of (or in
    /// addition to) callbacks. Returns the receiving end.
    pub fn event_channel(self) -> (Self, mpsc::Receiver<CampaignEvent>) {
        let (tx, rx) = mpsc::channel();
        let tx = Mutex::new(tx);
        let b = self.on_event(move |e| {
            if let Ok(tx) = tx.lock() {
                let _ = tx.send(e.clone());
            }
        });
        (b, rx)
    }

    /// Attach the campaign's stop signal: a hand-cancelled token or a
    /// [`CancelToken::until`] deadline (see [`CancelToken`]).
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Attach a deterministic [`crate::fault::FaultPlan`] (test harness
    /// hook): a plan arming [`crate::fault::FaultSite::SolverPanic`] makes
    /// scheduled solves panic on the plan's schedule, exercising the
    /// serving layer's panic isolation. Without a plan (the default, and
    /// the only production configuration) nothing is injected.
    pub fn fault_plan(mut self, plan: Arc<crate::fault::FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Finish building. Fails with [`XcvError::UnknownFunctional`] when no
    /// functionals were supplied (an empty campaign is always a caller bug)
    /// and with [`XcvError::DuplicateFunctional`] on duplicate names —
    /// reports key cells by name, so aliased columns would be ambiguous.
    pub fn build(self) -> Result<Campaign, XcvError> {
        if self.functionals.is_empty() {
            return Err(XcvError::UnknownFunctional(
                "(campaign has no functionals)".into(),
            ));
        }
        let mut names: Vec<String> = self
            .functionals
            .iter()
            .map(|f| f.name().to_ascii_lowercase())
            .collect();
        names.sort();
        if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(XcvError::DuplicateFunctional(dup[0].clone()));
        }
        Ok(Campaign {
            functionals: self.functionals,
            conditions: self.conditions,
            config_policy: self.config_policy,
            problem_cache: self.problem_cache,
            emit_certificates: self.emit_certificates,
            checkpoint: self.checkpoint,
            shard: self.shard,
            on_event: self.on_event,
            cancel: self.cancel,
            fault_plan: self.fault_plan,
        })
    }
}

/// A verification campaign over a (functionals × conditions) matrix.
pub struct Campaign {
    functionals: Vec<FunctionalHandle>,
    conditions: Vec<Condition>,
    config_policy: ConfigPolicy,
    problem_cache: Option<Arc<ProblemCache>>,
    emit_certificates: bool,
    checkpoint: Option<PathBuf>,
    shard: Option<(usize, usize)>,
    on_event: Vec<EventCallback>,
    cancel: CancelToken,
    fault_plan: Option<Arc<crate::fault::FaultPlan>>,
}

impl Campaign {
    pub fn builder() -> CampaignBuilder {
        CampaignBuilder {
            functionals: Vec::new(),
            conditions: Condition::all().to_vec(),
            config_policy: Arc::new(|_, _| VerifierConfig::default()),
            problem_cache: None,
            emit_certificates: false,
            checkpoint: None,
            shard: None,
            on_event: Vec::new(),
            cancel: CancelToken::new(),
            fault_plan: None,
        }
    }

    fn emit(&self, event: CampaignEvent) {
        for cb in &self.on_event {
            cb(&event);
        }
    }

    /// Run the campaign: encode every cell, hand the cells to rayon
    /// costliest-first, and collect a [`CampaignReport`] — always in matrix
    /// order, whatever the execution order was.
    pub fn run(&self) -> CampaignReport {
        let start = Instant::now();
        // Encode the full matrix up front (cheap relative to solving): cells
        // are either an EncodedProblem or a skip outcome, each tagged with
        // its modeled scheduling cost.
        let cells: Vec<CampaignCell> = self
            .functionals
            .iter()
            .flat_map(|f| {
                self.conditions.iter().map(move |&cond| {
                    // An attached problem cache short-circuits encode + tape
                    // compilation for content-identical pairs; without one,
                    // encode fresh as before.
                    let problem = match &self.problem_cache {
                        Some(cache) => cache.encode(f, cond),
                        None => Encoder::encode(f, cond).map(Arc::new),
                    }
                    // A genuine `−` cell vs. a defective functional (e.g.
                    // metadata promises an exchange part the implementation
                    // lacks): the latter must not render as a legitimate
                    // "not applicable".
                    .map_err(|e| match e {
                        XcvError::NotApplicable { .. } => SkipReason::NotApplicable,
                        _ => SkipReason::EncodeFailed,
                    });
                    CampaignCell {
                        functional: Arc::clone(f),
                        condition: cond,
                        cost: pair_cost(f.as_ref(), cond),
                        problem,
                    }
                })
            })
            .collect();
        // Shard ownership: deterministic, communication-free (see
        // `shard_assignment`). `None` = single-process campaign.
        let owner: Option<Vec<Option<usize>>> =
            self.shard.map(|(_, of)| shard_assignment(&cells, of));
        // Checkpoint: restore what a previous (interrupted) run persisted,
        // and keep a live store rewritten after every pair. A truncated or
        // unparseable checkpoint is quarantined (renamed `*.bad`) and the
        // campaign recomputes from scratch — corruption may cost work,
        // never correctness and never a crash.
        let restored: HashMap<(String, Condition), CheckpointCell> = self
            .checkpoint
            .as_deref()
            .filter(|p| p.exists())
            .and_then(|p| match checkpoint::load(p) {
                Ok(cs) => Some(cs),
                Err(e) => {
                    match xcv_cert::store::quarantine(p) {
                        Ok(dest) => eprintln!(
                            "xcv: corrupt checkpoint {} ({e}); quarantined to {} and recomputing",
                            p.display(),
                            dest.display()
                        ),
                        Err(io) => eprintln!(
                            "xcv: corrupt checkpoint {} ({e}); quarantine failed ({io}), recomputing",
                            p.display()
                        ),
                    }
                    None
                }
            })
            .map(|cs| {
                cs.into_iter()
                    .map(|c| ((c.functional.to_ascii_lowercase(), c.condition), c))
                    .collect()
            })
            .unwrap_or_default();
        let store: Option<Mutex<HashMap<(String, Condition), CheckpointCell>>> = self
            .checkpoint
            .as_ref()
            .map(|_| Mutex::new(restored.clone()));
        // Schedule: one rayon task per cell, costliest first. The pool's
        // workers pull cells one at a time, so the longest cells start
        // first and the cheap ones fill in behind them. The verifier's own
        // recursion fans out further below parallel_depth, so the pool
        // stays busy even for campaigns smaller than the machine.
        let mut indexed: Vec<(usize, PairOutcome)> = costliest_first(&cells)
            .par_iter()
            .map(|&i| {
                let cell = &cells[i];
                let outcome = match &cell.problem {
                    Err(reason) => self.skip(cell, *reason),
                    Ok(problem) => {
                        let not_mine = match (self.shard, owner.as_ref()) {
                            (Some((mine, _)), Some(own)) => own[i] != Some(mine),
                            _ => false,
                        };
                        if not_mine {
                            self.skip(cell, SkipReason::OtherShard)
                        } else {
                            let key = (cell.functional.name().to_ascii_lowercase(), cell.condition);
                            let out = self.run_pair(cell, problem, restored.get(&key));
                            self.persist(&out, store.as_ref(), key);
                            out
                        }
                    }
                };
                (i, outcome)
            })
            .collect();
        indexed.sort_by_key(|&(i, _)| i);
        let pairs: Vec<PairOutcome> = indexed.into_iter().map(|(_, p)| p).collect();
        CampaignReport {
            functionals: self.functionals.clone(),
            conditions: self.conditions.clone(),
            pairs,
            wall_ms: start.elapsed().as_millis(),
        }
    }

    /// Report a cell that does not run: emit its `PairSkipped` event and
    /// return its outcome (`−` for inapplicable cells, `?` otherwise).
    fn skip(&self, cell: &CampaignCell, reason: SkipReason) -> PairOutcome {
        self.emit(CampaignEvent::PairSkipped {
            functional: cell.functional.name(),
            condition: cell.condition,
            reason,
        });
        PairOutcome {
            functional: Arc::clone(&cell.functional),
            condition: cell.condition,
            mark: match reason {
                SkipReason::NotApplicable => TableMark::NotApplicable,
                _ => TableMark::Unknown,
            },
            map: None,
            wall_ms: 0,
            skipped: Some(reason),
            cost: cell.cost,
            stats: None,
            region_depths: None,
            certificate: None,
        }
    }

    /// One pair's verification: `cell` names the pair, `problem` is what it
    /// solves.
    fn run_pair(
        &self,
        cell: &CampaignCell,
        problem: &EncodedProblem,
        prior: Option<&CheckpointCell>,
    ) -> PairOutcome {
        let name = cell.functional.name();
        let cond = cell.condition;
        // A completed checkpointed cell is restored verbatim — no events,
        // no re-solving, identical mark and statistics.
        if let Some(rec) = prior.filter(|r| r.complete()) {
            let (regions, depths): (Vec<_>, Vec<_>) = rec.to_regions().into_iter().unzip();
            let map = RegionMap::new(problem.domain.clone(), regions);
            return PairOutcome {
                functional: Arc::clone(&cell.functional),
                condition: cond,
                mark: map.table_mark(),
                map: Some(map),
                wall_ms: rec.wall_ms,
                skipped: None,
                cost: cell.cost,
                stats: Some(rec.stats),
                region_depths: Some(depths),
                certificate: None,
            };
        }
        if self.cancel.is_cancelled() {
            return self.skip(cell, SkipReason::Cancelled);
        }
        self.emit(CampaignEvent::PairStarted {
            functional: name.clone(),
            condition: cond,
        });
        // Fault-injection hook (test harness only): a plan arming
        // SolverPanic takes down this solve the way a solver bug would —
        // after the start event, before any result lands.
        if let Some(plan) = &self.fault_plan {
            if plan.should_fire(crate::fault::FaultSite::SolverPanic) {
                panic!("injected fault: solver panic for {name}/{cond:?}");
            }
        }
        // The pair runs exactly the config its policy returns: the one a
        // certificate header, a checkpoint and a result-store key record.
        let config = (self.config_policy)(cell.functional.as_ref(), cond);
        let opts = RunOptions {
            cancel: self.cancel.clone(),
            record_traces: self.emit_certificates,
            base_depth: 0,
        };
        let verifier = Verifier::new(config.clone());
        let t0 = Instant::now();
        let (out, resumed) = match prior {
            // Resume an interrupted cell: re-verify exactly the Cancelled
            // leaves, each at its recorded depth, and splice the results in
            // place. Everything already solved is kept verbatim, so a
            // deterministic config reproduces the uninterrupted run.
            Some(rec) => {
                let mut regions = Vec::new();
                let mut details = Vec::new();
                let mut stats = rec.stats;
                for (region, depth) in rec.to_regions() {
                    if matches!(region.status, RegionStatus::Cancelled) {
                        let sub = verifier.verify_run(
                            &region.domain,
                            problem,
                            &RunOptions {
                                base_depth: depth,
                                ..opts.clone()
                            },
                        );
                        stats.absorb(sub.stats);
                        regions.extend(sub.map.regions);
                        details.extend(sub.details);
                    } else {
                        regions.push(region);
                        details.push(RegionDetail { depth, trace: None });
                    }
                }
                let out = RunOutput {
                    map: RegionMap::new(problem.domain.clone(), regions),
                    stats,
                    details,
                };
                (out, true)
            }
            None => (verifier.verify_run(&problem.domain, problem, &opts), false),
        };
        let wall_ms = t0.elapsed().as_millis()
            + if resumed {
                prior.map_or(0, |r| r.wall_ms)
            } else {
                0
            };
        // Restored traces are not persisted, so resumed cells cannot carry
        // a certificate; uninterrupted traced runs build (and pre-replay)
        // one.
        let certificate = if self.emit_certificates && !resumed {
            build_certificate(problem, &config, &out).map(|c| Certificate {
                functional: name.clone(),
                ..c
            })
        } else {
            None
        };
        let RunOutput {
            map,
            stats,
            details,
        } = out;
        let interrupted = map
            .regions
            .iter()
            .any(|r| matches!(r.status, RegionStatus::Cancelled));
        for ce in map.counterexamples() {
            self.emit(CampaignEvent::CounterexampleFound {
                functional: name.clone(),
                condition: cond,
                witness: ce.to_vec(),
            });
        }
        let mark = map.table_mark();
        if interrupted {
            self.emit(CampaignEvent::PairSkipped {
                functional: name.clone(),
                condition: cond,
                reason: SkipReason::Cancelled,
            });
        } else {
            self.emit(CampaignEvent::PairFinished {
                functional: name.clone(),
                condition: cond,
                mark,
                wall_ms,
            });
        }
        PairOutcome {
            functional: Arc::clone(&cell.functional),
            condition: cond,
            mark,
            map: Some(map),
            wall_ms,
            skipped: interrupted.then_some(SkipReason::Cancelled),
            cost: cell.cost,
            stats: Some(stats),
            region_depths: Some(details.iter().map(|d| d.depth).collect()),
            certificate,
        }
    }

    /// Record a finished (or partially-finished) pair in the live
    /// checkpoint store and atomically rewrite the checkpoint file. A no-op
    /// without [`CampaignBuilder::checkpoint`] or for pairs that never ran.
    fn persist(
        &self,
        out: &PairOutcome,
        store: Option<&Mutex<HashMap<(String, Condition), CheckpointCell>>>,
        key: (String, Condition),
    ) {
        let (Some(path), Some(store)) = (self.checkpoint.as_deref(), store) else {
            return;
        };
        let (Some(map), Some(depths), Some(stats)) = (&out.map, &out.region_depths, out.stats)
        else {
            return;
        };
        let rec = CheckpointCell {
            functional: out.functional.name(),
            condition: out.condition,
            wall_ms: out.wall_ms,
            stats,
            regions: map
                .regions
                .iter()
                .zip(depths)
                .map(|(r, &d)| CheckpointRegion {
                    domain: r.domain.clone(),
                    status: r.status.clone(),
                    depth: d,
                })
                .collect(),
        };
        if let Ok(mut s) = store.lock() {
            s.insert(key, rec);
            let mut refs: Vec<&CheckpointCell> = s.values().collect();
            refs.sort_by(|a, b| {
                (a.functional.as_str(), format!("{:?}", a.condition))
                    .cmp(&(b.functional.as_str(), format!("{:?}", b.condition)))
            });
            // Best-effort: an unwritable checkpoint must not fail the
            // campaign itself (the report is still returned to the caller).
            let _ = checkpoint::write_atomic(path, &refs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use xcv_functionals::Dfa;
    use xcv_solver::{DeltaSolver, SolveBudget};

    fn quick_config(nodes: u64) -> VerifierConfig {
        VerifierConfig {
            split_threshold: 1.25,
            solver: DeltaSolver::new(1e-3, SolveBudget::nodes(nodes)),
            parallel: false,
            parallel_depth: 3,
            max_depth: 3,
            pair_deadline_ms: None,
        }
    }

    #[test]
    fn empty_campaign_is_an_error() {
        assert!(Campaign::builder().build().is_err());
    }

    #[test]
    fn cells_dispatch_costliest_first_and_shards_deal_longest_first() {
        let problem = Arc::new(Encoder::encode(Dfa::VwnRpa, Condition::EcNonPositivity).unwrap());
        let cells: Vec<CampaignCell> = [(3, true), (5, true), (3, true), (1, true), (4, true)]
            .into_iter()
            .chain([(9, false)])
            .map(|(cost, encoded)| CampaignCell {
                functional: Dfa::VwnRpa.into_handle(),
                condition: Condition::EcNonPositivity,
                cost,
                problem: if encoded {
                    Ok(Arc::clone(&problem))
                } else {
                    Err(SkipReason::NotApplicable)
                },
            })
            .collect();
        // Descending cost; the two cost-3 cells keep matrix order.
        assert_eq!(costliest_first(&cells), vec![5, 1, 4, 0, 2, 3]);
        // LPT over two shards: 5 -> s0, 4 -> s1, 3 -> s1 (4 < 5), 3 -> s0
        // (5 < 7), 1 -> s1 (7 < 8); the cell that never encoded stays
        // unassigned.
        assert_eq!(
            shard_assignment(&cells, 2),
            vec![Some(1), Some(0), Some(0), Some(1), Some(1), None]
        );
    }

    #[test]
    fn cells_keep_their_own_names_behind_a_shared_problem_cache() {
        // BLYP's correlation-only cells are content-identical to LYP's, so a
        // cache warmed by LYP hands BLYP the problem LYP encoded. Every name
        // the campaign emits must still be BLYP's.
        let registry = Registry::extended();
        let lyp = registry.get("LYP").unwrap();
        let blyp = registry.get("BLYP").unwrap();
        let cache = Arc::new(ProblemCache::new());
        let warmed = cache.encode(&lyp, Condition::EcNonPositivity).unwrap();
        let (builder, rx) = Campaign::builder()
            .functional(Arc::clone(&blyp))
            .conditions([Condition::EcNonPositivity])
            .config_policy(|f, _| {
                assert_eq!(
                    f.name(),
                    "BLYP",
                    "config policy asked for the wrong functional"
                );
                quick_config(2_000)
            })
            .problem_cache(Arc::clone(&cache))
            .emit_certificates(true)
            .event_channel();
        let report = builder.build().unwrap().run();
        assert_eq!(cache.stats(), (1, 1), "the BLYP cell reused LYP's problem");
        assert_eq!(warmed.functional_name(), "LYP");
        let pair = &report.pairs[0];
        assert_eq!(pair.functional_name(), "BLYP");
        assert!(report.outcome("BLYP", Condition::EcNonPositivity).is_some());
        let cert = pair.certificate.as_ref().expect("replayable certificate");
        assert_eq!(cert.functional, "BLYP");
        let names: Vec<String> = rx
            .try_iter()
            .map(|e| match e {
                CampaignEvent::PairStarted { functional, .. }
                | CampaignEvent::CounterexampleFound { functional, .. }
                | CampaignEvent::PairFinished { functional, .. }
                | CampaignEvent::PairSkipped { functional, .. } => functional,
            })
            .collect();
        assert!(names.len() >= 2, "started and finished: {names:?}");
        assert!(names.iter().all(|n| n == "BLYP"), "{names:?}");
    }

    #[test]
    fn pair_cost_ranks_families_and_conditions() {
        use xcv_functionals::Functional;
        // Rung and arity dominate: SCAN EC1 above VWN EC3; within one
        // functional, the second-derivative condition is the costliest.
        assert!(
            pair_cost(&Dfa::Scan, Condition::EcNonPositivity)
                > pair_cost(&Dfa::VwnRpa, Condition::UcMonotonicity)
        );
        for dfa in Dfa::all() {
            let ec3 = pair_cost(&dfa, Condition::UcMonotonicity);
            for cond in Condition::all() {
                assert!(pair_cost(&dfa, cond) <= ec3, "{} {cond:?}", dfa.info().name);
            }
        }
    }

    #[test]
    fn report_stays_matrix_ordered_whatever_the_dispatch_order() {
        // LYP (a GGA) outranks VWN RPA (an LDA), so LYP's cells dispatch
        // first; the report is still functional-major, and every mark is
        // the one the cell gets verified on its own.
        let conditions = [Condition::EcNonPositivity, Condition::EcScaling];
        let report = Campaign::builder()
            .functionals([Dfa::VwnRpa, Dfa::Lyp])
            .conditions(conditions)
            .config(quick_config(5_000))
            .build()
            .unwrap()
            .run();
        let names: Vec<String> = report.pairs.iter().map(|p| p.functional_name()).collect();
        assert_eq!(names, vec!["VWN RPA", "VWN RPA", "LYP", "LYP"]);
        for p in &report.pairs {
            assert_eq!(p.cost, pair_cost(p.functional.as_ref(), p.condition));
            let direct = Encoder::encode(Arc::clone(&p.functional), p.condition).unwrap();
            let direct = Verifier::new(quick_config(5_000)).verify(&direct);
            assert_eq!(
                p.mark,
                direct.table_mark(),
                "{} / {}",
                p.functional_name(),
                p.condition
            );
        }
    }

    #[test]
    fn duplicate_functional_names_rejected() {
        // Reports key cells by name: two columns named PBE would alias.
        match Campaign::builder()
            .functionals([Dfa::Pbe, Dfa::Pbe])
            .build()
        {
            Err(e) => assert!(
                matches!(e, xcv_functionals::XcvError::DuplicateFunctional(_)),
                "{e}"
            ),
            Ok(_) => panic!("duplicate names must be rejected"),
        }
    }

    #[test]
    fn single_pair_campaign_matches_direct_verify() {
        let campaign = Campaign::builder()
            .functional(Dfa::Lyp)
            .conditions([Condition::EcNonPositivity])
            .config(quick_config(20_000))
            .build()
            .unwrap();
        let report = campaign.run();
        assert_eq!(report.pairs.len(), 1);
        assert_eq!(
            report.mark("LYP", Condition::EcNonPositivity),
            Some(TableMark::Counterexample)
        );
        // Same mark as the old per-pair path with the same config.
        let p = Encoder::encode(Dfa::Lyp, Condition::EcNonPositivity).unwrap();
        let direct = Verifier::new(quick_config(20_000)).verify(&p);
        assert_eq!(report.pairs[0].mark, direct.table_mark());
    }

    #[test]
    fn inapplicable_cells_marked_not_applicable() {
        let report = Campaign::builder()
            .functionals([Dfa::Lyp, Dfa::VwnRpa])
            .conditions([Condition::LiebOxford, Condition::EcNonPositivity])
            .config(quick_config(2_000))
            .build()
            .unwrap()
            .run();
        assert_eq!(report.pairs.len(), 4);
        assert_eq!(
            report.mark("LYP", Condition::LiebOxford),
            Some(TableMark::NotApplicable)
        );
        assert_eq!(report.encoded_pairs(), 2);
    }

    #[test]
    fn events_stream_in_order_per_pair() {
        let started = Arc::new(AtomicUsize::new(0));
        let finished = Arc::new(AtomicUsize::new(0));
        let (s2, f2) = (Arc::clone(&started), Arc::clone(&finished));
        let report = Campaign::builder()
            .functional(Dfa::VwnRpa)
            .conditions([Condition::EcNonPositivity, Condition::EcScaling])
            .config(quick_config(5_000))
            .on_event(move |e| match e {
                CampaignEvent::PairStarted { .. } => {
                    s2.fetch_add(1, Ordering::SeqCst);
                }
                CampaignEvent::PairFinished { .. } => {
                    f2.fetch_add(1, Ordering::SeqCst);
                }
                _ => {}
            })
            .build()
            .unwrap();
        report.run();
        assert_eq!(started.load(Ordering::SeqCst), 2);
        assert_eq!(finished.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn event_channel_receives_counterexamples() {
        let (builder, rx) = Campaign::builder()
            .functional(Dfa::Lyp)
            .conditions([Condition::EcNonPositivity])
            .config(quick_config(20_000))
            .event_channel();
        builder.build().unwrap().run();
        let events: Vec<CampaignEvent> = rx.try_iter().collect();
        assert!(events
            .iter()
            .any(|e| matches!(e, CampaignEvent::CounterexampleFound { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, CampaignEvent::PairFinished { .. })));
    }

    #[test]
    fn cancellation_skips_all_pairs() {
        let token = CancelToken::new();
        token.cancel();
        let report = Campaign::builder()
            .registry(&Registry::builtin())
            .config(quick_config(50_000))
            .cancel_token(token)
            .build()
            .unwrap()
            .run();
        // 31 applicable pairs all skipped, 4 inapplicable.
        assert_eq!(
            report
                .pairs
                .iter()
                .filter(|p| p.skipped == Some(SkipReason::Cancelled))
                .count(),
            31
        );
        assert!(report.pairs.iter().all(|p| p.map.is_none()));
    }

    #[test]
    fn defective_functional_surfaces_as_encode_failure_not_dash() {
        // Metadata promises an exchange part the implementation lacks: the
        // Lieb–Oxford cells must come out Unknown/EncodeFailed, not `−`.
        use xcv_functionals::{functional, Design, Family, FnFunctional};
        let liar: FunctionalHandle = Arc::new(FnFunctional {
            info: functional::info("liar", Family::Lda, Design::Empirical, true, true),
            eps_c_expr: -xcv_expr::constant(0.1),
            f_x_expr: None,
            eps_c: |_, _, _| -0.1,
            f_x: None::<fn(f64, f64) -> f64>,
        });
        let report = Campaign::builder()
            .functional(liar)
            .conditions([Condition::LiebOxford, Condition::EcNonPositivity])
            .config(quick_config(500))
            .build()
            .unwrap()
            .run();
        let lo = report.outcome("liar", Condition::LiebOxford).unwrap();
        assert_eq!(lo.skipped, Some(SkipReason::EncodeFailed));
        assert_eq!(lo.mark, TableMark::Unknown);
        // The honest cell still runs.
        assert!(report
            .outcome("liar", Condition::EcNonPositivity)
            .unwrap()
            .skipped
            .is_none());
    }

    #[test]
    fn a_deadline_token_fires_once_its_instant_passes() {
        let later = CancelToken::until(Instant::now() + std::time::Duration::from_secs(3600));
        assert!(!later.is_cancelled());
        later.clone().cancel();
        assert!(later.is_cancelled() && CancelToken::until(Instant::now()).is_cancelled());
    }

    #[test]
    fn expired_deadline_skips_everything() {
        let report = Campaign::builder()
            .functionals([Dfa::VwnRpa, Dfa::Lyp])
            .config(quick_config(50_000))
            .cancel_token(CancelToken::until(Instant::now()))
            .build()
            .unwrap()
            .run();
        assert!(report
            .pairs
            .iter()
            .filter(|p| p.skipped != Some(SkipReason::NotApplicable))
            .all(|p| p.skipped == Some(SkipReason::Cancelled) && p.map.is_none()));
    }
}
