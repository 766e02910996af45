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
//! * **scheduling** — applicable pairs are encoded up front, ranked
//!   costliest-first (by the hand-weighted [`pair_cost`] or, better, a
//!   [`CostModel`] *fit from measured wall-clocks* via
//!   [`CampaignBuilder::cost_model`]) and fanned out across rayon. Each pair
//!   keeps the per-pair deadline from the verifier config; a global
//!   wall-clock budget bounds the whole campaign, and pairs reached after it
//!   expires are recorded as skipped rather than run;
//! * **observing** — [`CampaignEvent`]s stream through a callback (or the
//!   [`CampaignBuilder::event_channel`] convenience) as pairs start, finish,
//!   and produce counterexamples; a [`CancelToken`] stops the campaign at
//!   pair granularity from any thread;
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

/// Cooperative cancellation for a running campaign. Clone it, hand the clone
/// to another thread (or a ctrl-c handler), and call [`CancelToken::cancel`];
/// pairs that have not started yet are skipped.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// How a campaign orders its cells across the thread pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CampaignSchedule {
    /// Cells run in matrix (functional-major) order — the pre-cost-model
    /// behaviour, kept so the scheduler itself can be benchmarked against
    /// (`solver_bench` records both wall-clocks in `BENCH_solver.json`).
    MatrixOrder,
    /// Cells are ranked by the [`pair_cost`] model and laid out so worker
    /// chunks carry near-equal total cost, costliest cells first — large
    /// meta-GGA/spin pairs no longer straggle at the tail of the pool.
    #[default]
    CostAware,
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
/// and only for ordering; the model never gates work. A [`CostModel`] *fit
/// from measured wall-clocks* over the same features replaces these
/// hand weights when attached via [`CampaignBuilder::cost_model`].
pub fn pair_cost(f: &dyn xcv_functionals::Functional, condition: Condition) -> u64 {
    let fanout = 1u64 << f.var_space().ndim().min(8);
    family_class(f) * fanout * condition_class(condition)
}

/// Raw feature vector of one matrix cell, in the order the cost model is
/// fit over: `(family class, 2^ndim split fan-out, condition class)`.
pub fn pair_features(f: &dyn xcv_functionals::Functional, condition: Condition) -> [f64; 3] {
    [
        family_class(f) as f64,
        (1u64 << f.var_space().ndim().min(8)) as f64,
        condition_class(condition) as f64,
    ]
}

/// A scheduling cost model **fit from measurement** instead of
/// hand-weighted: ordinary least squares (lightly ridge-regularized, so
/// degenerate sample sets — e.g. a single family — stay solvable) of
/// `ln(1 + wall_ms)` over `[1, ln family, ln 2^ndim, ln class]`, the
/// logged [`pair_features`]. The exponent form keeps predictions positive
/// and makes the fit multiplicative, matching the hand model's shape while
/// letting the data choose the weights.
///
/// Fit one from the `PairOutcome::{wall_ms}` samples a campaign already
/// records ([`CampaignReport::fit_cost_model`]), persist it (the
/// `solver_bench` binary writes a `cost_model` entry into
/// `BENCH_solver.json`), and attach it to the next campaign with
/// [`CampaignBuilder::cost_model`].
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// `[w0, w_family, w_fanout, w_class]` of the log-linear predictor.
    pub weights: [f64; 4],
    /// Number of measured cells behind the fit.
    pub samples: usize,
    /// In-sample coefficient of determination on `ln(1 + wall_ms)`.
    pub r2: f64,
}

impl CostModel {
    /// Least-squares fit over `(features, wall_ms)` samples. `None` when no
    /// samples were provided.
    pub fn fit(samples: &[([f64; 3], f64)]) -> Option<CostModel> {
        if samples.is_empty() {
            return None;
        }
        let mut xtx = [[0.0f64; 4]; 4];
        let mut xty = [0.0f64; 4];
        let mut mean_y = 0.0;
        let rows: Vec<([f64; 4], f64)> = samples
            .iter()
            .map(|(feat, ms)| {
                let x = [1.0, feat[0].ln(), feat[1].ln(), feat[2].ln()];
                let y = (1.0 + ms.max(0.0)).ln();
                (x, y)
            })
            .collect();
        for (x, y) in &rows {
            for i in 0..4 {
                for j in 0..4 {
                    xtx[i][j] += x[i] * x[j];
                }
                xty[i] += x[i] * y;
            }
            mean_y += y;
        }
        mean_y /= rows.len() as f64;
        // Tiny ridge: collinear feature columns (every cell one family, say)
        // must not make the normal equations singular.
        for (i, row) in xtx.iter_mut().enumerate() {
            row[i] += 1e-6;
        }
        let weights = solve4(xtx, xty)?;
        let (mut ss_res, mut ss_tot) = (0.0, 0.0);
        for (x, y) in &rows {
            let pred: f64 = weights.iter().zip(x).map(|(w, xi)| w * xi).sum();
            ss_res += (y - pred) * (y - pred);
            ss_tot += (y - mean_y) * (y - mean_y);
        }
        let r2 = if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else {
            1.0
        };
        Some(CostModel {
            weights,
            samples: rows.len(),
            r2,
        })
    }

    /// Load the `cost_model` entry persisted in a `BENCH_solver.json`
    /// written by the `solver_bench` binary, so long campaigns start from
    /// *measured* scheduling weights instead of the hand-tuned
    /// [`pair_cost`]. Returns `None` — callers fall back to `pair_cost` —
    /// when the file is missing, unreadable, or carries no well-formed
    /// entry (absent weights, non-finite values); a stale-but-valid model
    /// still only affects ordering, never results.
    pub fn load_bench_json(path: impl AsRef<std::path::Path>) -> Option<CostModel> {
        let json = std::fs::read_to_string(path).ok()?;
        let entry = &json[json.find("\"cost_model\"")?..];
        let field = |key: &str| -> Option<&str> {
            let rest = &entry[entry.find(&format!("\"{key}\":"))? + key.len() + 3..];
            let rest = rest.trim_start();
            if let Some(stripped) = rest.strip_prefix('[') {
                return Some(stripped[..stripped.find(']')?].trim());
            }
            Some(rest[..rest.find([',', '}', ']'])?].trim())
        };
        let weights: Vec<f64> = field("weights")?
            .split(',')
            .map(|w| w.trim().parse().ok())
            .collect::<Option<_>>()?;
        let weights: [f64; 4] = weights.try_into().ok()?;
        if weights.iter().any(|w| !w.is_finite()) {
            return None;
        }
        let samples: usize = field("samples")?.parse().ok()?;
        let r2: f64 = field("r2")?.parse().ok()?;
        (samples > 0 && (0.0..=1.0).contains(&r2)).then_some(CostModel {
            weights,
            samples,
            r2,
        })
    }

    /// Predicted relative cost of one cell: `exp` of the fitted log-cost
    /// (`≈ 1 + wall_ms` in the fit's units). Only ratios matter for the
    /// schedule.
    pub fn predict(&self, f: &dyn xcv_functionals::Functional, condition: Condition) -> f64 {
        let feat = pair_features(f, condition);
        let x = [1.0, feat[0].ln(), feat[1].ln(), feat[2].ln()];
        let log = self
            .weights
            .iter()
            .zip(x)
            .map(|(w, xi)| w * xi)
            .sum::<f64>();
        let v = log.exp();
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }
}

/// Solve a 4×4 linear system by Gaussian elimination with partial pivoting.
fn solve4(mut a: [[f64; 4]; 4], mut b: [f64; 4]) -> Option<[f64; 4]> {
    for col in 0..4 {
        let pivot = (col..4).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let pivot_row = a[col];
        for row in col + 1..4 {
            let factor = a[row][col] / pivot_row[col];
            for (k, p) in pivot_row.iter().enumerate().skip(col) {
                a[row][k] -= factor * p;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = [0.0f64; 4];
    for row in (0..4).rev() {
        let mut v = b[row];
        for k in row + 1..4 {
            v -= a[row][k] * x[k];
        }
        x[row] = v / a[row][row];
    }
    x.iter().all(|v| v.is_finite()).then_some(x)
}

/// Lay cells out for the chunked thread pool: indices sorted costliest
/// first, then dealt LPT-style (longest-processing-time) into `workers`
/// equal-size buckets whose concatenation becomes the execution order —
/// each contiguous worker chunk then carries a near-equal share of the
/// modeled cost instead of, say, every SCAN cell landing in one chunk.
fn cost_aware_order(costs: &[f64], workers: usize) -> Vec<usize> {
    let n = costs.len();
    let k = workers.clamp(1, n.max(1));
    let cap = n.div_ceil(k);
    let mut ranked: Vec<usize> = (0..n).collect();
    // Ties keep matrix order, making the schedule deterministic; NaN never
    // occurs (predictions are finiteness-guarded) but would sort last.
    ranked.sort_by(|&i, &j| {
        costs[j]
            .partial_cmp(&costs[i])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(i.cmp(&j))
    });
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut loads = vec![0.0f64; k];
    for i in ranked {
        let b = (0..k)
            .filter(|&b| buckets[b].len() < cap)
            .min_by(|&x, &y| {
                loads[x]
                    .partial_cmp(&loads[y])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(x.cmp(&y))
            })
            .expect("cap * k >= n");
        buckets[b].push(i);
        loads[b] += costs[i];
    }
    buckets.concat()
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
    /// The campaign's global wall-clock budget expired first.
    BudgetExhausted,
    /// The campaign was cancelled first (or mid-pair: the outcome's map
    /// then contains the [`RegionStatus::Cancelled`] leaves a checkpointed
    /// resume picks up from).
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
    /// [`TableMark::Unknown`] for budget/cancel skips).
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

    /// Fit a [`CostModel`] from this report's measured `wall_ms` samples
    /// (cells that actually ran). `None` when nothing ran.
    pub fn fit_cost_model(&self) -> Option<CostModel> {
        let samples: Vec<([f64; 3], f64)> = self
            .pairs
            .iter()
            .filter(|p| p.skipped.is_none())
            .map(|p| {
                (
                    pair_features(p.functional.as_ref(), p.condition),
                    p.wall_ms as f64,
                )
            })
            .collect();
        CostModel::fit(&samples)
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

/// The escalation ladder a cell actually runs with under a campaign-wide
/// [`CampaignBuilder::escalation`] override: cells the measured model
/// predicts as sub-millisecond (`predict` ≈ 1 + wall_ms, so `< 2.0`) never
/// stall and gain nothing from rung 1/2 machinery, so they keep the plain
/// HC4 path. Ladder rungs only ever tighten or prune, so marks stay
/// unchanged-or-better either way (pinned by the ladder bench suites).
fn effective_escalation(
    requested: xcv_solver::Escalation,
    model: Option<&CostModel>,
    functional: &dyn xcv_functionals::Functional,
    condition: Condition,
) -> xcv_solver::Escalation {
    match model {
        Some(m) if m.predict(functional, condition) < 2.0 => xcv_solver::Escalation::off(),
        _ => requested,
    }
}

/// Decision rank of a mark for the budget-escalation retry pass: a retry
/// is accepted only when it climbs this ladder (or ties it with strictly
/// fewer undecided regions). `Verified` and `Counterexample` are both
/// fully decided — a retry can never trade one for the other, because the
/// solver is sound (a counterexample is an exact witness, a verification
/// an exhaustive cover; more budget cannot contradict either).
fn mark_rank(mark: TableMark) -> u8 {
    match mark {
        TableMark::Unknown | TableMark::NotApplicable => 0,
        TableMark::PartiallyVerified => 1,
        TableMark::Verified | TableMark::Counterexample => 2,
    }
}

/// Regions of a pair's map still undecided (timeout/inconclusive/cancelled).
fn undecided_regions(p: &PairOutcome) -> usize {
    p.map.as_ref().map_or(usize::MAX, |m| {
        m.regions
            .iter()
            .filter(|r| {
                matches!(
                    r.status,
                    RegionStatus::Timeout | RegionStatus::Inconclusive | RegionStatus::Cancelled
                )
            })
            .count()
    })
}

/// "Marks may only improve": accept the retried outcome over the recorded
/// one only on a strict improvement — higher mark rank, or the same rank
/// with strictly fewer undecided regions. Retries that were skipped
/// (budget/cancel gate) never replace a recorded outcome.
fn improves(old: &PairOutcome, new: &PairOutcome) -> bool {
    if new.skipped.is_some() {
        return false;
    }
    let (or, nr) = (mark_rank(old.mark), mark_rank(new.mark));
    nr > or || (nr == or && undecided_regions(new) < undecided_regions(old))
}

/// Deterministic LPT assignment of cells to `of` shards: cells ranked by
/// modeled cost (descending; matrix index breaks ties), each assigned to
/// the least-loaded shard so far (ties to the lowest shard index). Every
/// process computing this over the same matrix and cost model produces the
/// same assignment — the whole point: shards coordinate by construction,
/// not by communication. `None` costs (cells that never encoded) stay
/// unassigned; every shard reports those identically.
fn shard_assignment(costs: &[Option<f64>], of: usize) -> Vec<Option<usize>> {
    let mut ranked: Vec<usize> = (0..costs.len()).filter(|&i| costs[i].is_some()).collect();
    ranked.sort_by(|&i, &j| {
        costs[j]
            .partial_cmp(&costs[i])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(i.cmp(&j))
    });
    let mut loads = vec![0.0f64; of.max(1)];
    let mut owner = vec![None; costs.len()];
    for i in ranked {
        let s = (0..loads.len())
            .min_by(|&x, &y| {
                loads[x]
                    .partial_cmp(&loads[y])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(x.cmp(&y))
            })
            .expect("at least one shard");
        owner[i] = Some(s);
        loads[s] += costs[i].unwrap_or(0.0);
    }
    owner
}

type EventCallback = Arc<dyn Fn(&CampaignEvent) + Send + Sync>;
type ConfigPolicy =
    Arc<dyn Fn(&dyn xcv_functionals::Functional, Condition) -> VerifierConfig + Send + Sync>;

/// Builder for [`Campaign`]; see the [module documentation](self).
pub struct CampaignBuilder {
    functionals: Vec<FunctionalHandle>,
    conditions: Vec<Condition>,
    config: VerifierConfig,
    config_policy: Option<ConfigPolicy>,
    global_budget_ms: Option<u64>,
    schedule: CampaignSchedule,
    cost_model: Option<CostModel>,
    escalation: Option<xcv_solver::Escalation>,
    budget_escalation: Option<(f64, u32)>,
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
    /// included, via [`VerifierConfig::pair_deadline_ms`]).
    pub fn config(mut self, config: VerifierConfig) -> Self {
        self.config = config;
        self
    }

    /// Derive the verifier configuration per pair instead of using one base
    /// config — e.g. coarser recursion floors for 3-D meta-GGA domains, the
    /// way the reproduction binary tunes per family.
    pub fn config_policy(
        mut self,
        policy: impl Fn(&dyn xcv_functionals::Functional, Condition) -> VerifierConfig
            + Send
            + Sync
            + 'static,
    ) -> Self {
        self.config_policy = Some(Arc::new(policy));
        self
    }

    /// Global wall-clock budget for the whole campaign. Pairs reached after
    /// it expires are skipped ([`SkipReason::BudgetExhausted`]); a running
    /// pair additionally has its own deadline clamped to the remaining
    /// budget.
    pub fn global_budget_ms(mut self, ms: u64) -> Self {
        self.global_budget_ms = Some(ms);
        self
    }

    /// How cells are ordered across the pool (default:
    /// [`CampaignSchedule::CostAware`], costliest-first with balanced worker
    /// chunks). The report is always in matrix order regardless.
    pub fn schedule(mut self, schedule: CampaignSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Rank cells with a measured [`CostModel`] instead of the hand-weighted
    /// [`pair_cost`] (only affects [`CampaignSchedule::CostAware`]). Fit one
    /// from a previous run's report ([`CampaignReport::fit_cost_model`]) or
    /// load the persisted `cost_model` entry of `BENCH_solver.json`
    /// ([`CostModel::load_bench_json`]).
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = Some(model);
        self
    }

    /// Contractor escalation ladder for every pair (overrides whatever the
    /// base config or the config policy set): boxes whose HC4 contraction
    /// stalls escalate to interval-Newton (rung 1) and 3B slab shaving
    /// (rung 2) instead of burning budget on bisection — the knob that
    /// turns timeout cells into decisions. Under a measured [`CostModel`],
    /// cells predicted sub-millisecond keep the plain HC4 path (the ladder
    /// cannot help where nothing stalls). Composes with certificate
    /// emission: ladder steps are recorded and replayed by `xcvcheck`.
    pub fn escalation(mut self, esc: xcv_solver::Escalation) -> Self {
        self.escalation = Some(esc);
        self
    }

    /// Budget-escalation retry pass: after the first full pass, re-solve
    /// the still-undecided cells (mark [`TableMark::Unknown`] or
    /// [`TableMark::PartiallyVerified`]) with node/time budgets multiplied
    /// by `factor`, up to `max_rounds` times, compounding per round. Marks
    /// may only improve — a retry whose outcome ranks below (or ties
    /// without reducing undecided regions) the recorded one is discarded,
    /// the same retry-on-timeout semantics the contractor ladder uses.
    /// The global budget and cancellation still gate every retry.
    ///
    /// # Panics
    /// When `factor <= 1.0` (a retry at the same budget can only re-derive
    /// the same undecided mark — a caller bug).
    pub fn budget_escalation(mut self, factor: f64, max_rounds: u32) -> Self {
        assert!(factor > 1.0, "budget escalation factor must exceed 1");
        self.budget_escalation = Some((factor, max_rounds));
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
    /// `Cancelled` leaves a [`CancelToken`] left behind) are resumed in
    /// place — with a deterministic node-budgeted config, the resumed
    /// matrix reproduces the uninterrupted run's marks and aggregate
    /// statistics exactly.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Run only shard `index` of `of` (deterministic LPT over the modeled
    /// cell costs — attach the same [`CostModel`] in every process for a
    /// balanced split). Cells owned by other shards are reported as
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

    /// Attach a cancellation token (see [`CancelToken`]).
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
            config: self.config,
            config_policy: self.config_policy,
            global_budget_ms: self.global_budget_ms,
            schedule: self.schedule,
            cost_model: self.cost_model,
            escalation: self.escalation,
            budget_escalation: self.budget_escalation,
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
    config: VerifierConfig,
    config_policy: Option<ConfigPolicy>,
    global_budget_ms: Option<u64>,
    schedule: CampaignSchedule,
    cost_model: Option<CostModel>,
    escalation: Option<xcv_solver::Escalation>,
    budget_escalation: Option<(f64, u32)>,
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
            config: VerifierConfig::default(),
            config_policy: None,
            global_budget_ms: None,
            schedule: CampaignSchedule::default(),
            cost_model: None,
            escalation: None,
            budget_escalation: None,
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

    /// Milliseconds left in the global budget (`None` = unbounded).
    fn remaining_ms(&self, start: Instant) -> Option<u64> {
        self.global_budget_ms.map(|ms| {
            u64::try_from(u128::from(ms).saturating_sub(start.elapsed().as_millis())).unwrap_or(0)
        })
    }

    /// Run the campaign: encode every cell, order the applicable pairs by
    /// the configured [`CampaignSchedule`], fan them out across rayon, and
    /// collect a [`CampaignReport`] — always in matrix order, whatever the
    /// execution order was.
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
        let owner: Option<Vec<Option<usize>>> = self.shard.map(|(_, of)| {
            let costs: Vec<Option<f64>> = cells
                .iter()
                .map(|c| c.problem.is_ok().then(|| self.modeled_cost(c)))
                .collect();
            shard_assignment(&costs, of)
        });
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
        // Schedule: one rayon task per cell, in cost-aware or matrix order.
        // The verifier's own recursion fans out further below
        // parallel_depth, so the pool stays busy even for campaigns smaller
        // than the machine.
        let order: Vec<usize> = match self.schedule {
            CampaignSchedule::MatrixOrder => (0..cells.len()).collect(),
            CampaignSchedule::CostAware => {
                let costs: Vec<f64> = cells
                    .iter()
                    // Skip cells solve nothing; keep them out of the load
                    // balance.
                    .map(|c| match c.problem {
                        Err(_) => 0.0,
                        Ok(_) => self.modeled_cost(c),
                    })
                    .collect();
                let workers = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4);
                cost_aware_order(&costs, workers)
            }
        };
        let scheduled: Vec<(usize, &CampaignCell)> =
            order.iter().map(|&i| (i, &cells[i])).collect();
        let mut indexed: Vec<(usize, PairOutcome)> = scheduled
            .par_iter()
            .map(|&(i, cell)| {
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
                            let out = self.run_pair(cell, problem, start, restored.get(&key), 1.0);
                            self.persist(&out, store.as_ref(), key);
                            out
                        }
                    }
                };
                (i, outcome)
            })
            .collect();
        indexed.sort_by_key(|&(i, _)| i);
        let mut pairs: Vec<PairOutcome> = indexed.into_iter().map(|(_, p)| p).collect();
        // Budget-escalation retry rounds: re-solve still-undecided cells
        // with compounded budgets; accept a retry only when it strictly
        // improves (see `CampaignBuilder::budget_escalation`).
        if let Some((factor, max_rounds)) = self.budget_escalation {
            for round in 1..=max_rounds {
                let scale = factor.powi(round as i32);
                let retriable: Vec<usize> = pairs
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| {
                        p.skipped.is_none()
                            && matches!(p.mark, TableMark::Unknown | TableMark::PartiallyVerified)
                    })
                    .map(|(i, _)| i)
                    .collect();
                if retriable.is_empty() || self.cancel.is_cancelled() {
                    break;
                }
                if self.remaining_ms(start) == Some(0) {
                    break;
                }
                let retried: Vec<(usize, PairOutcome)> = retriable
                    .par_iter()
                    .map(|&i| {
                        let cell = &cells[i];
                        let Ok(problem) = &cell.problem else {
                            unreachable!("retriable cells ran, so they encoded")
                        };
                        (i, self.run_pair(cell, problem, start, None, scale))
                    })
                    .collect();
                for (i, out) in retried {
                    if improves(&pairs[i], &out) {
                        let key = (out.functional.name().to_ascii_lowercase(), out.condition);
                        self.persist(&out, store.as_ref(), key);
                        pairs[i] = out;
                    }
                }
            }
        }
        CampaignReport {
            functionals: self.functionals.clone(),
            conditions: self.conditions.clone(),
            pairs,
            wall_ms: start.elapsed().as_millis(),
        }
    }

    /// A cell's modeled cost: the measured [`CostModel`]'s prediction when
    /// one is attached, else the hand-weighted [`pair_cost`].
    fn modeled_cost(&self, cell: &CampaignCell) -> f64 {
        match &self.cost_model {
            Some(m) => m.predict(cell.functional.as_ref(), cell.condition),
            None => cell.cost as f64,
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
    /// solves. `budget_scale` multiplies the per-box node/time budgets and
    /// the pair deadline (1.0 on the primary pass; `factor^round` on
    /// budget-escalation retries).
    fn run_pair(
        &self,
        cell: &CampaignCell,
        problem: &EncodedProblem,
        start: Instant,
        prior: Option<&CheckpointCell>,
        budget_scale: f64,
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
        let remaining = self.remaining_ms(start);
        if remaining == Some(0) {
            return self.skip(cell, SkipReason::BudgetExhausted);
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
        // Per-pair deadline, clamped to what is left of the global budget.
        let mut config = match &self.config_policy {
            Some(policy) => policy(cell.functional.as_ref(), cond),
            None => self.config.clone(),
        };
        if budget_scale != 1.0 {
            let scale = |v: u64| -> u64 {
                if v == u64::MAX {
                    v
                } else {
                    (v as f64 * budget_scale).round().min(u64::MAX as f64 / 2.0) as u64
                }
            };
            config.solver.budget.max_nodes = scale(config.solver.budget.max_nodes);
            config.solver.budget.max_millis = scale(config.solver.budget.max_millis);
            config.pair_deadline_ms = config.pair_deadline_ms.map(scale);
        }
        config.pair_deadline_ms = match (config.pair_deadline_ms, remaining) {
            (Some(p), Some(r)) => Some(p.min(r)),
            (p, r) => p.or(r),
        };
        if let Some(esc) = self.escalation {
            config.solver.escalation = effective_escalation(
                esc,
                self.cost_model.as_ref(),
                cell.functional.as_ref(),
                cond,
            );
        }
        let opts = RunOptions {
            cancel: Some(self.cancel.clone()),
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
    fn cost_aware_order_is_a_balanced_permutation() {
        let costs = vec![100.0, 1.0, 1.0, 1.0, 50.0, 1.0, 1.0, 40.0];
        let order = cost_aware_order(&costs, 4);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        // The costliest cell leads, and the three heavy cells land in three
        // different worker chunks (chunk size = 8 / 4 workers = 2).
        assert_eq!(order[0], 0);
        let chunk_of = |cell: usize| order.iter().position(|&i| i == cell).unwrap() / 2;
        let chunks = [chunk_of(0), chunk_of(4), chunk_of(7)];
        assert_eq!(
            chunks
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            3,
            "{order:?}"
        );
        // Degenerate worker counts stay permutations.
        assert_eq!(cost_aware_order(&costs, 1).len(), 8);
        assert_eq!(cost_aware_order(&[], 4), Vec::<usize>::new());
    }

    #[test]
    fn fitted_model_recovers_multiplicative_costs() {
        // Synthetic wall-clocks drawn from an exact multiplicative law:
        // the log-linear least squares must recover it (r² ≈ 1) and the
        // predictions must reproduce the ratios.
        let mut samples = Vec::new();
        for fam in [1.0f64, 4.0, 16.0] {
            for fan in [2.0f64, 4.0, 8.0, 16.0] {
                for class in [1.0f64, 2.0, 3.0, 6.0] {
                    let ms = 0.5 * fam.powf(1.3) * fan.powf(0.7) * class.powf(1.1);
                    samples.push(([fam, fan, class], ms));
                }
            }
        }
        let m = CostModel::fit(&samples).unwrap();
        assert_eq!(m.samples, samples.len());
        assert!(m.r2 > 0.99, "r² = {}", m.r2);
        // Ratio check through the public predictor: SCAN/EC3 features vs
        // VWN/EC1 features differ by a large factor in the law above.
        use xcv_functionals::Functional;
        let heavy = m.predict(&Dfa::Scan, Condition::UcMonotonicity);
        let light = m.predict(&Dfa::VwnRpa, Condition::EcNonPositivity);
        assert!(heavy > 10.0 * light, "{heavy} vs {light}");
        let _ = Dfa::Scan.info();
    }

    #[test]
    fn degenerate_samples_still_fit() {
        // One family, one condition class: two feature columns are constant
        // (collinear with the intercept); the ridge keeps the system
        // solvable and predictions finite and positive.
        let samples = vec![
            ([4.0, 4.0, 3.0], 10.0),
            ([4.0, 4.0, 3.0], 12.0),
            ([4.0, 4.0, 3.0], 11.0),
        ];
        let m = CostModel::fit(&samples).unwrap();
        let p = m.predict(&Dfa::Pbe, Condition::EcScaling);
        assert!(p.is_finite() && p > 0.0);
        assert!(CostModel::fit(&[]).is_none());
    }

    #[test]
    fn campaign_fits_model_from_recorded_walls_and_reschedules() {
        // A campaign's own report carries enough to fit a model, and a
        // campaign run under that model produces identical marks.
        let base = Campaign::builder()
            .functionals([Dfa::VwnRpa, Dfa::Lyp])
            .conditions([Condition::EcNonPositivity, Condition::EcScaling])
            .config(quick_config(3_000))
            .schedule(CampaignSchedule::MatrixOrder)
            .build()
            .unwrap()
            .run();
        let model = base.fit_cost_model().expect("cells ran");
        assert_eq!(model.samples, 4);
        let refit = Campaign::builder()
            .functionals([Dfa::VwnRpa, Dfa::Lyp])
            .conditions([Condition::EcNonPositivity, Condition::EcScaling])
            .config(quick_config(3_000))
            .cost_model(model)
            .build()
            .unwrap()
            .run();
        for (a, b) in base.pairs.iter().zip(&refit.pairs) {
            assert_eq!(a.mark, b.mark, "{} / {}", a.functional_name(), a.condition);
        }
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
    fn persisted_cost_model_round_trips() {
        let m = CostModel {
            weights: [-2.337412, 2.58292, -0.328711, 1.590768],
            samples: 45,
            r2: 0.7678,
        };
        let path = std::env::temp_dir().join(format!("xcv_cost_model_{}.json", std::process::id()));
        let json = format!(
            "{{\n  \"schema\": \"xcv-bench-solver/v5\",\n  \"cost_model\": {{\"kind\": \
             \"log-linear\", \"features\": [\"family\", \"2^ndim\", \"condition_class\"], \
             \"weights\": [{}, {}, {}, {}], \"samples\": {}, \"r2\": {}}}\n}}\n",
            m.weights[0], m.weights[1], m.weights[2], m.weights[3], m.samples, m.r2
        );
        std::fs::write(&path, json).unwrap();
        let got = CostModel::load_bench_json(&path).expect("well-formed entry");
        std::fs::remove_file(&path).ok();
        // f64 Display round-trips exactly, so the loaded model is the model.
        assert_eq!(got, m);
        // Missing file or entry degrade to None (callers fall back).
        assert!(CostModel::load_bench_json("/nonexistent/bench.json").is_none());
        let bad = std::env::temp_dir().join(format!("xcv_no_model_{}.json", std::process::id()));
        std::fs::write(&bad, "{\"schema\": \"xcv-bench-solver/v5\"}").unwrap();
        assert!(CostModel::load_bench_json(&bad).is_none());
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn sub_millisecond_cells_keep_the_plain_hc4_path() {
        let flat = |c: f64| CostModel {
            weights: [c, 0.0, 0.0, 0.0],
            samples: 45,
            r2: 0.9,
        };
        let full = xcv_solver::Escalation::full();
        // No model attached: the campaign-wide ladder stands.
        assert_eq!(
            effective_escalation(full, None, &Dfa::VwnRpa, Condition::EcNonPositivity),
            full
        );
        // The model predicts sub-millisecond (e^0 = 1 < 2): ladder off.
        let cheap = flat(0.0);
        assert_eq!(
            effective_escalation(full, Some(&cheap), &Dfa::VwnRpa, Condition::EcNonPositivity),
            xcv_solver::Escalation::off()
        );
        // The model predicts an expensive cell: the requested ladder stands.
        let heavy = flat(5.0);
        assert_eq!(
            effective_escalation(full, Some(&heavy), &Dfa::Scan, Condition::UcMonotonicity),
            full
        );
    }

    #[test]
    fn cost_model_ranks_families_and_conditions() {
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
    fn schedules_agree_and_report_stays_matrix_ordered() {
        let run = |schedule| {
            Campaign::builder()
                .functionals([Dfa::VwnRpa, Dfa::Lyp])
                .conditions([Condition::EcNonPositivity, Condition::EcScaling])
                .config(quick_config(5_000))
                .schedule(schedule)
                .build()
                .unwrap()
                .run()
        };
        let cost = run(CampaignSchedule::CostAware);
        let matrix = run(CampaignSchedule::MatrixOrder);
        // Whatever order cells executed in, the report is functional-major.
        let names: Vec<String> = cost.pairs.iter().map(|p| p.functional_name()).collect();
        assert_eq!(names, vec!["VWN RPA", "VWN RPA", "LYP", "LYP"]);
        for (a, b) in cost.pairs.iter().zip(&matrix.pairs) {
            assert_eq!(a.condition, b.condition);
            assert_eq!(a.mark, b.mark, "{} / {}", a.functional_name(), a.condition);
            assert_eq!(a.cost, b.cost);
            assert!(a.cost > 0);
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
    fn zero_budget_skips_everything() {
        let report = Campaign::builder()
            .functionals([Dfa::VwnRpa, Dfa::Lyp])
            .config(quick_config(50_000))
            .global_budget_ms(0)
            .build()
            .unwrap()
            .run();
        assert!(report
            .pairs
            .iter()
            .filter(|p| p.skipped != Some(SkipReason::NotApplicable))
            .all(|p| p.skipped == Some(SkipReason::BudgetExhausted)));
    }
}
