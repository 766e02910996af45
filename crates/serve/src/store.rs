//! Levels 2 and 3 of the daemon cache: the memoized result store and
//! in-flight request coalescing.
//!
//! ## Level 2 — memoized results
//!
//! A pair's verification outcome is fully determined by its
//! [`ResultKey`]: the level-1 [`ProblemKey`] (functional source hash,
//! condition id, variable-space fingerprint) extended with the solver
//! configuration fingerprint ([`xcv_core::VerifierConfig::fingerprint`]
//! ⊕ [`xcv_solver::DeltaSolver::fingerprint`], both FNV-1a over exact bit
//! patterns).
//! The store memoizes the [`StoredResult`] summary — mark, witnesses,
//! wall time, region-status census — under that key, so a warm repeat
//! answers without touching the solver at all.
//!
//! Admission is cost-model-driven in the simplest possible way: a result
//! is persisted to the store *directory* only when its measured wall time
//! reached `admit_ms` — cheap pairs are recomputed on restart (recompute
//! is cheaper than the I/O + disk footprint), expensive ones are written
//! with the WDL-style atomic finalize
//! ([`xcv_cert::store::write_atomic_retry`]: temp file + rename, retry
//! ladder with doubling backoff) so a restarted daemon warms from disk.
//! In-memory memoization applies to every result regardless.
//!
//! ## Level 3 — coalescing
//!
//! [`ResultStore::try_claim`] is the single entry point and is
//! *non-blocking*: it answers `Hit` (memoized), `Leader` (the caller now
//! owns the solve for this key), or `Busy` (someone else is solving it).
//! A request thread first claims every pair it needs, solves the keys it
//! leads, finalizes them, and only *then* blocks in
//! [`ResultStore::wait_for`] on its `Busy` keys. Because no thread ever
//! waits while still holding an unfinalized leadership, two requests with
//! overlapping key sets cannot deadlock, and N concurrent identical
//! queries cost exactly one solve.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use xcv_cert::json::{escape, fmt_f64, Json};
use xcv_cert::store::{quarantine, read_dir_json, write_atomic, write_atomic_retry};
use xcv_conditions::Condition;
use xcv_core::cache::{fnv1a, fnv1a_str, ProblemKey};
use xcv_core::{FaultPlan, FaultSite, TableMark};

use crate::proto::{mark_tag, parse_mark};

const SCHEMA: &str = "xcv-serve-result/v2";
const PERSIST_ATTEMPTS: u32 = 3;
const PERSIST_BACKOFF: Duration = Duration::from_millis(10);

/// The full cache key of one verification outcome: *what* was solved
/// (level-1 problem identity) plus *how* (solver config fingerprint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResultKey {
    pub problem: ProblemKey,
    /// `VerifierConfig::fingerprint()` — covers the solver's δ, budget,
    /// split threshold, depth cap, and deadline; excludes the
    /// parallelism knobs, which cannot change marks.
    pub config_fp: u64,
}

impl std::fmt::Display for ResultKey {
    /// Also the store file stem: `{source}-{cond}-{space}-{config}`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-{:016x}", self.problem, self.config_fp)
    }
}

/// The memoized summary of one solved pair — everything a cached answer
/// needs to replay the pair's event stream and mark without re-solving.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredResult {
    pub functional: String,
    pub condition: Condition,
    pub mark: TableMark,
    /// Deduplicated counterexample witnesses, in region order.
    pub witnesses: Vec<Vec<f64>>,
    /// Measured solve wall time — drives the persistence admission.
    pub wall_ms: u64,
    /// Region-status census `[verified, counterexample, inconclusive,
    /// timeout]` of the final region map.
    pub regions: [u64; 4],
}

impl StoredResult {
    /// FNV-1a content checksum over every field that round-trips through
    /// the JSON document, key included. Floats hash by exact bit pattern —
    /// `fmt_f64` renders shortest-round-trip, so the bits survive the
    /// render/parse cycle and a recomputed checksum on load matches iff
    /// the document is the one that was finalized. A flipped bit, a torn
    /// tail, or a hand-edited mark all fail the check and quarantine.
    fn content_checksum(&self, key: &ResultKey) -> u64 {
        let mut h = fnv1a_str("xcv-serve-result-checksum/v2");
        h = fnv1a(h, &key.problem.source_hash.to_le_bytes());
        h = fnv1a(h, key.problem.condition.id().as_bytes());
        h = fnv1a(h, &key.problem.space_fp.to_le_bytes());
        h = fnv1a(h, &key.config_fp.to_le_bytes());
        h = fnv1a(h, self.functional.as_bytes());
        h = fnv1a(h, &[0]); // separator: functional name is free-form
        h = fnv1a(h, mark_tag(self.mark).as_bytes());
        h = fnv1a(h, &self.wall_ms.to_le_bytes());
        for r in self.regions {
            h = fnv1a(h, &r.to_le_bytes());
        }
        h = fnv1a(h, &(self.witnesses.len() as u64).to_le_bytes());
        for w in &self.witnesses {
            h = fnv1a(h, &(w.len() as u64).to_le_bytes());
            for v in w {
                h = fnv1a(h, &v.to_bits().to_le_bytes());
            }
        }
        h
    }

    fn render(&self, key: &ResultKey) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!(
            "  \"checksum\": \"{:016x}\",\n",
            self.content_checksum(key)
        ));
        // u64 fingerprints travel as hex strings: the hand-rolled Json
        // parses numbers through f64, which silently rounds above 2^53.
        out.push_str(&format!(
            "  \"source_hash\": \"{:016x}\", \"condition\": \"{}\", \
             \"space_fp\": \"{:016x}\", \"config_fp\": \"{:016x}\",\n",
            key.problem.source_hash,
            key.problem.condition.id(),
            key.problem.space_fp,
            key.config_fp
        ));
        out.push_str(&format!(
            "  \"functional\": \"{}\", \"mark\": \"{}\", \"wall_ms\": {},\n",
            escape(&self.functional),
            mark_tag(self.mark),
            self.wall_ms
        ));
        out.push_str(&format!(
            "  \"regions\": [{}, {}, {}, {}],\n",
            self.regions[0], self.regions[1], self.regions[2], self.regions[3]
        ));
        out.push_str("  \"witnesses\": [");
        for (i, w) in self.witnesses.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('[');
            for (j, v) in w.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&fmt_f64(*v));
            }
            out.push(']');
        }
        out.push_str("]\n}\n");
        out
    }

    fn parse(text: &str) -> Result<(ResultKey, StoredResult), String> {
        let doc = Json::parse(text)?;
        if doc.want("schema")?.as_str()? != SCHEMA {
            return Err(format!(
                "unsupported result schema {:?}",
                doc.want("schema")?.as_str()?
            ));
        }
        let hex = |field: &str| -> Result<u64, String> {
            let s = doc.want(field)?.as_str()?;
            u64::from_str_radix(s, 16).map_err(|e| format!("{field}: {e}"))
        };
        let cond_id = doc.want("condition")?.as_str()?;
        let condition =
            Condition::from_id(cond_id).ok_or_else(|| format!("unknown condition {cond_id:?}"))?;
        let mark_s = doc.want("mark")?.as_str()?;
        let mark = parse_mark(mark_s).ok_or_else(|| format!("unknown mark {mark_s:?}"))?;
        let regions_v = doc.want("regions")?.as_arr()?;
        if regions_v.len() != 4 {
            return Err("regions census needs exactly 4 entries".to_string());
        }
        let mut regions = [0u64; 4];
        for (i, v) in regions_v.iter().enumerate() {
            regions[i] = v.as_u64()?;
        }
        let witnesses = doc
            .want("witnesses")?
            .as_arr()?
            .iter()
            .map(|w| w.as_arr()?.iter().map(Json::as_f64).collect())
            .collect::<Result<Vec<Vec<f64>>, _>>()?;
        let key = ResultKey {
            problem: ProblemKey {
                source_hash: hex("source_hash")?,
                condition,
                space_fp: hex("space_fp")?,
            },
            config_fp: hex("config_fp")?,
        };
        let result = StoredResult {
            functional: doc.want("functional")?.as_str()?.to_string(),
            condition,
            mark,
            witnesses,
            wall_ms: doc.want("wall_ms")?.as_u64()?,
            regions,
        };
        let stored_sum = hex("checksum")?;
        let computed = result.content_checksum(&key);
        if stored_sum != computed {
            return Err(format!(
                "checksum mismatch: stored {stored_sum:016x}, content hashes to {computed:016x}"
            ));
        }
        Ok((key, result))
    }
}

/// The outcome of a non-blocking claim.
#[derive(Debug, Clone, PartialEq)]
pub enum Claim {
    /// Memoized — here is the answer.
    Hit(StoredResult),
    /// The caller now owns this key's solve and MUST call
    /// [`ResultStore::finalize`] or [`ResultStore::abandon`] — or wrap the
    /// leadership in a [`LeaderGuard`] so a panic abandons it automatically.
    Leader,
    /// Another request is solving this key; defer and
    /// [`ResultStore::wait_for`] it after finalizing your own leads.
    Busy,
}

/// The outcome of a bounded wait ([`ResultStore::wait_for_timeout`]).
#[derive(Debug, Clone, PartialEq)]
pub enum WaitOutcome {
    /// The key left the in-flight set: `Some` result, or `None` when the
    /// leader abandoned it (the caller should re-claim).
    Ready(Option<StoredResult>),
    /// The leader was still solving when the timeout expired. The wait
    /// consumed no leadership — the solve keeps running and a later wait
    /// or claim can still pick the result up.
    TimedOut,
}

/// RAII wrapper around an already-granted leadership: dropping the guard
/// without [`LeaderGuard::finalize`] abandons the claim and wakes the
/// coalesced waiters. This is the panic-isolation primitive — a request
/// thread that unwinds mid-solve releases every leadership it held, so
/// `Busy` waiters re-claim and take over instead of deadlocking.
pub struct LeaderGuard<'a> {
    store: &'a ResultStore,
    key: ResultKey,
    done: bool,
}

impl<'a> LeaderGuard<'a> {
    /// The guarded key.
    pub fn key(&self) -> ResultKey {
        self.key
    }

    /// Publish the result (consumes the guard; no abandon on drop).
    pub fn finalize(mut self, result: StoredResult) {
        self.done = true;
        self.store.finalize(self.key, result);
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.store.abandon(self.key);
        }
    }
}

#[derive(Default)]
struct Inner {
    memo: HashMap<ResultKey, StoredResult>,
    inflight: HashSet<ResultKey>,
}

/// The level-2/3 store. All methods take `&self`; share via `Arc`.
pub struct ResultStore {
    dir: Option<PathBuf>,
    admit_ms: u64,
    inner: Mutex<Inner>,
    cv: Condvar,
    hits: AtomicU64,
    solves: AtomicU64,
    coalesced: AtomicU64,
    persisted: AtomicU64,
    warm_loaded: AtomicU64,
    quarantined: AtomicU64,
    fault_plan: Option<Arc<FaultPlan>>,
}

impl ResultStore {
    /// An in-memory store (nothing survives the process).
    pub fn in_memory() -> Self {
        Self::with_dir(None, 0)
    }

    /// A store backed by `dir`: results whose solve took at least
    /// `admit_ms` are persisted there, and every readable result file in
    /// `dir` is warm-loaded into the memo now.
    pub fn open(dir: impl Into<PathBuf>, admit_ms: u64) -> Self {
        Self::with_dir(Some(dir.into()), admit_ms)
    }

    fn with_dir(dir: Option<PathBuf>, admit_ms: u64) -> Self {
        let store = ResultStore {
            dir,
            admit_ms,
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
            hits: AtomicU64::new(0),
            solves: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            persisted: AtomicU64::new(0),
            warm_loaded: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            fault_plan: None,
        };
        if let Some(dir) = &store.dir {
            let mut inner = store.lock_inner();
            for (path, text) in read_dir_json(dir) {
                match StoredResult::parse(&text) {
                    Ok((key, result)) => {
                        inner.memo.insert(key, result);
                        store.warm_loaded.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        // Corrupt document (torn write under a kill, bit
                        // rot, schema drift): rename it out of the `.json`
                        // namespace so no later scan trips on it, and let
                        // the pair recompute. Never crash, never serve it.
                        store.quarantined.fetch_add(1, Ordering::Relaxed);
                        match quarantine(&path) {
                            Ok(dest) => eprintln!(
                                "xcvserve: corrupt result {} ({e}); quarantined to {}",
                                path.display(),
                                dest.display()
                            ),
                            Err(io) => eprintln!(
                                "xcvserve: corrupt result {} ({e}); quarantine failed: {io}",
                                path.display()
                            ),
                        }
                    }
                }
            }
        }
        store
    }

    /// Attach a deterministic [`FaultPlan`] (test harness hook) before the
    /// store is shared: plans arming [`FaultSite::FinalizeIo`] or
    /// [`FaultSite::StoreCorrupt`] sabotage the persist path on schedule.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.fault_plan = Some(plan);
    }

    /// The store's mutable state, recovering from mutex poisoning: every
    /// lock region here upholds the memo/inflight invariants before
    /// releasing, so the state a panicking thread left behind is
    /// consistent — and a daemon that isolated that panic must keep
    /// serving from it rather than unwinding on every later lock.
    fn lock_inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Non-blocking claim: memo hit, leadership, or busy. Leadership is
    /// granted at most once per key until finalized/abandoned.
    pub fn try_claim(&self, key: ResultKey) -> Claim {
        let mut inner = self.lock_inner();
        if let Some(r) = inner.memo.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Claim::Hit(r.clone());
        }
        if inner.inflight.contains(&key) {
            return Claim::Busy;
        }
        inner.inflight.insert(key);
        self.solves.fetch_add(1, Ordering::Relaxed);
        Claim::Leader
    }

    /// Wrap an already-granted [`Claim::Leader`] in a [`LeaderGuard`]:
    /// dropped without finalizing (early return, panic unwinding through
    /// the caller), the guard abandons the leadership so waiters re-claim.
    pub fn guard(&self, key: ResultKey) -> LeaderGuard<'_> {
        LeaderGuard {
            store: self,
            key,
            done: false,
        }
    }

    /// Block until `key` is no longer in flight, then return its memoized
    /// result (`None` if the leader abandoned it — e.g. the pair failed
    /// to encode or the connection died; the caller should re-claim).
    pub fn wait_for(&self, key: ResultKey) -> Option<StoredResult> {
        let mut inner = self.lock_inner();
        while inner.inflight.contains(&key) {
            inner = self.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
        self.finish_wait(&inner, key)
    }

    /// [`ResultStore::wait_for`] bounded by `timeout`: a serving thread
    /// must never block unconditionally on another request's solve — a
    /// wedged leader would wedge every coalesced connection with it.
    pub fn wait_for_timeout(&self, key: ResultKey, timeout: Duration) -> WaitOutcome {
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock_inner();
        while inner.inflight.contains(&key) {
            let Some(left) = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                return WaitOutcome::TimedOut;
            };
            let (guard, wait) = self
                .cv
                .wait_timeout(inner, left)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
            if wait.timed_out() && inner.inflight.contains(&key) {
                return WaitOutcome::TimedOut;
            }
        }
        WaitOutcome::Ready(self.finish_wait(&inner, key))
    }

    fn finish_wait(&self, inner: &Inner, key: ResultKey) -> Option<StoredResult> {
        let r = inner.memo.get(&key).cloned();
        if r.is_some() {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    /// Publish a leader's result: memoize, release waiters, and — when the
    /// solve was expensive enough and the store has a directory — persist
    /// with the atomic-rename retry ladder. Persistence failures are
    /// reported but never lose the in-memory result.
    pub fn finalize(&self, key: ResultKey, result: StoredResult) {
        {
            let mut inner = self.lock_inner();
            inner.inflight.remove(&key);
            inner.memo.insert(key, result.clone());
        }
        self.cv.notify_all();
        if let Some(dir) = &self.dir {
            if result.wall_ms >= self.admit_ms {
                if let Err(e) =
                    std::fs::create_dir_all(dir).and_then(|()| self.persist(dir, &key, &result))
                {
                    eprintln!("xcvserve: persist {key} failed: {e}");
                } else {
                    self.persisted.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// The disk half of [`ResultStore::finalize`], with the fault hooks:
    /// `FinalizeIo` turns the write into a synthetic I/O error (the memo
    /// keeps the result); `StoreCorrupt` writes a torn document — half the
    /// rendering — modelling a non-atomic filesystem under a kill, which a
    /// restart must quarantine rather than serve or crash on.
    fn persist(&self, dir: &Path, key: &ResultKey, result: &StoredResult) -> std::io::Result<()> {
        let path = dir.join(format!("{key}.json"));
        let text = result.render(key);
        if let Some(plan) = &self.fault_plan {
            if plan.should_fire(FaultSite::FinalizeIo) {
                return Err(std::io::Error::other("injected fault: finalize I/O error"));
            }
            if plan.should_fire(FaultSite::StoreCorrupt) {
                return write_atomic(&path, &text[..text.len() / 2]);
            }
        }
        write_atomic_retry(&path, &text, PERSIST_ATTEMPTS, PERSIST_BACKOFF)
    }

    /// Release a leadership without publishing a result (encode failure,
    /// pair skipped, connection torn down mid-solve). Waiters wake and
    /// re-claim.
    pub fn abandon(&self, key: ResultKey) {
        let mut inner = self.lock_inner();
        if inner.inflight.remove(&key) {
            drop(inner);
            self.cv.notify_all();
        }
    }

    /// `(memoized results, memo hits, leader solves, coalesced waits,
    /// persisted files, warm-loaded files, quarantined files)`.
    pub fn counters(&self) -> (u64, u64, u64, u64, u64, u64, u64) {
        (
            self.lock_inner().memo.len() as u64,
            self.hits.load(Ordering::Relaxed),
            self.solves.load(Ordering::Relaxed),
            self.coalesced.load(Ordering::Relaxed),
            self.persisted.load(Ordering::Relaxed),
            self.warm_loaded.load(Ordering::Relaxed),
            self.quarantined.load(Ordering::Relaxed),
        )
    }

    /// The backing directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn key(n: u64) -> ResultKey {
        ResultKey {
            problem: ProblemKey {
                source_hash: 0xabcd_0000 + n,
                condition: Condition::EcNonPositivity,
                space_fp: 0x1234_5678_9abc_def0,
            },
            config_fp: 0xfeed_beef_dead_c0de,
        }
    }

    fn result(wall_ms: u64) -> StoredResult {
        StoredResult {
            functional: "VWN RPA".into(),
            condition: Condition::EcNonPositivity,
            mark: TableMark::Counterexample,
            witnesses: vec![vec![0.1, 2.5e-3], vec![12.5, 0.0]],
            wall_ms,
            regions: [3, 1, 0, 0],
        }
    }

    #[test]
    fn stored_results_round_trip_through_json() {
        let (k, r) = (key(1), result(42));
        let text = r.render(&k);
        let (k2, r2) = StoredResult::parse(&text).unwrap();
        assert_eq!(k2, k);
        assert_eq!(r2, r);
    }

    #[test]
    fn claim_hit_leader_busy_protocol() {
        let store = ResultStore::in_memory();
        let k = key(2);
        assert_eq!(store.try_claim(k), Claim::Leader);
        assert_eq!(store.try_claim(k), Claim::Busy);
        store.finalize(k, result(1));
        assert!(matches!(store.try_claim(k), Claim::Hit(_)));
        let (results, hits, solves, ..) = store.counters();
        assert_eq!((results, hits, solves), (1, 1, 1));
    }

    #[test]
    fn abandoned_leadership_lets_waiters_reclaim() {
        let store = ResultStore::in_memory();
        let k = key(3);
        assert_eq!(store.try_claim(k), Claim::Leader);
        store.abandon(k);
        assert_eq!(store.wait_for(k), None);
        assert_eq!(store.try_claim(k), Claim::Leader);
    }

    #[test]
    fn waiters_coalesce_onto_one_solve() {
        let store = Arc::new(ResultStore::in_memory());
        let k = key(4);
        assert_eq!(store.try_claim(k), Claim::Leader);
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || store.wait_for(k))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        store.finalize(k, result(7));
        for w in waiters {
            assert_eq!(w.join().unwrap(), Some(result(7)));
        }
        let (_, _, solves, coalesced, ..) = store.counters();
        assert_eq!(solves, 1);
        assert_eq!(coalesced, 4);
    }

    #[test]
    fn admission_is_cost_driven_and_warm_start_reads_it_back() {
        let dir = std::env::temp_dir().join(format!("xcv_serve_store_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let store = ResultStore::open(&dir, 10);
            let cheap = key(5);
            assert_eq!(store.try_claim(cheap), Claim::Leader);
            store.finalize(cheap, result(3)); // below admit_ms: memo only
            let costly = key(6);
            assert_eq!(store.try_claim(costly), Claim::Leader);
            store.finalize(costly, result(42)); // persisted
            assert_eq!(store.counters().4, 1);
        }
        let warm = ResultStore::open(&dir, 10);
        assert_eq!(warm.counters().5, 1, "one file warm-loaded");
        assert!(matches!(warm.try_claim(key(6)), Claim::Hit(r) if r == result(42)));
        assert_eq!(
            warm.try_claim(key(5)),
            Claim::Leader,
            "cheap pair recomputes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_documents_fail_the_checksum() {
        let (k, r) = (key(7), result(42));
        let text = r.render(&k);
        assert!(StoredResult::parse(&text).is_ok(), "pristine parses");
        // Flip the mark: still valid JSON, still schema-correct — only the
        // content checksum can catch it.
        let tampered = text.replace("\"mark\": \"counterexample\"", "\"mark\": \"verified\"");
        assert_ne!(tampered, text);
        let err = StoredResult::parse(&tampered).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        // A truncated document fails parse outright (torn write).
        assert!(StoredResult::parse(&text[..text.len() / 2]).is_err());
    }

    #[test]
    fn corrupt_store_files_are_quarantined_on_warm_start() {
        let dir = std::env::temp_dir().join(format!("xcv_serve_quar_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let (k, r) = (key(8), result(42));
        std::fs::write(dir.join(format!("{k}.json")), r.render(&k)).unwrap();
        // One torn document and one bit-flipped document alongside it.
        let k2 = key(9);
        let text = result(42).render(&k2);
        std::fs::write(dir.join(format!("{k2}.json")), &text[..text.len() / 2]).unwrap();
        let k3 = key(10);
        let flipped = result(42)
            .render(&k3)
            .replace("\"wall_ms\": 42", "\"wall_ms\": 43");
        std::fs::write(dir.join(format!("{k3}.json")), flipped).unwrap();

        let store = ResultStore::open(&dir, 10);
        let (results, .., warm_loaded, quarantined) = store.counters();
        assert_eq!((results, warm_loaded, quarantined), (1, 1, 2));
        assert!(
            matches!(store.try_claim(k), Claim::Hit(_)),
            "good file serves"
        );
        assert_eq!(store.try_claim(k2), Claim::Leader, "torn file recomputes");
        assert_eq!(
            store.try_claim(k3),
            Claim::Leader,
            "flipped file recomputes"
        );
        let bad: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "bad"))
            .collect();
        assert_eq!(bad.len(), 2, "both corrupt files renamed *.bad");
        // A second warm start no longer sees them at all.
        let again = ResultStore::open(&dir, 10);
        assert_eq!(
            again.counters().6,
            0,
            "quarantined files stay out of the scan"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bounded_wait_times_out_and_later_wait_picks_up_the_result() {
        let store = Arc::new(ResultStore::in_memory());
        let k = key(11);
        assert_eq!(store.try_claim(k), Claim::Leader);
        // The leader is "wedged": a bounded waiter gives up on schedule...
        let t0 = Instant::now();
        assert_eq!(
            store.wait_for_timeout(k, Duration::from_millis(30)),
            WaitOutcome::TimedOut
        );
        assert!(t0.elapsed() >= Duration::from_millis(30));
        // ...without consuming the leadership: finalize still lands and a
        // later bounded wait returns immediately with the result.
        store.finalize(k, result(7));
        assert_eq!(
            store.wait_for_timeout(k, Duration::from_millis(30)),
            WaitOutcome::Ready(Some(result(7)))
        );
    }

    #[test]
    fn dropped_leader_guard_abandons_and_wakes_waiters() {
        let store = Arc::new(ResultStore::in_memory());
        let k = key(12);
        assert_eq!(store.try_claim(k), Claim::Leader);
        let waiter = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.wait_for(k))
        };
        // Simulate a panicking leader: the guard unwinds without finalize.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = store.guard(k);
            panic!("injected: leader dies mid-solve");
        }));
        assert!(unwound.is_err());
        assert_eq!(waiter.join().unwrap(), None, "waiter wakes, sees abandon");
        assert_eq!(store.try_claim(k), Claim::Leader, "leadership re-claimable");
        // And a guard that does finalize publishes normally.
        store.guard(k).finalize(result(5));
        assert!(matches!(store.try_claim(k), Claim::Hit(_)));
    }

    #[test]
    fn finalize_faults_lose_the_file_but_never_the_memo() {
        let dir = std::env::temp_dir().join(format!("xcv_serve_finfault_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut store = ResultStore::open(&dir, 0);
        store.set_fault_plan(Arc::new(
            FaultPlan::new(0).arm(FaultSite::FinalizeIo, xcv_core::FaultRule::First(1)),
        ));
        let k = key(13);
        assert_eq!(store.try_claim(k), Claim::Leader);
        store.finalize(k, result(9)); // injected I/O error on the write
        assert_eq!(store.counters().4, 0, "nothing persisted");
        assert!(
            matches!(store.try_claim(k), Claim::Hit(r) if r == result(9)),
            "the in-memory result survives the persist failure"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
