//! xcv-serve — the long-running verification daemon (`xcvserve`) and its
//! line-JSON client.
//!
//! A verification campaign's cost is dominated by two front-loaded pieces
//! of work that are pure functions of the query: encoding/compiling the
//! (functional, condition) pair into interval tapes, and the
//! branch-and-prune solve itself. A CI fleet or an interactive user asks
//! the same queries over and over, so this crate keeps a daemon resident
//! and answers from a three-level cache:
//!
//! * **Level 1 — compiled problems** ([`xcv_core::ProblemCache`]): one
//!   `Arc<EncodedProblem>` per content key *(DSL source hash, condition,
//!   VarSpace fingerprint)*. A warm hit skips tape compilation entirely —
//!   observable as a flat [`xcv_solver::compile_count`].
//! * **Level 2 — memoized results** ([`store::ResultStore`]): the
//!   TableMark/witness summary keyed by the level-1 key *plus* the solver
//!   configuration fingerprint ([`xcv_core::VerifierConfig::fingerprint`]).
//!   Admission to the on-disk store is cost-driven: only results whose
//!   solve took at least `admit_ms` are persisted (atomic temp-file +
//!   rename with a retry ladder); cheap pairs are recomputed on restart. A
//!   restarted daemon warms its memo from the store directory.
//! * **Level 3 — in-flight coalescing** ([`store::ResultStore::try_claim`]):
//!   N concurrent identical queries cost one solve. Claiming is
//!   non-blocking (`Hit` / `Leader` / `Busy`); a request solves and
//!   finalizes everything it leads *before* waiting on busy keys, so
//!   overlapping requests cannot deadlock.
//!
//! The wire protocol (line-delimited JSON over localhost TCP, `std::net`
//! only) is documented in [`proto`]; campaign progress streams back as
//! incremental event lines, so a thin client renders a server-backed run
//! exactly like an in-process one. `xcverify --server ADDR` is that thin
//! client, and answers are configured via the shared [`proto::Policy`] so
//! the server-backed and in-process paths derive identical
//! [`xcv_core::VerifierConfig`]s — and therefore identical marks — by
//! construction.
//!
//! ## Cache-key fingerprints
//!
//! All fingerprints are FNV-1a over exact bit patterns (no float
//! formatting), rendered as zero-padded hex in file names and on the wire
//! (the hand-rolled JSON parses numbers through `f64`, which cannot carry
//! 64-bit hashes):
//!
//! * problem: `{source_hash:016x}-{condition_id}-{space_fp:016x}`
//! * result: problem key + `-{config_fp:016x}` where `config_fp` covers
//!   δ, budget, split threshold, depth cap, and deadline — but *not* the
//!   parallelism knobs, which cannot change marks.
//!
//! A fingerprint changes whenever its hashed field list does. The solver
//! fingerprint has lost two hashed fields so far: the batch width (the
//! solver has one search engine) and the rung-0 mean-value switch (its
//! first-order math runs only as the ladder's rung-1 Newton). After each
//! removal every result a store persisted before it misses once and is
//! recomputed under its new key. An old file is never served for a new
//! key.
//!
//! ## Operations & failure modes
//!
//! The daemon is built to keep serving through the failures a long-running
//! service actually meets; the deterministic fault-injection suite
//! (`tests/service_faults.rs`, driven by [`xcv_core::FaultPlan`]) pins
//! each of these behaviours:
//!
//! * **A panicking solve** (solver bug, poisoned input) is caught at two
//!   `catch_unwind` boundaries — around each leader campaign and around
//!   the whole request. Every leadership is held via an RAII
//!   [`store::LeaderGuard`], so unwinding *abandons* the claims: coalesced
//!   `Busy` waiters wake, re-claim, and take the solve over. The client
//!   whose request panicked gets a structured `error` event; everyone
//!   else gets the correct marks. Shared caches recover from mutex
//!   poisoning (`PoisonError::into_inner`) and the `stats` counter
//!   `panics` records every isolated panic.
//! * **What survives a crash / restart**: results persisted to the store
//!   directory (solves that reached `admit_ms`) warm the memo on the next
//!   start; everything else — cheap results, in-flight solves, the
//!   compiled-problem cache — is recomputed on demand. Identical marks
//!   either way.
//! * **Corruption is quarantined, never served**: every stored result
//!   carries an FNV-1a content checksum (schema `xcv-serve-result/v2`).
//!   A document that fails to parse or checksum at warm start is renamed
//!   `*.bad` (kept for postmortem, invisible to later scans), counted in
//!   `stats.quarantined`, and its pair recomputes. Campaign checkpoint
//!   files get the same treatment in `xcv_core`.
//! * **Timeouts and backpressure** (defaults in [`ServerConfig`]): socket
//!   read timeout 30 s (reaps hung/idle connections — a stalled client
//!   wedges only itself), write timeout 10 s (a stalled reader's stream
//!   goes dead; the solve finishes and lands in the store), bounded
//!   coalescing waits (`wait_timeout`, 120 s) so a wedged leader cannot
//!   wedge its waiters, request lines capped at 1 MiB, and a
//!   64-connection cap answered with an explicit `busy` error. An
//!   optional per-request wall deadline (`request_deadline_ms`) degrades
//!   gracefully: it is one [`xcv_core::CancelToken::until`] shared by every
//!   campaign the request runs. Pairs already solved are answered; pairs
//!   it cuts, mid-solve or before they start, stream as
//!   `skipped: "timeout"`, are tallied in `done.timeouts`, and are never
//!   stored, so a later request without the deadline solves them afresh.
//! * **Client-side resilience**: [`Client::connect_retry`] rides out a
//!   binding/restarting daemon with doubling backoff, and
//!   `xcverify --server --fallback-local` degrades to the bit-identical
//!   in-process path (with a stderr warning) when the daemon is
//!   unreachable mid-campaign.
//!
//! ## Quickstart
//!
//! ```no_run
//! use xcv_serve::{Client, Event, Policy, Server, ServerConfig, VerifyRequest};
//!
//! let mut server = Server::spawn(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let done = client
//!     .verify(
//!         &VerifyRequest {
//!             functionals: vec!["PBE".into(), "LYP".into()],
//!             conditions: Vec::new(), // all seven
//!             policy: Policy::Gate { budget_ms: 100, threshold: 0.3 },
//!         },
//!         |event| {
//!             if let Event::Pair { functional, condition, mark, .. } = event {
//!                 println!("{functional} / {condition:?}: {mark:?}");
//!             }
//!         },
//!     )
//!     .unwrap();
//! assert_eq!(done.cached + done.solved, done.pairs - /* inapplicable */ 3);
//! server.shutdown();
//! ```

pub mod client;
pub mod proto;
pub mod server;
pub mod store;

pub use client::Client;
pub use proto::{Done, Event, Policy, Request, ServerStats, VerifyRequest};
pub use server::{canonical_name, Server, ServerConfig};
pub use store::{Claim, LeaderGuard, ResultKey, ResultStore, StoredResult, WaitOutcome};
pub use xcv_core::{FaultPlan, FaultRule, FaultSite};
