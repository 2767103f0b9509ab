//! `FdSession` — the transactional session over a live full disjunction.
//!
//! The paper's incremental algorithm (Theorem 4.10) maintains the full
//! disjunction one tuple at a time; the any-k line of work frames the
//! consumer side as a *long-lived enumeration session* that stays
//! incremental under demand. [`FdSession`] is that session: it owns the
//! database snapshot and the materialized result (plus an optional
//! ranked top-k window), accepts mutations in transactional
//! [`DeltaBatch`]es, and per [`commit`](FdSession::commit) runs **one**
//! maintenance pass — deletes processed as a group, inserts seeded
//! together in one multi-seed `FDi` run ([`crate::delta`]) — returning
//! the consolidated, net-effect [`FdEvent`] list. Consumers that would
//! rather be pushed than poll register an [`EventSink`]
//! ([`subscribe`](FdSession::subscribe)); [`VecSink`] collects, a
//! [`ChannelSink`] forwards into an `mpsc` channel a network front end
//! can drain.
//!
//! ```
//! use fd_core::{FdQuery, FdSession};
//! use fd_relational::{tourist_database, RelId, TupleId};
//!
//! let db = tourist_database();
//! let mut session = FdQuery::over(&db).session()?;
//! assert_eq!(session.len(), 6); // Table 2 of the paper
//!
//! // Three mutations, one transaction, one maintenance pass.
//! let mut batch = session.begin();
//! batch
//!     .insert(RelId(0), vec!["Chile".into(), "arid".into()])
//!     .insert(RelId(0), vec!["Peru".into(), "arid".into()])
//!     .delete(TupleId(3));
//! let commit = session.commit(batch)?;
//! assert_eq!(commit.changes.len(), 3);
//! assert_eq!(session.maintenance_passes(), 1);
//! assert!(session.verify_snapshot());
//! # Ok::<(), fd_core::FdError>(())
//! ```

use crate::delta::{delta_batch, ResultStore};
use crate::error::FdError;
use crate::incremental::{canonicalize, FdConfig};
use crate::obs::{Counter, Gauge, Histogram, Registry};
use crate::query::FdQuery;
use crate::ranking::{canonical_rank_order, RankingFunction};
use crate::stats::Stats;
use crate::store::{FsyncPolicy, Store, StoreError, Wal};
use crate::tupleset::TupleSet;
use fd_relational::{apply_delta, validate_batch, Change, Database, Delta, TupleId};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

pub use fd_relational::DeltaBatch;

/// One change to the materialized full disjunction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdEvent {
    /// A tuple set entered the full disjunction.
    Added(TupleSet),
    /// A tuple set left the full disjunction (it was subsumed by a new
    /// result, or a member tuple was deleted).
    Retracted(TupleSet),
}

impl FdEvent {
    /// The tuple set the event concerns.
    pub fn set(&self) -> &TupleSet {
        match self {
            FdEvent::Added(s) | FdEvent::Retracted(s) => s,
        }
    }

    /// Renders the event the way `fd watch` prints it: `+ {c1, a1}` /
    /// `- {c1, a1}`.
    pub fn label(&self, db: &Database) -> String {
        match self {
            FdEvent::Added(s) => format!("+ {}", s.label(db)),
            FdEvent::Retracted(s) => format!("- {}", s.label(db)),
        }
    }
}

/// What one commit did to the ranked top-k window.
#[derive(Debug, Clone, Default)]
pub struct TopKUpdate {
    /// The underlying result-set changes (retractions first).
    pub events: Vec<FdEvent>,
    /// Sets that entered the top-k window, with their ranks.
    pub entered: Vec<(TupleSet, f64)>,
    /// Sets that left the top-k window (retracted or outranked).
    pub left: Vec<TupleSet>,
}

/// A push subscriber of an [`FdSession`]: called once per [`FdEvent`]
/// of every commit, in event order (retractions first), then once per
/// commit with the whole [`Commit`] (and — on ranked sessions — once
/// with the [`TopKUpdate`]).
///
/// Sinks must not mutate the session (they receive `&mut self`, not the
/// session); a sink whose consumer went away should ignore the
/// notification rather than panic. Sinks are `Send` so a session can be
/// shared across threads (the `fd serve` daemon wraps one in
/// [`crate::serve::SessionHandle`]).
pub trait EventSink: Send {
    /// One result-set change of a commit.
    fn on_event(&mut self, event: &FdEvent);

    /// The ranked window's net change of a commit (ranked sessions only;
    /// also called when the window did not move, with empty
    /// `entered`/`left`). Default: ignore.
    fn on_topk(&mut self, update: &TopKUpdate) {
        let _ = update;
    }

    /// The consolidated commit, delivered once per commit after its
    /// per-event [`on_event`](Self::on_event) calls, together with the
    /// post-commit database (so a sink can render labels without holding
    /// a reference into the session). Default: ignore.
    fn on_commit(&mut self, commit: &Commit, db: &Database) {
        let _ = (commit, db);
    }
}

/// Identifies one subscribed [`EventSink`] of a session, as returned by
/// [`FdSession::subscribe`]; pass it to [`FdSession::unsubscribe`] to
/// deregister (e.g. when a network subscriber disconnects).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SinkId(u64);

impl std::fmt::Display for SinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// An [`EventSink`] that collects into shared vectors. `Clone` hands out
/// another handle to the same storage, so one clone can be subscribed
/// while the other is drained:
///
/// ```
/// use fd_core::{FdSession, VecSink};
/// use fd_relational::{tourist_database, RelId};
///
/// let mut session = FdSession::new(tourist_database());
/// let sink = VecSink::new();
/// session.subscribe(sink.clone());
/// let mut batch = session.begin();
/// batch.insert(RelId(0), vec!["Chile".into(), "arid".into()]);
/// session.commit(batch)?;
/// assert_eq!(sink.events().len(), 1);
/// # Ok::<(), fd_core::FdError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    inner: std::sync::Arc<std::sync::Mutex<VecSinkState>>,
}

#[derive(Debug, Default)]
struct VecSinkState {
    events: Vec<FdEvent>,
    updates: Vec<TopKUpdate>,
}

impl VecSink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every event delivered so far, oldest first.
    ///
    /// Poisoning is recovered, not propagated: each push below is a
    /// single `Vec::push` with no unwind point mid-update, so a
    /// poisoned sink still holds a consistent event list and a reader
    /// must not die over an unrelated writer's panic.
    pub fn events(&self) -> Vec<FdEvent> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .events
            .clone()
    }

    /// Every ranked-window update delivered so far, oldest first.
    pub fn updates(&self) -> Vec<TopKUpdate> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .updates
            .clone()
    }
}

impl EventSink for VecSink {
    fn on_event(&mut self, event: &FdEvent) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .events
            .push(event.clone());
    }

    fn on_topk(&mut self, update: &TopKUpdate) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .updates
            .push(update.clone());
    }
}

/// An [`EventSink`] that forwards every [`FdEvent`] into a
/// `std::sync::mpsc` channel — the push-delivery half a network front
/// end sits on. Send errors (the receiver hung up) are ignored: a
/// departed subscriber must not take the session down.
#[derive(Debug)]
pub struct ChannelSink {
    events: std::sync::mpsc::Sender<FdEvent>,
}

impl ChannelSink {
    /// A sink delivering every [`FdEvent`] to the returned receiver.
    pub fn new() -> (Self, std::sync::mpsc::Receiver<FdEvent>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (ChannelSink { events: tx }, rx)
    }
}

impl EventSink for ChannelSink {
    fn on_event(&mut self, event: &FdEvent) {
        let _ = self.events.send(event.clone());
    }
}

/// Wall-clock breakdown of one [`FdSession::commit`], phase by phase.
///
/// The same durations land in the session registry's
/// `fd_commit_*_seconds` histograms; carrying them on the [`Commit`] as
/// well lets per-commit consumers (`fd serve --log`, tests) report a
/// single commit without reading aggregates. `fanout` (and therefore
/// the portion of `total` after the sink loop) is measured *after* the
/// subscribers ran, so sinks themselves observe it as zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitTimings {
    /// Validating the batch against the database (nothing is changed
    /// yet).
    pub validate: Duration,
    /// Appending the batch to the write-ahead log, fsync included
    /// (durable sessions only; zero in memory).
    pub wal: Duration,
    /// Applying the validated batch to the database.
    pub apply: Duration,
    /// The single delta-maintenance pass ([`crate::delta`]).
    pub maintain: Duration,
    /// Folding retractions/additions into the materialized result and
    /// the ranked window, and diffing the top-k window.
    pub window: Duration,
    /// Delivering events to the subscribed sinks.
    pub fanout: Duration,
    /// End-to-end commit time (validate + wal + apply + maintain +
    /// window + fanout, plus bookkeeping).
    pub total: Duration,
}

/// The realized outcome of one [`FdSession::commit`].
#[derive(Debug, Clone)]
pub struct Commit {
    /// The realized mutations, in application order, with the tuple ids
    /// the database assigned.
    pub changes: Vec<Change>,
    /// The net effect on the full disjunction — retractions first, then
    /// additions. A set the batch would have both added and retracted
    /// under singleton replay never appears.
    pub events: Vec<FdEvent>,
    /// The ranked window's net change (ranked sessions only).
    pub topk: Option<TopKUpdate>,
    /// Work counters of the single maintenance pass.
    pub stats: Stats,
    /// Wall-clock phase breakdown of this commit (zero on the empty
    /// no-op commit; `fanout`/post-fanout `total` are zero as seen *by*
    /// sinks).
    pub timings: CommitTimings,
}

impl Commit {
    /// Tuple ids the commit's inserts received, in batch order.
    pub fn inserted(&self) -> Vec<TupleId> {
        split(&self.changes).0
    }

    /// Tuple ids the commit removed, in batch order.
    pub fn removed(&self) -> Vec<TupleId> {
        split(&self.changes).1
    }
}

/// The tuple ids a batch inserted and removed, each in batch order.
fn split(changes: &[Change]) -> (Vec<TupleId>, Vec<TupleId>) {
    let (mut inserted, mut removed) = (Vec::new(), Vec::new());
    for change in changes {
        match change {
            Change::Inserted { tuple, .. } => inserted.push(*tuple),
            Change::Removed { tuple, .. } => removed.push(*tuple),
        }
    }
    (inserted, removed)
}

/// The ranking of a ranked session: the function, the window size and
/// the window itself, the first `k` keys of the result store's rank
/// order. A retracted set leaves that order by its *recorded* rank, so
/// the function never re-evaluates it against the mutated database.
struct Ranked<'q> {
    f: Box<dyn RankingFunction + Send + 'q>,
    k: usize,
    window: Vec<(TupleSet, f64)>,
}

impl std::fmt::Debug for Ranked<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ranked").field("k", &self.k).finish()
    }
}

/// Pre-bound handles into the session's [`Registry`] — resolved once at
/// construction so the commit hot path touches only atomics, never the
/// registry lock.
#[derive(Debug)]
struct SessionMetrics {
    registry: Arc<Registry>,
    commits: Arc<Counter>,
    aborts: Arc<Counter>,
    events: Arc<Counter>,
    results: Arc<Gauge>,
    subscribers: Arc<Gauge>,
    materialize: Arc<Histogram>,
    validate: Arc<Histogram>,
    apply: Arc<Histogram>,
    maintain: Arc<Histogram>,
    window: Arc<Histogram>,
    fanout: Arc<Histogram>,
    total: Arc<Histogram>,
    wal_appends: Arc<Counter>,
    wal_bytes: Arc<Counter>,
    wal_fsync: Arc<Histogram>,
    snapshot: Arc<Histogram>,
    checkpoint_errors: Arc<Counter>,
    recovery_replayed: Arc<Counter>,
    index_probes: Arc<Counter>,
    index_hits: Arc<Counter>,
    /// Last-seen cumulative [`Database`] probe counters, so each fold
    /// adds only the delta to the monotone registry families.
    seen_probes: AtomicU64,
    seen_hits: AtomicU64,
    /// One counter per [`Stats`] field, in [`Stats::fields`] order.
    ops: Vec<Arc<Counter>>,
}

impl SessionMetrics {
    fn new() -> Self {
        let registry = Arc::new(Registry::new());
        let ops = Stats::new()
            .fields()
            .iter()
            .map(|(name, _)| {
                registry.counter(
                    &format!("fd_ops_total{{op=\"{name}\"}}"),
                    "Cumulative maintenance work counters (the paper's Section 7 operation counts).",
                )
            })
            .collect();
        SessionMetrics {
            commits: registry.counter("fd_commits_total", "Successful non-empty session commits."),
            aborts: registry.counter(
                "fd_commit_aborts_total",
                "Commits rejected by batch validation (nothing changed).",
            ),
            events: registry.counter(
                "fd_events_total",
                "Net result changes (added + retracted) across all commits.",
            ),
            results: registry.gauge(
                "fd_results",
                "Tuple sets currently in the full disjunction.",
            ),
            subscribers: registry.gauge("fd_subscribers", "Currently subscribed event sinks."),
            materialize: registry.histogram(
                "fd_materialize_seconds",
                "Initial full-disjunction materialization time.",
            ),
            validate: registry.histogram(
                "fd_commit_validate_seconds",
                "Commit phase: batch validation.",
            ),
            apply: registry.histogram(
                "fd_commit_apply_seconds",
                "Commit phase: applying the validated batch to the database.",
            ),
            maintain: registry.histogram(
                "fd_commit_maintain_seconds",
                "Commit phase: the single delta-maintenance pass.",
            ),
            window: registry.histogram(
                "fd_commit_window_seconds",
                "Commit phase: materialized-result and ranked-window update.",
            ),
            fanout: registry.histogram(
                "fd_commit_fanout_seconds",
                "Commit phase: subscriber event fan-out.",
            ),
            total: registry.histogram("fd_commit_seconds", "End-to-end commit latency."),
            wal_appends: registry.counter(
                "fd_wal_appends_total",
                "Committed batches appended to the write-ahead log.",
            ),
            wal_bytes: registry.counter(
                "fd_wal_bytes_total",
                "Bytes appended to the write-ahead log.",
            ),
            wal_fsync: registry.histogram(
                "fd_wal_fsync_us",
                "WAL append + flush latency per commit, under the session's fsync policy.",
            ),
            snapshot: registry.histogram(
                "fd_snapshot_us",
                "Snapshot write + WAL truncation latency per checkpoint.",
            ),
            checkpoint_errors: registry.counter(
                "fd_checkpoint_errors_total",
                "Failed automatic compaction checkpoints (the commits stayed durable in the WAL).",
            ),
            recovery_replayed: registry.counter(
                "fd_recovery_replayed_batches",
                "WAL-tail batches replayed through maintenance during recovery.",
            ),
            // Registered eagerly (not on first probe) so a scrape taken
            // before any commit already shows the families at zero.
            index_probes: registry.counter(
                "fd_index_probes_total",
                "Join-column index probes (candidate lookups by bound shared attributes).",
            ),
            index_hits: registry.counter(
                "fd_index_hits_total",
                "Index probes answered from posting lists (the rest fell back to a scan).",
            ),
            seen_probes: AtomicU64::new(0),
            seen_hits: AtomicU64::new(0),
            ops,
            registry,
        }
    }

    /// Folds one commit's operation counters into the monotone
    /// `fd_ops_total{op=…}` series.
    fn record_ops(&self, stats: &Stats) {
        for ((_, value), counter) in stats.fields().iter().zip(&self.ops) {
            counter.add(*value);
        }
    }

    /// Folds the database's cumulative join-index probe counters (as
    /// deltas since the last fold) into the registry.
    fn record_index(&self, db: &Database) {
        let probes = db.index_probes();
        let hits = db.index_hits();
        let prev_probes = self.seen_probes.swap(probes, Ordering::Relaxed);
        let prev_hits = self.seen_hits.swap(hits, Ordering::Relaxed);
        self.index_probes.add(probes.saturating_sub(prev_probes));
        self.index_hits.add(hits.saturating_sub(prev_hits));
    }
}

/// WAL size at which a durable commit triggers an automatic checkpoint
/// (snapshot + log truncation). Override per session with
/// [`FdSession::set_wal_compaction_threshold`].
const DEFAULT_WAL_COMPACTION_BYTES: u64 = 1 << 20;

/// The durable half of a session: the data directory, the open log, and
/// the policy knobs. Present only after
/// [`persist_to`](FdSession::persist_to) or [`open`](FdSession::open).
#[derive(Debug)]
struct Durability {
    store: Store,
    wal: Wal,
    policy: FsyncPolicy,
    /// WAL bytes that trigger truncate-on-snapshot compaction.
    threshold: u64,
    /// Commits folded into the snapshot this session recovered from —
    /// the session's maintenance passes continue the count from here.
    base_seq: u64,
}

fn storage_err(e: StoreError) -> FdError {
    FdError::Storage {
        reason: e.to_string(),
    }
}

/// A transactional session over a live full disjunction.
///
/// Build one with [`FdQuery::session`] (every execution knob of the
/// builder — engine, page size, `.parallel(n)` for the initial
/// materialization, `.ranked(f).top_k(k)` for a maintained window —
/// carries over) or directly with [`new`](Self::new) /
/// [`ranked`](Self::ranked). Then, per transaction:
///
/// 1. [`begin`](Self::begin) an empty [`DeltaBatch`];
/// 2. queue mutations with [`DeltaBatch::insert`] / [`DeltaBatch::delete`];
/// 3. [`commit`](Self::commit) — the whole batch lands atomically on the
///    database (or none of it does, with a typed
///    [`FdError::Mutation`]), **one** maintenance pass brings the
///    materialized result up to date, and the consolidated events go to
///    the caller and every subscribed [`EventSink`].
///
/// The lifetime `'q` bounds the borrows of the ranking function and the
/// subscribed sinks; a plain session with owned sinks is
/// `FdSession<'static>`.
#[derive(Debug)]
pub struct FdSession<'q> {
    db: Database,
    cfg: FdConfig,
    /// Current results, in no particular order, with their ranks on a
    /// ranked session.
    results: ResultStore<'static>,
    ranked: Option<Ranked<'q>>,
    sinks: Vec<(SinkId, Box<dyn EventSink + 'q>)>,
    next_sink: u64,
    /// Non-empty commits applied, recovery replays included. A durable
    /// session's WAL sequence number counts on from `base_seq` by it.
    passes: u64,
    metrics: SessionMetrics,
    /// [`Stats`] summed over every maintenance pass — the monotone
    /// counters behind `fd_ops_total` and the serve `stats` reply.
    total_stats: Stats,
    /// Durable state, when this session is backed by a data directory.
    durability: Option<Durability>,
}

impl std::fmt::Debug for dyn EventSink + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn EventSink")
    }
}

impl<'q> FdSession<'q> {
    /// Materializes the full disjunction of `db` and opens a plain
    /// session over it.
    pub fn new(db: Database) -> Self {
        Self::with_config(db, FdConfig::default())
    }

    /// Like [`new`](Self::new) with explicit engine/block configuration
    /// for the initial computation and every maintenance pass.
    pub fn with_config(db: Database, cfg: FdConfig) -> Self {
        Self::with_config_parallel(db, cfg, None)
    }

    /// Like [`with_config`](Self::with_config), additionally computing
    /// the *initial* materialization with up to `threads` workers.
    /// Maintenance passes stay sequential — each one reads only the
    /// results its change touches, through the store's posting lists.
    ///
    /// The parallel materialization always runs with
    /// [`crate::InitStrategy::Singletons`] (the reuse strategies describe
    /// a sequence of prior runs the independent workers do not have; the
    /// computed set is identical either way); a non-default `cfg.init`
    /// still applies to the sequential maintenance runs.
    pub fn with_config_parallel(db: Database, cfg: FdConfig, threads: Option<usize>) -> Self {
        let metrics = SessionMetrics::new();
        let start = Instant::now();
        let results = materialize(&db, cfg, threads);
        metrics.materialize.record(start.elapsed());
        Self::assemble(db, cfg, results, None, metrics)
    }

    /// Materializes the full disjunction of `db` and opens a **ranked**
    /// session: on top of the plain maintenance, the k highest-ranking
    /// results under `f` are kept current and every commit reports the
    /// window's net change ([`Commit::topk`]).
    pub fn ranked(db: Database, f: impl RankingFunction + Send + 'q, k: usize) -> Self {
        Self::ranked_with_config_parallel(db, f, k, FdConfig::default(), None)
    }

    /// [`ranked`](Self::ranked) with explicit configuration and optional
    /// parallel initial materialization.
    pub fn ranked_with_config_parallel(
        db: Database,
        f: impl RankingFunction + Send + 'q,
        k: usize,
        cfg: FdConfig,
        threads: Option<usize>,
    ) -> Self {
        let metrics = SessionMetrics::new();
        let start = Instant::now();
        let results = materialize(&db, cfg, threads);
        metrics.materialize.record(start.elapsed());
        Self::assemble(db, cfg, results, Some((Box::new(f), k)), metrics)
    }

    fn assemble(
        db: Database,
        cfg: FdConfig,
        results: Vec<TupleSet>,
        ranking: Option<(Box<dyn RankingFunction + Send + 'q>, usize)>,
        metrics: SessionMetrics,
    ) -> Self {
        metrics.results.set(results.len() as i64);
        let ranks = ranking
            .as_ref()
            .map(|(f, _)| results.iter().map(|s| f.rank(&db, s)).collect());
        let results = ResultStore::new(results, ranks);
        let ranked = ranking.map(|(f, k)| Ranked {
            window: results.top(k),
            f,
            k,
        });
        metrics.record_index(&db);
        FdSession {
            db,
            cfg,
            results,
            ranked,
            sinks: Vec::new(),
            next_sink: 0,
            passes: 0,
            metrics,
            total_stats: Stats::new(),
            durability: None,
        }
    }

    /// The current database snapshot.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The execution configuration every maintenance pass uses.
    pub fn config(&self) -> FdConfig {
        self.cfg
    }

    /// Number of tuple sets currently in the full disjunction.
    pub fn len(&self) -> usize {
        self.results.sets().len()
    }

    /// Is the full disjunction empty?
    pub fn is_empty(&self) -> bool {
        self.results.sets().is_empty()
    }

    /// The current results in unspecified order; see
    /// [`canonical_results`](Self::canonical_results) for a
    /// deterministic view.
    pub fn results(&self) -> &[TupleSet] {
        self.results.sets()
    }

    /// The current results in canonical (member-id) order.
    pub fn canonical_results(&self) -> Vec<TupleSet> {
        canonicalize(self.results.sets().to_vec())
    }

    /// Is this exact tuple set currently a result?
    pub fn contains(&self, tuples: &[TupleId]) -> bool {
        self.results.position(tuples).is_some()
    }

    /// Is this a ranked session (maintained top-k window)?
    pub fn is_ranked(&self) -> bool {
        self.ranked.is_some()
    }

    /// The ranked window size `k` (ranked sessions only).
    pub fn k(&self) -> Option<usize> {
        self.ranked.as_ref().map(|r| r.k)
    }

    /// The current top-k window — up to `k` `(set, rank)` pairs in
    /// non-increasing rank order — or `None` on a plain session.
    pub fn window(&self) -> Option<&[(TupleSet, f64)]> {
        self.ranked.as_ref().map(|r| &r.window[..])
    }

    /// The full maintained ranking (the window is its first `k`
    /// entries), or `None` on a plain session. Built on each call from
    /// the store's rank order.
    pub fn ranking(&self) -> Option<Vec<(TupleSet, f64)>> {
        self.ranked.as_ref().map(|_| self.results.top(usize::MAX))
    }

    /// Number of maintenance passes run so far — exactly one per
    /// non-empty [`commit`](Self::commit), independent of how many
    /// mutations each batch carried.
    pub fn maintenance_passes(&self) -> u64 {
        self.passes
    }

    /// The session's metrics registry: commit/abort/event counters,
    /// per-phase commit latency histograms, result/subscriber gauges and
    /// the monotone `fd_ops_total{op=…}` work counters. Per session, not
    /// global — concurrent sessions never share a registry. The serve
    /// daemon ([`crate::serve::Server`]) adds its own metrics here and
    /// exposes the combined registry over the `metrics` wire command and
    /// the optional HTTP scrape endpoint.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.metrics.registry
    }

    /// [`Stats`] work counters summed over every maintenance pass so
    /// far — the session-lifetime analogue of the per-commit
    /// [`Commit::stats`].
    pub fn stats(&self) -> &Stats {
        &self.total_stats
    }

    /// Registers a push subscriber. Every subsequent commit delivers its
    /// events (and, on ranked sessions, its [`TopKUpdate`]) to the sink
    /// after the session's own state is up to date. The returned
    /// [`SinkId`] deregisters the sink via
    /// [`unsubscribe`](Self::unsubscribe).
    pub fn subscribe(&mut self, sink: impl EventSink + 'q) -> SinkId {
        let id = SinkId(self.next_sink);
        self.next_sink += 1;
        self.sinks.push((id, Box::new(sink)));
        self.metrics.subscribers.set(self.sinks.len() as i64);
        id
    }

    /// Deregisters a subscriber, dropping its sink (for a
    /// [`ChannelSink`] that closes the channel, ending any receiver
    /// loop). Returns whether the id was subscribed — unsubscribing
    /// twice is not an error, so a departing network client and its
    /// forwarding thread can both reap without coordination.
    pub fn unsubscribe(&mut self, id: SinkId) -> bool {
        let before = self.sinks.len();
        self.sinks.retain(|(sid, _)| *sid != id);
        self.metrics.subscribers.set(self.sinks.len() as i64);
        self.sinks.len() < before
    }

    /// Number of currently subscribed sinks.
    pub fn num_subscribers(&self) -> usize {
        self.sinks.len()
    }

    /// Opens an empty mutation batch. Purely a convenience —
    /// [`DeltaBatch::new`] is the same thing — that reads well at call
    /// sites: `let mut batch = session.begin();`.
    pub fn begin(&self) -> DeltaBatch {
        DeltaBatch::new()
    }

    /// Applies one mutation as a batch of one. See
    /// [`commit`](Self::commit).
    pub fn apply(&mut self, delta: Delta) -> Result<Commit, FdError> {
        self.commit(DeltaBatch::from(delta))
    }

    /// Commits a batch: validates and applies all `k` mutations to the
    /// database atomically, runs **one** maintenance pass over the net
    /// change, updates the materialized result (and the ranked window),
    /// notifies every subscriber, and returns the realized [`Commit`].
    ///
    /// On error (any mutation rejected by the relational layer) nothing
    /// changes: not the database, not the results, not the pass counter.
    /// An empty batch is a no-op commit: no maintenance pass, no events,
    /// no WAL record.
    pub fn commit(&mut self, batch: DeltaBatch) -> Result<Commit, FdError> {
        if batch.is_empty() {
            return Ok(Commit {
                changes: Vec::new(),
                events: Vec::new(),
                topk: self.ranked.as_ref().map(|_| TopKUpdate::default()),
                stats: Stats::new(),
                timings: CommitTimings::default(),
            });
        }
        let commit_start = Instant::now();
        // Validation runs first and changes nothing, so a rejected batch
        // leaves the session untouched and never reaches the log.
        if let Err(e) = validate_batch(&self.db, &batch) {
            self.metrics.aborts.inc();
            return Err(e.into());
        }
        let validate = commit_start.elapsed();
        let mut wal = Duration::ZERO;
        // WAL-before-apply: a durable session logs the *pending* batch
        // (tuple-id allocation is deterministic, so replaying it through
        // this same path reproduces identical ids) before touching any
        // in-memory state — a batch is acked only once it is on disk.
        if let Some(d) = self.durability.as_mut() {
            // This commit's global sequence number: the snapshot's
            // fold-in point plus every batch committed since. Recovery
            // replays only records past the snapshot's seq, so a stale
            // log left by a crash mid-checkpoint is never double-applied.
            let seq = d.base_seq + self.passes + 1;
            let append_start = Instant::now();
            match d.wal.append(seq, &batch, d.policy) {
                Ok(bytes) => {
                    wal = append_start.elapsed();
                    self.metrics.wal_fsync.record(wal);
                    self.metrics.wal_appends.inc();
                    self.metrics.wal_bytes.add(bytes);
                }
                Err(e) => return Err(storage_err(e)),
            }
        }
        let apply_start = Instant::now();
        let changes: Vec<Change> = batch
            .into_deltas()
            .into_iter()
            .map(|delta| {
                apply_delta(&mut self.db, delta).expect("validated batch mutations cannot fail")
            })
            .collect();
        let apply = apply_start.elapsed();

        let (inserted, removed) = split(&changes);

        // THE one maintenance pass of this commit.
        let maintain_start = Instant::now();
        let delta = delta_batch(&self.db, &inserted, &removed, &self.results, self.cfg);
        let maintain = maintain_start.elapsed();
        self.passes += 1;

        let window_start = Instant::now();
        let mut events = Vec::with_capacity(delta.retracted.len() + delta.added.len());
        for set in delta.retracted {
            self.results.remove(set.tuples());
            events.push(FdEvent::Retracted(set));
        }
        for set in delta.added {
            let rank = self.ranked.as_ref().map(|r| r.f.rank(&self.db, &set));
            self.results.push(set.clone(), rank);
            events.push(FdEvent::Added(set));
        }

        let topk = self.ranked.as_mut().map(|r| {
            let before = std::mem::replace(&mut r.window, self.results.top(r.k));
            let after = &r.window;
            let entered = after
                .iter()
                .filter(|(s, _)| !before.iter().any(|(b, _)| b == s))
                .cloned()
                .collect();
            let left = before
                .into_iter()
                .filter(|(b, _)| !after.iter().any(|(s, _)| s == b))
                .map(|(b, _)| b)
                .collect();
            TopKUpdate {
                events: events.clone(),
                entered,
                left,
            }
        });

        let window = window_start.elapsed();

        let mut commit = Commit {
            changes,
            events,
            topk,
            stats: delta.stats,
            timings: CommitTimings {
                validate,
                wal,
                apply,
                maintain,
                window,
                ..CommitTimings::default()
            },
        };
        let fanout_start = Instant::now();
        for (_, sink) in &mut self.sinks {
            for event in &commit.events {
                sink.on_event(event);
            }
            if let Some(update) = &commit.topk {
                sink.on_topk(update);
            }
            sink.on_commit(&commit, &self.db);
        }
        commit.timings.fanout = fanout_start.elapsed();
        commit.timings.total = commit_start.elapsed();

        let m = &self.metrics;
        m.commits.inc();
        m.events.add(commit.events.len() as u64);
        m.results.set(self.len() as i64);
        m.validate.record(commit.timings.validate);
        m.apply.record(commit.timings.apply);
        m.maintain.record(commit.timings.maintain);
        m.window.record(commit.timings.window);
        m.fanout.record(commit.timings.fanout);
        m.total.record(commit.timings.total);
        m.record_ops(&commit.stats);
        m.record_index(&self.db);
        self.total_stats.merge(&commit.stats);

        // Truncate-on-snapshot compaction once the log outgrows the
        // threshold. Best-effort, like the serve shutdown checkpoint:
        // the batch is already durable in the WAL and applied in memory,
        // so a failed snapshot must not report this committed batch as
        // failed (a retry would double-apply it). Compaction retries on
        // the next commit while the log stays over the threshold.
        if self
            .durability
            .as_ref()
            .is_some_and(|d| d.wal.bytes() >= d.threshold)
        {
            if let Err(e) = self.checkpoint() {
                self.metrics.checkpoint_errors.inc();
                // stderr directly: the session owns no event log, and a
                // swallowed compaction failure must surface somewhere.
                #[allow(clippy::print_stderr)]
                {
                    eprintln!("fd session: warning: auto-checkpoint failed (the commit itself is durable in the WAL): {e}");
                }
            }
        }

        Ok(commit)
    }

    /// The oracle-checkable invariant: does the materialized state equal
    /// the full disjunction of the current snapshot, recomputed from
    /// scratch, with a result store equal to one rebuilt from it? (On
    /// ranked sessions, additionally: do the maintained ranking and
    /// window equal a from-scratch rank + sort?)
    pub fn verify_snapshot(&self) -> bool {
        let fresh = materialize(&self.db, self.cfg, None);
        if !self.results.is_consistent() || self.canonical_results() != canonicalize(fresh) {
            return false;
        }
        match &self.ranked {
            None => true,
            Some(r) => {
                let mut scratch: Vec<(TupleSet, f64)> = self
                    .results
                    .sets()
                    .iter()
                    .map(|s| (s.clone(), r.f.rank(&self.db, s)))
                    .collect();
                scratch.sort_by(|a, b| canonical_rank_order(a.1, &a.0, b.1, &b.0));
                r.window[..] == scratch[..r.k.min(scratch.len())]
                    && self.results.top(usize::MAX) == scratch
            }
        }
    }

    /// Makes this session durable in `dir`: writes an initial snapshot
    /// of the current state, opens a fresh write-ahead log, and from now
    /// on appends every committed batch (under `policy`) *before* the
    /// commit is acknowledged. Errors if the session is already durable.
    pub fn persist_to(
        &mut self,
        dir: impl AsRef<Path>,
        policy: FsyncPolicy,
    ) -> Result<(), FdError> {
        if self.durability.is_some() {
            return Err(FdError::Storage {
                reason: "session is already durable".into(),
            });
        }
        let store = Store::create(dir.as_ref()).map_err(storage_err)?;
        let mut opened = Wal::open(store.wal_path()).map_err(storage_err)?;
        // A fresh persist starts a fresh history: whatever log the
        // directory held describes some other session's tail.
        opened.wal.truncate().map_err(storage_err)?;
        self.durability = Some(Durability {
            store,
            wal: opened.wal,
            policy,
            threshold: DEFAULT_WAL_COMPACTION_BYTES,
            base_seq: 0,
        });
        self.checkpoint()?;
        Ok(())
    }

    /// Recovers a plain session from a data directory: loads the latest
    /// snapshot, replays the WAL tail through the regular commit path
    /// (one maintenance pass per record; no sinks are subscribed yet, so
    /// the net-effect events of replayed batches go nowhere), and keeps
    /// the session durable in the same directory. Default configuration
    /// and fsync policy; see
    /// [`open_with_config`](Self::open_with_config).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, FdError> {
        Self::open_with_config(dir, FdConfig::default(), FsyncPolicy::default())
    }

    /// [`open`](Self::open) with explicit maintenance configuration and
    /// fsync policy for the recovered session's future commits.
    pub fn open_with_config(
        dir: impl AsRef<Path>,
        cfg: FdConfig,
        policy: FsyncPolicy,
    ) -> Result<Self, FdError> {
        type NoRanking<'q> = fn(&Database) -> Result<Box<dyn RankingFunction + Send + 'q>, FdError>;
        Self::open_inner(dir.as_ref(), cfg, policy, None::<(usize, NoRanking<'q>)>)
    }

    /// Recovers a **ranked** session from a data directory. The ranking
    /// function is built by `ranking` against the snapshot's database
    /// (before WAL replay — live-value rankings like
    /// [`AttrMax`](crate::serve::AttrMax) read the database at rank
    /// time, so replayed inserts rank correctly).
    pub fn open_ranked_with_config<F>(
        dir: impl AsRef<Path>,
        cfg: FdConfig,
        policy: FsyncPolicy,
        k: usize,
        ranking: F,
    ) -> Result<Self, FdError>
    where
        F: FnOnce(&Database) -> Result<Box<dyn RankingFunction + Send + 'q>, FdError>,
    {
        Self::open_inner(dir.as_ref(), cfg, policy, Some((k, ranking)))
    }

    fn open_inner<F>(
        dir: &Path,
        cfg: FdConfig,
        policy: FsyncPolicy,
        ranked: Option<(usize, F)>,
    ) -> Result<Self, FdError>
    where
        F: FnOnce(&Database) -> Result<Box<dyn RankingFunction + Send + 'q>, FdError>,
    {
        let store = Store::create(dir).map_err(storage_err)?;
        if !store.has_snapshot() {
            return Err(FdError::Storage {
                reason: format!("no snapshot in {}", dir.display()),
            });
        }
        let snap = store.read_snapshot().map_err(storage_err)?;
        // The snapshot is id-exact, so the materialized results rebuild
        // from their member ids — no full FD recomputation on recovery.
        let results: Vec<TupleSet> = snap
            .results
            .iter()
            .map(|ids| crate::jcc::rebuild(&snap.db, ids.clone()))
            .collect();
        let ranking = match ranked {
            Some((k, make)) => Some((make(&snap.db)?, k)),
            None => None,
        };
        let mut session = Self::assemble(snap.db, cfg, results, ranking, SessionMetrics::new());
        let opened = Wal::open(store.wal_path()).map_err(storage_err)?;
        // The log must reach back at least to the snapshot's fold-in
        // point — a first record further ahead means commits between the
        // two were lost, and replaying across the gap would corrupt.
        if let Some(first) = opened.records.first() {
            if first.seq > snap.seq + 1 {
                return Err(FdError::Storage {
                    reason: format!(
                        "wal starts at seq {} but the snapshot folds in only {} — records missing",
                        first.seq, snap.seq
                    ),
                });
            }
        }
        for record in opened.records {
            // Records at or below the snapshot's seq are already folded
            // in — the leftovers of a crash between the checkpoint's
            // snapshot rename and its WAL truncation. Replaying them
            // would double-apply inserts and re-delete dead tuples.
            if record.seq <= snap.seq {
                continue;
            }
            // Durability is attached only after replay, so these commits
            // do not re-append to the log they came from.
            let seq = record.seq;
            session.commit(record.batch).map_err(|e| FdError::Storage {
                reason: format!("wal record {seq} does not replay: {e}"),
            })?;
            session.metrics.recovery_replayed.inc();
        }
        session.durability = Some(Durability {
            store,
            wal: opened.wal,
            policy,
            threshold: DEFAULT_WAL_COMPACTION_BYTES,
            base_seq: snap.seq,
        });
        Ok(session)
    }

    /// Snapshots the current state and truncates the WAL (the records
    /// are now folded into the snapshot). Returns `false` as a no-op on
    /// a non-durable session. Runs automatically when the log exceeds
    /// the compaction threshold; call it explicitly for a graceful
    /// shutdown or an offline `fd snapshot`.
    ///
    /// The two steps are not atomic, but a crash between them is safe:
    /// the snapshot records the sequence number it folds in, and
    /// recovery skips every WAL record at or below it, so the stale log
    /// is ignored rather than double-applied.
    pub fn checkpoint(&mut self) -> Result<bool, FdError> {
        let seq = match &self.durability {
            Some(d) => d.base_seq + self.passes,
            None => return Ok(false),
        };
        let start = Instant::now();
        let ids: Vec<Vec<TupleId>> = self
            .results
            .sets()
            .iter()
            .map(|s| s.tuples().to_vec())
            .collect();
        let d = self.durability.as_mut().expect("checked above");
        d.store
            .write_snapshot(&self.db, &ids, seq)
            .map_err(storage_err)?;
        d.wal.truncate().map_err(storage_err)?;
        self.metrics.snapshot.record(start.elapsed());
        Ok(true)
    }

    /// Is this session backed by a data directory?
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The data directory, when durable.
    pub fn data_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.store.dir())
    }

    /// Current WAL size in bytes, when durable.
    pub fn wal_bytes(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.wal.bytes())
    }

    /// Batches replayed from the WAL when this session was recovered.
    pub fn replayed_batches(&self) -> u64 {
        self.metrics.recovery_replayed.get()
    }

    /// Overrides the WAL size at which a commit triggers automatic
    /// truncate-on-snapshot compaction (default 1 MiB). No-op on a
    /// non-durable session.
    pub fn set_wal_compaction_threshold(&mut self, bytes: u64) {
        if let Some(d) = self.durability.as_mut() {
            d.threshold = bytes;
        }
    }
}

/// The full disjunction of `db`, computed from scratch (by up to
/// `threads` workers).
fn materialize(db: &Database, cfg: FdConfig, threads: Option<usize>) -> Vec<TupleSet> {
    let mut query = FdQuery::over(db).with_config(cfg);
    if let Some(t) = threads {
        query = query.init(crate::InitStrategy::Singletons).parallel(t);
    }
    query
        .run()
        .expect("a bare configuration is always a valid batch query")
        .into_sets()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::{FMax, ImpScores};
    use fd_relational::{tourist_database, RelId};

    #[test]
    fn one_maintenance_pass_per_commit() {
        let mut session = FdSession::new(tourist_database());
        assert_eq!(session.maintenance_passes(), 0);

        // A batch of 4 mutations: exactly one pass.
        let mut batch = session.begin();
        batch
            .insert(RelId(0), vec!["Chile".into(), "arid".into()])
            .insert(RelId(0), vec!["Peru".into(), "arid".into()])
            .delete(TupleId(3))
            .delete(TupleId(7));
        let commit = session.commit(batch).unwrap();
        assert_eq!(commit.changes.len(), 4);
        assert_eq!(session.maintenance_passes(), 1);
        assert!(session.verify_snapshot());

        // Four singleton applies: four passes.
        let mut singles = FdSession::new(tourist_database());
        singles
            .apply(Delta::Insert {
                rel: RelId(0),
                values: vec!["Chile".into(), "arid".into()],
            })
            .unwrap();
        singles
            .apply(Delta::Insert {
                rel: RelId(0),
                values: vec!["Peru".into(), "arid".into()],
            })
            .unwrap();
        singles.apply(Delta::Delete { tuple: TupleId(3) }).unwrap();
        singles.apply(Delta::Delete { tuple: TupleId(7) }).unwrap();
        assert_eq!(singles.maintenance_passes(), 4);

        // Same final state either way.
        assert_eq!(session.canonical_results(), singles.canonical_results());

        // An empty commit is free.
        let empty = session.begin();
        session.commit(empty).unwrap();
        assert_eq!(session.maintenance_passes(), 1);
    }

    #[test]
    fn failed_commits_change_nothing() {
        let mut session = FdSession::new(tourist_database());
        let before = session.canonical_results();
        let mut batch = session.begin();
        batch
            .insert(RelId(0), vec!["Chile".into(), "arid".into()])
            .delete(TupleId(99)); // invalid: unknown tuple
        let err = session.commit(batch).unwrap_err();
        assert!(matches!(err, FdError::Mutation { .. }));
        assert_eq!(session.canonical_results(), before);
        assert_eq!(session.maintenance_passes(), 0);
        assert_eq!(session.db().num_tuples(), 10, "insert must roll back");
    }

    #[test]
    fn net_effect_events_skip_intra_batch_churn() {
        // Insert a hotel that joins c1, and delete c1, in one batch: the
        // singleton replay would add a {c1, hotel, …} set and retract it
        // one step later; the batch commit must never surface it.
        let mut session = FdSession::new(tourist_database());
        let mut batch = session.begin();
        batch
            .insert(
                RelId(1),
                vec![
                    "Canada".into(),
                    "London".into(),
                    "Fairmont".into(),
                    5.into(),
                ],
            )
            .delete(TupleId(0));
        let commit = session.commit(batch).unwrap();
        let inserted = commit.inserted();
        assert_eq!(inserted.len(), 1);
        assert_eq!(commit.removed(), vec![TupleId(0)]);
        for event in &commit.events {
            if let FdEvent::Added(s) = event {
                assert!(
                    !s.contains(TupleId(0)),
                    "intra-batch churn surfaced: {s} references the deleted tuple"
                );
            }
        }
        assert!(session.verify_snapshot());
    }

    #[test]
    fn subscribers_receive_pushed_events() {
        let mut session = FdSession::new(tourist_database());
        let sink = VecSink::new();
        session.subscribe(sink.clone());
        let (channel, rx) = ChannelSink::new();
        session.subscribe(channel);

        let mut batch = session.begin();
        batch.insert(RelId(0), vec!["Chile".into(), "arid".into()]);
        let commit = session.commit(batch).unwrap();
        assert_eq!(sink.events(), commit.events);
        let pushed: Vec<FdEvent> = rx.try_iter().collect();
        assert_eq!(pushed, commit.events);

        // A dropped receiver must not break later commits.
        drop(rx);
        session.apply(Delta::Delete { tuple: TupleId(3) }).unwrap();
        assert!(sink.events().len() > commit.events.len());
    }

    #[test]
    fn ranked_sessions_maintain_the_window_per_commit() {
        let db = tourist_database();
        let stars = db.attr_id("Stars").unwrap();
        let imp = ImpScores::from_fn(&db, |t| match db.tuple_value(t, stars) {
            Some(fd_relational::Value::Int(i)) => *i as f64,
            _ => 0.0,
        });
        let mut session = FdSession::ranked(db, FMax::new(&imp), 2);
        assert!(session.is_ranked());
        assert_eq!(session.k(), Some(2));
        assert_eq!(session.window().unwrap().len(), 2);
        assert_eq!(session.window().unwrap()[0].1, 4.0); // the Plaza leads

        // Delete the leader and a second tuple in one commit.
        let mut batch = session.begin();
        batch.delete(TupleId(3)).delete(TupleId(7));
        let commit = session.commit(batch).unwrap();
        let update = commit.topk.expect("ranked session");
        assert!(!update.entered.is_empty() || !update.left.is_empty());
        assert_eq!(session.window().unwrap()[0].1, 3.0); // Ramada now
        assert!(session.verify_snapshot());
    }

    #[test]
    fn plain_sessions_report_no_topk() {
        let mut session = FdSession::new(tourist_database());
        let commit = session.apply(Delta::Delete { tuple: TupleId(3) }).unwrap();
        assert!(commit.topk.is_none());
        assert!(session.window().is_none());
        assert!(session.ranking().is_none());
        assert!(!session.is_ranked());
    }

    /// Records the call sequence a sink observes: one `event` marker per
    /// `on_event`, one `commit:N` marker per `on_commit` (N = the
    /// commit's event count, rendered against the delivered database to
    /// prove the post-commit snapshot arrives with it).
    struct OrderSink {
        calls: std::sync::Arc<std::sync::Mutex<Vec<String>>>,
    }

    impl EventSink for OrderSink {
        fn on_event(&mut self, _event: &FdEvent) {
            self.calls.lock().unwrap().push("event".into());
        }

        fn on_commit(&mut self, commit: &Commit, db: &Database) {
            // Rendering must not panic: every event's tuples resolve in
            // the post-commit database (tombstones keep row data).
            for event in &commit.events {
                let _ = event.label(db);
            }
            self.calls
                .lock()
                .unwrap()
                .push(format!("commit:{}", commit.events.len()));
        }
    }

    /// Every subscriber observes every commit exactly once, in commit
    /// order, with identical event sequences — and `on_commit` lands
    /// after the commit's per-event calls. The serve fan-out builds on
    /// exactly this contract.
    #[test]
    fn multiple_sinks_observe_identical_ordered_feeds() {
        let mut session = FdSession::new(tourist_database());
        let first = VecSink::new();
        session.subscribe(first.clone());
        let calls = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        session.subscribe(OrderSink {
            calls: calls.clone(),
        });
        let last = VecSink::new();
        session.subscribe(last.clone());

        session
            .apply(Delta::Insert {
                rel: RelId(0),
                values: vec!["Chile".into(), "arid".into()],
            })
            .unwrap();
        let mut batch = session.begin();
        batch
            .insert(
                RelId(1),
                vec![
                    "Canada".into(),
                    "London".into(),
                    "Fairmont".into(),
                    5.into(),
                ],
            )
            .delete(TupleId(4));
        session.commit(batch).unwrap();

        assert_eq!(first.events(), last.events());
        assert_eq!(first.events().len(), 3); // 1 + 2 net events
        assert!(
            matches!(first.events()[1], FdEvent::Retracted(_)),
            "retractions precede additions within a commit"
        );
        assert_eq!(
            calls.lock().unwrap().clone(),
            vec!["event", "commit:1", "event", "event", "commit:2"]
        );
    }

    /// Subscribe-then-abort delivers nothing: a dropped batch, an empty
    /// commit and a failed commit all skip the sinks entirely.
    #[test]
    fn aborted_empty_and_failed_commits_deliver_nothing() {
        let mut session = FdSession::new(tourist_database());
        let sink = VecSink::new();
        let id = session.subscribe(sink.clone());

        let mut batch = session.begin();
        batch.insert(RelId(0), vec!["Chile".into(), "arid".into()]);
        drop(batch); // abort: the queued mutation is discarded

        let empty = session.begin();
        session.commit(empty).unwrap();

        let mut bad = session.begin();
        bad.delete(TupleId(99)); // unknown tuple: the commit fails whole
        assert!(session.commit(bad).is_err());

        assert!(sink.events().is_empty(), "no commit realized, no events");
        assert!(session.unsubscribe(id));
        assert_eq!(session.num_subscribers(), 0);
    }

    /// Drops a shared receiver from *inside* the notification fan-out,
    /// so a later sink's sends in the same commit hit a hung-up channel.
    struct MidCommitDropper {
        rx: Option<std::sync::mpsc::Receiver<FdEvent>>,
    }

    impl EventSink for MidCommitDropper {
        fn on_event(&mut self, _event: &FdEvent) {
            self.rx.take(); // the consumer vanishes mid-commit
        }
    }

    /// A receiver hung up mid-commit must not take the commit down, and
    /// subscribers after the dead one keep their feeds intact.
    #[test]
    fn dropped_receiver_mid_commit_leaves_other_sinks_intact() {
        let mut session = FdSession::new(tourist_database());
        let (channel, rx) = ChannelSink::new();
        // The dropper is notified first; the ChannelSink's sends in the
        // same commit then hit a closed channel.
        session.subscribe(MidCommitDropper { rx: Some(rx) });
        session.subscribe(channel);
        let survivor = VecSink::new();
        session.subscribe(survivor.clone());

        let commit = session
            .apply(Delta::Insert {
                rel: RelId(0),
                values: vec!["Chile".into(), "arid".into()],
            })
            .unwrap();
        assert_eq!(survivor.events(), commit.events);
        assert!(session.verify_snapshot());

        // And the next commit still flows to the survivor.
        let commit = session.apply(Delta::Delete { tuple: TupleId(10) }).unwrap();
        assert_eq!(survivor.events().len(), 1 + commit.events.len());
    }

    /// Unsubscribing stops delivery immediately; the feed up to that
    /// point is untouched, and double-unsubscribe is not an error.
    #[test]
    fn unsubscribe_stops_delivery() {
        let mut session = FdSession::new(tourist_database());
        let sink = VecSink::new();
        let id = session.subscribe(sink.clone());
        let commit = session
            .apply(Delta::Insert {
                rel: RelId(0),
                values: vec!["Chile".into(), "arid".into()],
            })
            .unwrap();
        assert!(session.unsubscribe(id));
        session.apply(Delta::Delete { tuple: TupleId(10) }).unwrap();
        assert_eq!(sink.events(), commit.events, "nothing after unsubscribe");
        assert!(!session.unsubscribe(id), "double-unsubscribe is benign");
    }
}
