//! The unified query builder: one typed entry point for every
//! enumeration mode of the paper's algorithm family.
//!
//! `INCREMENTALFD`, `PRIORITYINCREMENTALFD` and `APPROXINCREMENTALFD`
//! share one `GETNEXTRESULT` core; [`FdQuery`] exposes them — batch,
//! streaming, ranked top-k/threshold, approximate, ranked-approximate,
//! parallel, and (through [`FdSession`](crate::session::FdSession))
//! delta/live maintenance — behind a
//! single chainable builder, the way ranked-enumeration systems expose
//! one parameterized interface over many strategies:
//!
//! ```
//! use fd_core::{FdQuery, FMax, ImpScores, InitStrategy, StoreEngine};
//! use fd_relational::tourist_database;
//!
//! let db = tourist_database();
//!
//! // Batch, with explicit execution knobs.
//! let fd = FdQuery::over(&db)
//!     .engine(StoreEngine::Scan)
//!     .page_size(4)
//!     .init(InitStrategy::ReuseResults)
//!     .run()?;
//! assert_eq!(fd.len(), 6); // Table 2 of the paper
//!
//! // Ranked top-k — same knobs, now honored by the priority algorithm.
//! let imp = ImpScores::from_fn(&db, |t| t.0 as f64);
//! let top = FdQuery::over(&db)
//!     .engine(StoreEngine::Scan)
//!     .ranked(FMax::new(&imp))
//!     .top_k(2)
//!     .run()?;
//! assert_eq!(top.len(), 2);
//! assert!(top.ranks().unwrap()[0] >= top.ranks().unwrap()[1]);
//!
//! // Streaming, with polynomial delay per answer.
//! let mut stream = FdQuery::over(&db).stream()?;
//! assert!(stream.next().unwrap().is_ok());
//! # Ok::<(), fd_core::FdError>(())
//! ```
//!
//! Invalid combinations are typed [`FdError`]s, not panics:
//!
//! ```
//! use fd_core::{FdError, FdQuery};
//! use fd_relational::tourist_database;
//!
//! let db = tourist_database();
//! let err = FdQuery::over(&db).top_k(3).run().unwrap_err();
//! assert_eq!(err, FdError::RankingRequired { option: ".top_k" });
//! ```

use crate::approx::{Approx, ApproxJoin};
use crate::error::FdError;
use crate::getnext::{Exact, Policy};
use crate::incremental::{FdConfig, MultiRunIter};
use crate::init::InitStrategy;
use crate::lists::StoreEngine;
use crate::obs::QueryTimings;
use crate::parallel::{parallel_ranked, parallel_runs};
use crate::priority::RankedIter;
use crate::ranking::{canonical_rank_order, MonotoneCDetermined};
use crate::stats::Stats;
use crate::tupleset::TupleSet;
use fd_relational::{Database, TupleId};
use std::collections::VecDeque;

/// A dynamically dispatched ranking function, as stored by [`FdQuery`].
/// `Sync` so the parallel ranked plan can share it across workers, and
/// `Send` so a ranked session built from a query can cross threads (the
/// `fd serve` daemon shares one session among all its connections).
pub type BoxedRanking<'q> = Box<dyn MonotoneCDetermined + Send + Sync + 'q>;

/// A dynamically dispatched approximate join function, as stored by
/// [`FdQuery`]. `Sync` so the parallel plans can share it across workers.
pub type BoxedApprox<'q> = Box<dyn ApproxJoin + Sync + 'q>;

/// A full-disjunction query under construction.
///
/// Start with [`FdQuery::over`], chain option setters, finish with
/// [`run`](Self::run) (materialized [`FdResult`]), [`stream`](Self::stream)
/// (lazy [`FdStream`]), or the delta-maintenance terminals
/// [`delta_insert`](Self::delta_insert) / [`delta_delete`](Self::delta_delete).
/// The execution knobs of [`FdConfig`] — store engine, block-based page
/// size, initialization strategy — apply uniformly to every mode.
pub struct FdQuery<'q> {
    db: &'q Database,
    cfg: FdConfig,
    ranking: Option<BoxedRanking<'q>>,
    approx: Option<(BoxedApprox<'q>, f64)>,
    top_k: Option<usize>,
    min_rank: Option<f64>,
    threads: Option<usize>,
}

/// Which enumeration family a validated query selects; each family also
/// has a parallel plan, chosen by `.parallel(n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Batch,
    Ranked,
    Approx,
    RankedApprox,
}

impl<'q> FdQuery<'q> {
    /// Begins a query over `db`. With no further options this is the
    /// plain `INCREMENTALFD` full disjunction.
    pub fn over(db: &'q Database) -> Self {
        FdQuery {
            db,
            cfg: FdConfig::default(),
            ranking: None,
            approx: None,
            top_k: None,
            min_rank: None,
            threads: None,
        }
    }

    /// Selects the `Complete`/`Incomplete` store engine (Section 7's
    /// indexing ablation).
    pub fn engine(mut self, engine: StoreEngine) -> Self {
        self.cfg.engine = engine;
        self
    }

    /// Switches the `GETNEXTRESULT` scans to block-based execution with
    /// `n` tuples per page (Section 7). `n = 0` is an
    /// [`FdError::InvalidPageSize`] at execution time.
    pub fn page_size(mut self, n: usize) -> Self {
        self.cfg.page_size = Some(n);
        self
    }

    /// Selects how `Incomplete` is initialized across the `n` runs of the
    /// sequential batch mode (Section 7, "Minimizing repeated work").
    /// The reuse strategies seed run `i` from the results of runs `< i`,
    /// which neither the single-seed modes (ranked, approximate — they
    /// have their own Fig. 3 / Fig. 5 initializations) nor the parallel
    /// plans (their runs are mutually independent) can honor; combining a
    /// non-default strategy with `.ranked`/`.approx`/`.parallel` is a
    /// typed [`FdError::Incompatible`] instead of a silent no-op.
    pub fn init(mut self, init: InitStrategy) -> Self {
        self.cfg.init = init;
        self
    }

    /// Replaces the whole execution configuration at once.
    pub fn with_config(mut self, cfg: FdConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Asks for answers in non-increasing rank order under `f`
    /// (`PRIORITYINCREMENTALFD`). The function must be monotonically
    /// c-determined — the paper's tractability boundary (`f_sum` is
    /// excluded by the type system; Proposition 5.1 shows its top-1
    /// problem is NP-hard). Pass `&f` to keep ownership.
    ///
    /// Emission is deterministic: answers of equal rank arrive in
    /// canonical (member-id) order, for every engine and thread count.
    /// The sequential plan enumerates a whole tie group before it sorts
    /// and releases it, so under a ranking with few distinct values a
    /// bound pays for the entire tie group it cuts into.
    pub fn ranked(mut self, f: impl MonotoneCDetermined + Send + Sync + 'q) -> Self {
        self.ranking = Some(Box::new(f));
        self
    }

    /// Bounds a ranked query to the k highest-ranking answers
    /// (Theorem 5.5). Requires [`ranked`](Self::ranked). The whole tie
    /// group at the k-th rank is enumerated first (see `ranked`).
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Bounds a ranked query to the answers with rank ≥ `t`
    /// (Remark 5.6's threshold variant). Requires
    /// [`ranked`](Self::ranked); combines with
    /// [`top_k`](Self::top_k) (both bounds apply).
    pub fn threshold(mut self, t: f64) -> Self {
        self.min_rank = Some(t);
        self
    }

    /// Switches to the `(A, τ)`-approximate full disjunction
    /// (`APPROXINCREMENTALFD`): maximal tuple sets with `A(T) ≥ τ`.
    /// Combines with [`ranked`](Self::ranked) for the ranked-approximate
    /// mode. Pass `&a` to keep ownership.
    pub fn approx(mut self, a: impl ApproxJoin + Sync + 'q, tau: f64) -> Self {
        self.approx = Some((Box::new(a), tau));
        self
    }

    /// Executes with up to `threads` workers. Composes with every
    /// enumeration family: the batch and approximate plans partition the
    /// per-relation runs (a result is owned by its smallest member
    /// relation), the ranked plans shard the priority queues and sort the
    /// collected answers once into the canonical ranked order. The
    /// unranked output is identical to the sequential plan's sets for
    /// every `threads`. The ranked output is the exact canonical ranking,
    /// identical to the sequential plan's stream.
    pub fn parallel(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The database this query runs over.
    pub fn db(&self) -> &'q Database {
        self.db
    }

    /// The execution configuration accumulated so far.
    pub fn config(&self) -> FdConfig {
        self.cfg
    }

    /// Checks the option combination without executing anything.
    pub fn validate(&self) -> Result<(), FdError> {
        self.mode().map(|_| ())
    }

    /// Deconstructs the builder for downstream engines (session assembly).
    pub fn into_parts(self) -> QueryParts<'q> {
        QueryParts {
            db: self.db,
            config: self.cfg,
            ranking: self.ranking,
            approx: self.approx,
            top_k: self.top_k,
            min_rank: self.min_rank,
            threads: self.threads,
        }
    }

    fn mode(&self) -> Result<Mode, FdError> {
        if self.cfg.page_size == Some(0) {
            return Err(FdError::InvalidPageSize);
        }
        if let Some((_, tau)) = &self.approx {
            if !tau.is_finite() || !(0.0..=1.0).contains(tau) {
                return Err(FdError::InvalidTau { tau: *tau });
            }
        }
        if let Some(t) = self.min_rank {
            if t.is_nan() {
                return Err(FdError::InvalidThreshold { value: t });
            }
        }
        if self.ranking.is_none() {
            if self.top_k.is_some() {
                return Err(FdError::RankingRequired { option: ".top_k" });
            }
            if self.min_rank.is_some() {
                return Err(FdError::RankingRequired {
                    option: ".threshold",
                });
            }
        }
        let mode = match (&self.ranking, &self.approx) {
            (None, None) => Mode::Batch,
            (Some(_), None) => Mode::Ranked,
            (None, Some(_)) => Mode::Approx,
            (Some(_), Some(_)) => Mode::RankedApprox,
        };
        if self.cfg.init != InitStrategy::Singletons {
            // The reuse strategies seed run i from the results of runs
            // < i; a single-seed or parallel execution has no such
            // sequence of prior runs — reject instead of silently
            // ignoring the setting.
            let right = match mode {
                Mode::Ranked | Mode::RankedApprox => Some(".ranked"),
                Mode::Approx => Some(".approx"),
                Mode::Batch => self.threads.is_some().then_some(".parallel"),
            };
            if let Some(right) = right {
                return Err(FdError::Incompatible {
                    left: ".init(ReuseResults/TrimExtend)",
                    right,
                });
            }
        }
        Ok(mode)
    }

    /// Ensures the query describes the plain sequential batch full
    /// disjunction — what delta maintenance operates on.
    pub fn require_batch(&self, context: &'static str) -> Result<(), FdError> {
        match self.mode()? {
            Mode::Batch if self.threads.is_some() => Err(FdError::Incompatible {
                left: context,
                right: ".parallel",
            }),
            Mode::Batch => Ok(()),
            Mode::Ranked => Err(FdError::Incompatible {
                left: context,
                right: ".ranked",
            }),
            Mode::Approx | Mode::RankedApprox => Err(FdError::Incompatible {
                left: context,
                right: ".approx",
            }),
        }
    }

    /// Executes the query and materializes every answer (with its rank,
    /// in ranked modes).
    ///
    /// Borrows the builder, so one query can be run repeatedly — handy
    /// for the cross-engine equivalence suite.
    pub fn run(&self) -> Result<FdResult, FdError> {
        let mode = self.mode()?;
        // Re-borrow the boxed functions: `Box<&dyn Trait>` implements the
        // trait through the reference/box blanket impls, so `run` does not
        // consume the builder.
        let parts = QueryParts {
            db: self.db,
            config: self.cfg,
            ranking: self
                .ranking
                .as_ref()
                .map(|f| Box::new(&**f) as BoxedRanking<'_>),
            approx: self
                .approx
                .as_ref()
                .map(|(a, tau)| (Box::new(&**a) as BoxedApprox<'_>, *tau)),
            top_k: self.top_k,
            min_rank: self.min_rank,
            threads: self.threads,
        };
        let mut stream = FdStream::start(parts);
        let ranked_mode = matches!(mode, Mode::Ranked | Mode::RankedApprox);
        let mut sets = Vec::new();
        let mut ranks = Vec::new();
        while let Some((set, rank)) = stream.next_ranked() {
            if let Some(r) = rank {
                ranks.push(r);
            }
            sets.push(set);
        }
        let stats = stream.stats();
        let timings = stream.timings();
        Ok(FdResult {
            sets,
            ranks: ranked_mode.then_some(ranks),
            stats,
            timings,
        })
    }

    /// Executes the query lazily: every `next()` delivers one answer with
    /// the algorithms' incremental polynomial delay. Consumes the builder
    /// (the stream owns the ranking/approximate functions).
    ///
    /// Exception: a `.parallel(n)` query has no lazy form — its workers
    /// materialize their shards inside this call and the stream drains
    /// the answers, sorted once. In particular, a parallel `.top_k` query
    /// enumerates the whole shard per worker (split across cores) where
    /// the sequential plan would stop after ~k answers; prefer the
    /// sequential plan when k is small and the database is large.
    pub fn stream(self) -> Result<FdStream<'q>, FdError> {
        self.mode()?;
        Ok(FdStream::start(self.into_parts()))
    }

    /// Opens a transactional [`FdSession`](crate::session::FdSession)
    /// over this query: the session
    /// clones the database, materializes the result under the query's
    /// configuration (`.parallel(n)` parallelizes that initial
    /// materialization; maintenance passes stay sequential), and then
    /// maintains it under batched, committed mutations with **one**
    /// maintenance pass per commit.
    ///
    /// `.ranked(f).top_k(k)` opens a ranked session with a maintained
    /// top-k window; `.ranked` without `.top_k` is a typed
    /// [`FdError::TopKRequired`], and `.approx` / `.threshold` do not
    /// combine with session maintenance ([`FdError::Incompatible`]).
    ///
    /// ```
    /// use fd_core::{FMax, FdQuery, ImpScores, StoreEngine};
    /// use fd_relational::{tourist_database, RelId};
    ///
    /// let db = tourist_database();
    /// let mut session = FdQuery::over(&db).engine(StoreEngine::Scan).session()?;
    /// let mut batch = session.begin();
    /// batch.insert(RelId(0), vec!["Chile".into(), "arid".into()]);
    /// assert_eq!(session.commit(batch)?.events.len(), 1);
    ///
    /// let imp = ImpScores::from_fn(&db, |t| t.0 as f64);
    /// let ranked = FdQuery::over(&db).ranked(FMax::new(&imp)).top_k(2).session()?;
    /// assert_eq!(ranked.window().unwrap().len(), 2);
    /// # Ok::<(), fd_core::FdError>(())
    /// ```
    pub fn session(self) -> Result<crate::session::FdSession<'q>, FdError> {
        self.validate()?;
        let parts = self.into_parts();
        if parts.approx.is_some() {
            return Err(FdError::Incompatible {
                left: "a session",
                right: ".approx",
            });
        }
        match parts.ranking {
            None => {
                if parts.top_k.is_some() || parts.min_rank.is_some() {
                    // validate() already rejected these (ranking-less
                    // top_k/threshold), so this is unreachable; keep the
                    // match exhaustive for clarity.
                    unreachable!("validate() rejects bounds without .ranked");
                }
                Ok(crate::session::FdSession::with_config_parallel(
                    parts.db.clone(),
                    parts.config,
                    parts.threads,
                ))
            }
            Some(f) => {
                if parts.min_rank.is_some() {
                    return Err(FdError::Incompatible {
                        left: "a ranked session",
                        right: ".threshold",
                    });
                }
                let k = parts.top_k.ok_or(FdError::TopKRequired {
                    context: "a ranked session",
                })?;
                Ok(crate::session::FdSession::ranked_with_config_parallel(
                    parts.db.clone(),
                    f,
                    k,
                    parts.config,
                    parts.threads,
                ))
            }
        }
    }

    /// Delta maintenance: the effect of inserting tuple `t` (already
    /// live in the database) on the materialized full disjunction
    /// `previous`, under this query's execution configuration. See
    /// [`crate::delta::delta_insert_many`].
    pub fn delta_insert(
        &self,
        t: TupleId,
        previous: &[TupleSet],
    ) -> Result<crate::delta::InsertDelta, FdError> {
        self.require_batch("delta maintenance")?;
        Ok(crate::delta::delta_insert_many(
            self.db,
            &[t],
            previous,
            self.cfg,
        ))
    }

    /// Delta maintenance: the effect of deleting tuple `t` (already
    /// tombstoned) on the materialized full disjunction `previous`, under
    /// this query's execution configuration. See
    /// [`crate::delta::delta_delete_many`].
    pub fn delta_delete(
        &self,
        t: TupleId,
        previous: &[TupleSet],
    ) -> Result<crate::delta::DeleteDelta, FdError> {
        self.require_batch("delta maintenance")?;
        Ok(crate::delta::delta_delete_many(
            self.db,
            &[t],
            previous,
            self.cfg,
        ))
    }
}

impl std::fmt::Debug for FdQuery<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FdQuery")
            .field("cfg", &self.cfg)
            .field("ranked", &self.ranking.is_some())
            .field("approx_tau", &self.approx.as_ref().map(|(_, t)| *t))
            .field("top_k", &self.top_k)
            .field("min_rank", &self.min_rank)
            .field("threads", &self.threads)
            .finish()
    }
}

/// The deconstructed fields of an [`FdQuery`], for engines that layer on
/// top of the builder (e.g. [`FdQuery::session`]'s session assembly).
pub struct QueryParts<'q> {
    /// The database the query was built over.
    pub db: &'q Database,
    /// The accumulated execution configuration.
    pub config: FdConfig,
    /// The ranking function, if `.ranked` was called.
    pub ranking: Option<BoxedRanking<'q>>,
    /// The approximate join function and its τ, if `.approx` was called.
    pub approx: Option<(BoxedApprox<'q>, f64)>,
    /// The `.top_k` bound, if set.
    pub top_k: Option<usize>,
    /// The `.threshold` bound, if set.
    pub min_rank: Option<f64>,
    /// The `.parallel` worker count, if set.
    pub threads: Option<usize>,
}

/// The materialized output of [`FdQuery::run`].
#[derive(Debug, Clone)]
pub struct FdResult {
    sets: Vec<TupleSet>,
    ranks: Option<Vec<f64>>,
    stats: Stats,
    timings: QueryTimings,
}

impl FdResult {
    /// The answers, in the executed mode's emission order (rank order for
    /// ranked modes).
    pub fn sets(&self) -> &[TupleSet] {
        &self.sets
    }

    /// Consumes the result, returning the answers.
    pub fn into_sets(self) -> Vec<TupleSet> {
        self.sets
    }

    /// Per-answer ranks, aligned with [`sets`](Self::sets) — `Some` in
    /// ranked modes, `None` otherwise.
    pub fn ranks(&self) -> Option<&[f64]> {
        self.ranks.as_deref()
    }

    /// Consumes the result, returning `(answer, rank)` pairs; `None` when
    /// the query was not ranked.
    pub fn into_ranked(self) -> Option<Vec<(TupleSet, f64)>> {
        let ranks = self.ranks?;
        Some(self.sets.into_iter().zip(ranks).collect())
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Were there no answers?
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Work counters of the execution.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Wall-clock milestones of the execution: total time,
    /// time-to-first-result, and (for `.top_k(k)` queries that yielded
    /// k answers) time-to-k-th-result.
    pub fn timings(&self) -> QueryTimings {
        self.timings
    }
}

fn build_inner(parts: QueryParts<'_>) -> Box<dyn Plan + '_> {
    let QueryParts {
        db,
        config,
        ranking,
        approx,
        threads,
        ..
    } = parts;
    match approx {
        None => plan(db, Exact, config, ranking, threads),
        Some((a, tau)) => plan(db, Approx::new(db, a, tau), config, ranking, threads),
    }
}

/// The four plan shapes — sequential or parallel, unranked or ranked —
/// over one consistency policy.
fn plan<'q, P: Policy + Sync + 'q>(
    db: &'q Database,
    policy: P,
    cfg: FdConfig,
    ranking: Option<BoxedRanking<'q>>,
    threads: Option<usize>,
) -> Box<dyn Plan + 'q> {
    match (ranking, threads) {
        (None, None) => Box::new(MultiRunIter::with_policy(db, policy, cfg)),
        (None, Some(threads)) => {
            let (sets, stats, pages) = parallel_runs(db, &policy, cfg, threads);
            let answers = sets.into_iter().map(|s| (s, None)).collect();
            Box::new(Materialized::new(answers, stats, pages))
        }
        (Some(f), None) => {
            let n = db.num_relations();
            let it = RankedIter::for_policy(db, policy, f, cfg, 0..n);
            Box::new(CanonicalTies::new(it))
        }
        (Some(f), Some(threads)) => {
            let (ranked, stats, pages) = parallel_ranked(db, &policy, &f, cfg, threads);
            let answers = ranked.into_iter().map(|(s, r)| (s, Some(r))).collect();
            Box::new(Materialized::new(answers, stats, pages))
        }
    }
}

/// One executing plan behind an [`FdStream`].
trait Plan {
    /// The next answer, with its rank in the ranked plans.
    fn next_answer(&mut self) -> Option<(TupleSet, Option<f64>)>;

    /// An upper bound on the rank of every answer not yet delivered
    /// (ranked plans only); `None` once the plan is exhausted.
    fn peek_rank(&mut self) -> Option<f64> {
        None
    }

    /// Work counters so far (for the parallel plans: the merged counters
    /// of all workers of the already-finished computation).
    fn stats(&self) -> Stats;

    /// Pages fetched so far (block-based execution only), summed over
    /// every run and worker.
    fn pages_read(&self) -> u64;
}

impl<P: Policy> Plan for MultiRunIter<'_, P> {
    fn next_answer(&mut self) -> Option<(TupleSet, Option<f64>)> {
        self.next().map(|s| (s, None))
    }

    fn stats(&self) -> Stats {
        self.stats_total()
    }

    fn pages_read(&self) -> u64 {
        MultiRunIter::pages_read(self)
    }
}

/// A parallel plan's answers, computed when the plan was built: in
/// canonical set order (unranked) or canonical ranked order (ranked).
struct Materialized {
    answers: std::vec::IntoIter<(TupleSet, Option<f64>)>,
    stats: Stats,
    pages: u64,
}

impl Materialized {
    fn new(answers: Vec<(TupleSet, Option<f64>)>, stats: Stats, pages: u64) -> Self {
        Materialized {
            answers: answers.into_iter(),
            stats,
            pages,
        }
    }
}

impl Plan for Materialized {
    fn next_answer(&mut self) -> Option<(TupleSet, Option<f64>)> {
        self.answers.next()
    }

    fn peek_rank(&mut self) -> Option<f64> {
        self.answers.as_slice().first().and_then(|(_, r)| *r)
    }

    fn stats(&self) -> Stats {
        self.stats
    }

    fn pages_read(&self) -> u64 {
        self.pages
    }
}

/// Deterministic tie order for the sequential ranked plans: the
/// underlying iterator breaks ties in an arbitrary, engine-dependent
/// order. This adapter buffers each maximal run of equal-rank answers and
/// releases it sorted by member ids — the same canonical order the
/// parallel ranked plan sorts its answers into once — so every
/// engine/page-size configuration emits the same sequence, and the
/// sequential and parallel ranked plans agree. The look-ahead is one tie
/// group plus one answer, so the incremental polynomial delay bound
/// survives (scaled by the tie group size).
struct CanonicalTies<'q, P, F> {
    it: RankedIter<'q, P, F>,
    group: VecDeque<(TupleSet, f64)>,
    pending: Option<(TupleSet, f64)>,
    done: bool,
}

impl<'q, P: Policy, F: MonotoneCDetermined> CanonicalTies<'q, P, F> {
    fn new(it: RankedIter<'q, P, F>) -> Self {
        CanonicalTies {
            it,
            group: VecDeque::new(),
            pending: None,
            done: false,
        }
    }

    /// Pulls the next full tie group out of the underlying stream and
    /// sorts it canonically.
    fn refill(&mut self) {
        if !self.group.is_empty() {
            return;
        }
        let first = match self.pending.take() {
            Some(first) => first,
            None if self.done => return,
            None => match self.it.next() {
                Some(first) => first,
                None => {
                    self.done = true;
                    return;
                }
            },
        };
        let rank = first.1;
        let mut group = vec![first];
        loop {
            match self.it.next() {
                Some(item) if item.1.total_cmp(&rank).is_eq() => group.push(item),
                Some(item) => {
                    self.pending = Some(item);
                    break;
                }
                None => {
                    self.done = true;
                    break;
                }
            }
        }
        group.sort_by(|a, b| canonical_rank_order(a.1, &a.0, b.1, &b.0));
        self.group = group.into();
    }
}

impl<P: Policy, F: MonotoneCDetermined> Plan for CanonicalTies<'_, P, F> {
    fn next_answer(&mut self) -> Option<(TupleSet, Option<f64>)> {
        self.refill();
        self.group.pop_front().map(|(s, r)| (s, Some(r)))
    }

    fn peek_rank(&mut self) -> Option<f64> {
        if let Some((_, r)) = self.group.front() {
            return Some(*r);
        }
        if let Some((_, r)) = &self.pending {
            return Some(*r);
        }
        if self.done {
            return None;
        }
        self.it.peek_rank()
    }

    fn stats(&self) -> Stats {
        *self.it.stats()
    }

    fn pages_read(&self) -> u64 {
        self.it.pages_read()
    }
}

/// The unified lazy answer stream of [`FdQuery::stream`]: one iterator
/// over every plan, with the `.top_k` / `.threshold` bounds applied.
///
/// Yields `Result<TupleSet, FdError>` — with the current validation all
/// errors surface at [`FdQuery::stream`] time, so every yielded item is
/// `Ok`; the `Result` item keeps room for execution-time failures (e.g.
/// remote backends) without breaking the interface.
pub struct FdStream<'q> {
    plan: Box<dyn Plan + 'q>,
    started: std::time::Instant,
    emitted: usize,
    top_k: Option<usize>,
    min_rank: Option<f64>,
    first: Option<std::time::Duration>,
    kth: Option<std::time::Duration>,
}

impl<'q> FdStream<'q> {
    fn start(parts: QueryParts<'q>) -> Self {
        // The clock starts *before* plan construction: the parallel
        // plans materialize inside `build_inner`, and that work belongs
        // in the wall / time-to-first measurements.
        let started = std::time::Instant::now();
        let (top_k, min_rank) = (parts.top_k, parts.min_rank);
        FdStream {
            plan: build_inner(parts),
            started,
            emitted: 0,
            top_k,
            min_rank,
            first: None,
            kth: None,
        }
    }

    /// The next answer together with its rank (`None` rank outside the
    /// ranked modes).
    pub fn next_ranked(&mut self) -> Option<(TupleSet, Option<f64>)> {
        if self.top_k.is_some_and(|k| self.emitted >= k) {
            return None;
        }
        if let Some(tau) = self.min_rank {
            // Stop once every queue top ranks below τ: by Lemma 5.4 no
            // answer still pending ranks higher than the best queue top.
            if self.plan.peek_rank()? < tau {
                return None;
            }
        }
        let item = self.plan.next_answer()?;
        if self
            .min_rank
            .is_some_and(|tau| item.1.is_some_and(|r| r < tau))
        {
            return None;
        }
        self.emitted += 1;
        if self.emitted == 1 {
            self.first = Some(self.started.elapsed());
        }
        if self.top_k == Some(self.emitted) {
            self.kth = Some(self.started.elapsed());
        }
        Some(item)
    }

    /// Wall-clock milestones so far: elapsed time since the stream was
    /// built, time-to-first-result, and time-to-k-th-result (for
    /// `.top_k(k)` plans, once the k-th answer has been emitted).
    pub fn timings(&self) -> QueryTimings {
        QueryTimings {
            wall: self.started.elapsed(),
            first_result: self.first,
            kth_result: self.kth,
        }
    }

    /// Work counters accumulated so far (for the parallel plans: the
    /// merged counters of all workers of the already-finished
    /// computation).
    pub fn stats(&self) -> Stats {
        self.plan.stats()
    }

    /// Pages fetched so far (block-based execution only), summed over
    /// every run and, for the parallel plans, every worker.
    pub fn pages_read(&self) -> u64 {
        self.plan.pages_read()
    }
}

impl Iterator for FdStream<'_> {
    type Item = Result<TupleSet, FdError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_ranked().map(|(set, _)| Ok(set))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{canonicalize, FdIter};
    use crate::priority::RankedFdIter;
    use crate::ranking::{FMax, ImpScores};
    use crate::sim::ExactSim;
    use crate::{AMin, ProbScores};
    use fd_relational::tourist_database;

    #[test]
    fn batch_run_matches_direct_iterator() {
        let db = tourist_database();
        let via_query = canonicalize(FdQuery::over(&db).run().unwrap().into_sets());
        let via_iter = canonicalize(FdIter::new(&db).collect());
        assert_eq!(via_query, via_iter);
    }

    #[test]
    fn run_borrows_and_is_repeatable() {
        let db = tourist_database();
        let imp = ImpScores::from_fn(&db, |t| t.0 as f64);
        let q = FdQuery::over(&db).ranked(FMax::new(&imp)).top_k(3);
        let a = q.run().unwrap();
        let b = q.run().unwrap();
        assert_eq!(a.sets(), b.sets());
        assert_eq!(a.ranks(), b.ranks());
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn ranked_query_matches_top_k() {
        let db = tourist_database();
        let imp = ImpScores::from_fn(&db, |t| t.0 as f64);
        let f = FMax::new(&imp);
        let direct: Vec<_> = RankedFdIter::new(&db, &f).take(4).collect();
        let via_query = FdQuery::over(&db)
            .ranked(&f)
            .top_k(4)
            .run()
            .unwrap()
            .into_ranked()
            .unwrap();
        assert_eq!(direct.len(), via_query.len());
        for (d, q) in direct.iter().zip(&via_query) {
            assert_eq!(d.1, q.1);
        }
    }

    #[test]
    fn threshold_and_top_k_combine() {
        let db = tourist_database();
        let imp = ImpScores::from_fn(&db, |t| t.0 as f64);
        let all = FdQuery::over(&db)
            .ranked(FMax::new(&imp))
            .threshold(5.0)
            .run()
            .unwrap();
        assert!(all.ranks().unwrap().iter().all(|&r| r >= 5.0));
        let bounded = FdQuery::over(&db)
            .ranked(FMax::new(&imp))
            .threshold(5.0)
            .top_k(1)
            .run()
            .unwrap();
        assert_eq!(bounded.len(), 1.min(all.len()));
    }

    #[test]
    fn stream_agrees_with_run_in_every_mode() {
        fn check(name: &str, build: impl Fn() -> FdQuery<'static>) {
            let ran = build().run().unwrap().into_sets();
            let streamed: Vec<TupleSet> = build()
                .stream()
                .unwrap()
                .map(|r| r.expect("streams do not fail"))
                .collect();
            assert_eq!(ran, streamed, "{name}");
        }
        let db: &'static Database = Box::leak(Box::new(tourist_database()));
        let imp: &'static ImpScores = Box::leak(Box::new(ImpScores::from_fn(db, |t| t.0 as f64)));
        check("batch", || FdQuery::over(db));
        check("parallel", || FdQuery::over(db).parallel(3));
        check("ranked", || {
            FdQuery::over(db).ranked(FMax::new(imp)).top_k(4)
        });
        check("parallel_ranked", || {
            FdQuery::over(db)
                .ranked(FMax::new(imp))
                .top_k(4)
                .parallel(2)
        });
        check("approx", || {
            FdQuery::over(db).approx(AMin::new(ExactSim, ProbScores::uniform(db, 1.0)), 0.9)
        });
        check("parallel_approx", || {
            FdQuery::over(db)
                .approx(AMin::new(ExactSim, ProbScores::uniform(db, 1.0)), 0.9)
                .parallel(2)
        });
        check("ranked_approx", || {
            FdQuery::over(db)
                .approx(AMin::new(ExactSim, ProbScores::uniform(db, 1.0)), 0.9)
                .ranked(FMax::new(imp))
        });
        check("parallel_ranked_approx", || {
            FdQuery::over(db)
                .approx(AMin::new(ExactSim, ProbScores::uniform(db, 1.0)), 0.9)
                .ranked(FMax::new(imp))
                .parallel(2)
        });
    }

    #[test]
    fn parallel_ranked_is_output_identical_to_sequential() {
        let db = tourist_database();
        // (t.0 % 3) gives heavy rank ties, stressing the canonical tie
        // order on both sides of the comparison.
        let imp = ImpScores::from_fn(&db, |t| (t.0 % 3) as f64);
        let f = FMax::new(&imp);
        let sequential = FdQuery::over(&db).ranked(&f).run().unwrap();
        for threads in [1usize, 2, 4, 8] {
            let parallel = FdQuery::over(&db)
                .ranked(&f)
                .parallel(threads)
                .run()
                .unwrap();
            assert_eq!(sequential.sets(), parallel.sets(), "threads = {threads}");
            assert_eq!(sequential.ranks(), parallel.ranks(), "threads = {threads}");
        }
        // Bounded forms agree too, including at tie boundaries.
        for k in 0..=sequential.len() + 1 {
            let seq_k = FdQuery::over(&db).ranked(&f).top_k(k).run().unwrap();
            let par_k = FdQuery::over(&db)
                .ranked(&f)
                .top_k(k)
                .parallel(3)
                .run()
                .unwrap();
            assert_eq!(seq_k.sets(), par_k.sets(), "k = {k}");
            assert_eq!(seq_k.ranks(), par_k.ranks(), "k = {k}");
        }
        let tau = 1.0;
        let seq_t = FdQuery::over(&db).ranked(&f).threshold(tau).run().unwrap();
        let par_t = FdQuery::over(&db)
            .ranked(&f)
            .threshold(tau)
            .parallel(2)
            .run()
            .unwrap();
        assert_eq!(seq_t.sets(), par_t.sets());
        assert_eq!(seq_t.ranks(), par_t.ranks());
    }

    #[test]
    fn parallel_ranked_aggregates_stats_and_pages() {
        let db = tourist_database();
        let imp = ImpScores::from_fn(&db, |t| t.0 as f64);
        let mut s = FdQuery::over(&db)
            .ranked(FMax::new(&imp))
            .page_size(2)
            .parallel(3)
            .stream()
            .unwrap();
        while s.next().is_some() {}
        assert!(s.pages_read() > 0, "worker pages must aggregate");
        assert!(s.stats().results >= 6, "worker stats must merge");
    }

    #[test]
    fn invalid_combinations_are_typed_errors() {
        let db = tourist_database();
        let imp = ImpScores::from_fn(&db, |t| t.0 as f64);
        assert_eq!(
            FdQuery::over(&db).top_k(1).run().unwrap_err(),
            FdError::RankingRequired { option: ".top_k" }
        );
        assert_eq!(
            FdQuery::over(&db).threshold(1.0).run().unwrap_err(),
            FdError::RankingRequired {
                option: ".threshold"
            }
        );
        assert_eq!(
            FdQuery::over(&db)
                .approx(AMin::new(ExactSim, ProbScores::uniform(&db, 1.0)), 0.5)
                .threshold(1.0)
                .run()
                .unwrap_err(),
            FdError::RankingRequired {
                option: ".threshold"
            }
        );
        assert_eq!(
            FdQuery::over(&db)
                .approx(AMin::new(ExactSim, ProbScores::uniform(&db, 1.0)), 1.5)
                .run()
                .unwrap_err(),
            FdError::InvalidTau { tau: 1.5 }
        );
        assert_eq!(
            FdQuery::over(&db).page_size(0).run().unwrap_err(),
            FdError::InvalidPageSize
        );
        // A non-default InitStrategy only makes sense for the sequential
        // multi-run batch driver; elsewhere it is rejected, not ignored.
        assert_eq!(
            FdQuery::over(&db)
                .init(crate::InitStrategy::ReuseResults)
                .ranked(FMax::new(&imp))
                .run()
                .unwrap_err(),
            FdError::Incompatible {
                left: ".init(ReuseResults/TrimExtend)",
                right: ".ranked"
            }
        );
        assert_eq!(
            FdQuery::over(&db)
                .init(crate::InitStrategy::TrimExtend)
                .approx(AMin::new(ExactSim, ProbScores::uniform(&db, 1.0)), 0.5)
                .run()
                .unwrap_err(),
            FdError::Incompatible {
                left: ".init(ReuseResults/TrimExtend)",
                right: ".approx"
            }
        );
        assert_eq!(
            FdQuery::over(&db)
                .init(crate::InitStrategy::ReuseResults)
                .parallel(2)
                .run()
                .unwrap_err(),
            FdError::Incompatible {
                left: ".init(ReuseResults/TrimExtend)",
                right: ".parallel"
            }
        );
        // The former `.parallel × .ranked` rejection is gone.
        assert!(FdQuery::over(&db)
            .parallel(2)
            .ranked(FMax::new(&imp))
            .run()
            .is_ok());
        assert_eq!(
            FdQuery::over(&db)
                .ranked(FMax::new(&imp))
                .delta_insert(fd_relational::TupleId(0), &[])
                .unwrap_err(),
            FdError::Incompatible {
                left: "delta maintenance",
                right: ".ranked"
            }
        );
    }

    #[test]
    fn page_size_is_honored_in_ranked_and_approx_modes() {
        let db = tourist_database();
        let mut s = FdQuery::over(&db).page_size(2).stream().unwrap();
        while s.next().is_some() {}
        assert!(
            s.pages_read() > 0,
            "batch mode must count every run's pages"
        );

        let imp = ImpScores::from_fn(&db, |t| t.0 as f64);
        let mut s = FdQuery::over(&db)
            .ranked(FMax::new(&imp))
            .page_size(2)
            .stream()
            .unwrap();
        while s.next().is_some() {}
        assert!(s.pages_read() > 0, "ranked mode must scan through pages");

        let mut s = FdQuery::over(&db)
            .approx(AMin::new(ExactSim, ProbScores::uniform(&db, 1.0)), 0.9)
            .page_size(2)
            .stream()
            .unwrap();
        while s.next().is_some() {}
        assert!(s.pages_read() > 0, "approx mode must scan through pages");
    }

    #[test]
    fn delta_round_trip_through_the_builder() {
        let mut db = tourist_database();
        let before = canonicalize(FdQuery::over(&db).run().unwrap().into_sets());
        let t = db
            .insert_tuple(fd_relational::RelId(0), vec!["Chile".into(), "arid".into()])
            .unwrap();
        let ins = FdQuery::over(&db).delta_insert(t, &before).unwrap();
        assert!(!ins.added.is_empty());
        db.remove_tuple(t).unwrap();
        let mut mid: Vec<TupleSet> = before.clone();
        mid.extend(ins.added.iter().cloned());
        let del = FdQuery::over(&db).delta_delete(t, &mid).unwrap();
        assert_eq!(del.dropped.len(), ins.added.len());
    }
}
