//! The read paths: full enumeration, first-k streaming and ranked top-k
//! (the `Query` group), and the approximate full disjunction with its
//! ranked top-k (the `Approx` group).

use crate::data::{ranking, K, TAU};
use crate::record::{fnv1a, ms, Counters, Outcome, Recorder};
use fd_core::{
    AMin, ApproxJoin, EditDistanceSim, FMax, FdConfig, FdQuery, FdResult, ProbScores, Stats,
    TupleSet,
};
use fd_relational::Database;
use std::time::Instant;

/// Ranked queries (each under a fresh ranking) and first-k reads per
/// step. The time of a top-k query depends on where the ranking puts the
/// best tuples, so a run needs many rankings for a steady median.
const QUERIES_PER_STEP: u64 = 16;

/// Rankings per run whose work counters enter the counter digest.
const COUNTED_RANKINGS: u64 = 8;

/// Hash of a result set, independent of emission order.
pub fn result_hash(sets: &[TupleSet]) -> u64 {
    let mut ids: Vec<&[fd_relational::TupleId]> = sets.iter().map(TupleSet::tuples).collect();
    ids.sort_unstable();
    let mut bytes = Vec::new();
    for set in ids {
        for t in set {
            bytes.extend_from_slice(&t.0.to_le_bytes());
        }
        bytes.push(0xFF);
    }
    fnv1a(&bytes)
}

/// The top-k rank sequence computed the naive way from a materialized
/// result: rank everything, sort, truncate.
fn naive_ranks(db: &Database, sets: &[TupleSet], f: &FMax<'_>) -> Vec<f64> {
    use fd_core::RankingFunction;
    let mut ranks: Vec<f64> = sets.iter().map(|s| f.rank(db, s)).collect();
    ranks.sort_by(|a, b| b.total_cmp(a));
    ranks.truncate(K);
    ranks
}

/// Probe and hit deltas of the database's join-column index around `f`.
fn with_probes<T>(db: &Database, f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (p, h) = (db.index_probes(), db.index_hits());
    let out = f();
    (out, db.index_probes() - p, db.index_hits() - h)
}

/// Records the per-op layer counters of one execution.
fn count(counters: &mut Counters, op: &str, stats: &Stats, probes: u64, hits: u64) {
    counters.add_stats(op, stats);
    counters.add(format!("{op}.index_probes"), probes as f64);
    counters.add(format!("{op}.index_hits"), hits as f64);
    counters.add(format!("{op}.runs"), 1.0);
}

/// Full, first-k and ranked top-k over one database.
pub struct QueryGroup<'a> {
    db: &'a Database,
    seed: u64,
    /// Result hash of the full disjunction, from the index-disabled
    /// paper-faithful twin.
    expect_hash: u64,
    /// The full result in emission order and its counters, from the
    /// first execution.
    first: Option<(Vec<TupleSet>, Stats)>,
    iterations: u64,
}

impl<'a> QueryGroup<'a> {
    /// Computes the reference result on an index-disabled,
    /// paper-faithful twin of `db` (untimed).
    pub fn new(db: &'a Database, seed: u64) -> Result<Self, fd_core::FdError> {
        let mut twin = db.clone();
        twin.set_index_enabled(false);
        let reference = FdQuery::over(&twin)
            .with_config(FdConfig::paper_faithful())
            .run()?;
        Ok(QueryGroup {
            db,
            seed,
            expect_hash: result_hash(reference.sets()),
            first: None,
            iterations: 0,
        })
    }

    /// Number of results of the full disjunction (after the first run).
    pub fn f(&self) -> usize {
        self.first.as_ref().map_or(0, |(sets, _)| sets.len())
    }

    /// One step: full, first-k, and the top-k queries.
    pub fn step(&mut self, rec: &mut Recorder, counters: &mut Counters, out: &mut Outcome) {
        let db = self.db;
        let req = self.iterations;
        let counted = self.first.is_none();

        // Full enumeration. Traced, it is a drained stream with a span
        // around each GETNEXTRESULT call (the per-result delay).
        let start = Instant::now();
        let ((sets, stats), probes, hits) = with_probes(db, || {
            if rec.traced() {
                let plan_start = Instant::now();
                let mut stream = FdQuery::over(db).stream().expect("a bare query is valid");
                rec.span(
                    "query.plan",
                    Some("query.full"),
                    req,
                    plan_start,
                    plan_start.elapsed(),
                );
                let mut sets = Vec::new();
                loop {
                    let t = Instant::now();
                    let next = stream.next();
                    rec.span("getnext.next", Some("query.full"), req, t, t.elapsed());
                    match next {
                        Some(set) => sets.push(set.expect("stream items are Ok")),
                        None => break,
                    }
                }
                (sets, stream.stats())
            } else {
                let r = FdQuery::over(db).run().expect("a bare query is valid");
                let stats = *r.stats();
                (r.into_sets(), stats)
            }
        });
        let elapsed = start.elapsed();
        rec.sample("full_ms", ms(elapsed));
        if rec.traced() {
            rec.span("query.full", None, req, start, elapsed);
        }
        let hash = result_hash(&sets);
        out.check(hash == self.expect_hash, || {
            format!(
                "full result differs from the paper-faithful twin ({} sets)",
                sets.len()
            )
        });
        match &self.first {
            None => {
                count(counters, "full", &stats, probes, hits);
                self.first = Some((sets, stats));
            }
            Some((first, first_stats)) => {
                out.check(&stats == first_stats && &sets == first, || {
                    "full enumeration is not deterministic across iterations".into()
                });
            }
        }
        let (full, _) = self.first.as_ref().expect("set above");

        // First k: from the stream() call to the k-th answer; one takes
        // about a millisecond, so a step reads many for a steady median.
        for i in 0..QUERIES_PER_STEP {
            let start = Instant::now();
            let ((prefix, stats), probes, hits) = with_probes(db, || {
                let mut stream = FdQuery::over(db).stream().expect("a bare query is valid");
                let prefix: Vec<TupleSet> =
                    stream.by_ref().take(K).map(|s| s.expect("Ok")).collect();
                (prefix, stream.stats())
            });
            let elapsed = start.elapsed();
            rec.sample("first_k_ms", ms(elapsed));
            if rec.traced() {
                rec.span("query.first_k", None, req, start, elapsed);
            }
            out.check(prefix[..] == full[..K.min(full.len())], || {
                "first-k prefix differs from the full enumeration".into()
            });
            if counted && i == 0 {
                count(counters, "first_k", &stats, probes, hits);
            }
        }

        // Ranked top-k, each query under a fresh ranking.
        let step = self.iterations;
        ranked(
            Ranked {
                op: "top_k",
                metric: "top_k_ms",
                span: "query.top_k",
                known_defect: true,
            },
            db,
            self.seed,
            step,
            rec,
            counters,
            out,
            |f| FdQuery::over(db).ranked(f).top_k(K).run().expect("valid"),
            |f, i| {
                if i == 0 {
                    // The first ranking is checked against the baseline crate
                    // itself; later ones against the same computation on the
                    // already materialized result.
                    fd_baselines::naive_top_k(db, f, K)
                        .into_iter()
                        .map(|x| x.1)
                        .collect()
                } else {
                    naive_ranks(db, full, f)
                }
            },
        );
        self.iterations += 1;
    }
}

/// The approximate full disjunction and its ranked top-k.
pub struct ApproxGroup<'a> {
    db: &'a Database,
    seed: u64,
    a: AMin<EditDistanceSim>,
    expect_hash: u64,
    first: Option<(Vec<TupleSet>, Stats)>,
    iterations: u64,
}

impl<'a> ApproxGroup<'a> {
    pub fn new(db: &'a Database, seed: u64) -> Result<Self, fd_core::FdError> {
        let a = AMin::new(EditDistanceSim, ProbScores::uniform(db, 1.0));
        let mut twin = db.clone();
        twin.set_index_enabled(false);
        let reference = FdQuery::over(&twin)
            .with_config(FdConfig::paper_faithful())
            .approx(&a, TAU)
            .run()?;
        Ok(ApproxGroup {
            db,
            seed,
            expect_hash: result_hash(reference.sets()),
            a,
            first: None,
            iterations: 0,
        })
    }

    pub fn f(&self) -> usize {
        self.first.as_ref().map_or(0, |(sets, _)| sets.len())
    }

    /// One step: the approximate FD, and the ranked approximate top-k
    /// queries.
    pub fn step(&mut self, rec: &mut Recorder, counters: &mut Counters, out: &mut Outcome) {
        let (db, a) = (self.db, &self.a);
        let req = self.iterations;

        let start = Instant::now();
        let (result, probes, hits) = with_probes(db, || {
            FdQuery::over(db).approx(a, TAU).run().expect("valid τ")
        });
        let elapsed = start.elapsed();
        rec.sample("approx_ms", ms(elapsed));
        if rec.traced() {
            rec.span("query.approx", None, req, start, elapsed);
        }
        let stats = *result.stats();
        let sets = result.into_sets();
        out.check(result_hash(&sets) == self.expect_hash, || {
            "approximate result differs from the paper-faithful twin".into()
        });
        out.check(sets.iter().all(|s| a.score(db, s.tuples()) >= TAU), || {
            format!("an approximate result scores below τ = {TAU}")
        });
        match &self.first {
            None => {
                count(counters, "approx", &stats, probes, hits);
                self.first = Some((sets, stats));
            }
            Some((_, first_stats)) => {
                out.check(&stats == first_stats, || {
                    "approximate enumeration is not deterministic across iterations".into()
                });
            }
        }
        let (afd, _) = self.first.as_ref().expect("set above");

        ranked(
            Ranked {
                op: "approx_top_k",
                metric: "approx_top_k_ms",
                span: "query.approx_top_k",
                known_defect: false,
            },
            db,
            self.seed,
            req,
            rec,
            counters,
            out,
            |f| {
                FdQuery::over(db)
                    .approx(a, TAU)
                    .ranked(f)
                    .top_k(K)
                    .run()
                    .expect("valid")
            },
            |f, _| naive_ranks(db, afd, f),
        );
        self.iterations += 1;
    }
}

/// Names of a ranked operation (its counter prefix, its end-to-end
/// sample and its span), and whether a disagreement with ranking and
/// sorting all results fails the run.
struct Ranked {
    op: &'static str,
    metric: &'static str,
    span: &'static str,
    /// Exact top-k over the `sparse` database disagrees with the naive
    /// top-k for about one ranking in 300: `PRIORITYINCREMENTALFD`
    /// emits some answers after lower-ranked ones. Until that is fixed
    /// such a disagreement is counted and reported as a known defect,
    /// so that the benchmark stays usable.
    known_defect: bool,
}

/// The ranked queries of step `step`: [`QUERIES_PER_STEP`] of them,
/// each under a fresh ranking, each checked against `expect`.
#[allow(clippy::too_many_arguments)]
fn ranked(
    names: Ranked,
    db: &Database,
    seed: u64,
    step: u64,
    rec: &mut Recorder,
    counters: &mut Counters,
    out: &mut Outcome,
    run: impl Fn(&FMax<'_>) -> FdResult,
    expect: impl Fn(&FMax<'_>, u64) -> Vec<f64>,
) {
    for i in step * QUERIES_PER_STEP..(step + 1) * QUERIES_PER_STEP {
        let imp = ranking(db, seed, i);
        let f = FMax::new(&imp);
        let start = Instant::now();
        let (result, probes, hits) = with_probes(db, || run(&f));
        let elapsed = start.elapsed();
        rec.sample(names.metric, ms(elapsed));
        if rec.traced() {
            rec.span(names.span, None, i, start, elapsed);
        }
        let ranks = result.ranks().expect("ranked query");
        let want = expect(&f, i);
        let differs = || {
            format!(
                "{} ranking {i}: ranks {ranks:?} differ from ranking and sorting all results \
                 {want:?}",
                names.op
            )
        };
        if names.known_defect {
            out.defect(ranks == want, differs);
        } else {
            out.check(ranks == want, differs);
        }
        if i < COUNTED_RANKINGS {
            count(counters, names.op, result.stats(), probes, hits);
        }
    }
}
