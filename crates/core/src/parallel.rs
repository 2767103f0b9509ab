//! Parallel computation of full disjunctions — batch *and* ranked.
//!
//! **Batch.** `FD(R) = ⋃ᵢ FDi(R)` and the `n` runs of `INCREMENTALFD`
//! are mutually independent (Section 4) — an embarrassingly parallel
//! structure the paper's Section 7 block/DBMS discussion gestures at.
//! Each worker runs the sequential driver (`MultiRunIter`) over a
//! contiguous slice of the relations, from singletons. That driver emits
//! a result only in the run of its smallest member relation (Section
//! 4's exactly-once rule), so the shard outputs are disjoint and no
//! cross-thread deduplication is needed.
//!
//! **Ranked.** `PRIORITYINCREMENTALFD` shards the same way: a worker
//! seeds the priority queues `Incomplete_i` for a contiguous slice of the
//! relations and runs the shared `GETNEXTRESULT` body
//! (`RankedIter::for_policy`), enumerating exactly the answers that
//! contain a tuple of one of its relations. A worker's raw emission is
//! not globally rank-ordered — an answer's rank witness (its
//! c-determining subset) may sit in another shard's queue — so the
//! driver collects every worker's answers and sorts them once into the
//! canonical ranked order (rank descending, member ids ascending). Every
//! worker extends its sets to maximality against the *whole* database,
//! so shard outputs are genuine members of `FD(R)` and the only
//! cross-worker redundancy is an **exact duplicate** (a set with member
//! relations in several shards). Duplicates carry identical
//! `(rank, members)` keys, so they sort next to each other and one
//! adjacent-duplicate pass drops them.
//!
//! The result is the exact canonical ranking of `FD(R)` for every `n`,
//! the same stream the sequential builder plan emits.
//!
//! **Bounds.** `.top_k(k)` / `.threshold(τ)` are applied to the sorted
//! answers by `FdStream`, as for every plan. The workers enumerate their
//! full shards: Theorem 5.5's "top-k in poly(k)" early exit belongs to
//! the sequential plan, the parallel plan instead splits the enumeration
//! across cores.
//!
//! Both drivers are generic over the consistency [`Policy`], so the
//! approximate modes parallelize the same way.

use crate::getnext::Policy;
use crate::incremental::{FdConfig, MultiRunIter};
use crate::init::InitStrategy;
use crate::priority::RankedIter;
use crate::ranking::{canonical_rank_order, MonotoneCDetermined};
use crate::stats::Stats;
use crate::tupleset::TupleSet;
use fd_relational::Database;

/// Static partition of `n` relation indices into at most `threads`
/// contiguous shards.
fn shard_relations(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let threads = threads.max(1).min(n.max(1));
    let chunk = n.div_ceil(threads);
    (0..threads)
        .map(|w| (w * chunk, ((w + 1) * chunk).min(n)))
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

/// Runs `work` over every shard, on scoped threads when there is more
/// than one shard. Outputs come back in shard order, with the workers'
/// counters and page counts summed.
fn run_sharded<T: Send>(
    shards: &[(usize, usize)],
    work: impl Fn(usize, usize) -> (T, Stats, u64) + Sync,
) -> (Vec<T>, Stats, u64) {
    let collected: Vec<(T, Stats, u64)> = if shards.len() <= 1 {
        shards.iter().map(|&(lo, hi)| work(lo, hi)).collect()
    } else {
        let work = &work;
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .map(|&(lo, hi)| scope.spawn(move || work(lo, hi)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    };
    let mut outs = Vec::with_capacity(collected.len());
    let mut stats = Stats::new();
    let mut pages = 0;
    for (out, s, p) in collected {
        outs.push(out);
        stats.merge(&s);
        pages += p;
    }
    (outs, stats, pages)
}

/// Computes `FD(R)` — or `AFD(R, A, τ)` under the approximate policy —
/// using up to `threads` workers. Results are returned in canonical order
/// together with the merged statistics and the total pages fetched
/// (block-based execution only). With `threads == 1` this degenerates to
/// the sequential algorithm.
pub(crate) fn parallel_runs<P: Policy + Sync>(
    db: &Database,
    policy: &P,
    cfg: FdConfig,
    threads: usize,
) -> (Vec<TupleSet>, Stats, u64) {
    let n = db.num_relations();
    if n == 0 {
        return (Vec::new(), Stats::new(), 0);
    }
    // The query builder admits no reuse strategy here: a shard's runs
    // have no results of the earlier shards to reuse.
    debug_assert_eq!(cfg.init, InitStrategy::Singletons);
    let (outs, stats, pages) = run_sharded(&shard_relations(n, threads), |lo, hi| {
        let mut it = MultiRunIter::over(db, policy.by_ref(), cfg, lo..hi);
        let out: Vec<TupleSet> = (&mut it).collect();
        (out, it.stats_total(), it.pages_read())
    });
    let mut results: Vec<TupleSet> = outs.into_iter().flatten().collect();
    results.sort();
    (results, stats, pages)
}

/// Ranked `FD(R)` (or ranked `AFD(R, A, τ)`) across up to `threads`
/// workers: shards the seed relations, runs one restricted ranked
/// enumeration per shard, and returns every answer sorted once into the
/// canonical ranked order, together with the merged statistics and the
/// total pages fetched.
pub(crate) fn parallel_ranked<P, F>(
    db: &Database,
    policy: &P,
    f: &F,
    cfg: FdConfig,
    threads: usize,
) -> (Vec<(TupleSet, f64)>, Stats, u64)
where
    P: Policy + Sync,
    F: MonotoneCDetermined + Sync,
{
    let n = db.num_relations();
    let (outs, stats, pages) = run_sharded(&shard_relations(n, threads), |lo, hi| {
        let mut it = RankedIter::for_policy(db, policy.by_ref(), f, cfg, lo..hi);
        let out: Vec<(TupleSet, f64)> = (&mut it).collect();
        (out, *it.stats(), it.pages_read())
    });
    let mut answers: Vec<(TupleSet, f64)> = outs.into_iter().flatten().collect();
    answers.sort_by(|a, b| canonical_rank_order(a.1, &a.0, b.1, &b.0));
    // A cross-shard duplicate has the same rank and members as its twin,
    // so the sort puts them side by side.
    answers.dedup_by(|a, b| a.0.tuples() == b.0.tuples());
    (answers, stats, pages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::getnext::Exact;
    use crate::incremental::canonicalize;
    use crate::priority::RankedFdIter;
    use crate::query::FdQuery;
    use crate::ranking::{FMax, ImpScores};
    use fd_relational::tourist_database;

    fn batch(db: &Database) -> Vec<TupleSet> {
        canonicalize(FdQuery::over(db).run().unwrap().into_sets())
    }

    #[test]
    fn parallel_matches_sequential_for_all_thread_counts() {
        let db = tourist_database();
        let base = batch(&db);
        for threads in [1, 2, 3, 8] {
            let (got, stats, _) = parallel_runs(&db, &Exact, FdConfig::default(), threads);
            assert_eq!(base, got, "threads = {threads}");
            assert!(stats.results >= base.len() as u64);
        }
    }

    #[test]
    fn zero_threads_is_clamped() {
        let db = tourist_database();
        let (got, _, _) = parallel_runs(&db, &Exact, FdConfig::default(), 0);
        assert_eq!(got.len(), 6);
    }

    #[test]
    fn ownership_rule_partitions_results() {
        // Every result appears exactly once even with one thread per
        // relation.
        let db = tourist_database();
        let (got, _, _) = parallel_runs(&db, &Exact, FdConfig::default(), 3);
        let mut canon: Vec<_> = got.iter().map(|s| s.tuples().to_vec()).collect();
        canon.dedup();
        assert_eq!(canon.len(), got.len());
    }

    #[test]
    fn ranked_merge_is_ordered_duplicate_free_and_complete() {
        let db = tourist_database();
        let imp = ImpScores::from_fn(&db, |t| (t.0 % 4) as f64);
        let f = FMax::new(&imp);
        let base: Vec<TupleSet> = canonicalize(
            RankedFdIter::new(&db, &f)
                .map(|(s, _)| s)
                .collect::<Vec<_>>(),
        );
        for threads in [1, 2, 3, 8] {
            let (out, stats, _) = parallel_ranked(&db, &Exact, &f, FdConfig::default(), threads);
            for w in out.windows(2) {
                assert!(w[0].1 >= w[1].1, "threads = {threads}: order violated");
                if w[0].1 == w[1].1 {
                    assert!(w[0].0 < w[1].0, "threads = {threads}: tie order");
                }
            }
            let got = canonicalize(out.into_iter().map(|(s, _)| s).collect());
            assert_eq!(base, got, "threads = {threads}");
            assert!(stats.results >= base.len() as u64);
        }
    }

    #[test]
    fn empty_database_yields_empty_streams() {
        let db = fd_relational::DatabaseBuilder::new().build().unwrap();
        let (sets, _, _) = parallel_runs(&db, &Exact, FdConfig::default(), 4);
        assert!(sets.is_empty());
        let imp = ImpScores::uniform(&db, 1.0);
        let f = FMax::new(&imp);
        let (answers, _, _) = parallel_ranked(&db, &Exact, &f, FdConfig::default(), 4);
        assert!(answers.is_empty());
    }
}
