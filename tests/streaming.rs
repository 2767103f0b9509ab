//! Incremental-delivery properties (the PINC story, Theorem 4.10):
//! taking k answers must cost a small, k-proportional amount of work —
//! not the whole computation — and prefixes must be stable.

use full_disjunction::core::{FdConfig, FdIter, StoreEngine};
use full_disjunction::prelude::*;
use full_disjunction::workloads::{chain, DataSpec};

fn big_chain() -> Database {
    chain(4, &DataSpec::new(60, 12).seed(31))
}

#[test]
fn taking_k_answers_does_k_proportional_work() {
    let db = big_chain();
    let work_for = |k: usize| {
        let mut it = FdIter::new(&db);
        for _ in it.by_ref().take(k) {}
        it.stats_total().candidate_scans + it.stats_total().jcc_checks
    };
    let w1 = work_for(1);
    let w10 = work_for(10);
    let total = {
        let mut it = FdIter::new(&db);
        let n = it.by_ref().count();
        assert!(n > 100, "workload too small for a meaningful test: {n}");
        it.stats_total().candidate_scans + it.stats_total().jcc_checks
    };
    // First answer must cost a small fraction of the total computation.
    assert!(
        w1 * 10 < total,
        "first answer cost {w1}, total {total} — not incremental"
    );
    assert!(w10 * 3 < total, "w10 {w10}, total {total}");
    assert!(w1 <= w10);
}

#[test]
fn prefixes_are_stable_across_repeated_runs() {
    let db = big_chain();
    let run = |k: usize| -> Vec<Vec<TupleId>> {
        FdIter::new(&db)
            .take(k)
            .map(|s| s.tuples().to_vec())
            .collect()
    };
    let p20 = run(20);
    let p5 = run(5);
    assert_eq!(&p20[..5], &p5[..]);
}

#[test]
fn iterator_and_collect_agree() {
    let db = big_chain();
    let collected = FdQuery::over(&db).run().unwrap().into_sets();
    let streamed: Vec<TupleSet> = FdIter::new(&db).collect();
    assert_eq!(collected, streamed);
}

#[test]
fn engine_choice_does_not_change_emission_order() {
    let db = big_chain();
    let order = |engine| -> Vec<Vec<TupleId>> {
        FdIter::with_config(
            &db,
            FdConfig {
                engine,
                ..FdConfig::default()
            },
        )
        .map(|s| s.tuples().to_vec())
        .collect()
    };
    // Indexed lookups change how merge partners are found, but both
    // engines give `T′` to the first same-root partner in pop order, so
    // the order is identical.
    assert_eq!(order(StoreEngine::Scan), order(StoreEngine::Indexed));
}

#[test]
fn ranked_iterator_is_also_incremental() {
    use full_disjunction::workloads::random_importance;
    let db = big_chain();
    let imp = random_importance(&db, 5);
    let f = FMax::new(&imp);
    let mut it = RankedFdIter::new(&db, &f);
    let first = it.next().expect("non-empty");
    let after_one = it.stats().candidate_scans;
    for _ in it.by_ref() {}
    let total = it.stats().candidate_scans;
    assert!(
        after_one * 5 < total,
        "after_one {after_one}, total {total}"
    );
    // The first ranked answer is the global maximum.
    let best = full_disjunction::baselines::oracle_top_k(&db, &f, 1);
    assert_eq!(first.1, best[0].1);
}
