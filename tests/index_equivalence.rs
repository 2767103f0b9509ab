//! Indexed-probe / linear-scan equivalence: the join-column indexes are
//! a pure access-path optimization, so every enumeration mode must
//! produce **byte-identical** output — same sets, same order, same
//! ranks — with the indexes enabled and disabled, across engine × page
//! size × thread count on the tourist example and chain/star/snowflake
//! and Zipf-skewed workloads. A randomized churn property then drives
//! inserts, deletes and crash recovery through a durable session and
//! checks the posting lists against a from-scratch rebuild
//! ([`Database::verify_indexes`]) after every commit.
//!
//! The posting lists also choose Fig. 2's line-7 candidates (the tuples
//! joining a schema-adjacent member) in unpaged exact runs — FIFO,
//! ranked and seeded alike — while paged runs scan every tuple: on a
//! churned database both must emit the same sets, ranks and order, and
//! seeded delta runs must agree with a from-scratch recomputation.

use full_disjunction::core::delta::delta_insert_many;
use full_disjunction::core::{canonicalize, FdQuery};
use full_disjunction::prelude::*;
use full_disjunction::workloads::{chain, snowflake, star, DataSpec};
use proptest::prelude::*;
use std::path::PathBuf;

fn workloads() -> Vec<(String, Database)> {
    vec![
        ("tourist".into(), tourist_database()),
        ("chain".into(), chain(3, &DataSpec::new(8, 4).seed(61))),
        ("star".into(), star(4, &DataSpec::new(6, 4).seed(62))),
        (
            "snowflake".into(),
            snowflake(3, &DataSpec::new(5, 4).seed(63)),
        ),
        (
            "zipf-chain".into(),
            chain(3, &DataSpec::new(10, 6).seed(64).skew(1.2)),
        ),
    ]
}

/// Engine × page size, singleton init — valid for every mode.
fn exec_configs() -> Vec<FdConfig> {
    let mut out = Vec::new();
    for engine in [StoreEngine::Scan, StoreEngine::Indexed] {
        for page_size in [None, Some(1), Some(7)] {
            out.push(FdConfig {
                engine,
                page_size,
                init: InitStrategy::Singletons,
            });
        }
    }
    out
}

fn ordered(sets: &[TupleSet]) -> Vec<Vec<TupleId>> {
    sets.iter().map(|s| s.tuples().to_vec()).collect()
}

/// The same database with the join-column indexes switched off: every
/// probe falls back to the liveness-aware scan.
fn scan_twin(db: &Database) -> Database {
    let mut twin = db.clone();
    twin.set_index_enabled(false);
    twin
}

#[test]
fn batch_and_parallel_enumerations_are_identical_with_indexes_off() {
    for (name, db) in workloads() {
        let twin = scan_twin(&db);
        for cfg in exec_configs() {
            let indexed = FdQuery::over(&db).with_config(cfg).run().unwrap();
            let scanned = FdQuery::over(&twin).with_config(cfg).run().unwrap();
            assert_eq!(
                ordered(indexed.sets()),
                ordered(scanned.sets()),
                "{name} {cfg:?}: batch output diverges"
            );
            for threads in [1usize, 3] {
                let indexed = FdQuery::over(&db)
                    .with_config(cfg)
                    .parallel(threads)
                    .run()
                    .unwrap();
                let scanned = FdQuery::over(&twin)
                    .with_config(cfg)
                    .parallel(threads)
                    .run()
                    .unwrap();
                assert_eq!(
                    ordered(indexed.sets()),
                    ordered(scanned.sets()),
                    "{name} {cfg:?} threads={threads}: parallel output diverges"
                );
            }
        }
        // The cross above must actually exercise both access paths.
        assert!(db.index_probes() > 0, "{name}: index path never probed");
        assert!(db.index_hits() > 0, "{name}: no probe hit a posting list");
        assert!(twin.index_hits() == 0, "{name}: disabled index answered");
    }
}

#[test]
fn ranked_emission_is_identical_with_indexes_off() {
    for (name, db) in workloads() {
        let twin = scan_twin(&db);
        let imp = ImpScores::from_fn(&db, |t| (t.0 % 7) as f64);
        for cfg in exec_configs() {
            let indexed = FdQuery::over(&db)
                .with_config(cfg)
                .ranked(FMax::new(&imp))
                .run()
                .unwrap();
            let scanned = FdQuery::over(&twin)
                .with_config(cfg)
                .ranked(FMax::new(&imp))
                .run()
                .unwrap();
            assert_eq!(
                indexed.ranks().unwrap(),
                scanned.ranks().unwrap(),
                "{name} {cfg:?}: rank sequence diverges"
            );
            assert_eq!(
                ordered(indexed.sets()),
                ordered(scanned.sets()),
                "{name} {cfg:?}: ranked set order diverges"
            );
            // Parallel ranked compares like-for-like (indexed parallel
            // against scan parallel): sequential and parallel tie-break
            // order is a separate, pre-existing surface.
            for threads in [2usize, 4] {
                let indexed = FdQuery::over(&db)
                    .with_config(cfg)
                    .ranked(FMax::new(&imp))
                    .parallel(threads)
                    .run()
                    .unwrap();
                let scanned = FdQuery::over(&twin)
                    .with_config(cfg)
                    .ranked(FMax::new(&imp))
                    .parallel(threads)
                    .run()
                    .unwrap();
                assert_eq!(
                    ordered(indexed.sets()),
                    ordered(scanned.sets()),
                    "{name} {cfg:?} threads={threads}: parallel ranked diverges"
                );
            }
        }
    }
}

/// Inserts into chain relation `rel` the row `(a, b, payload)`.
fn insert_row(db: &mut Database, rel: u16, a: Value, b: Value, payload: i64) -> TupleId {
    db.insert_tuple(RelId(rel), vec![a, b, Value::Int(payload)])
        .expect("chain rows are (join, join, payload)")
}

/// `chain(3)` churned in every relation: each gets two overflow tuples
/// that recombine the join values of its base rows (so they join), and
/// relations 0 and 2 lose a base tuple. Overflow ids lie above every base
/// band, so ascending global id no longer groups tuples by relation.
fn churned_chain() -> Database {
    let mut db = chain(3, &DataSpec::new(8, 4).seed(71));
    let mut payload = 9_000;
    for rel in 0..3u16 {
        let base: Vec<TupleId> = db.tuples_of(RelId(rel)).collect();
        for (left, right) in [(0, 1), (2, 5)] {
            let a = db.tuple_values(base[left])[0].clone();
            let b = db.tuple_values(base[right])[1].clone();
            insert_row(&mut db, rel, a, b, payload);
            payload += 1;
        }
    }
    for rel in [0u16, 2] {
        let victim = db.tuples_of(RelId(rel)).nth(3).expect("8 base rows");
        db.remove_tuple(victim).expect("victim is live");
    }
    db
}

/// Three seeds that join each other and the base rows: copies of one
/// `C1` tuple's join values spread over relations 0, 1 and 2.
fn cross_relation_seeds(db: &mut Database) -> Vec<TupleId> {
    let t = db.tuples_of(RelId(1)).next().expect("C1 is non-empty");
    let (j1, j2) = (db.tuple_values(t)[0].clone(), db.tuple_values(t)[1].clone());
    let fresh = Value::Int(77);
    vec![
        insert_row(db, 0, fresh.clone(), j1.clone(), 9_100),
        insert_row(db, 1, j1, j2.clone(), 9_101),
        insert_row(db, 2, j2, fresh, 9_102),
    ]
}

/// Line 7's adjacency candidates must arrive in the scan's order:
/// relation by relation, each base band before its overflow. A global id
/// order would put every relation's inserts after all base tuples and
/// reorder the pushes. The unpaged runs use adjacency candidates and
/// `page_size(3)` scans, so both must emit the same sets in the same
/// order (and ranks), for batch runs under every init strategy, for
/// ranked runs, where a skipped no-op merge must not reorder rank ties,
/// and for delta runs with seeds in one relation or spread over several.
#[test]
fn adjacency_candidates_follow_scan_order_under_churn() {
    let ranked_dbs = [
        ("churned-chain", churned_chain()),
        ("chain4", chain(4, &DataSpec::new(10, 4).seed(3))),
        ("star3", star(3, &DataSpec::new(8, 4).typos(0.3).seed(5))),
    ];
    for (name, db) in &ranked_dbs {
        for m in 1..=7u32 {
            let imp = ImpScores::from_fn(db, |t| ((t.0 * m) % 5) as f64);
            for engine in [StoreEngine::Scan, StoreEngine::Indexed] {
                let query = || FdQuery::over(db).engine(engine).ranked(FMax::new(&imp));
                let adjacent = query().run().unwrap();
                let scanned = query().page_size(3).run().unwrap();
                assert_eq!(
                    (ordered(adjacent.sets()), adjacent.ranks()),
                    (ordered(scanned.sets()), scanned.ranks()),
                    "{name} m={m} {engine:?}: ranked emission diverges from the scan"
                );
            }
        }
    }

    // Seeds spread over relations 0, 1 and 2.
    let mut db = churned_chain();
    let previous = FdQuery::over(&db).run().unwrap().into_sets();
    let seeds = cross_relation_seeds(&mut db);
    for engine in [StoreEngine::Scan, StoreEngine::Indexed] {
        let cfg = FdConfig {
            engine,
            ..FdConfig::default()
        };
        let paged = FdConfig {
            page_size: Some(3),
            ..cfg
        };
        let adjacent = delta_insert_many(&db, &seeds, &previous, cfg);
        let scanned = delta_insert_many(&db, &seeds, &previous, paged);
        assert!(
            !adjacent.added.is_empty(),
            "{engine:?}: the seeds join nothing"
        );
        assert_eq!(
            ordered(&adjacent.added),
            ordered(&scanned.added),
            "{engine:?}: cross-relation delta order diverges from the scan"
        );
    }

    let mut db = churned_chain();
    for init in [
        InitStrategy::Singletons,
        InitStrategy::ReuseResults,
        InitStrategy::TrimExtend,
    ] {
        for engine in [StoreEngine::Scan, StoreEngine::Indexed] {
            let query = FdQuery::over(&db).engine(engine).init(init);
            let adjacent = query.run().unwrap();
            let scanned = FdQuery::over(&db)
                .engine(engine)
                .init(init)
                .page_size(3)
                .run()
                .unwrap();
            assert_eq!(
                ordered(adjacent.sets()),
                ordered(scanned.sets()),
                "{init:?} {engine:?}: emission order diverges from the scan"
            );
        }
    }

    // Seeds in one relation take adjacency candidates under both stores.
    let previous = FdQuery::over(&db).run().unwrap().into_sets();
    let t = db.tuples_of(RelId(1)).nth(2).expect("C1 is non-empty");
    let (j1, j2) = (db.tuple_values(t)[0].clone(), db.tuple_values(t)[1].clone());
    let seeds = vec![
        insert_row(&mut db, 1, j1.clone(), j2.clone(), 9_200),
        insert_row(&mut db, 1, j2, j1, 9_201),
    ];
    for engine in [StoreEngine::Scan, StoreEngine::Indexed] {
        let cfg = FdConfig {
            engine,
            ..FdConfig::default()
        };
        let paged = FdConfig {
            page_size: Some(3),
            ..cfg
        };
        let adjacent = delta_insert_many(&db, &seeds, &previous, cfg);
        let scanned = delta_insert_many(&db, &seeds, &previous, paged);
        assert!(
            !adjacent.added.is_empty(),
            "{engine:?}: the seeds join nothing"
        );
        assert_eq!(
            ordered(&adjacent.added),
            ordered(&scanned.added),
            "{engine:?}: delta emission order diverges from the scan"
        );
    }
}

/// Seeds spread over several relations are where the roots of the
/// pending entries lie in different relations: both stores merge `T′`
/// only into an entry sharing its root, so `{tb}` never lands in an entry
/// rooted at another seed, and both take adjacency candidates. Under
/// both, the maintained full disjunction must equal a from-scratch
/// recomputation.
#[test]
fn multi_relation_delta_seeds_match_recomputation_under_both_stores() {
    let dbs = [
        ("churned-chain", churned_chain()),
        ("chain", chain(3, &DataSpec::new(6, 3).seed(72))),
    ];
    for (name, mut db) in dbs {
        let previous = FdQuery::over(&db).run().unwrap().into_sets();
        let seeds = cross_relation_seeds(&mut db);
        let expected = canonicalize(FdQuery::over(&db).run().unwrap().into_sets());
        for engine in [StoreEngine::Scan, StoreEngine::Indexed] {
            let cfg = FdConfig {
                engine,
                ..FdConfig::default()
            };
            let delta = delta_insert_many(&db, &seeds, &previous, cfg);
            assert!(!delta.added.is_empty(), "{name}: the seeds join nothing");
            let maintained: Vec<TupleSet> = previous
                .iter()
                .filter(|s| !delta.subsumed.iter().any(|x| x.tuples() == s.tuples()))
                .cloned()
                .chain(delta.added)
                .collect();
            assert_eq!(
                canonicalize(maintained),
                expected,
                "{name} {engine:?}: maintained FD diverges from recomputation"
            );
        }
    }
}

/// A fresh per-test data directory under the system temp dir.
fn fresh_dir(tag: u64) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("fd-idx-churn-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clearing stale test dir");
    }
    dir
}

/// One churn step, decoded from three random bytes.
fn apply_op(session: &mut FdSession<'static>, op: (u8, u8, u8)) {
    let (kind, sel, val) = op;
    let db = session.db();
    if kind % 3 == 0 {
        // Delete a live tuple (if any survive).
        let live: Vec<TupleId> = db.all_tuples().collect();
        if live.len() <= 1 {
            return;
        }
        let victim = live[sel as usize % live.len()];
        let mut batch = DeltaBatch::new();
        batch.delete(victim);
        session.commit(batch).expect("delete commits");
    } else {
        // Insert a row of small strings/ints/nulls, exercising the
        // database's shared strings on the WAL path.
        let rel = RelId((sel as usize % db.num_relations()) as u16);
        let arity = db.relation(rel).schema().attrs().len();
        let values: Vec<Value> = (0..arity)
            .map(|i| match (val as usize + i) % 4 {
                0 => Value::Null,
                1 => Value::Int((val % 5) as i64),
                _ => Value::str(format!("s{}", (val as usize + i) % 6)),
            })
            .collect();
        let mut batch = DeltaBatch::new();
        batch.insert(rel, values);
        session.commit(batch).expect("insert commits");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized churn: after every commit the posting lists must match
    /// a from-scratch rebuild, and after a crash (drop with no
    /// checkpoint) the recovered database must pass the same audit and
    /// enumerate identically with the indexes off.
    #[test]
    fn indexes_stay_consistent_under_churn_and_recovery(
        ops in proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 1..12),
        tag in 0u64..1_000_000,
    ) {
        let dir = fresh_dir(tag);
        {
            let mut session = FdSession::new(tourist_database());
            session.persist_to(&dir, FsyncPolicy::Off).expect("persist");
            for &op in &ops {
                apply_op(&mut session, op);
                prop_assert!(session.db().verify_indexes().is_ok(),
                    "postings diverged after {op:?}: {:?}",
                    session.db().verify_indexes());
            }
            // Dropped here without a checkpoint: recovery must replay
            // the WAL tail through the same string-sharing and index paths.
        }
        let recovered = FdSession::open(&dir).expect("recovery");
        prop_assert!(recovered.db().verify_indexes().is_ok(),
            "recovered postings diverged: {:?}", recovered.db().verify_indexes());

        let twin = scan_twin(recovered.db());
        let indexed = FdQuery::over(recovered.db()).run().unwrap();
        let scanned = FdQuery::over(&twin).run().unwrap();
        prop_assert_eq!(ordered(indexed.sets()), ordered(scanned.sets()));
        std::fs::remove_dir_all(&dir).ok();
    }
}
