//! Golden-pinned work counters: for every enumeration mode over three
//! small databases, the `Stats` counters, the answer count and an
//! order-sensitive hash of the emitted member lists are checked in byte
//! for byte (`tests/golden/ops_counters.golden`).
//!
//! The counters are deterministic, so this is the machine-independent
//! gate for refactors of the `GETNEXTRESULT` engine: the same answers in
//! the same order, with the same amount of work.
//!
//! Regenerate the golden after an intentional change with:
//! `UPDATE_GOLDEN=1 cargo test --test ops_counters`.

use full_disjunction::core::delta::delta_insert_many;
use full_disjunction::core::{
    AMin, EditDistanceSim, FMax, FdConfig, FdQuery, ImpScores, ProbScores, Stats, TupleSet,
};
use full_disjunction::relational::{tourist_database, Database, RelId, Value};
use full_disjunction::workloads::{chain, star, DataSpec};

const TAU: f64 = 0.8;
const K: usize = 5;

/// FNV-1a over the member ids of every answer, in emission order.
fn order_hash(sets: &[TupleSet]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for set in sets {
        for t in set.tuples() {
            eat(t.0);
        }
        eat(u32::MAX);
    }
    h
}

fn row(db_name: &str, mode: &str, sets: &[TupleSet], stats: &Stats) -> String {
    let mut line = format!(
        "{db_name} {mode} results={} hash={:016x}",
        sets.len(),
        order_hash(sets)
    );
    for (name, value) in stats.fields() {
        line.push_str(&format!(" {name}={value}"));
    }
    line.push('\n');
    line
}

/// Every query mode of one database, sequential and `.parallel(2)`.
fn query_rows(db_name: &str, db: &Database, out: &mut String) {
    let imp = ImpScores::from_fn(db, |t| f64::from((t.0 * 7) % 11));
    let f = FMax::new(&imp);
    let a = AMin::new(EditDistanceSim, ProbScores::uniform(db, 1.0));
    let paged = FdConfig {
        page_size: Some(4),
        ..FdConfig::default()
    };
    let plans: Vec<(&str, FdQuery<'_>)> = vec![
        ("batch", FdQuery::over(db)),
        (
            "batch_paper_faithful",
            FdQuery::over(db).with_config(FdConfig::paper_faithful()),
        ),
        ("batch_page4", FdQuery::over(db).with_config(paged)),
        ("ranked_top5", FdQuery::over(db).ranked(&f).top_k(K)),
        (
            "ranked_top5_paper_faithful",
            FdQuery::over(db)
                .with_config(FdConfig::paper_faithful())
                .ranked(&f)
                .top_k(K),
        ),
        ("approx", FdQuery::over(db).approx(&a, TAU)),
        (
            "approx_paper_faithful",
            FdQuery::over(db)
                .with_config(FdConfig::paper_faithful())
                .approx(&a, TAU),
        ),
        (
            "ranked_approx_top5",
            FdQuery::over(db).approx(&a, TAU).ranked(&f).top_k(K),
        ),
        (
            "ranked_approx_top5_paper_faithful",
            FdQuery::over(db)
                .with_config(FdConfig::paper_faithful())
                .approx(&a, TAU)
                .ranked(&f)
                .top_k(K),
        ),
    ];
    for (mode, query) in plans {
        let parallel = format!("{mode}_parallel2");
        let res = query.run().unwrap();
        out.push_str(&row(db_name, mode, res.sets(), res.stats()));
        let res = query.parallel(2).run().unwrap();
        out.push_str(&row(db_name, &parallel, res.sets(), res.stats()));
    }
}

/// One multi-seed delta-maintenance run: two fresh copies of the first
/// tuple of relation 0, inserted after the full disjunction was
/// materialized.
fn delta_row(db_name: &str, db: &Database, out: &mut String) {
    let previous = FdQuery::over(db).run().unwrap().into_sets();
    let mut db = db.clone();
    let template: Vec<Value> = db
        .tuples_of(RelId(0))
        .next()
        .map(|t| db.tuple_values(t).to_vec())
        .expect("relation 0 is non-empty");
    let seeds = vec![
        db.insert_tuple(RelId(0), template.clone()).unwrap(),
        db.insert_tuple(RelId(0), template).unwrap(),
    ];
    let delta = delta_insert_many(&db, &seeds, &previous, FdConfig::default());
    out.push_str(&row(
        db_name,
        "delta_insert_many",
        &delta.added,
        &delta.stats,
    ));
}

fn golden_rows() -> String {
    let dbs = [
        ("tourist", tourist_database()),
        ("chain4", chain(4, &DataSpec::new(10, 4).seed(3))),
        ("star3", star(3, &DataSpec::new(8, 4).typos(0.3).seed(5))),
    ];
    let mut out = String::new();
    for (name, db) in &dbs {
        query_rows(name, db, &mut out);
        delta_row(name, db, &mut out);
    }
    out
}

#[test]
fn work_counters_match_the_golden() {
    let rows = golden_rows();
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ops_counters.golden");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden, &rows).expect("rewrite golden");
        return;
    }
    let expected = std::fs::read_to_string(&golden).expect("golden counters file");
    assert_eq!(
        rows, expected,
        "work counters diverged from tests/golden/ops_counters.golden \
         (regenerate with UPDATE_GOLDEN=1 if intentional)"
    );
}
