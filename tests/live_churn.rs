//! Randomized churn: interleave ~200 inserts/deletes on generated
//! workload databases and verify after **every** step that the live
//! engine's materialized full disjunction equals the brute-force oracle
//! of the current snapshot — the oracle-checkable invariant of the
//! delta-maintenance subsystem — and that `delta_insert` never emits a
//! duplicate or a non-maximal set.

use full_disjunction::baselines::brute::oracle_fd;
use full_disjunction::core::{
    canonicalize, FMax, FdEvent, FdSession, ImpScores, RankingFunction, TupleSet,
};
use full_disjunction::relational::{Database, DatabaseBuilder, Delta, RelId, TupleId, Value};
use full_disjunction::workloads::{chain, star, DataSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Caps the live database size so the exponential oracle stays fast.
const MAX_TUPLES: usize = 14;
const STEPS: usize = 200;

fn random_value(rng: &mut StdRng, domain: i64) -> Value {
    if rng.gen_bool(0.12) {
        Value::Null
    } else {
        Value::Int(rng.gen_range(0..domain))
    }
}

/// One churn run over `session` (singleton commits), asserting the
/// invariant after every step.
fn churn(mut session: FdSession<'static>, seed: u64, payload_base: i64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_rels = session.db().num_relations();
    for step in 0..STEPS {
        let tuple_count = session.db().num_tuples();
        let do_insert = tuple_count <= 4 || (tuple_count < MAX_TUPLES && rng.gen_bool(0.5));
        let events = if do_insert {
            let rel = RelId(rng.gen_range(0..num_rels) as u16);
            let arity = session.db().relation(rel).schema().arity();
            // Last column is the relation's payload; the ones before are
            // join columns over a small shared domain.
            let mut values: Vec<Value> =
                (0..arity - 1).map(|_| random_value(&mut rng, 3)).collect();
            values.push(Value::Int(payload_base + step as i64));
            let events = session
                .apply(Delta::Insert { rel, values })
                .expect("insert")
                .events;
            // Acceptance: delta_insert emits no duplicate and no
            // non-maximal set.
            let added: Vec<_> = events
                .iter()
                .filter_map(|e| match e {
                    FdEvent::Added(s) => Some(s),
                    FdEvent::Retracted(_) => None,
                })
                .collect();
            for (i, a) in added.iter().enumerate() {
                for (j, b) in added.iter().enumerate() {
                    if i != j {
                        assert_ne!(a.tuples(), b.tuples(), "duplicate emission at step {step}");
                        assert!(
                            !a.is_subset_of(b),
                            "non-maximal emission {a} ⊆ {b} at step {step}"
                        );
                    }
                }
            }
            events
        } else {
            let live_ids: Vec<TupleId> = session.db().all_tuples().collect();
            let victim = live_ids[rng.gen_range(0..live_ids.len())];
            session
                .apply(Delta::Delete { tuple: victim })
                .expect("delete")
                .events
        };

        // Events must describe a consistent transition: retractions of
        // known sets, additions of new ones (checked by the store), and
        // the end state must match ground truth.
        drop(events);
        let oracle = oracle_fd(session.db());
        assert_eq!(
            canonicalize(session.results().to_vec()),
            oracle,
            "live state diverged from the oracle at step {step}"
        );
        // Exact lookups: every result is found, and no strict subset of
        // one is (the results form an antichain).
        for set in &oracle {
            assert!(
                session.contains(set.tuples()),
                "{set} missing at step {step}"
            );
            for skip in 0..set.len() {
                let mut subset = set.tuples().to_vec();
                subset.remove(skip);
                assert!(
                    !session.contains(&subset),
                    "strict subset {subset:?} of {set} found at step {step}"
                );
            }
        }
    }
    // Every step really happened (one commit per step)…
    assert_eq!(session.maintenance_passes(), STEPS as u64);
    // …and the cheaper FdIter-based invariant must agree as well.
    assert!(session.verify_snapshot());
}

#[test]
fn chain_churn_matches_oracle_every_step() {
    let db = chain(3, &DataSpec::new(3, 3).seed(0xC0FFEE));
    churn(FdSession::new(db), 11, 1_000);
}

#[test]
fn star_churn_matches_oracle_every_step() {
    let db = star(3, &DataSpec::new(3, 3).seed(0xBEEF));
    churn(FdSession::new(db), 23, 2_000);
}

/// Ranked-window churn: a ranked `FdSession` maintains its rank order
/// incrementally (one ordered-set insert or removal per changed result —
/// never a re-sort); after every mutation the maintained order must
/// equal a from-scratch rank + sort of the current results.
#[test]
fn ranked_window_incremental_order_equals_from_scratch_sort_under_churn() {
    let db = chain(3, &DataSpec::new(3, 3).seed(0xFACE));
    // `% 3` makes rank ties common, so the canonical tie order is
    // exercised; tuples inserted later rank through the documented
    // default (0.0), landing in one big tie group.
    let imp = ImpScores::from_fn(&db, |t| (t.0 % 3) as f64);
    let mut session = FdSession::ranked(db, FMax::new(&imp), 3);
    let mut rng = StdRng::seed_from_u64(71);
    let num_rels = session.db().num_relations();
    for step in 0..STEPS {
        let tuple_count = session.db().num_tuples();
        let do_insert = tuple_count <= 4 || (tuple_count < MAX_TUPLES && rng.gen_bool(0.5));
        if do_insert {
            let rel = RelId(rng.gen_range(0..num_rels) as u16);
            let arity = session.db().relation(rel).schema().arity();
            let mut values: Vec<Value> =
                (0..arity - 1).map(|_| random_value(&mut rng, 3)).collect();
            values.push(Value::Int(9_000 + step as i64));
            session
                .apply(Delta::Insert { rel, values })
                .expect("insert");
        } else {
            let live_ids: Vec<TupleId> = session.db().all_tuples().collect();
            let victim = live_ids[rng.gen_range(0..live_ids.len())];
            session
                .apply(Delta::Delete { tuple: victim })
                .expect("delete");
        }

        // From-scratch reference: rank every current result, sort by
        // (rank desc, members asc) — must equal the maintained vector.
        let f = FMax::new(&imp);
        let mut scratch: Vec<(TupleSet, f64)> = session
            .results()
            .iter()
            .map(|s| (s.clone(), f.rank(session.db(), s)))
            .collect();
        scratch.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        assert_eq!(
            session.ranking().expect("ranked session"),
            &scratch[..],
            "incremental ranking diverged at step {step}"
        );
        // The window is the prefix.
        assert_eq!(
            session.window().expect("ranked session"),
            &scratch[..3.min(scratch.len())],
            "window diverged at step {step}"
        );
    }
    assert!(session.verify_snapshot());
}

/// Batched churn through the session API: every step commits a batch of
/// up to 3 mutations in ONE maintenance pass and must stay equal to the
/// brute-force oracle — the transactional counterpart of the singleton
/// churn above, on the null-heavy workload the other suites don't use.
#[test]
fn nully_chain_batched_commits_match_oracle_every_step() {
    let db = chain(
        3,
        &DataSpec {
            null_rate: 0.3,
            ..DataSpec::new(3, 2)
        },
    );
    let mut session = FdSession::new(db);
    let mut rng = StdRng::seed_from_u64(59);
    let num_rels = session.db().num_relations();
    const BATCHES: usize = 60;
    for step in 0..BATCHES {
        let mut batch = session.begin();
        let mut blocked: Vec<TupleId> = Vec::new();
        for _ in 0..rng.gen_range(1..=3usize) {
            let candidates: Vec<TupleId> = session
                .db()
                .all_tuples()
                .filter(|t| !blocked.contains(t))
                .collect();
            let do_insert =
                candidates.len() <= 4 || (candidates.len() < MAX_TUPLES && rng.gen_bool(0.5));
            if do_insert {
                let rel = RelId(rng.gen_range(0..num_rels) as u16);
                let arity = session.db().relation(rel).schema().arity();
                let mut values: Vec<Value> =
                    (0..arity - 1).map(|_| random_value(&mut rng, 3)).collect();
                values.push(Value::Int(7_000 + step as i64));
                batch.push(Delta::Insert { rel, values });
            } else {
                let victim = candidates[rng.gen_range(0..candidates.len())];
                blocked.push(victim);
                batch.push(Delta::Delete { tuple: victim });
            }
        }
        session.commit(batch).expect("valid batch");
        assert_eq!(
            session.maintenance_passes(),
            (step + 1) as u64,
            "exactly one maintenance pass per commit"
        );
        assert_eq!(
            canonicalize(session.results().to_vec()),
            oracle_fd(session.db()),
            "batched session diverged from the oracle at step {step}"
        );
    }
    assert_eq!(session.maintenance_passes(), BATCHES as u64);
    assert!(session.verify_snapshot());
}

#[test]
fn nully_chain_churn_matches_oracle_every_step() {
    let db = chain(
        3,
        &DataSpec {
            null_rate: 0.3,
            ..DataSpec::new(3, 2)
        },
    );
    churn(FdSession::new(db), 37, 3_000);
}

/// `copies` copies of a small `chain(2)` database, each on its own join
/// values (and payloads): copy `c` adds `1000·c` to every integer.
fn disjoint_copies(copies: i64) -> Database {
    let base = chain(2, &DataSpec::new(12, 4).seed(3));
    let mut b = DatabaseBuilder::new();
    for rel in base.relations() {
        let attrs: Vec<&str> = rel
            .schema()
            .attrs()
            .iter()
            .map(|&a| base.attr_name(a))
            .collect();
        let mut out = b.relation(rel.name(), &attrs);
        for c in 0..copies {
            for t in base.tuples_of(rel.id()) {
                let shift = |v: &Value| match v {
                    Value::Int(i) => Value::Int(i + 1000 * c),
                    other => other.clone(),
                };
                out.row_values(base.tuple_values(t).iter().map(shift).collect());
            }
        }
    }
    b.build().expect("chain schema")
}

/// A commit's maintenance reads the results its delta touches, not the
/// whole result: the same insert-then-delete pair examines as many
/// previous results against one copy of the data as against 16 copies
/// on disjoint join values.
#[test]
fn maintenance_examines_the_same_results_at_sixteen_times_the_size() {
    let examined = |copies: i64| {
        let mut session = FdSession::new(disjoint_copies(copies));
        let before = session.len();
        // A C0 row (J0, J1, P0) joining copy 0 on J1.
        let values = vec![Value::Int(-1), Value::Int(1), Value::Int(-1)];
        let rel = RelId(0);
        let insert = session.apply(Delta::Insert { rel, values }).unwrap();
        let t = insert.inserted()[0];
        let delete = session.apply(Delta::Delete { tuple: t }).unwrap();
        assert!(session.verify_snapshot(), "{copies} copies");
        assert_eq!(session.len(), before, "the pair round-trips");
        let counts = (insert.stats.results_examined, delete.stats.results_examined);
        (counts, before)
    };
    let (small, small_len) = examined(1);
    let (large, large_len) = examined(16);
    assert_eq!(large_len, 16 * small_len);
    assert!(
        small.0 > 0 && small.1 > 0,
        "the pair touches results: {small:?}"
    );
    assert_eq!(small, large, "results examined per commit");
}
