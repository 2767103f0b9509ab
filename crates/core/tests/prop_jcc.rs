//! Property tests for the JCC primitives — the operations every theorem
//! of the paper leans on.

use fd_core::jcc::{
    extend_to_maximal, is_jcc, maximal_subset_with, rebuild, try_union, tuples_join_consistent,
    union_with, Union,
};
use fd_core::sim::{levenshtein, string_similarity};
use fd_core::{Stats, TupleSet};
use fd_relational::{Database, DatabaseBuilder, TupleId, Value};
use proptest::prelude::*;

/// Random 3-relation chain databases with small domains and nulls.
fn arb_db() -> impl Strategy<Value = Database> {
    let row = || (proptest::option::of(0i64..3), proptest::option::of(0i64..3));
    (
        proptest::collection::vec(row(), 1..4),
        proptest::collection::vec(row(), 1..4),
        proptest::collection::vec(row(), 1..4),
    )
        .prop_map(|(r0, r1, r2)| {
            let v = |x: Option<i64>| x.map(Value::Int).unwrap_or(Value::Null);
            let mut b = DatabaseBuilder::new();
            {
                let mut rel = b.relation("R0", &["A", "B"]);
                for (x, y) in r0 {
                    rel.row_values(vec![v(x), v(y)]);
                }
            }
            {
                let mut rel = b.relation("R1", &["B", "C"]);
                for (x, y) in r1 {
                    rel.row_values(vec![v(x), v(y)]);
                }
            }
            {
                let mut rel = b.relation("R2", &["C", "D"]);
                for (x, y) in r2 {
                    rel.row_values(vec![v(x), v(y)]);
                }
            }
            b.build().expect("chain db")
        })
}

/// All JCC sets of a database, tiny brute force local to this test.
fn all_jcc(db: &Database) -> Vec<Vec<TupleId>> {
    let n = db.num_tuples();
    let mut out = Vec::new();
    for mask in 1u32..(1 << n) {
        let members: Vec<TupleId> = (0..n as u32)
            .filter(|i| mask & (1 << i) != 0)
            .map(TupleId)
            .collect();
        if is_jcc(db, &members) {
            out.push(members);
        }
    }
    out
}

/// Sorted `members` plus `t`.
fn with_member(members: &[TupleId], t: TupleId) -> Vec<TupleId> {
    let mut out = members.to_vec();
    let pos = out.partition_point(|&x| x < t);
    out.insert(pos, t);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pairwise join consistency is symmetric.
    #[test]
    fn pairwise_consistency_is_symmetric(db in arb_db()) {
        for t1 in db.all_tuples() {
            for t2 in db.all_tuples() {
                prop_assert_eq!(
                    tuples_join_consistent(&db, t1, t2),
                    tuples_join_consistent(&db, t2, t1)
                );
            }
        }
    }

    /// A set grows by one tuple through `union_with` exactly when the
    /// grown member list is JCC, and the grown set has those members.
    #[test]
    fn growth_preserves_jcc(db in arb_db()) {
        let mut stats = Stats::new();
        for jcc in all_jcc(&db) {
            let set = rebuild(&db, jcc.clone());
            for t in db.all_tuples() {
                if set.contains(t) {
                    continue;
                }
                let grown = with_member(&jcc, t);
                match union_with(&db, &set, &[t], &mut stats) {
                    Some(Union::Grown(u)) => {
                        prop_assert!(is_jcc(&db, &grown));
                        prop_assert_eq!(u.tuples(), grown.as_slice());
                    }
                    Some(Union::Same) => prop_assert!(false, "{t} is not a member"),
                    None => prop_assert!(!is_jcc(&db, &grown)),
                }
            }
        }
    }

    /// `try_union` succeeds exactly when the member union is JCC, and the
    /// result is that union.
    #[test]
    fn union_agrees_with_definition(db in arb_db()) {
        let mut stats = Stats::new();
        let sets = all_jcc(&db);
        for a in sets.iter().take(12) {
            for b in sets.iter().take(12) {
                let sa = rebuild(&db, a.clone());
                let sb = rebuild(&db, b.clone());
                let mut union: Vec<TupleId> =
                    a.iter().chain(b.iter()).copied().collect();
                union.sort_unstable();
                union.dedup();
                match try_union(&db, &sa, &sb, &mut stats) {
                    Some(u) => {
                        prop_assert!(is_jcc(&db, &union));
                        prop_assert_eq!(u.tuples(), union.as_slice());
                    }
                    None => prop_assert!(!is_jcc(&db, &union)),
                }
            }
        }
    }

    /// Footnote 3: `maximal_subset_with` returns the unique maximal JCC
    /// subset of `T ∪ {tb}` containing `tb`.
    #[test]
    fn maximal_subset_is_maximal_and_unique(db in arb_db()) {
        let mut stats = Stats::new();
        for jcc in all_jcc(&db).into_iter().take(16) {
            let set = rebuild(&db, jcc.clone());
            for tb in db.all_tuples() {
                if set.contains(tb) {
                    continue;
                }
                let sub = maximal_subset_with(&db, &set, tb, &mut stats);
                prop_assert!(sub.contains(tb));
                prop_assert!(is_jcc(&db, sub.tuples()));
                // All members come from T ∪ {tb}.
                for &m in sub.tuples() {
                    prop_assert!(m == tb || set.contains(m));
                }
                // Maximality: no further member of T can join.
                for &m in set.tuples() {
                    if !sub.contains(m) {
                        let cand = with_member(sub.tuples(), m);
                        prop_assert!(!is_jcc(&db, &cand), "{m} was wrongly dropped");
                    }
                }
            }
        }
    }

    /// The extension loop produces a maximal set: nothing can be added.
    #[test]
    fn extension_reaches_a_fixpoint(db in arb_db()) {
        let mut stats = Stats::new();
        for t in db.all_tuples() {
            let maximal = extend_to_maximal(&db, TupleSet::singleton(&db, t), &mut stats);
            prop_assert!(is_jcc(&db, maximal.tuples()));
            for tg in db.all_tuples() {
                if !maximal.contains(tg) {
                    prop_assert!(!is_jcc(&db, &with_member(maximal.tuples(), tg)));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Levenshtein is a metric (symmetry + triangle inequality) and the
    /// derived similarity stays in [0, 1].
    #[test]
    fn levenshtein_is_a_metric(
        a in "[a-c]{0,6}",
        b in "[a-c]{0,6}",
        c in "[a-c]{0,6}",
    ) {
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert_eq!(levenshtein(&a, &b) == 0, a == b);
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        let s = string_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
    }
}
