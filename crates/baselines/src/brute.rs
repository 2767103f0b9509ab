//! Brute-force oracles.
//!
//! Ground truth for every algorithm in the workspace: enumerate *all*
//! join-consistent connected tuple sets by exhaustive growth and keep the
//! maximal ones. Exponential in the worst case — use only on small
//! databases (tests, property checks, the NP-hardness demonstration).

use fd_core::jcc::{is_jcc, rebuild};
use fd_core::{ApproxJoin, RankingFunction, TupleSet};
use fd_relational::fxhash::FxHashSet;
use fd_relational::{Database, TupleId};

/// Every JCC tuple set of the database (not only the maximal ones),
/// discovered by connectivity-preserving growth from each singleton. A
/// set grows by the definition, [`is_jcc`] on the grown member list, not
/// through the engine's merge.
pub fn all_jcc_sets(db: &Database) -> Vec<TupleSet> {
    let mut seen: FxHashSet<Box<[TupleId]>> = FxHashSet::default();
    let mut out: Vec<TupleSet> = Vec::new();
    let mut stack: Vec<TupleSet> = db
        .all_tuples()
        .map(|t| TupleSet::singleton(db, t))
        .collect();
    while let Some(set) = stack.pop() {
        if !seen.insert(set.tuples().into()) {
            continue;
        }
        for t in db.all_tuples() {
            if let Some(members) = with_member(&set, t).filter(|m| is_jcc(db, m)) {
                stack.push(rebuild(db, members));
            }
        }
        out.push(set);
    }
    out
}

/// The full disjunction by definition: the maximal JCC tuple sets,
/// canonically ordered.
pub fn oracle_fd(db: &Database) -> Vec<TupleSet> {
    let all = all_jcc_sets(db);
    keep_maximal(all)
}

/// The `(A, τ)`-approximate full disjunction by definition (Def. 6.2):
/// maximal tuple sets with `A(T) ≥ τ`.
pub fn oracle_afd<A: ApproxJoin>(db: &Database, a: &A, tau: f64) -> Vec<TupleSet> {
    // Growth through acceptable connected sets reaches every acceptable
    // set: A is antitone, so all connected subsets of an acceptable set
    // are acceptable.
    let mut seen: FxHashSet<Box<[TupleId]>> = FxHashSet::default();
    let mut out: Vec<TupleSet> = Vec::new();
    let mut stack: Vec<TupleSet> = db
        .all_tuples()
        .map(|t| TupleSet::singleton(db, t))
        .filter(|s| a.score(db, s.tuples()) >= tau)
        .collect();
    while let Some(set) = stack.pop() {
        if !seen.insert(set.tuples().into()) {
            continue;
        }
        for t in db.all_tuples() {
            if set.tuple_from(db, db.rel_of(t)).is_some() {
                continue;
            }
            if let Some(members) = with_member(&set, t).filter(|m| a.score(db, m) >= tau) {
                stack.push(rebuild(db, members));
            }
        }
        out.push(set);
    }
    keep_maximal(out)
}

/// The sorted member list of `set ∪ {t}`, or `None` when `t` is a
/// member.
fn with_member(set: &TupleSet, t: TupleId) -> Option<Vec<TupleId>> {
    let pos = set.tuples().binary_search(&t).err()?;
    let mut members = set.tuples().to_vec();
    members.insert(pos, t);
    Some(members)
}

/// The top-k answers by definition: rank every maximal set, sort
/// descending (ties by canonical order), take `k`.
pub fn oracle_top_k<F: RankingFunction>(db: &Database, f: &F, k: usize) -> Vec<(TupleSet, f64)> {
    let mut ranked: Vec<(TupleSet, f64)> = oracle_fd(db)
        .into_iter()
        .map(|s| {
            let r = f.rank(db, &s);
            (s, r)
        })
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked
}

/// Filters a collection down to its ⊆-maximal members, canonically
/// ordered.
pub fn keep_maximal(mut sets: Vec<TupleSet>) -> Vec<TupleSet> {
    sets.sort_by_key(|s| std::cmp::Reverse(s.len()));
    let mut out: Vec<TupleSet> = Vec::new();
    for s in sets {
        if !out.iter().any(|m| s.is_subset_of(m)) {
            out.push(s);
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{canonicalize, FdQuery};
    use fd_relational::tourist_database;

    #[test]
    fn oracle_matches_table_2() {
        let db = tourist_database();
        let oracle = oracle_fd(&db);
        assert_eq!(oracle.len(), 6);
        let incremental = canonicalize(FdQuery::over(&db).run().unwrap().into_sets());
        assert_eq!(oracle, incremental);
    }

    #[test]
    fn all_jcc_sets_counts_tourist_database() {
        let db = tourist_database();
        let all = all_jcc_sets(&db);
        // 10 singletons + pairs {c1,a1},{c1,a2},{c1,s1},{c1,s2},{a2,s1},
        // {c2,s3},{c2,s4},{c3,a3} + triple {c1,a2,s1} = 19.
        assert_eq!(all.len(), 19);
    }

    #[test]
    fn keep_maximal_filters_subsets() {
        let db = tourist_database();
        let all = all_jcc_sets(&db);
        let maximal = keep_maximal(all);
        assert_eq!(maximal.len(), 6);
    }

    #[test]
    fn oracle_top_k_orders_by_rank() {
        use fd_core::{FMax, ImpScores};
        let db = tourist_database();
        let imp = ImpScores::from_fn(&db, |t| t.0 as f64);
        let f = FMax::new(&imp);
        let top = oracle_top_k(&db, &f, 3);
        assert_eq!(top.len(), 3);
        assert!(top[0].1 >= top[1].1 && top[1].1 >= top[2].1);
    }
}
