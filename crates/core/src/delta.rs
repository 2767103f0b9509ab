//! Delta maintenance of a materialized full disjunction under tuple
//! inserts and deletes.
//!
//! The paper's `FDi(R)` primitive (Theorem 4.10) computes exactly the
//! tuple sets of the full disjunction containing a tuple of `Ri` — so the
//! delta of inserting a tuple `t` is an `FDi`-style run seeded at the
//! singleton `{t}`:
//!
//! * inserting `t` ([`delta_insert_many`]) — after `t` enters the database, the new `FD`
//!   differs from the old one by (a) the maximal join-consistent
//!   connected sets *containing `t`* (all new — no pre-existing set can
//!   contain a tuple that did not exist) and (b) the old results those
//!   new sets strictly subsume. The sets of (a) are found by running
//!   `GETNEXTRESULT` with `Incomplete = [{t}]` and the line-10 root
//!   filter tightened to "contains `t`", which is `INCREMENTALFD` over
//!   the database in which `t`'s relation is replaced by `{t}`.
//! * deleting `t` ([`delta_delete_many`]) — after `t` leaves, every result containing `t`
//!   dies, and a previously-subsumed set can resurface. A newly maximal
//!   set `M` must be connected, contain no tuple of a surviving result
//!   superset, and satisfy `M ⊆ S \ {t}` for some dropped result `S`
//!   (any other old superset of `M` would still be a superset); being
//!   maximal and connected inside `S \ {t}`, it is a *connected
//!   component* of `S \ {t}`. The survivors are therefore re-derived by
//!   splitting each dropped set and keeping the components that are
//!   non-extendable and not already present.
//!
//! Both read the previous results through a `ResultStore`, whose
//! posting lists hand each delta only the results it touches. The session
//! layer (`crate::session`) keeps one store and maintains it.

use crate::getnext::{Engine, Exact};
use crate::incremental::{FdConfig, Fifo};
use crate::jcc::{extend_to_maximal, rebuild, retain_component};
use crate::lists::{CompleteStore, IncompleteQueue, Printed};
use crate::stats::Stats;
use crate::tupleset::TupleSet;
use fd_relational::fxhash::{FxHashMap, FxHashSet};
use fd_relational::{Database, TupleId};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// A materialized full disjunction, each result held once: the results
/// in a dense list (pushed at the end, removed by `swap_remove`), a
/// posting list per member tuple, and on a ranked store each result's
/// recorded rank beside it plus every result's key in canonical rank
/// order. A delta reads only the postings of the tuples it touches.
#[derive(Debug, Default)]
pub(crate) struct ResultStore<'a> {
    sets: Cow<'a, [TupleSet]>,
    /// Member tuple → ascending positions in `sets` of its results.
    postings: FxHashMap<TupleId, Vec<u32>>,
    /// `ranks[i]` is `sets[i]`'s rank (ranked stores; empty otherwise).
    ranks: Vec<f64>,
    /// Every ranked result's key, in canonical rank order.
    order: BTreeSet<RankKey>,
}

/// A ranked result's key: rank descending, then members ascending — the
/// order of [`crate::ranking::canonical_rank_order`].
type RankKey = (Reverse<i64>, Box<[TupleId]>);

fn rank_key(rank: f64, members: &[TupleId]) -> RankKey {
    // `f64::total_cmp` as an integer order: negative ranks flip their
    // magnitude bits.
    let bits = rank.to_bits() as i64;
    let total = bits ^ (((bits >> 63) as u64) >> 1) as i64;
    (Reverse(total), members.into())
}

impl<'a> ResultStore<'a> {
    /// A store over `sets`, ranked when `ranks` (one per set) is given.
    pub(crate) fn new(sets: impl Into<Cow<'a, [TupleSet]>>, ranks: Option<Vec<f64>>) -> Self {
        let sets = sets.into();
        let mut postings: FxHashMap<TupleId, Vec<u32>> = FxHashMap::default();
        for (pos, set) in sets.iter().enumerate() {
            for &t in set.tuples() {
                postings.entry(t).or_default().push(pos as u32);
            }
        }
        let ranks = ranks.unwrap_or_default();
        let keys = ranks.iter().zip(sets.iter());
        let order = keys.map(|(&r, s)| rank_key(r, s.tuples())).collect();
        ResultStore {
            sets,
            postings,
            ranks,
            order,
        }
    }

    /// The results, in store order.
    pub(crate) fn sets(&self) -> &[TupleSet] {
        &self.sets
    }

    /// The position of the result with exactly these members, found in
    /// the shortest posting list among them.
    pub(crate) fn position(&self, tuples: &[TupleId]) -> Option<usize> {
        let lists = tuples.iter().map(|t| self.postings.get(t));
        let shortest = lists.min_by_key(|list| list.map_or(0, Vec::len))??;
        let mut found = shortest.iter().map(|&pos| pos as usize);
        found.find(|&pos| self.sets[pos].tuples() == tuples)
    }

    /// Ascending positions of the results holding any of `tuples`, and
    /// the number of posting entries visited to find them.
    fn holding(&self, tuples: impl IntoIterator<Item = TupleId>) -> (Vec<usize>, u64) {
        let lists = tuples.into_iter().filter_map(|t| self.postings.get(&t));
        let mut out: Vec<usize> = lists.flatten().map(|&pos| pos as usize).collect();
        let visited = out.len() as u64;
        out.sort_unstable();
        out.dedup();
        (out, visited)
    }

    /// Appends a result, with its rank on a ranked store.
    pub(crate) fn push(&mut self, set: TupleSet, rank: Option<f64>) {
        let pos = self.sets.len() as u32;
        for &t in set.tuples() {
            self.postings.entry(t).or_default().push(pos);
        }
        if let Some(rank) = rank {
            self.order.insert(rank_key(rank, set.tuples()));
            self.ranks.push(rank);
        }
        self.sets.to_mut().push(set);
    }

    /// Removes the result with exactly these members; the last result
    /// takes its position, as in `Vec::swap_remove`.
    pub(crate) fn remove(&mut self, tuples: &[TupleId]) {
        let Some(pos) = self.position(tuples) else {
            debug_assert!(false, "retracting unknown result {tuples:?}");
            return;
        };
        for t in tuples {
            let list = self.postings.get_mut(t).expect("a member is posted");
            list.retain(|&p| p as usize != pos);
            if list.is_empty() {
                self.postings.remove(t);
            }
        }
        let last = self.sets.len() - 1;
        if pos != last {
            for t in self.sets[last].tuples() {
                // `last` is the largest position, so it ends every list.
                let list = self.postings.get_mut(t).expect("a member is posted");
                list.pop();
                list.insert(list.partition_point(|&p| (p as usize) < pos), pos as u32);
            }
        }
        self.sets.to_mut().swap_remove(pos);
        if !self.ranks.is_empty() {
            let rank = self.ranks.swap_remove(pos);
            self.order.remove(&rank_key(rank, tuples));
        }
    }

    /// The first `k` results in canonical rank order, with their recorded
    /// ranks (ranked stores).
    pub(crate) fn top(&self, k: usize) -> Vec<(TupleSet, f64)> {
        let mut out = Vec::with_capacity(k.min(self.order.len()));
        for (_, members) in self.order.iter().take(k) {
            let pos = self.position(members).expect("every key is stored");
            out.push((self.sets[pos].clone(), self.ranks[pos]));
        }
        out
    }

    /// Do the postings and the rank order equal a rebuild from the
    /// results and their recorded ranks?
    pub(crate) fn is_consistent(&self) -> bool {
        let ranked = !self.ranks.is_empty();
        let fresh = ResultStore::new(&self.sets[..], ranked.then(|| self.ranks.clone()));
        (!ranked || self.ranks.len() == self.sets.len())
            && fresh.postings == self.postings
            && fresh.order == self.order
    }
}

/// The effect of one tuple insertion on the full disjunction.
#[derive(Debug, Clone, Default)]
pub struct InsertDelta {
    /// New maximal sets — each contains the inserted tuple; no duplicates,
    /// no set subsumed by another.
    pub added: Vec<TupleSet>,
    /// Previous results that became non-maximal (strict subsets of some
    /// `added` set) and must be retracted.
    pub subsumed: Vec<TupleSet>,
    /// Work counters of the maintenance run.
    pub stats: Stats,
}

/// The effect of one tuple deletion on the full disjunction.
#[derive(Debug, Clone, Default)]
pub struct DeleteDelta {
    /// Previous results containing the deleted tuple; they must be
    /// retracted.
    pub dropped: Vec<TupleSet>,
    /// Sets that become maximal once the `dropped` results are gone —
    /// connected components of `S \ {t}` that cannot be extended and are
    /// not already results.
    pub restored: Vec<TupleSet>,
    /// Work counters of the maintenance run.
    pub stats: Stats,
}

/// Computes the full-disjunction delta of inserting `seeds` — the insert
/// half of a batched commit's single maintenance pass.
///
/// `db` must already contain every seed (live); `previous` is the
/// materialized full disjunction of the database *without* them. Runs in
/// incremental polynomial time per emitted set (Theorem 4.10 applied to
/// the instance whose `Ri` is the seeds). All `k`
/// seeds drive **one** `FDi` run: `Incomplete` starts from the `k`
/// singletons, the line-10 root filter accepts any seed, and emitted
/// sets register in `Complete` under every contained seed — so a maximal
/// set joining several fresh tuples is discovered (and its derivations
/// suppressed) once, not once per seed.
pub fn delta_insert_many(
    db: &Database,
    seeds: &[TupleId],
    previous: &[TupleSet],
    cfg: FdConfig,
) -> InsertDelta {
    insert_in(db, seeds, &ResultStore::new(previous, None), cfg)
}

/// [`delta_insert_many`] against a store.
fn insert_in(
    db: &Database,
    seeds: &[TupleId],
    prev: &ResultStore<'_>,
    cfg: FdConfig,
) -> InsertDelta {
    debug_assert!(
        seeds.iter().all(|&t| db.is_live(t)),
        "insert delta requires live seed tuples"
    );
    if seeds.is_empty() {
        return InsertDelta::default();
    }
    let mut stats = Stats::new();
    let mut queue = IncompleteQueue::new(cfg.engine);
    for &t in seeds {
        queue.push(t, TupleSet::singleton(db, t), &mut stats);
    }
    let mut fifo = Fifo::new(db.rel_of(seeds[0]), queue, CompleteStore::new(cfg.engine));
    fifo.seeds = seeds.to_vec();
    let mut engine = Engine::new(db, Exact, fifo, cfg.page_size, stats);
    let mut printed = Printed::default();
    let mut added: Vec<TupleSet> = Vec::new();
    while let Some((ri, _, set)) = engine.pop_extend() {
        engine.stats.results += 1;
        // Two seeds in one maximal set each derive it. A re-derivation
        // of a printed set is not printed again, and its candidate loop
        // is skipped: line 7 depends only on the set, so it would
        // regenerate the `T′` the first derivation already processed.
        if !printed.insert(set.tuples()) {
            continue;
        }
        engine.derive(ri, &set);
        // The set registers under every seed it contains, so line 11
        // drops a subset whatever its root.
        let roots: Vec<TupleId> = seeds.iter().copied().filter(|&s| set.contains(s)).collect();
        engine.frontier.complete.insert(set.tuples(), &roots);
        added.push(set);
    }
    let mut stats = engine.stats;

    // A subsumed old set is a strict subset of a new one and holds no
    // fresh seed, so it shares a non-seed member with that set: the
    // postings of those members hold every candidate.
    let members = added.iter().flat_map(|s| s.tuples().iter().copied());
    let (candidates, _) = prev.holding(members.filter(|t| !seeds.contains(t)));
    stats.results_examined += candidates.len() as u64;
    let subsumed = candidates
        .into_iter()
        .map(|pos| &prev.sets[pos])
        .filter(|prev| added.iter().any(|new| prev.is_subset_of(new)))
        .cloned()
        .collect();
    InsertDelta {
        added,
        subsumed,
        stats,
    }
}

/// Computes the full-disjunction delta of deleting all of `removed` —
/// the delete half of a batched commit's single maintenance pass.
///
/// `db` must already have every removed tuple tombstoned; `previous` is
/// the materialized full disjunction of the database *with* them.
/// Against a session's `ResultStore` the cost is proportional to the
/// dropped results and one maximality probe per resurfacing candidate —
/// not to the size of the database's full disjunction. The dropped
/// results (those touching **any** removed tuple) are the union
/// of the removed tuples' posting lists, and the remnant components —
/// each dropped set minus the whole removed group — are re-derived once,
/// not once per deletion: a newly maximal set `M` has every old maximal
/// superset dropped, so `M ⊆ S \ removed` for some dropped `S`, and
/// being maximal and connected inside it, `M` is a connected component
/// of `S \ removed` (the Theorem 4.8 argument applied to the group).
pub fn delta_delete_many(
    db: &Database,
    removed: &[TupleId],
    previous: &[TupleSet],
    cfg: FdConfig,
) -> DeleteDelta {
    let _ = cfg; // store engine choice does not affect this path (yet)
    delete_in(db, removed, &ResultStore::new(previous, None))
}

/// [`delta_delete_many`] against a store.
fn delete_in(db: &Database, removed: &[TupleId], prev: &ResultStore<'_>) -> DeleteDelta {
    debug_assert!(
        removed.iter().all(|&t| !db.is_live(t)),
        "delete delta runs after the tombstones"
    );
    let mut stats = Stats::new();
    let (hits, visited) = prev.holding(removed.iter().copied());
    stats.results_examined += visited;
    let dropped: Vec<TupleSet> = hits.iter().map(|&p| prev.sets[p].clone()).collect();

    let mut restored: Vec<TupleSet> = Vec::new();
    let mut seen: FxHashSet<Box<[TupleId]>> = FxHashSet::default();
    for set in &dropped {
        let mut remnant = set.tuples().to_vec();
        remnant.retain(|u| !removed.contains(u));
        for component in connected_components(db, &remnant) {
            if !seen.insert(component.clone().into_boxed_slice()) {
                continue;
            }
            // A component holds no removed tuple, so an equal result
            // is a survivor.
            if prev.position(&component).is_some() {
                continue;
            }
            let candidate = rebuild(db, component);
            // Maximality probe: a candidate that grows was (and remains)
            // subsumed by an existing result — extend_to_maximal reaches
            // a maximal superset, which either survives in `previous` or
            // is itself a component of another dropped set (or, inside a
            // batched commit, contains a freshly inserted tuple and is
            // found by the batch's multi-seed insert run).
            let extended = extend_to_maximal(db, candidate.clone(), &mut stats);
            if extended.tuples() == candidate.tuples() {
                restored.push(candidate);
            }
        }
    }
    DeleteDelta {
        dropped,
        restored,
        stats,
    }
}

/// The net effect of one batched commit (k mutations, one maintenance
/// pass) on the full disjunction.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchDelta {
    /// Previous results that must be retracted: sets touching a removed
    /// tuple, plus sets subsumed by a new maximal set.
    pub retracted: Vec<TupleSet>,
    /// Sets entering the full disjunction: re-derived remnant components
    /// of the retracted sets, plus the maximal sets containing at least
    /// one inserted tuple.
    pub added: Vec<TupleSet>,
    /// Work counters of the (single) maintenance pass.
    pub stats: Stats,
}

/// Computes the full-disjunction delta of one batched commit: all of
/// `inserted` entered the database and all of `removed` left it, in one
/// transaction. `db` must already reflect the whole batch (inserted
/// tuples live, removed tuples tombstoned); `store` holds the
/// materialized full disjunction from *before* the batch.
///
/// This is **one** maintenance pass, not `k`:
///
/// * the deletes are processed as a group ([`delta_delete_many`]) —
///   results touching any removed tuple come from the removed tuples'
///   posting lists, remnant components re-derive once;
/// * the inserts are seeded together ([`delta_insert_many`]) — one
///   multi-seed `FDi` run discovers every maximal set containing a new
///   tuple, so overlapping inserts combine without intermediate states;
/// * the returned events are the *net* effect: a set that a singleton
///   replay would have added and then retracted within the batch (say,
///   an insert joining a tuple the same batch deletes) never surfaces,
///   because the maintenance runs against the final database only.
///
/// The remnant-component probes run against the final database, so a
/// component extendable only through an inserted tuple is correctly left
/// to the insert run (which emits the extended maximal set instead).
pub(crate) fn delta_batch(
    db: &Database,
    inserted: &[TupleId],
    removed: &[TupleId],
    store: &ResultStore<'_>,
    cfg: FdConfig,
) -> BatchDelta {
    let del = delete_in(db, removed, store);
    // A result the new sets subsume holds no removed tuple (the new sets
    // hold none), so it is never also among the dropped ones.
    let ins = insert_in(db, inserted, store, cfg);
    let mut stats = del.stats;
    stats.merge(&ins.stats);
    let mut retracted = del.dropped;
    retracted.extend(ins.subsumed);
    let mut added = del.restored;
    added.extend(ins.added);
    BatchDelta {
        retracted,
        added,
        stats,
    }
}

/// Splits a join-consistent member list into its connected components
/// (connectivity over the members' relations, as in Theorem 4.8's
/// auxiliary graph). Members arrive sorted; components come out sorted,
/// in the order of their first member.
fn connected_components(db: &Database, members: &[TupleId]) -> Vec<Vec<TupleId>> {
    let mut out: Vec<Vec<TupleId>> = Vec::new();
    for &m in members {
        if !out.iter().any(|c| c.contains(&m)) {
            let mut component = members.to_vec();
            retain_component(db, &mut component, db.rel_of(m));
            out.push(component);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{canonicalize, FdIter};
    use crate::query::FdQuery;
    use fd_relational::{tourist_database, RelId, Value};

    fn full_disjunction(db: &Database) -> Vec<TupleSet> {
        FdIter::new(db).collect()
    }

    /// Applies a delta to a materialized result list the way a live session
    /// does, so the invariant `apply(delta(FD_old)) == FD_new` is checked
    /// against a from-scratch recomputation.
    fn apply_insert(previous: &[TupleSet], d: &InsertDelta) -> Vec<TupleSet> {
        let mut out: Vec<TupleSet> = previous
            .iter()
            .filter(|s| !d.subsumed.contains(s))
            .cloned()
            .collect();
        out.extend(d.added.iter().cloned());
        canonicalize(out)
    }

    fn apply_delete(previous: &[TupleSet], d: &DeleteDelta) -> Vec<TupleSet> {
        let mut out: Vec<TupleSet> = previous
            .iter()
            .filter(|s| !d.dropped.contains(s))
            .cloned()
            .collect();
        out.extend(d.restored.iter().cloned());
        canonicalize(out)
    }

    #[test]
    fn insert_delta_matches_recomputation_on_tourist() {
        let mut db = tourist_database();
        let before = full_disjunction(&db);
        // A new Accommodations row joining c1 via Country and s1 via City.
        let t = db
            .insert_tuple(
                RelId(1),
                vec![
                    "Canada".into(),
                    "London".into(),
                    "Fairmont".into(),
                    Value::Int(5),
                ],
            )
            .unwrap();
        let d = FdQuery::over(&db).delta_insert(t, &before).unwrap();
        assert!(!d.added.is_empty());
        assert!(d.added.iter().all(|s| s.contains(t)));
        assert_eq!(
            apply_insert(&before, &d),
            canonicalize(full_disjunction(&db))
        );
    }

    #[test]
    fn insert_delta_subsumes_swallowed_results() {
        // P(A), Q(A, B): inserting the matching Q row swallows {p1}.
        let mut b = fd_relational::DatabaseBuilder::new();
        b.relation("P", &["A"]).row([1]);
        b.relation("Q", &["A", "B"]);
        let mut db = b.build().unwrap();
        let before = full_disjunction(&db);
        assert_eq!(before.len(), 1); // {p1}
        let t = db.insert_tuple(RelId(1), vec![1.into(), 2.into()]).unwrap();
        let d = FdQuery::over(&db).delta_insert(t, &before).unwrap();
        assert_eq!(d.added.len(), 1);
        assert_eq!(d.added[0].len(), 2);
        assert_eq!(d.subsumed.len(), 1);
        assert_eq!(
            apply_insert(&before, &d),
            canonicalize(full_disjunction(&db))
        );
    }

    #[test]
    fn delete_delta_restores_fragments() {
        let mut db = tourist_database();
        let before = full_disjunction(&db);
        // Delete a2 (the London Ramada): {c1, a2, s1} dies; {c1, s1} must
        // resurface (a1 conflicts with s1 on City, so it is maximal).
        db.remove_tuple(TupleId(4)).unwrap();
        let d = FdQuery::over(&db)
            .delta_delete(TupleId(4), &before)
            .unwrap();
        assert_eq!(d.dropped.len(), 1);
        assert!(d
            .restored
            .iter()
            .any(|s| s.tuples() == [TupleId(0), TupleId(6)]));
        assert_eq!(
            apply_delete(&before, &d),
            canonicalize(full_disjunction(&db))
        );
    }

    #[test]
    fn delete_delta_drops_without_restoring_when_fragments_extend() {
        let mut db = tourist_database();
        let before = full_disjunction(&db);
        // Delete s2 (Mount Logan): {c1, s2} dies; the fragment {c1} grows
        // into surviving results, so nothing resurfaces.
        db.remove_tuple(TupleId(7)).unwrap();
        let d = FdQuery::over(&db)
            .delta_delete(TupleId(7), &before)
            .unwrap();
        assert_eq!(d.dropped.len(), 1);
        assert!(d.restored.is_empty());
        assert_eq!(
            apply_delete(&before, &d),
            canonicalize(full_disjunction(&db))
        );
    }

    #[test]
    fn insert_then_delete_round_trips() {
        let mut db = tourist_database();
        let before = canonicalize(full_disjunction(&db));
        let t = db
            .insert_tuple(RelId(0), vec!["Chile".into(), "arid".into()])
            .unwrap();
        let ins = FdQuery::over(&db).delta_insert(t, &before).unwrap();
        let mid = apply_insert(&before, &ins);
        db.remove_tuple(t).unwrap();
        let del = FdQuery::over(&db).delta_delete(t, &mid).unwrap();
        assert_eq!(apply_delete(&mid, &del), before);
    }

    #[test]
    fn insert_delta_emits_no_duplicates_and_no_nonmaximal_sets() {
        let mut db = tourist_database();
        let before = full_disjunction(&db);
        let t = db
            .insert_tuple(
                RelId(2),
                vec!["Canada".into(), "Toronto".into(), "CN Tower".into()],
            )
            .unwrap();
        let d = FdQuery::over(&db).delta_insert(t, &before).unwrap();
        for (i, a) in d.added.iter().enumerate() {
            for (j, b) in d.added.iter().enumerate() {
                if i != j {
                    assert_ne!(a.tuples(), b.tuples(), "duplicate emission");
                    assert!(!a.is_subset_of(b), "non-maximal emission {a} ⊆ {b}");
                }
            }
        }
        assert_eq!(
            apply_insert(&before, &d),
            canonicalize(full_disjunction(&db))
        );
    }

    /// Applies a batch delta the way a session commit does.
    fn apply_batch_delta(previous: &[TupleSet], d: &BatchDelta) -> Vec<TupleSet> {
        let mut out: Vec<TupleSet> = previous
            .iter()
            .filter(|s| !d.retracted.contains(s))
            .cloned()
            .collect();
        out.extend(d.added.iter().cloned());
        canonicalize(out)
    }

    #[test]
    fn multi_seed_insert_matches_recomputation() {
        let mut db = tourist_database();
        let before = full_disjunction(&db);
        // Two overlapping fresh tuples: a new hotel and a new site that
        // join each other (both in London, Canada) *and* existing tuples.
        let t1 = db
            .insert_tuple(
                RelId(1),
                vec![
                    "Canada".into(),
                    "London".into(),
                    "Fairmont".into(),
                    Value::Int(5),
                ],
            )
            .unwrap();
        let t2 = db
            .insert_tuple(
                RelId(2),
                vec!["Canada".into(), "London".into(), "Storybook Gardens".into()],
            )
            .unwrap();
        let d = delta_insert_many(&db, &[t1, t2], &before, FdConfig::default());
        assert!(d.added.iter().all(|s| s.contains(t1) || s.contains(t2)));
        assert!(
            d.added.iter().any(|s| s.contains(t1) && s.contains(t2)),
            "overlapping seeds must combine in one run"
        );
        // No duplicates, no non-maximal emissions.
        for (i, a) in d.added.iter().enumerate() {
            for (j, b) in d.added.iter().enumerate() {
                if i != j {
                    assert_ne!(a.tuples(), b.tuples(), "duplicate emission");
                    assert!(!a.is_subset_of(b), "non-maximal emission {a} ⊆ {b}");
                }
            }
        }
        assert_eq!(
            apply_insert(&before, &d),
            canonicalize(full_disjunction(&db))
        );
    }

    #[test]
    fn grouped_delete_matches_recomputation() {
        let mut db = tourist_database();
        let before = full_disjunction(&db);
        // Delete a1 and a2 together: {c1, a1} and {c1, a2, s1} die;
        // {c1, s1} resurfaces once (not once per delete).
        db.remove_tuple(TupleId(3)).unwrap();
        db.remove_tuple(TupleId(4)).unwrap();
        let d = delta_delete_many(&db, &[TupleId(3), TupleId(4)], &before, FdConfig::default());
        assert_eq!(d.dropped.len(), 2);
        assert_eq!(
            d.restored
                .iter()
                .filter(|s| s.tuples() == [TupleId(0), TupleId(6)])
                .count(),
            1
        );
        assert_eq!(
            apply_delete(&before, &d),
            canonicalize(full_disjunction(&db))
        );
    }

    #[test]
    fn batch_delta_matches_recomputation_and_nets_out_intermediates() {
        let mut db = tourist_database();
        let before = full_disjunction(&db);
        // One transaction: delete c1, insert a hotel that would have
        // joined c1. A singleton replay (insert first) would add a set
        // containing both and retract it one step later; the batch's
        // single pass must never surface it.
        let t = db
            .insert_tuple(
                RelId(1),
                vec![
                    "Canada".into(),
                    "London".into(),
                    "Fairmont".into(),
                    Value::Int(5),
                ],
            )
            .unwrap();
        db.remove_tuple(TupleId(0)).unwrap();
        let store = ResultStore::new(&before[..], None);
        let d = delta_batch(&db, &[t], &[TupleId(0)], &store, FdConfig::default());
        assert!(
            d.added.iter().all(|s| !s.contains(TupleId(0))),
            "no event may mention the deleted tuple"
        );
        assert!(d.added.iter().any(|s| s.contains(t)));
        assert_eq!(
            apply_batch_delta(&before, &d),
            canonicalize(full_disjunction(&db))
        );
    }

    #[test]
    fn engines_and_block_modes_agree_on_deltas() {
        let mut db = tourist_database();
        let before = full_disjunction(&db);
        let t = db
            .insert_tuple(
                RelId(1),
                vec!["UK".into(), "London".into(), "Savoy".into(), 5.into()],
            )
            .unwrap();
        let base: Vec<Vec<TupleId>> = {
            let d = FdQuery::over(&db).delta_insert(t, &before).unwrap();
            canonicalize(d.added)
                .iter()
                .map(|s| s.tuples().to_vec())
                .collect()
        };
        for engine in [crate::StoreEngine::Scan, crate::StoreEngine::Indexed] {
            for page_size in [None, Some(2), Some(64)] {
                let mut q = FdQuery::over(&db).engine(engine);
                if let Some(ps) = page_size {
                    q = q.page_size(ps);
                }
                let d = q.delta_insert(t, &before).unwrap();
                let got: Vec<Vec<TupleId>> = canonicalize(d.added)
                    .iter()
                    .map(|s| s.tuples().to_vec())
                    .collect();
                assert_eq!(base, got, "engine {engine:?}, pages {page_size:?}");
            }
        }
    }
}
