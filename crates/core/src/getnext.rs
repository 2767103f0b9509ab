//! `GETNEXTRESULT` (Fig. 2 of the paper) — the one engine behind every
//! algorithm of the crate.
//!
//! Given the relations, the index `i`, and the `Incomplete`/`Complete`
//! lists, produce the next result of `FDi(R)`:
//!
//! ```text
//!  1  remove the first tuple set T from Incomplete
//!  2  while there is a tuple tg ∉ T with JCC(T ∪ {tg})
//!  4      add tg to T                            (maximal extension)
//!  7  foreach tuple tb ∈ Tuples(R), tb ∉ T
//!  8      T′ := the maximal subset of T ∪ {tb} containing tb with JCC(T′)
//! 10      if T′ contains a tuple from Ri
//! 11          if T′ is contained in a tuple set of Complete: skip
//! 14          else if ∃ S ∈ Incomplete with JCC(S ∪ T′): S := S ∪ T′
//! 18          else append T′ to Incomplete
//! 19  return T
//! ```
//!
//! `PRIORITYINCREMENTALFD` (Fig. 3) and `APPROXINCREMENTALFD` (Figs. 5–6)
//! are edits of this body, and so is the code: [`Engine`] is generic over
//!
//! * a **consistency [`Policy`]** — [`Exact`] (`JCC`, lines 2, 8 and 14
//!   as written) or [`Approx`](crate::Approx) (`A(·) ≥ τ`, the starred
//!   lines of Figs. 5–6);
//! * a **[`Frontier`]** — the FIFO [`Fifo`] list of Fig. 1, or one rank
//!   heap per relation for Fig. 3 (`priority::RankHeaps`).
//!
//! The four algorithms are the four combinations; the exactly-once
//! drivers, the parallel drivers and delta maintenance all run this one
//! candidate loop.
//!
//! Line 7 is written as a scan of every tuple, but a candidate that joins
//! no schema-adjacent member of `T` has `T′ = {tb}`, which line 10 drops
//! unless `tb` is a root. Where every root singleton is a no-op for lines
//! 11–18 (exact joins, no pager, and a frontier that says so) the loop
//! visits only the [`adjacent_candidates`], found through the posting
//! lists, in the scan's order. Every other run scans
//! ([`scan_tuples_from`]).

use crate::jcc::{add_tuple, can_add, extend_to_maximal_from, maximal_subset_with, try_union};
use crate::lists::{CompleteStore, IncompleteQueue, StoreEngine};
use crate::stats::Stats;
use crate::tupleset::TupleSet;
use fd_relational::fxhash::FxHashSet;
use fd_relational::storage::Pager;
use fd_relational::{Database, RelId, TupleId};

/// What "consistent" means for one execution: the predicate behind the
/// extension (lines 2–6), the maximal subsets (line 8), the merge
/// (lines 14–15) and the `≤ c` seed enumeration of Fig. 3. Implemented by
/// [`Exact`] and [`Approx`](crate::Approx).
pub trait Policy {
    /// Lemma 4.4: an exact `T′` merges with at most one `Incomplete`
    /// entry, so the indexed store may probe the entries of its root in
    /// any order. Approximate joins give no such guarantee, so their
    /// merge scans same-root entries in pop order and takes the first.
    const UNIQUE_PARTNER: bool;

    /// Visit order of the `≤ c` enumeration: `true` walks the growth tree
    /// in preorder, ascending ids first; `false` pops the most recently
    /// found set first. The fixpoint merge after the enumeration depends
    /// on that order when merge partners are not unique.
    const PREORDER_SEEDS: bool;

    /// Does line 8 give `T′ = {tb}` for every candidate `tb` that agrees
    /// with no schema-adjacent member of `T`? Then line 7 may visit only
    /// the tuples the posting lists match to such a member, when the
    /// frontier also makes root singletons no-ops. True for exact joins;
    /// `≈`-joins admit unequal values, so the approximate policy scans.
    const ADJACENT_CANDIDATES: bool;

    /// The policy borrowed, for parallel workers sharing one policy.
    type Ref<'a>: Policy
    where
        Self: 'a;

    /// Borrows the policy (see [`Policy::Ref`]).
    fn by_ref(&self) -> Self::Ref<'_>;

    /// May the singleton `{t}` seed a run (Fig. 5 line 3*)?
    fn admits(&self, db: &Database, t: TupleId, stats: &mut Stats) -> bool;

    /// Lines 2–6: extends `set` to a maximal consistent set, adding only
    /// tuples of relations `≥ rel_min`.
    fn extend(&self, db: &Database, set: TupleSet, rel_min: usize, stats: &mut Stats) -> TupleSet;

    /// Line 8: calls `f` on every maximal consistent subset of
    /// `set ∪ {tb}` that contains `tb`.
    fn for_each_subset(
        &self,
        db: &Database,
        set: &TupleSet,
        tb: TupleId,
        stats: &mut Stats,
        f: impl FnMut(TupleSet, &mut Stats),
    );

    /// Line 14: the union of two sets, when it is consistent.
    fn union(
        &self,
        db: &Database,
        a: &TupleSet,
        b: &TupleSet,
        stats: &mut Stats,
    ) -> Option<TupleSet>;

    /// Fig. 3 line 4: calls `f` on every consistent one-tuple growth of
    /// `set`, in the enumeration's visit order.
    fn grow(&self, db: &Database, set: &TupleSet, stats: &mut Stats, f: impl FnMut(TupleSet));
}

/// The exact policy: join consistency and connectivity (`JCC`), with the
/// extension probing the join-column indexes.
#[derive(Debug, Clone, Copy)]
pub struct Exact;

impl Policy for Exact {
    const UNIQUE_PARTNER: bool = true;
    const PREORDER_SEEDS: bool = true;
    const ADJACENT_CANDIDATES: bool = true;
    type Ref<'a> = Exact;

    fn by_ref(&self) -> Exact {
        Exact
    }

    fn admits(&self, _db: &Database, _t: TupleId, _stats: &mut Stats) -> bool {
        true
    }

    fn extend(&self, db: &Database, set: TupleSet, rel_min: usize, stats: &mut Stats) -> TupleSet {
        extend_to_maximal_from(db, set, rel_min, stats)
    }

    fn for_each_subset(
        &self,
        db: &Database,
        set: &TupleSet,
        tb: TupleId,
        stats: &mut Stats,
        mut f: impl FnMut(TupleSet, &mut Stats),
    ) {
        // Footnote 3: the maximal subset is unique.
        let t_prime = maximal_subset_with(db, set, tb, stats);
        f(t_prime, stats)
    }

    fn union(
        &self,
        db: &Database,
        a: &TupleSet,
        b: &TupleSet,
        stats: &mut Stats,
    ) -> Option<TupleSet> {
        try_union(db, a, b, stats)
    }

    fn grow(&self, db: &Database, set: &TupleSet, stats: &mut Stats, mut f: impl FnMut(TupleSet)) {
        // Candidates via the join-column indexes: the sorted union of the
        // per-relation probes visits tuples in ascending id order. The
        // probe only skips tuples whose bound shared attribute already
        // disagrees with `set`; `can_add` stays the authoritative check.
        let mut candidates: Vec<TupleId> = Vec::new();
        for rel_idx in 0..db.num_relations() {
            candidates.extend(db.probe(RelId(rel_idx as u16), set.bindings()));
        }
        candidates.sort_unstable();
        for t in candidates {
            if !set.contains(t) && can_add(db, set, t, stats) {
                f(add_tuple(db, set, t));
            }
        }
    }
}

/// Where pending tuple sets wait: the `Incomplete` list(s).
pub(crate) trait Frontier {
    /// Line 1: removes the next pending set, with the relation `Ri` of
    /// the list it came from and its root (its tuple of `Ri`).
    fn pop(&mut self, stats: &mut Stats) -> Option<(RelId, TupleId, TupleSet)>;

    /// Lines 14–15: merges `t_prime` into a pending set of `Ri`'s list
    /// sharing its root. Returns the merge success.
    fn try_merge<P: Policy>(
        &mut self,
        db: &Database,
        policy: &P,
        ri: RelId,
        root: TupleId,
        t_prime: &TupleSet,
        stats: &mut Stats,
    ) -> bool;

    /// Line 18: appends a new pending set to `Ri`'s list.
    fn push(&mut self, db: &Database, ri: RelId, root: TupleId, set: TupleSet, stats: &mut Stats);

    /// Are lines 10–18 a no-op for every singleton `T′ = {tb}`? Line 10
    /// drops it unless `tb` is a root; a root is printed (line 11 skips)
    /// or still pending, and then the only merge partners of `{tb}` must
    /// already contain `tb`. When this holds the engine may skip every
    /// candidate whose `T′` is `{tb}`. `seeds` is the run's seed filter.
    fn singletons_are_noops(&self, db: &Database, seeds: &[TupleId]) -> bool;
}

/// The FIFO frontier of `INCREMENTALFD(R, i)`: one `Incomplete` list in
/// Table 3's batch-front order.
#[derive(Debug)]
pub(crate) struct Fifo {
    pub(crate) ri: RelId,
    pub(crate) queue: IncompleteQueue,
}

impl Frontier for Fifo {
    fn pop(&mut self, _stats: &mut Stats) -> Option<(RelId, TupleId, TupleSet)> {
        let (root, set) = self.queue.pop()?;
        Some((self.ri, root, set))
    }

    fn try_merge<P: Policy>(
        &mut self,
        db: &Database,
        policy: &P,
        _ri: RelId,
        root: TupleId,
        t_prime: &TupleSet,
        stats: &mut Stats,
    ) -> bool {
        self.queue
            .try_merge(root, P::UNIQUE_PARTNER, stats, |s, stats| {
                policy.union(db, s, t_prime, stats)
            })
    }

    fn push(
        &mut self,
        _db: &Database,
        _ri: RelId,
        root: TupleId,
        set: TupleSet,
        stats: &mut Stats,
    ) {
        self.queue.push(root, set, stats);
    }

    /// Each pending entry holds its root and at most one tuple per
    /// relation. When all roots share one relation (a plain run's lie in
    /// `Ri`), the scan store's first merge partner of `{tb}` therefore
    /// contains `tb`; the indexed store only offers `{tb}` to entries
    /// rooted at `tb`. Either way the merge leaves the entry unchanged.
    /// Seeds spread over several relations let the scan store merge
    /// `{tb}` into an entry rooted at another seed, so those runs scan.
    fn singletons_are_noops(&self, db: &Database, seeds: &[TupleId]) -> bool {
        self.queue.engine() == StoreEngine::Indexed
            || seeds.windows(2).all(|w| db.rel_of(w[0]) == db.rel_of(w[1]))
    }
}

/// Block-based or tuple-at-a-time scan (Section 7): applies `f` to every
/// live tuple of relations `rel_min..n`, each relation in ascending id
/// order — base band then that relation's dynamic inserts. With a pager,
/// every page is fetched and counted, so block mode always scans; so do
/// the runs for which [`adjacent_candidates`] is not exact.
pub(crate) fn scan_tuples_from(
    db: &Database,
    rel_min: usize,
    pager: Option<&Pager<'_>>,
    mut f: impl FnMut(TupleId),
) {
    for rel_idx in rel_min..db.num_relations() {
        let rel = RelId(rel_idx as u16);
        match pager {
            None => {
                for t in db.tuples_of(rel) {
                    f(t);
                }
            }
            Some(pager) => {
                for block in pager.scan(rel) {
                    for t in block {
                        f(t);
                    }
                }
            }
        }
    }
}

/// Line 7 restricted to the candidates that can give `T′ ≠ {tb}`: applies
/// `f` to every live tuple of relations `rel_min..n` that is join
/// consistent with at least one schema-adjacent member of `set` (another
/// relation sharing an attribute), in [`scan_tuples_from`]'s order —
/// relation by relation, ascending id within each. Any other `tb` keeps
/// no member in the component of footnote 3, so `T′ = {tb}`. The tuples
/// come from the union of one posting-list probe per (member, relation)
/// pair on the pair's shared attributes.
fn adjacent_candidates(
    db: &Database,
    set: &TupleSet,
    rel_min: usize,
    mut f: impl FnMut(TupleId),
) {
    let members: Vec<(TupleId, RelId)> = set.tuples().iter().map(|&m| (m, db.rel_of(m))).collect();
    let mut bindings = Vec::new();
    let mut ids: Vec<TupleId> = Vec::new();
    for rel_idx in rel_min..db.num_relations() {
        let rel = RelId(rel_idx as u16);
        ids.clear();
        for &(m, rel_m) in &members {
            if rel_m == rel {
                continue;
            }
            bindings.clear();
            bindings.extend(db.shared_attrs(rel_m, rel).iter().map(|&a| {
                let v = db.tuple_value(m, a).expect("shared attr in schema");
                (a, v.clone(), m)
            }));
            if !bindings.is_empty() {
                ids.extend(db.probe(rel, &bindings));
            }
        }
        // Ascending id is `tuples_of` order: a relation's dynamic inserts
        // get ids above its base band, in insert order.
        ids.sort_unstable();
        ids.dedup();
        for &t in &ids {
            f(t);
        }
    }
}

/// One execution of the `GETNEXTRESULT` loop: the database, the policy,
/// the frontier, the shared `Complete` list and the run's counters.
pub(crate) struct Engine<'db, P, Q> {
    pub(crate) db: &'db Database,
    pub(crate) policy: P,
    pub(crate) frontier: Q,
    /// Printed results. The drivers insert into it (the printing rule is
    /// theirs); the engine reads it on line 11.
    pub(crate) complete: CompleteStore,
    pager: Option<Pager<'db>>,
    /// First relation index of the extension and candidate scans (0 for
    /// the standalone algorithm; `i + 1` under Section 7's repeated-work
    /// optimization, which relies on a global `Complete`).
    pub(crate) rel_min: usize,
    /// Tightens line 10's root filter from "contains a tuple of `Ri`" to
    /// "contains one of these tuples". Used by the delta-maintenance run
    /// seeded at freshly inserted tuples: with a single seed `t` that run
    /// is `INCREMENTALFD(R', i)` over the database in which `Ri` is
    /// replaced by `{t}` (Theorem 4.10 then says it emits exactly the
    /// maximal join-consistent connected sets containing `t`); with `k`
    /// seeds it is the batched union of those runs — `Incomplete` starts
    /// from all `k` singletons, a derivation's root is the first seed it
    /// contains, and printed sets register under *every* contained seed
    /// so the line-11 suppression stays root-complete. Empty means no
    /// seed filter.
    pub(crate) seeds: Vec<TupleId>,
    /// Derivation memo for seeded runs: the canonical member lists of
    /// every `T′` already processed by lines 10–18. A re-derived exact
    /// duplicate is a no-op — it is either still in `Incomplete` (the
    /// line-14 merge with its own growth succeeds trivially), was merged
    /// into an entry that still covers it, or is covered by a printed
    /// superset (`Complete` only grows) — so it can skip the store scans
    /// entirely. Seeded runs re-derive heavily (cross-seed derivations
    /// repeat per pop), which is why they carry the memo; the plain runs
    /// keep the paper's exact trace.
    memo: FxHashSet<Box<[TupleId]>>,
    pub(crate) stats: Stats,
}

impl<'db, P: Policy, Q: Frontier> Engine<'db, P, Q> {
    /// An engine over `frontier` and `complete`; `page_size` switches the
    /// candidate scans to block-based execution.
    pub(crate) fn new(
        db: &'db Database,
        policy: P,
        frontier: Q,
        complete: CompleteStore,
        page_size: Option<usize>,
        stats: Stats,
    ) -> Self {
        Engine {
            db,
            policy,
            frontier,
            complete,
            pager: page_size.map(|ps| Pager::new(db, ps)),
            rel_min: 0,
            seeds: Vec::new(),
            memo: FxHashSet::default(),
            stats,
        }
    }

    /// Pages fetched so far (block-based execution only).
    pub(crate) fn pages_read(&self) -> u64 {
        self.pager.as_ref().map_or(0, |p| p.stats().pages_read())
    }

    /// One call of `GETNEXTRESULT`. Returns the root and the maximally
    /// extended tuple set removed from the frontier (Fig. 2 returns it
    /// for printing; the caller decides whether to print it and appends
    /// it to `Complete`). Returns `None` when the frontier is empty.
    pub(crate) fn get_next_result(&mut self) -> Option<(TupleId, TupleSet)> {
        let Engine {
            db,
            policy,
            frontier,
            complete,
            pager,
            rel_min,
            seeds,
            memo,
            stats,
        } = self;
        let db: &Database = db;
        // Line 1: remove the first tuple set.
        let (ri, root, set) = frontier.pop(stats)?;
        // Lines 2–6: maximal extension.
        let set = policy.extend(db, set, *rel_min, stats);

        // Multi-seed runs re-derive a maximal set once per contained seed
        // (the singletons are all queued before any suppression can kick
        // in). The candidate loop below depends only on (db, set), so a
        // re-derivation of an already-printed set would regenerate exactly
        // the T′ collection the first emission already processed — skip the
        // scan and let the caller's canonical filter drop the duplicate.
        if !seeds.is_empty() && complete.contains_exact(set.tuples()) {
            return Some((root, set));
        }

        // Line 7 visits only the adjacent candidates when every other
        // candidate's `T′ = {tb}` is a no-op: exact joins, an unpaged
        // store, and a frontier on which singleton merges change nothing.
        // Reuse runs (`rel_min > i`) never see a tuple of `Ri` at all.
        let adjacent =
            P::ADJACENT_CANDIDATES && pager.is_none() && frontier.singletons_are_noops(db, seeds);
        // Lines 7–18: derive successor tuple sets.
        let visit = |tb| {
            stats.candidate_scans += 1;
            if set.contains(tb) {
                return;
            }
            // Line 8.
            policy.for_each_subset(db, &set, tb, stats, |t_prime, stats| {
                // Line 10: must contain a tuple from Ri (one of the seed
                // tuples in a delta-maintenance run). The any-seed filter
                // is what makes the multi-seed run sound: printed sets
                // suppress derivations of *every* contained seed, and in
                // exchange each pop re-seeds the cross-root
                // representatives that suppression removes. (A tighter
                // "inherit the popped root" filter loses exactly those
                // representatives and drops results.)
                let new_root = if seeds.is_empty() {
                    t_prime.tuple_from(db, ri)
                } else {
                    seeds.iter().copied().find(|&s| t_prime.contains(s))
                };
                let Some(new_root) = new_root else {
                    return;
                };
                // Seeded runs: skip exact re-derivations (see `memo`).
                if !seeds.is_empty() && !memo.insert(t_prime.tuples().into()) {
                    return;
                }
                // Line 11: already represented in Complete?
                if complete.contains_superset(&t_prime, new_root, stats) {
                    return;
                }
                // Lines 14–15: merge into a pending entry sharing the root.
                if frontier.try_merge(db, policy, ri, new_root, &t_prime, stats) {
                    return;
                }
                // Line 18: genuinely new — append.
                frontier.push(db, ri, new_root, t_prime, stats);
            });
        };
        if adjacent {
            adjacent_candidates(db, &set, *rel_min, visit);
        } else {
            scan_tuples_from(db, *rel_min, pager.as_ref(), visit);
        }
        Some((root, set))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_relational::tourist_database;

    const C1: TupleId = TupleId(0);
    const C2: TupleId = TupleId(1);
    const C3: TupleId = TupleId(2);
    const A1: TupleId = TupleId(3);
    const A2: TupleId = TupleId(4);
    const S1: TupleId = TupleId(6);
    const S2: TupleId = TupleId(7);

    /// An exact FIFO engine for `FD1` with the given initial entries.
    fn engine<'db>(
        db: &'db Database,
        engine: StoreEngine,
        seeds: impl IntoIterator<Item = TupleId>,
        page_size: Option<usize>,
    ) -> Engine<'db, Exact, Fifo> {
        let mut stats = Stats::new();
        let mut queue = IncompleteQueue::new(engine);
        for t in seeds {
            queue.push(t, TupleSet::singleton(db, t), &mut stats);
        }
        let fifo = Fifo {
            ri: RelId(0),
            queue,
        };
        Engine::new(
            db,
            Exact,
            fifo,
            CompleteStore::new(engine),
            page_size,
            stats,
        )
    }

    fn pending(e: &Engine<'_, Exact, Fifo>) -> Vec<Vec<TupleId>> {
        e.frontier
            .queue
            .iter()
            .map(|s| s.tuples().to_vec())
            .collect()
    }

    /// Drives the first `GETNEXTRESULT` call of Example 4.1 and checks the
    /// exact list contents of Table 3's "Iteration 1" column.
    #[test]
    fn first_iteration_of_example_4_1() {
        let db = tourist_database();
        let mut e = engine(&db, StoreEngine::Scan, db.tuples_of(RelId(0)), None);
        let (root, result) = e.get_next_result().unwrap();
        assert_eq!(root, C1);
        assert_eq!(result.tuples(), &[C1, A1]);
        // Table 3, Iteration 1 — exact list contents and order:
        // {c1,a2,s1}, {c1,s2}, {c2}, {c3}.
        assert_eq!(
            pending(&e),
            vec![vec![C1, A2, S1], vec![C1, S2], vec![C2], vec![C3]]
        );
    }

    /// Iteration 2 of Example 4.1: extending {c1, a2, s1} adds nothing new.
    #[test]
    fn second_iteration_adds_nothing() {
        let db = tourist_database();
        let mut e = engine(&db, StoreEngine::Scan, db.tuples_of(RelId(0)), None);
        let (_, r1) = e.get_next_result().unwrap();
        e.complete.insert(r1, &[C1]);

        let before = pending(&e);
        let (_, r2) = e.get_next_result().unwrap();
        assert_eq!(r2.tuples(), &[C1, A2, S1]);
        let after = pending(&e);
        // {c1,a2,s1} was consumed; no new set appeared.
        assert_eq!(after.len(), before.len() - 1);
        assert!(after.contains(&vec![C1, S2]));
        assert!(after.contains(&vec![C2]));
        assert!(after.contains(&vec![C3]));
    }

    #[test]
    fn exhausts_to_none() {
        let db = tourist_database();
        let mut e = engine(&db, StoreEngine::Indexed, [C3], None);
        let mut count = 0;
        while let Some((root, set)) = e.get_next_result() {
            e.complete.insert(set, &[root]);
            count += 1;
        }
        // Starting from {c3} alone: {c3,a3} is the only reachable result
        // rooted at c3... plus any sets derived via the candidate loop that
        // contain a Climates tuple reachable from it.
        assert!(count >= 1);
        assert!(e
            .complete
            .sets()
            .iter()
            .any(|s| s.tuples() == [C3, TupleId(5)]));
    }

    #[test]
    fn block_based_scan_counts_pages_and_matches_tuple_based() {
        let db = tourist_database();
        let run = |page_size: Option<usize>| {
            let mut e = engine(&db, StoreEngine::Indexed, db.tuples_of(RelId(0)), page_size);
            let mut out = Vec::new();
            while let Some((root, set)) = e.get_next_result() {
                e.complete.insert(set.clone(), &[root]);
                out.push(set.tuples().to_vec());
            }
            (out, e.pages_read())
        };
        let (tuple_based, no_pages) = run(None);
        let (block_based, pages) = run(Some(4));
        assert_eq!(tuple_based, block_based);
        assert_eq!(no_pages, 0);
        assert!(pages > 0);
    }
}
