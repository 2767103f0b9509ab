//! `PRIORITYINCREMENTALFD` (Fig. 3 of the paper): the full disjunction in
//! ranking order, for monotonically c-determined ranking functions — and,
//! under the approximate policy, the ranked approximate full disjunction
//! the paper sketches at the end of Section 6 (*"adapting
//! `APPROXINCREMENTALFD` in the spirit of `PRIORITYINCREMENTALFD`"*).
//!
//! Differences from `INCREMENTALFD`, following the paper:
//!
//! * the frontier is `n` lists `Incomplete_i` — priority queues keyed by
//!   the rank of the (partial) tuple set — instead of one FIFO list
//!   (`RankHeaps`);
//! * `Incomplete_i` is initialized with **every** consistent tuple set of
//!   size at most `c` containing a tuple from `Ri`, after which mergeable
//!   pairs are unioned to a fixpoint (Fig. 3 lines 3–8); that seeds each
//!   queue with the rank-determining subsets of all results;
//! * each step pops the globally highest-ranked entry (lines 10–15) and
//!   runs the shared `GETNEXTRESULT` body against that queue's own
//!   `Complete_i`, as `INCREMENTALFD(R, i)` has: every extension popped
//!   from `Incomplete_i` joins `Complete_i` under its `Ri` root, and
//!   line 11 drops a `T′` only when one of those contains it;
//! * the extension is printed unless it was printed before (line 17) — a
//!   set is generated once per member tuple, so the iterator's one
//!   exact-print set, shared by all queues, filters the duplicates.
//!
//! Theorem 5.5: the top-k answers arrive in polynomial time in the input
//! and `k`, and by Lemma 5.4 in non-increasing rank order — under the
//! exact policy ([`RankedFdIter`]) and the approximate one
//! ([`RankedApproxFdIter`](crate::RankedApproxFdIter)) alike. The
//! per-queue `Complete_i` is what keeps that order: with one `Complete`
//! for all queues, a set printed by queue `j` would drop queue `i`'s
//! derivation of a subset, and the answer that derivation leads to would
//! turn up later, through a lower-ranked entry. [`RankedFdIter`] exposes
//! the stream unboundedly; the `.top_k` / `.threshold` (Remark 5.6)
//! bounds are applied by the [`FdQuery`](crate::FdQuery) builder.
//!
//! The iterator can also be restricted to a contiguous *shard* of the
//! seed relations (`RankedIter::for_policy`): it then emits exactly the
//! answers containing a tuple of one of those relations — the per-worker
//! unit of the crate's parallel ranked driver, which sorts the workers'
//! answers once into the full ranking.

use crate::getnext::{candidate_bound, Engine, Exact, Frontier, Policy};
use crate::incremental::FdConfig;
use crate::jcc::Union;
use crate::lists::{CompleteStore, Printed, StoreEngine};
use crate::ranking::MonotoneCDetermined;
use crate::stats::Stats;
use crate::tupleset::TupleSet;
use fd_relational::fxhash::{FxHashMap, FxHashSet};
use fd_relational::{Database, RelId, TupleId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Total-ordered f64 wrapper for heap priorities (ranks are finite;
/// `total_cmp` makes the order total regardless).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rank(f64);

impl Eq for Rank {}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rank {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A heap entry referencing a queue slot; stale when the slot's
/// generation moved on (merges are increase-key operations, implemented
/// by lazy invalidation).
#[derive(Debug, PartialEq, Eq)]
struct HeapItem {
    rank: Rank,
    /// Fresher generations first among equal ranks.
    gen: u32,
    /// Smaller slots first among equal ranks/generations (deterministic
    /// "ties broken arbitrarily").
    slot: u32,
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank
            .cmp(&other.rank)
            .then(self.gen.cmp(&other.gen))
            .then(other.slot.cmp(&self.slot))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug)]
struct Entry {
    root: TupleId,
    set: TupleSet,
    gen: u32,
}

/// One `Incomplete_i`: a max-priority queue of partial tuple sets rooted
/// at tuples of `Ri`.
#[derive(Debug)]
struct LazyQueue {
    slots: Vec<Option<Entry>>,
    heap: BinaryHeap<HeapItem>,
    by_root: FxHashMap<TupleId, Vec<u32>>,
}

impl LazyQueue {
    fn new() -> Self {
        LazyQueue {
            slots: Vec::new(),
            heap: BinaryHeap::new(),
            by_root: FxHashMap::default(),
        }
    }

    fn push(&mut self, root: TupleId, set: TupleSet, rank: f64, stats: &mut Stats) {
        stats.heap_pushes += 1;
        let slot = self.slots.len() as u32;
        self.slots.push(Some(Entry { root, set, gen: 0 }));
        self.by_root.entry(root).or_default().push(slot);
        self.heap.push(HeapItem {
            rank: Rank(rank),
            gen: 0,
            slot,
        });
    }

    fn item_valid(&self, item: &HeapItem) -> bool {
        matches!(&self.slots[item.slot as usize], Some(e) if e.gen == item.gen)
    }

    /// Rank of the highest valid entry, discarding stale heap items.
    fn peek_rank(&mut self, stats: &mut Stats) -> Option<f64> {
        while let Some(top) = self.heap.peek() {
            if self.item_valid(top) {
                return Some(top.rank.0);
            }
            self.heap.pop();
            stats.heap_pops += 1;
        }
        None
    }

    /// Removes and returns the highest valid entry.
    fn pop(&mut self, stats: &mut Stats) -> Option<(TupleId, TupleSet)> {
        while let Some(item) = self.heap.pop() {
            stats.heap_pops += 1;
            if self.item_valid(&item) {
                let entry = self.slots[item.slot as usize].take().expect("valid slot");
                return Some((entry.root, entry.set));
            }
        }
        None
    }

    /// Fig. 2 lines 14–15 in queue form: replaces the first entry `S` for
    /// which `union(S)` succeeds by that union, re-ranking it (lazy
    /// increase-key). A union equal to `S` is a no-op: the entry keeps
    /// its set, rank, generation and heap item, so a merge that adds
    /// nothing cannot reorder equal-rank entries, and the engine may skip
    /// it (line 7's adjacency candidates). `indexed` restricts the scan to
    /// the entries of `root`; otherwise every slot is examined. Returns
    /// the merge success.
    fn try_merge(
        &mut self,
        root: TupleId,
        indexed: bool,
        stats: &mut Stats,
        mut union: impl FnMut(&TupleSet, &mut Stats) -> Option<Union>,
        rank_of: impl FnOnce(&TupleSet, &mut Stats) -> f64,
    ) -> bool {
        let LazyQueue {
            slots,
            heap,
            by_root,
        } = self;
        // The root's slots, or every slot.
        let (listed, all): (&[u32], _) = if indexed {
            (by_root.get(&root).map_or(&[], Vec::as_slice), 0..0)
        } else {
            (&[], 0..slots.len() as u32)
        };
        let Some((slot, u)) = listed.iter().copied().chain(all).find_map(|slot| {
            let entry = slots[slot as usize].as_ref()?;
            stats.incomplete_scans += 1;
            union(&entry.set, stats).map(|u| (slot, u))
        }) else {
            return false;
        };
        stats.merges += 1;
        let Union::Grown(u) = u else {
            return true;
        };
        let entry = slots[slot as usize].as_mut().expect("live slot");
        entry.gen += 1;
        entry.set = u;
        let rank = rank_of(&entry.set, stats);
        heap.push(HeapItem {
            rank: Rank(rank),
            gen: entry.gen,
            slot,
        });
        stats.heap_pushes += 1;
        true
    }
}

/// `f(set)`, counted.
fn rank<F: MonotoneCDetermined>(f: &F, db: &Database, set: &TupleSet, stats: &mut Stats) -> f64 {
    stats.rank_evals += 1;
    f.rank(db, set)
}

/// The ranked frontier of Fig. 3: one [`LazyQueue`] `Incomplete_i` and
/// one `Complete_i` per seed relation of the run (`rel_lo..`), ranked by
/// `f`.
pub(crate) struct RankHeaps<F> {
    f: F,
    /// Index of the first seed relation covered by `queues` (0 for the
    /// full run; the shard start for a parallel worker).
    rel_lo: usize,
    /// The queue's store engine; approximate merges always probe by root.
    engine: StoreEngine,
    queues: Vec<LazyQueue>,
    /// `Complete_i`: the extensions popped from `queues[i]`, by root.
    completes: Vec<CompleteStore>,
}

impl<F: MonotoneCDetermined> RankHeaps<F> {
    /// The queue with the highest-ranked valid top, with that rank; ties
    /// go to the lower relation.
    fn best(&mut self, stats: &mut Stats) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (qi, q) in self.queues.iter_mut().enumerate() {
            if let Some(r) = q.peek_rank(stats) {
                best = Some(match best {
                    Some((bi, br)) if br >= r => (bi, br),
                    _ => (qi, r),
                });
            }
        }
        best
    }
}

impl<F: MonotoneCDetermined> Frontier for RankHeaps<F> {
    fn pop(&mut self, stats: &mut Stats) -> Option<(RelId, TupleId, TupleSet)> {
        // Lines 10–15: the queue whose top ranks highest.
        let (qi, _) = self.best(stats)?;
        let (root, set) = self.queues[qi].pop(stats)?;
        Some((RelId((self.rel_lo + qi) as u16), root, set))
    }

    fn try_merge<P: Policy>(
        &mut self,
        db: &Database,
        policy: &P,
        ri: RelId,
        root: TupleId,
        t_prime: &[TupleId],
        stats: &mut Stats,
    ) -> bool {
        let indexed = self.engine == StoreEngine::Indexed || !P::OFFER_EVERY_ENTRY;
        let f = &self.f;
        self.queues[ri.index() - self.rel_lo].try_merge(
            root,
            indexed,
            stats,
            |s, stats| policy.union(db, s, t_prime, stats),
            |u, stats| rank(f, db, u, stats),
        )
    }

    fn push(&mut self, db: &Database, ri: RelId, root: TupleId, set: TupleSet, stats: &mut Stats) {
        let r = rank(&self.f, db, &set, stats);
        self.queues[ri.index() - self.rel_lo].push(root, set, r, stats);
    }

    fn covered(
        &mut self,
        ri: RelId,
        root: TupleId,
        t_prime: &[TupleId],
        stats: &mut Stats,
    ) -> bool {
        self.completes[ri.index() - self.rel_lo].contains_superset(t_prime, root, stats)
    }
}

/// Streaming `PRIORITYINCREMENTALFD` under the exact policy.
pub type RankedFdIter<'db, F> = RankedIter<'db, Exact, F>;

/// Streaming ranked enumeration: yields `(tuple set, rank)` pairs in
/// non-increasing rank order (Lemma 5.4), until the full disjunction is
/// exhausted. Take `k` items for the top-(k, f) problem, or use
/// `take_while` on the rank for the (τ, f)-threshold problem. Under the approximate policy every yielded set satisfies
/// `A(T) ≥ τ` and together they form exactly the approximate full
/// disjunction.
pub struct RankedIter<'db, P, F> {
    engine: Engine<'db, P, RankHeaps<F>>,
    /// Line 17: the sets printed so far.
    printed: Printed,
}

impl<'db, F: MonotoneCDetermined> RankedFdIter<'db, F> {
    /// Builds the iterator, running the initialization of Fig. 3 lines
    /// 1–8: every JCC tuple set of size ≤ c per relation, merged to a
    /// fixpoint. The cost is `O(sᶜ)`, polynomial for constant `c`.
    ///
    /// The ranking function is taken by value; pass `&f` to keep using a
    /// borrowed one (references implement the ranking traits).
    pub fn new(db: &'db Database, f: F) -> Self {
        Self::with_config(db, f, FdConfig::default())
    }

    /// Builds with the full execution configuration: `engine` selects the
    /// queue/`Complete` structures, `page_size` switches the candidate
    /// scans of the shared `GETNEXTRESULT` body to block-based execution.
    /// (`init` concerns the n-run batch drivers and does not alter this
    /// single-pass algorithm.)
    pub fn with_config(db: &'db Database, f: F, cfg: FdConfig) -> Self {
        Self::for_policy(db, Exact, f, cfg, 0..db.num_relations())
    }
}

impl<'db, P: Policy, F: MonotoneCDetermined> RankedIter<'db, P, F> {
    /// Builds a run restricted to the seed relations `rels` (a contiguous
    /// index range): only the queues `Incomplete_i` for `i ∈ rels` are
    /// seeded, so the stream delivers exactly the answers containing a
    /// tuple of one of those relations. Extension and candidate scans
    /// stay global, so every emitted set is maximal in the *whole*
    /// database. Emission is *not* globally rank-ordered (an answer's rank
    /// witness may live in another shard's queue); the parallel ranked
    /// driver collects every shard's answers and sorts them once into the
    /// full ranking.
    pub(crate) fn for_policy(
        db: &'db Database,
        policy: P,
        f: F,
        cfg: FdConfig,
        rels: std::ops::Range<usize>,
    ) -> Self {
        let mut stats = Stats::new();
        let c = f.c().max(1);
        let mut heaps = RankHeaps {
            f,
            rel_lo: rels.start,
            engine: cfg.engine,
            queues: Vec::with_capacity(rels.len()),
            completes: Vec::with_capacity(rels.len()),
        };
        for rel_idx in rels {
            let ri = RelId(rel_idx as u16);
            heaps.queues.push(LazyQueue::new());
            heaps.completes.push(CompleteStore::new(cfg.engine));
            let seeds = enumerate_bounded(db, &policy, ri, c, &mut stats);
            for (root, set) in merge_to_fixpoint(db, &policy, seeds, &mut stats) {
                heaps.push(db, ri, root, set, &mut stats);
            }
        }
        RankedIter {
            engine: Engine::new(db, policy, heaps, cfg.page_size, stats),
            printed: Printed::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &Stats {
        &self.engine.stats
    }

    /// Pages fetched so far (block-based execution only).
    pub fn pages_read(&self) -> u64 {
        self.engine.pages_read()
    }

    /// Rank of the next queue top, without consuming it. `None` when the
    /// stream is exhausted. By Lemma 5.4 no answer not yet printed ranks
    /// higher, so a stream may stop as soon as this falls below a
    /// threshold (Remark 5.6).
    pub fn peek_rank(&mut self) -> Option<f64> {
        let engine = &mut self.engine;
        engine.frontier.best(&mut engine.stats).map(|(_, r)| r)
    }
}

impl<P: Policy, F: MonotoneCDetermined> Iterator for RankedIter<'_, P, F> {
    type Item = (TupleSet, f64);

    /// One iteration of the loop in Fig. 3 lines 9–17: the next *printed*
    /// answer, skipping re-generated duplicates internally.
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (root, set) = self.engine.get_next_result()?;
            let engine = &mut self.engine;
            // The extension joins its own queue's Complete_i, printed or not.
            let frontier = &mut engine.frontier;
            let qi = engine.db.rel_of(root).index() - frontier.rel_lo;
            frontier.completes[qi].insert(set.tuples(), &[root]);
            // Line 17: print unless this exact set was printed before.
            if !self.printed.insert(set.tuples()) {
                continue;
            }
            let rank = rank(&frontier.f, engine.db, &set, &mut engine.stats);
            engine.stats.results += 1;
            return Some((set, rank));
        }
    }
}

/// Enumerates every consistent tuple set with at most `c` members that
/// contains a tuple of `ri` (Fig. 3 line 4), by consistency-preserving
/// growth from each admitted `ri` tuple, walking the growth tree in
/// preorder, ascending ids first. Returns `(root, set)` pairs,
/// deduplicated.
fn enumerate_bounded<P: Policy>(
    db: &Database,
    policy: &P,
    ri: RelId,
    c: usize,
    stats: &mut Stats,
) -> Vec<(TupleId, TupleSet)> {
    let mut out = Vec::new();
    let mut seen: FxHashSet<Box<[TupleId]>> = FxHashSet::default();
    let mut stack: Vec<(TupleId, TupleSet)> = db
        .tuples_of(ri)
        .filter(|&t| policy.admits(db, t, stats))
        .map(|t| (t, TupleSet::singleton(db, t)))
        .collect();
    stack.reverse();
    while let Some((root, set)) = stack.pop() {
        if !seen.insert(set.tuples().into()) {
            continue;
        }
        if set.len() < c {
            let first_child = stack.len();
            for_each_growth(db, policy, &set, stats, |grown| stack.push((root, grown)));
            stack[first_child..].reverse();
        }
        out.push((root, set));
    }
    out
}

/// Calls `f` on every consistent one-tuple growth `set ∪ {t}`, ascending
/// by `t`. A connected growth adds a tuple of an unrepresented relation
/// adjacent to some member, so `t` lies within `set`'s
/// [`candidate_bound`]; the policy's union decides the rest.
fn for_each_growth<P: Policy>(
    db: &Database,
    policy: &P,
    set: &TupleSet,
    stats: &mut Stats,
    mut f: impl FnMut(TupleSet),
) {
    let mut ids: Vec<TupleId> = Vec::new();
    for rel_idx in 0..db.num_relations() {
        let rel = RelId(rel_idx as u16);
        if set.tuple_from(db, rel).is_none()
            && !candidate_bound(db, policy, set.tuples(), rel, &mut ids)
        {
            ids.extend(db.tuples_of(rel));
        }
    }
    ids.sort_unstable();
    ids.dedup();
    for t in ids {
        if let Some(Union::Grown(grown)) = policy.union(db, set, &[t], stats) {
            f(grown);
        }
    }
}

/// Fig. 3 lines 5–8: repeatedly replace mergeable pairs by their union.
/// Only sets sharing the same `ri` root can merge (a valid set holds one
/// tuple per relation), so the fixpoint runs per root bucket. After a
/// merge into `sets[i]` the scan resumes at `i`: every pair before it
/// still fails, since a failed union of two root-sharing sets keeps
/// failing as one side grows (a relation clash or value conflict stays,
/// and `JCC` and an acceptable `A ≥ τ` are antitone).
fn merge_to_fixpoint<P: Policy>(
    db: &Database,
    policy: &P,
    seeds: Vec<(TupleId, TupleSet)>,
    stats: &mut Stats,
) -> Vec<(TupleId, TupleSet)> {
    let mut buckets: FxHashMap<TupleId, Vec<TupleSet>> = FxHashMap::default();
    let mut root_order: Vec<TupleId> = Vec::new();
    for (root, set) in seeds {
        let bucket = buckets.entry(root).or_default();
        if bucket.is_empty() {
            root_order.push(root);
        }
        bucket.push(set);
    }
    let mut out = Vec::new();
    for root in root_order {
        let mut sets = buckets.remove(&root).expect("bucket exists");
        let mut i = 0;
        while i < sets.len() {
            let partner = (i + 1..sets.len()).find_map(|j| {
                let u = policy.union(db, &sets[i], sets[j].tuples(), stats)?;
                Some((j, u))
            });
            let Some((j, u)) = partner else {
                i += 1;
                continue;
            };
            stats.merges += 1;
            sets.swap_remove(j);
            if let Union::Grown(u) = u {
                sets[i] = u;
            }
        }
        for set in sets {
            out.push((root, set));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{AMin, ApproxAllIter, ProbScores};
    use crate::jcc::{rebuild, union_with};
    use crate::query::FdQuery;
    use crate::ranking::{FMax, FTriple, ImpScores};
    use crate::sim::{EditDistanceSim, ExactSim};
    use crate::RankedApproxFdIter;
    use fd_relational::tourist_database;

    /// The introduction's scenario: tropical > temperate > diverse.
    fn climate_imp(db: &Database) -> ImpScores {
        ImpScores::from_fn(db, |t| match t.0 {
            2 => 3.0, // c3 Bahamas/tropical
            1 => 2.0, // c2 UK/temperate
            0 => 1.0, // c1 Canada/diverse
            _ => 0.0,
        })
    }

    #[test]
    fn ranked_iteration_reverses_table_2_by_climate_preference() {
        let db = tourist_database();
        let imp = climate_imp(&db);
        let f = FMax::new(&imp);
        let ranked: Vec<(String, f64)> = RankedFdIter::new(&db, &f)
            .map(|(s, r)| (s.label(&db), r))
            .collect();
        assert_eq!(ranked.len(), 6);
        // Bahamas first, then the two UK sets, then the Canada sets.
        assert_eq!(ranked[0].0, "{c3, a3}");
        assert_eq!(ranked[0].1, 3.0);
        assert_eq!(ranked[1].1, 2.0);
        assert_eq!(ranked[2].1, 2.0);
        assert!(ranked[1].0.contains("c2") && ranked[2].0.contains("c2"));
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1, "ranks must be non-increasing");
        }
    }

    #[test]
    fn top_k_is_a_prefix_of_the_full_ranking() {
        let db = tourist_database();
        let imp = climate_imp(&db);
        let f = FMax::new(&imp);
        let all: Vec<_> = RankedFdIter::new(&db, &f).collect();
        for k in 0..=all.len() + 2 {
            let got: Vec<_> = RankedFdIter::new(&db, &f).take(k).collect();
            assert_eq!(got.len(), k.min(all.len()));
            for (a, b) in got.iter().zip(all.iter()) {
                assert_eq!(a.1, b.1);
            }
        }
    }

    #[test]
    fn ranked_results_equal_unranked_full_disjunction() {
        let db = tourist_database();
        let imp = climate_imp(&db);
        let f = FMax::new(&imp);
        let mut ranked: Vec<Vec<TupleId>> = RankedFdIter::new(&db, &f)
            .map(|(s, _)| s.tuples().to_vec())
            .collect();
        ranked.sort();
        let mut plain: Vec<Vec<TupleId>> = FdQuery::over(&db)
            .run()
            .unwrap()
            .into_sets()
            .into_iter()
            .map(|s| s.tuples().to_vec())
            .collect();
        plain.sort();
        assert_eq!(ranked, plain);
    }

    #[test]
    fn threshold_returns_exactly_the_answers_above_tau() {
        let db = tourist_database();
        let imp = climate_imp(&db);
        let f = FMax::new(&imp);
        let run = |tau: f64| {
            FdQuery::over(&db)
                .ranked(&f)
                .threshold(tau)
                .run()
                .unwrap()
                .into_ranked()
                .unwrap()
        };
        let got = run(2.0);
        assert_eq!(got.len(), 3); // {c3,a3}, {c2,s3}, {c2,s4}
        assert!(got.iter().all(|(_, r)| *r >= 2.0));

        assert_eq!(run(0.5).len(), 6);
        assert_eq!(run(99.0).len(), 0);
    }

    #[test]
    fn sharded_runs_partition_the_ranked_stream() {
        let db = tourist_database();
        let imp = climate_imp(&db);
        let f = FMax::new(&imp);
        let full: Vec<Vec<TupleId>> = RankedFdIter::new(&db, &f)
            .map(|(s, _)| s.tuples().to_vec())
            .collect();
        // Each shard emits exactly the answers containing a tuple of one
        // of its relations (order is the merge's job); their union is
        // the full disjunction.
        let mut union: Vec<Vec<TupleId>> = Vec::new();
        for (lo, hi) in [(0usize, 1usize), (1, 3)] {
            let shard: Vec<(TupleSet, f64)> =
                RankedFdIter::for_policy(&db, Exact, &f, FdConfig::default(), lo..hi).collect();
            for (s, _) in &shard {
                assert!(
                    (lo..hi).any(|r| s.tuple_from(&db, RelId(r as u16)).is_some()),
                    "{} outside shard {lo}..{hi}",
                    s.label(&db)
                );
            }
            union.extend(shard.into_iter().map(|(s, _)| s.tuples().to_vec()));
        }
        union.sort();
        union.dedup();
        let mut want = full;
        want.sort();
        assert_eq!(union, want);
    }

    #[test]
    fn ftriple_ranking_is_also_ordered() {
        let db = tourist_database();
        let imp = ImpScores::from_fn(&db, |t| 1.0 + (t.0 % 3) as f64);
        let f = FTriple::new(&imp);
        let ranked: Vec<f64> = RankedFdIter::new(&db, &f).map(|(_, r)| r).collect();
        assert_eq!(ranked.len(), 6);
        for w in ranked.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn both_engines_agree_on_ranked_output() {
        let db = tourist_database();
        let imp = climate_imp(&db);
        let f = FMax::new(&imp);
        let with_engine = |engine| FdConfig {
            engine,
            ..FdConfig::default()
        };
        let a: Vec<_> = RankedFdIter::with_config(&db, &f, with_engine(StoreEngine::Scan))
            .map(|(s, r)| (s.tuples().to_vec(), r))
            .collect();
        let b: Vec<_> = RankedFdIter::with_config(&db, &f, with_engine(StoreEngine::Indexed))
            .map(|(s, r)| (s.tuples().to_vec(), r))
            .collect();
        // Rank sequences must match; tie order may differ between engines.
        let ranks = |v: &Vec<(Vec<TupleId>, f64)>| v.iter().map(|x| x.1).collect::<Vec<_>>();
        assert_eq!(ranks(&a), ranks(&b));
        let mut sa = a.clone();
        sa.sort_by(|x, y| x.0.cmp(&y.0));
        let mut sb = b.clone();
        sb.sort_by(|x, y| x.0.cmp(&y.0));
        assert_eq!(sa, sb);
    }

    /// A merge that adds nothing leaves the heap alone: no push, no rank
    /// evaluation, the same generation, and so the same pop order among
    /// equal ranks as a twin queue that never saw it.
    #[test]
    fn noop_merge_keeps_the_heap_untouched() {
        let db = tourist_database();
        let (c1, c2, a2) = (TupleId(0), TupleId(1), TupleId(4));
        let queue = |stats: &mut Stats| {
            let mut q = LazyQueue::new();
            q.push(c1, rebuild(&db, vec![c1, a2]), 1.0, stats);
            q.push(c2, TupleSet::singleton(&db, c2), 1.0, stats);
            q
        };
        let drain = |q: &mut LazyQueue, stats: &mut Stats| {
            std::iter::from_fn(|| q.pop(stats).map(|(_, s)| s.tuples().to_vec()))
                .collect::<Vec<_>>()
        };
        for indexed in [true, false] {
            let mut stats = Stats::new();
            let mut q = queue(&mut stats);
            let before = stats;
            let noop = TupleSet::singleton(&db, c2);
            let merged = q.try_merge(
                c2,
                indexed,
                &mut stats,
                |s, stats| union_with(&db, s, noop.tuples(), stats),
                |_, stats| {
                    stats.rank_evals += 1;
                    1.0
                },
            );
            assert!(merged);
            assert_eq!(stats.heap_pushes, before.heap_pushes);
            assert_eq!(stats.rank_evals, before.rank_evals);
            assert_eq!(q.slots[1].as_ref().map(|e| e.gen), Some(0));
            let mut twin = queue(&mut stats);
            assert_eq!(drain(&mut q, &mut stats), drain(&mut twin, &mut stats));
        }
    }

    #[test]
    fn enumeration_covers_all_small_jcc_sets() {
        let db = tourist_database();
        let mut stats = Stats::new();
        let sets = enumerate_bounded(&db, &Exact, RelId(0), 2, &mut stats);
        // Size-1: {c1},{c2},{c3}. Size-2 containing a Climates tuple:
        // {c1,a1},{c1,a2},{c1,s1},{c1,s2},{c2,s3},{c2,s4},{c3,a3}.
        assert_eq!(sets.len(), 10);
        assert!(sets.iter().all(|(root, s)| s.contains(*root)));
    }

    #[test]
    fn merge_fixpoint_respects_roots() {
        let db = tourist_database();
        let mut stats = Stats::new();
        let seeds = enumerate_bounded(&db, &Exact, RelId(0), 2, &mut stats);
        let merged = merge_to_fixpoint(&db, &Exact, seeds, &mut stats);
        // {c1,a2} and {c1,s1} merge into {c1,a2,s1}; no cross-root merges.
        assert!(merged
            .iter()
            .any(|(_, s)| s.tuples() == [TupleId(0), TupleId(4), TupleId(6)]));
        for (root, set) in &merged {
            assert!(set.contains(*root));
        }
    }

    #[test]
    fn ranked_approx_covers_afd_in_order() {
        let db = tourist_database();
        let a = AMin::new(ExactSim, ProbScores::uniform(&db, 1.0));
        let imp = ImpScores::from_fn(&db, |t| (t.0 % 5) as f64);
        let f = FMax::new(&imp);
        let tau = 0.9;
        let ranked: Vec<(TupleSet, f64)> = RankedApproxFdIter::new(&db, &a, tau, &f).collect();
        // Order.
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // Coverage = AFD.
        let mut got: Vec<TupleSet> = ranked.into_iter().map(|x| x.0).collect();
        got.sort();
        let mut want: Vec<TupleSet> = ApproxAllIter::new(&db, &a, tau).collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn approx_top_k_is_prefix() {
        let db = tourist_database();
        let a = AMin::new(EditDistanceSim, ProbScores::uniform(&db, 1.0));
        let imp = ImpScores::from_fn(&db, |t| t.0 as f64);
        let f = FMax::new(&imp);
        let all: Vec<_> = RankedApproxFdIter::new(&db, &a, 0.8, &f).collect();
        for k in 0..=all.len() {
            let got: Vec<_> = RankedApproxFdIter::new(&db, &a, 0.8, &f).take(k).collect();
            assert_eq!(got.len(), k);
            for (g, w) in got.iter().zip(all.iter()) {
                assert_eq!(g.1, w.1);
            }
        }
    }

    #[test]
    fn sharded_runs_cover_the_ranked_approx_stream() {
        let db = tourist_database();
        let a = AMin::new(ExactSim, ProbScores::uniform(&db, 1.0));
        let imp = ImpScores::from_fn(&db, |t| (t.0 % 5) as f64);
        let f = FMax::new(&imp);
        let full: Vec<TupleSet> = RankedApproxFdIter::new(&db, &a, 0.9, &f)
            .map(|(s, _)| s)
            .collect();
        let mut union: Vec<TupleSet> = Vec::new();
        for (lo, hi) in [(0usize, 2usize), (2, 3)] {
            let policy = crate::Approx::new(&db, &a, 0.9);
            let shard = RankedIter::for_policy(&db, policy, &f, FdConfig::default(), lo..hi);
            union.extend(shard.map(|(s, _)| s));
        }
        union.sort();
        union.dedup();
        let mut want = full;
        want.sort();
        assert_eq!(union, want);
    }

    #[test]
    fn exact_similarity_reduces_to_plain_ranked_fd() {
        let db = tourist_database();
        let a = AMin::new(ExactSim, ProbScores::uniform(&db, 1.0));
        let imp = ImpScores::from_fn(&db, |t| (10 - t.0) as f64);
        let f = FMax::new(&imp);
        let approx_ranks: Vec<f64> = RankedApproxFdIter::new(&db, &a, 1.0, &f)
            .map(|x| x.1)
            .collect();
        let exact_ranks: Vec<f64> = RankedFdIter::new(&db, &f).map(|x| x.1).collect();
        assert_eq!(approx_ranks, exact_ranks);
    }
}
