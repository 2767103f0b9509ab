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
//!   lines of Figs. 5–6). Line 4's `JCC(T ∪ {tg})` and line 14's
//!   `JCC(S ∪ T′)` are one predicate, so a set grows only through
//!   [`Policy::union`]: lines 2–6 try it with `T′ = {tg}`;
//! * a **[`Frontier`]** — the FIFO list of Fig. 1 (`incremental::Fifo`),
//!   or one rank heap per relation for Fig. 3 (`priority::RankHeaps`),
//!   each kept beside its driver.
//!
//! The four algorithms are the four combinations; the exactly-once
//! drivers, the parallel drivers and delta maintenance all run this one
//! candidate loop. The engine holds only the database, the policy, the
//! frontier, the pager, the counters and line 8's buffer. Lines 10 and
//! 11 ask the frontier ([`Frontier::root_of`], [`Frontier::covered`]),
//! which owns the `Complete` list(s) and, in a delta run, the seed
//! tuples. Printing (Section 4's exactly-once rule, Fig. 3 line 17) is
//! the drivers' part: [`Engine::get_next_result`] returns each extension
//! to its caller.
//!
//! Line 8's `T′` is a sorted member list, not a tuple set: the policy
//! writes it into the engine's one reused buffer
//! ([`Policy::for_each_subset`]), and lines 10–14 read the slice — the
//! root test, line 11's containment test and line 14's union. A
//! [`TupleSet`] with its bindings is built only for a merge that grows
//! an entry (line 14) or for a new `Incomplete` entry (line 18), so a
//! candidate that lines 10–11 drop, or that merges into an entry already
//! holding it, allocates nothing.
//!
//! Line 7 is written as a scan of every tuple, but a candidate that is
//! consistent with no schema-adjacent member of `T` has `T′ = {tb}`,
//! which line 10 drops unless `tb` is a root, and for a root lines 11–18
//! are then a no-op. Unpaged runs — exact or approximate, FIFO or ranked,
//! plain, Section-7 or seeded — therefore visit only the
//! [`adjacent_candidates`], in the scan's order. The policy bounds them
//! per (member, relation) pair ([`Policy::candidates`]): the exact policy
//! through the posting lists, the approximate one through its join
//! function's similarity probe. A relation the policy cannot bound is
//! scanned, and so is every relation of a block-based run
//! ([`scan_tuples_from`]). Fig. 3's seed growth shares the bound
//! (`candidate_bound`).

use crate::jcc::{extend_to_maximal_from, maximal_subset_into, rebuild, union_with, Union};
use crate::stats::Stats;
use crate::tupleset::{member_from, TupleSet};
use fd_relational::storage::Pager;
use fd_relational::{Database, RelId, TupleId};

/// What "consistent" means for one execution: the predicate behind the
/// extension (lines 2–6), the maximal subsets (line 8) and the merge
/// (lines 14–15). Fig. 3's `≤ c` seed enumeration needs nothing more: it
/// grows a set by the `candidate_bound` tuples whose one-tuple
/// [`union`](Policy::union) grows it. Implemented by [`Exact`] and
/// [`Approx`](crate::Approx).
pub trait Policy {
    /// Does the list-scan store (`StoreEngine::Scan`) offer line 14's
    /// `T′` to every `Incomplete` entry, as Fig. 2 does? The exact policy
    /// does; an approximate union attempt that may grow the entry costs
    /// a score evaluation (a relation clash or `T′ ⊆ S` costs none), so
    /// the approximate policy offers `T′` to its root's entries only.
    /// Either way, `T′` may join several entries of its root, and the
    /// first in pop order takes it, under both stores.
    const OFFER_EVERY_ENTRY: bool;

    /// The policy borrowed, for parallel workers sharing one policy.
    type Ref<'a>: Policy
    where
        Self: 'a;

    /// Borrows the policy (see [`Policy::Ref`]).
    fn by_ref(&self) -> Self::Ref<'_>;

    /// The candidates of relation `rel` against the member `m` of a set,
    /// where `rel` shares an attribute with `m`'s relation: appends to
    /// `out`, in any order, a superset of the tuples `tb` of `rel` for
    /// which `{m, tb}` is consistent, and returns `true`. Returns `false`
    /// when the policy cannot bound them; the caller then scans `rel`.
    /// Line 7 and Fig. 3's seed growth read it through
    /// `candidate_bound`.
    fn candidates(&self, db: &Database, m: TupleId, rel: RelId, out: &mut Vec<TupleId>) -> bool;

    /// May the singleton `{t}` seed a run (Fig. 5 line 3*)?
    fn admits(&self, db: &Database, t: TupleId, stats: &mut Stats) -> bool;

    /// Lines 2–6: extends `set` to a maximal consistent set, adding only
    /// tuples of relations `≥ rel_min`, each through
    /// [`union`](Policy::union).
    fn extend(&self, db: &Database, set: TupleSet, rel_min: usize, stats: &mut Stats) -> TupleSet;

    /// Line 8: calls `f` on the sorted member list of every maximal
    /// consistent subset of `set ∪ {tb}` that contains `tb`. `buf` is the
    /// caller's reused scratch list; a unique subset is written there.
    fn for_each_subset(
        &self,
        db: &Database,
        set: &TupleSet,
        tb: TupleId,
        buf: &mut Vec<TupleId>,
        stats: &mut Stats,
        f: impl FnMut(&[TupleId], &mut Stats),
    );

    /// Lines 4 and 14: the union of a set and a sorted member list, when
    /// it is consistent. The only way a tuple set grows.
    ///
    /// `s` must itself be consistent — a pending entry, a set being
    /// extended or a growing seed — and both policies rely on it: they
    /// answer `T′ ⊆ S` with [`Union::Same`] without re-testing `S`, and
    /// reject a member of `T′ \ S` from a relation `S` holds before any
    /// test.
    fn union(
        &self,
        db: &Database,
        s: &TupleSet,
        t_prime: &[TupleId],
        stats: &mut Stats,
    ) -> Option<Union>;
}

/// The exact policy: join consistency and connectivity (`JCC`), with the
/// extension probing the join-column indexes.
#[derive(Debug, Clone, Copy)]
pub struct Exact;

impl Policy for Exact {
    const OFFER_EVERY_ENTRY: bool = true;
    type Ref<'a> = Exact;

    fn by_ref(&self) -> Exact {
        Exact
    }

    /// The tuples of `rel` agreeing with `m` on their shared attributes,
    /// from one posting-list probe with `m`'s own values.
    fn candidates(&self, db: &Database, m: TupleId, rel: RelId, out: &mut Vec<TupleId>) -> bool {
        db.probe_tuple(rel, m, out);
        true
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
        buf: &mut Vec<TupleId>,
        stats: &mut Stats,
        mut f: impl FnMut(&[TupleId], &mut Stats),
    ) {
        // Footnote 3: the maximal subset is unique.
        maximal_subset_into(db, set, tb, stats, buf);
        f(buf, stats)
    }

    fn union(
        &self,
        db: &Database,
        s: &TupleSet,
        t_prime: &[TupleId],
        stats: &mut Stats,
    ) -> Option<Union> {
        union_with(db, s, t_prime, stats)
    }
}

/// Where pending tuple sets wait: the `Incomplete` list(s), with the
/// state lines 10 and 11 read.
///
/// Both frontiers merge `T′` only into an entry sharing its root (the
/// ranked queues by Lemma 4.4: each holds roots of one relation), and a
/// merge that leaves the entry's set unchanged changes nothing else
/// either (no re-queue, no re-rank). That is what lets line 7 skip every
/// singleton `T′` whatever the frontier: its source depends on the
/// policy and the pager alone.
pub(crate) trait Frontier {
    /// Line 1: removes the next pending set, with the relation `Ri` of
    /// the list it came from and its root (its tuple of `Ri`).
    fn pop(&mut self, stats: &mut Stats) -> Option<(RelId, TupleId, TupleSet)>;

    /// Line 10: the root of `t_prime` in `Ri`'s list, if it has one — by
    /// default its tuple of `Ri`.
    fn root_of(&self, db: &Database, ri: RelId, t_prime: &[TupleId]) -> Option<TupleId> {
        member_from(db, t_prime, ri)
    }

    /// Line 11: is the member list `t` of `T′`, rooted at `root`,
    /// contained in a result of `Ri`'s `Complete` list?
    fn covered(&mut self, ri: RelId, root: TupleId, t: &[TupleId], stats: &mut Stats) -> bool;

    /// Lines 14–15: merges the member list `t_prime` into a pending set
    /// of `Ri`'s list sharing its root. Returns the merge success.
    fn try_merge<P: Policy>(
        &mut self,
        db: &Database,
        policy: &P,
        ri: RelId,
        root: TupleId,
        t_prime: &[TupleId],
        stats: &mut Stats,
    ) -> bool;

    /// Line 18: appends a new pending set to `Ri`'s list.
    fn push(&mut self, db: &Database, ri: RelId, root: TupleId, set: TupleSet, stats: &mut Stats);
}

/// Block-based scan (Section 7): applies `f` to every live tuple of
/// relations `rel_min..n`, page by page, each relation in ascending id
/// order — base band then that relation's dynamic inserts. Every page is
/// fetched and counted, so a block-based run's line 7 always scans.
fn scan_tuples_from(db: &Database, rel_min: usize, pager: &Pager<'_>, mut f: impl FnMut(TupleId)) {
    for rel_idx in rel_min..db.num_relations() {
        for block in pager.scan(RelId(rel_idx as u16)) {
            for t in block {
                f(t);
            }
        }
    }
}

/// The tuples of relation `rel` that can join the set with the sorted
/// member list `members`: appends to `out` the union of the policy's
/// [`candidates`](Policy::candidates) over the members of other relations
/// sharing an attribute with `rel`, and returns `true` — nothing when no
/// member is adjacent. Returns `false` when the policy cannot bound one of
/// them. The bound is exact for any consistent connected `S ∋ tb` of two
/// or more tuples drawn from the set plus `tb`: `S` holds an adjacent
/// member `m`, and its connected subset `{m, tb}` is consistent too
/// (`JCC` and an acceptable `A ≥ τ` are both antitone). Line 7 and
/// Fig. 3's seed growth both bound their candidates here.
pub(crate) fn candidate_bound<P: Policy>(
    db: &Database,
    policy: &P,
    members: &[TupleId],
    rel: RelId,
    out: &mut Vec<TupleId>,
) -> bool {
    members.iter().all(|&m| {
        let rel_m = db.rel_of(m);
        rel_m == rel || !db.rels_connected(rel_m, rel) || policy.candidates(db, m, rel, out)
    })
}

/// Line 7 restricted to the candidates that can give `T′ ≠ {tb}`: applies
/// `f` to the live tuples of relations `rel_min..n` within the
/// `candidate_bound` of `set`, in a scan's order — relation by
/// relation, ascending id within each. Any other `tb` has `T′ = {tb}`. A
/// relation the policy cannot bound is scanned whole.
fn adjacent_candidates<P: Policy>(
    db: &Database,
    policy: &P,
    set: &TupleSet,
    rel_min: usize,
    mut f: impl FnMut(TupleId),
) {
    let mut ids: Vec<TupleId> = Vec::new();
    for rel_idx in rel_min..db.num_relations() {
        let rel = RelId(rel_idx as u16);
        ids.clear();
        if !candidate_bound(db, policy, set.tuples(), rel, &mut ids) {
            db.tuples_of(rel).for_each(&mut f);
            continue;
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
/// the frontier (which holds the lists lines 10–18 read) and the run's
/// counters. The drivers print: they decide what a popped extension
/// adds to `Complete` and whether it is output.
pub(crate) struct Engine<'db, P, Q> {
    pub(crate) db: &'db Database,
    pub(crate) policy: P,
    pub(crate) frontier: Q,
    pager: Option<Pager<'db>>,
    /// First relation index of the extension and candidate scans (0 for
    /// the standalone algorithm; `i + 1` under Section 7's repeated-work
    /// optimization, which relies on a global `Complete`).
    pub(crate) rel_min: usize,
    pub(crate) stats: Stats,
    /// Line 8's `T′`, reused across candidates.
    t_prime: Vec<TupleId>,
}

impl<'db, P: Policy, Q: Frontier> Engine<'db, P, Q> {
    /// An engine over `frontier`; `page_size` switches the candidate
    /// scans to block-based execution.
    pub(crate) fn new(
        db: &'db Database,
        policy: P,
        frontier: Q,
        page_size: Option<usize>,
        stats: Stats,
    ) -> Self {
        Engine {
            db,
            policy,
            frontier,
            pager: page_size.map(|ps| Pager::new(db, ps)),
            rel_min: 0,
            stats,
            t_prime: Vec::new(),
        }
    }

    /// Pages fetched so far (block-based execution only).
    pub(crate) fn pages_read(&self) -> u64 {
        self.pager.as_ref().map_or(0, |p| p.stats().pages_read())
    }

    /// One call of `GETNEXTRESULT`: [`pop_extend`](Self::pop_extend),
    /// then [`derive`](Self::derive). Returns the root and the extension
    /// (Fig. 2 returns it for printing), or `None` when the frontier is
    /// empty.
    pub(crate) fn get_next_result(&mut self) -> Option<(TupleId, TupleSet)> {
        let (ri, root, set) = self.pop_extend()?;
        self.derive(ri, &set);
        Some((root, set))
    }

    /// Lines 1–6: removes the next pending set and extends it to a
    /// maximal one, with the relation of its list and its root.
    pub(crate) fn pop_extend(&mut self) -> Option<(RelId, TupleId, TupleSet)> {
        let (ri, root, set) = self.frontier.pop(&mut self.stats)?;
        let set = self
            .policy
            .extend(self.db, set, self.rel_min, &mut self.stats);
        Some((ri, root, set))
    }

    /// Lines 7–18: derives the successors of the extension `set` popped
    /// from `Ri`'s list.
    pub(crate) fn derive(&mut self, ri: RelId, set: &TupleSet) {
        let Engine {
            db,
            policy,
            frontier,
            pager,
            rel_min,
            stats,
            t_prime,
        } = self;
        let db: &Database = db;
        // Line 7 visits only the adjacent candidates of an unpaged run.
        // Any other candidate has `T′ = {tb}`. Line 10 keeps it only if
        // `tb` is a root; line 11 drops it if a printed set contains `tb`.
        // Otherwise `tb`'s own pending entry is its only merge partner
        // (both frontiers merge by root), and that entry already contains
        // `tb`: the merge changes nothing, so skipping `tb` is exact.
        // Reuse runs (`rel_min > i`) never see a tuple of `Ri`.
        let visit = |tb| {
            stats.candidate_scans += 1;
            if set.contains(tb) {
                return;
            }
            // Line 8.
            policy.for_each_subset(db, set, tb, t_prime, stats, |t_prime, stats| {
                // Line 10: must contain a root.
                let Some(new_root) = frontier.root_of(db, ri, t_prime) else {
                    return;
                };
                // Line 11: already represented in Complete?
                if frontier.covered(ri, new_root, t_prime, stats) {
                    return;
                }
                // Lines 14–15: merge into a pending entry sharing the root.
                if frontier.try_merge(db, policy, ri, new_root, t_prime, stats) {
                    return;
                }
                // Line 18: genuinely new — append, built as a set once.
                let t_prime = rebuild(db, t_prime.to_vec());
                frontier.push(db, ri, new_root, t_prime, stats);
            });
        };
        match pager {
            None => adjacent_candidates(db, policy, set, *rel_min, visit),
            Some(pager) => scan_tuples_from(db, *rel_min, pager, visit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::Fifo;
    use crate::lists::{CompleteStore, IncompleteQueue, StoreEngine};
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
        let fifo = Fifo::new(RelId(0), queue, CompleteStore::new(engine));
        Engine::new(db, Exact, fifo, page_size, stats)
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
        e.frontier.complete.insert(r1.tuples(), &[C1]);

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
            e.frontier.complete.insert(set.tuples(), &[root]);
            count += 1;
        }
        // Starting from {c3} alone: {c3,a3} is the only reachable result
        // rooted at c3... plus any sets derived via the candidate loop that
        // contain a Climates tuple reachable from it.
        assert!(count >= 1);
        assert!(e.frontier.complete.iter().any(|s| s == [C3, TupleId(5)]));
    }

    #[test]
    fn block_based_scan_counts_pages_and_matches_tuple_based() {
        let db = tourist_database();
        let run = |page_size: Option<usize>| {
            let mut e = engine(&db, StoreEngine::Indexed, db.tuples_of(RelId(0)), page_size);
            let mut out = Vec::new();
            while let Some((root, set)) = e.get_next_result() {
                e.frontier.complete.insert(set.tuples(), &[root]);
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
