//! The `Complete` and `Incomplete` lists of `INCREMENTALFD` (Fig. 1).
//!
//! The paper stores both as linked lists and scans them linearly; its
//! Section 7 then recommends hashing the tuple sets by their tuple from
//! `Ri` — every merge or containment candidate necessarily shares that
//! *root tuple*, because a valid tuple set holds at most one tuple per
//! relation. Both engines are provided behind one interface so the
//! ablation benchmark (experiment E10) can compare them; they produce
//! identical results and differ only in scan work.

use crate::jcc::Union;
use crate::stats::Stats;
use crate::tupleset::{is_sorted_subset, TupleSet};
use fd_relational::fxhash::{FxHashMap, FxHashSet};
use fd_relational::TupleId;
use std::collections::VecDeque;

/// Which store implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreEngine {
    /// Linear scans over a list — the paper's Fig. 1/2 data structure.
    Scan,
    /// Hash index keyed by the root (`Ri`) tuple — Section 7's refinement.
    #[default]
    Indexed,
}

/// The `Complete` list: results already printed, as member lists in one
/// flat arena — line 11 asks only about members.
#[derive(Debug)]
pub(crate) struct CompleteStore {
    engine: StoreEngine,
    /// Every stored member list, back to back.
    members: Vec<TupleId>,
    /// `ends[k]`: end of the `k`-th list in `members` (it starts where
    /// the previous one ends).
    ends: Vec<u32>,
    /// Indexed engine: root tuple → indices into `ends`.
    by_root: FxHashMap<TupleId, Vec<u32>>,
}

impl CompleteStore {
    /// An empty store.
    pub(crate) fn new(engine: StoreEngine) -> Self {
        CompleteStore {
            engine,
            members: Vec::new(),
            ends: Vec::new(),
            by_root: FxHashMap::default(),
        }
    }

    /// The `k`-th stored member list.
    fn get(&self, k: usize) -> &[TupleId] {
        let start = k.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.members[start..self.ends[k] as usize]
    }

    /// The stored member lists, in print order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[TupleId]> {
        (0..self.ends.len()).map(|k| self.get(k))
    }

    /// Inserts the members of a printed result. `roots` are the tuples
    /// under which the set should be discoverable — for
    /// `INCREMENTALFD(R, i)` and a ranked queue's `Complete_i` that is the
    /// set's `Ri` tuple; a `Complete` shared by several runs registers
    /// every member.
    pub(crate) fn insert(&mut self, members: &[TupleId], roots: &[TupleId]) {
        let idx = self.ends.len() as u32;
        if self.engine == StoreEngine::Indexed {
            for &r in roots {
                self.by_root.entry(r).or_default().push(idx);
            }
        }
        self.members.extend_from_slice(members);
        self.ends.push(self.members.len() as u32);
    }

    /// Fig. 2 line 11: is the sorted member list `t` contained in some
    /// stored result? `root` is `t`'s tuple from `Ri`; any superset must
    /// also contain it.
    pub(crate) fn contains_superset(
        &self,
        t: &[TupleId],
        root: TupleId,
        stats: &mut Stats,
    ) -> bool {
        let mut holds = |k: usize| {
            stats.complete_scans += 1;
            is_sorted_subset(t, self.get(k))
        };
        match self.engine {
            StoreEngine::Scan => (0..self.ends.len()).any(holds),
            StoreEngine::Indexed => self
                .by_root
                .get(&root)
                .is_some_and(|idxs| idxs.iter().any(|&k| holds(k as usize))),
        }
    }
}

/// Fig. 3 line 17's exact view of `Complete`: the member lists of the
/// printed results. The two drivers whose runs derive one set more than
/// once keep their own: the ranked stream (`RankedIter`) and the seeded
/// delta run (`delta::insert_in`), which also skips line 7 for a set it
/// printed before.
#[derive(Debug, Default)]
pub(crate) struct Printed(FxHashSet<Box<[TupleId]>>);

impl Printed {
    /// Records a printed set; false when it was printed before.
    pub(crate) fn insert(&mut self, tuples: &[TupleId]) -> bool {
        self.0.insert(tuples.into())
    }
}

/// The `Incomplete` list: tuple sets awaiting extension.
///
/// **Ordering.** Table 3 of the paper pins the list discipline down: the
/// sets created during one `GETNEXTRESULT` call are placed *in front of*
/// the older entries, preserving their creation order (Iteration 2 pops
/// `{c1,a2,s1}` — created in Iteration 1 — while `{c2}` from the
/// initialization still waits). We reproduce that exactly: pushes
/// accumulate in a batch; the batch is spliced onto the front of the list
/// when the next `pop` happens. Correctness does not depend on the order
/// (Theorem 4.2 holds for any), but the trace and the delay profile do.
#[derive(Debug)]
pub(crate) struct IncompleteQueue {
    engine: StoreEngine,
    /// Slot storage; `None` marks popped slots (stable indices keep the
    /// root index valid without rebuilds).
    slots: Vec<Option<(TupleId, TupleSet)>>,
    /// Older entries, front to back.
    order: VecDeque<u32>,
    /// Entries pushed since the last pop, in creation order; logically
    /// these precede `order`.
    batch: Vec<u32>,
    /// Number of pops so far: the stamp of the current batch.
    pops: u32,
    /// Indexed engine: root tuple → `(stamp, slot)` of its entries in
    /// push order, live or dead (filtered on use). The stamp is the pop
    /// count at push time, so one stamp is one batch.
    by_root: FxHashMap<TupleId, Vec<(u32, u32)>>,
}

impl IncompleteQueue {
    /// An empty queue.
    pub(crate) fn new(engine: StoreEngine) -> Self {
        IncompleteQueue {
            engine,
            slots: Vec::new(),
            order: VecDeque::new(),
            batch: Vec::new(),
            pops: 0,
            by_root: FxHashMap::default(),
        }
    }

    /// Adds a tuple set rooted at `root` (its tuple from `Ri`) to the
    /// current batch.
    pub(crate) fn push(&mut self, root: TupleId, set: TupleSet, stats: &mut Stats) {
        stats.inserts += 1;
        let slot = self.slots.len() as u32;
        self.slots.push(Some((root, set)));
        self.batch.push(slot);
        if self.engine == StoreEngine::Indexed {
            self.by_root
                .entry(root)
                .or_default()
                .push((self.pops, slot));
        }
    }

    /// Fig. 2 line 1: removes the first tuple set (splicing the pending
    /// batch to the front first).
    pub(crate) fn pop(&mut self) -> Option<(TupleId, TupleSet)> {
        self.pops += 1;
        for slot in self.batch.drain(..).rev() {
            self.order.push_front(slot);
        }
        while let Some(slot) = self.order.pop_front() {
            if let Some(entry) = self.slots[slot as usize].take() {
                return Some(entry);
            }
        }
        None
    }

    /// Fig. 2 lines 14–15: offers `T′` to the stored sets and replaces the
    /// first `S` in pop order rooted at `T′`'s `root` for which
    /// `union(S)` succeeds by that union, preserving its queue position.
    /// Returns true when a merge happened.
    ///
    /// Only an entry sharing the root may take the union, under both
    /// engines. In a plain or Section-7 run every root lies in `Ri`, and
    /// two tuples of one relation never join, so the rule changes nothing
    /// there; in a seeded run whose seeds span relations it keeps `T′` out
    /// of entries rooted at another seed.
    ///
    /// Several same-root entries may join `T′`, so both engines pick the
    /// first in pop order. The indexed engine walks the root's entries
    /// batch by batch, newest batch first and each in push order — the
    /// pop order. The scan engine walks the list in pop order and, with
    /// `offer_all`, offers `T′` to every entry, as Fig. 2 does; without
    /// it, only to the root's entries.
    pub(crate) fn try_merge(
        &mut self,
        root: TupleId,
        offer_all: bool,
        stats: &mut Stats,
        mut union: impl FnMut(&TupleSet, &mut Stats) -> Option<Union>,
    ) -> bool {
        let IncompleteQueue {
            engine,
            slots,
            order,
            batch,
            by_root,
            ..
        } = self;
        let mut offer = |slot: u32, stats: &mut Stats| {
            let Some((r, s)) = slots[slot as usize].as_mut() else {
                return false;
            };
            if !offer_all && *r != root {
                return false;
            }
            stats.incomplete_scans += 1;
            let Some(u) = union(s, stats).filter(|_| *r == root) else {
                return false;
            };
            stats.merges += 1;
            if let Union::Grown(u) = u {
                *s = u;
            }
            true
        };
        if *engine == StoreEngine::Indexed {
            let entries = by_root.get(&root).map_or(&[][..], Vec::as_slice);
            let mut end = entries.len();
            while end > 0 {
                let stamp = entries[end - 1].0;
                let start = entries[..end].partition_point(|&(s, _)| s < stamp);
                if entries[start..end]
                    .iter()
                    .any(|&(_, slot)| offer(slot, stats))
                {
                    return true;
                }
                end = start;
            }
            false
        } else {
            // Logical order: pending batch first, then older entries.
            batch
                .iter()
                .chain(order.iter())
                .any(|&slot| offer(slot, stats))
        }
    }

    /// Iterates live entries in logical (pop) order — pending batch first,
    /// then older entries. Used by the Table 3 trace snapshots.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &TupleSet> {
        self.batch
            .iter()
            .chain(self.order.iter())
            .filter_map(move |&slot| self.slots[slot as usize].as_ref().map(|(_, s)| s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jcc::{rebuild, union_with};
    use fd_relational::{tourist_database, Database};

    const C1: TupleId = TupleId(0);
    const C2: TupleId = TupleId(1);
    const C3: TupleId = TupleId(2);
    const A2: TupleId = TupleId(4);
    const S1: TupleId = TupleId(6);

    fn merge(
        db: &Database,
        q: &mut IncompleteQueue,
        root: TupleId,
        t_prime: &[TupleId],
        stats: &mut Stats,
    ) -> bool {
        q.try_merge(root, true, stats, |s, stats| {
            union_with(db, s, t_prime, stats)
        })
    }

    fn both_engines() -> [StoreEngine; 2] {
        [StoreEngine::Scan, StoreEngine::Indexed]
    }

    #[test]
    fn complete_superset_lookup() {
        for engine in both_engines() {
            let mut stats = Stats::new();
            let mut complete = CompleteStore::new(engine);
            complete.insert(&[C1, A2, S1], &[C1]);
            complete.insert(&[C2, S1], &[C2]);
            assert!(complete.contains_superset(&[C1, S1], C1, &mut stats));
            assert!(!complete.contains_superset(&[C2, A2], C2, &mut stats));
            assert!(!complete.contains_superset(&[C3], C3, &mut stats));
            let stored: Vec<&[TupleId]> = complete.iter().collect();
            assert_eq!(stored, [&[C1, A2, S1][..], &[C2, S1][..]]);
        }
    }

    #[test]
    fn complete_exact_lookup() {
        let mut printed = Printed::default();
        assert!(printed.insert(&[C1, A2]));
        assert!(!printed.insert(&[C1, A2]), "a second print is a duplicate");
        assert!(printed.insert(&[C1]), "a subset is another set");
    }

    #[test]
    fn queue_is_fifo() {
        let db = tourist_database();
        for engine in both_engines() {
            let mut stats = Stats::new();
            let mut q = IncompleteQueue::new(engine);
            q.push(C1, TupleSet::singleton(&db, C1), &mut stats);
            q.push(C2, TupleSet::singleton(&db, C2), &mut stats);
            assert_eq!(q.iter().count(), 2);
            assert_eq!(q.pop().unwrap().0, C1);
            assert_eq!(q.pop().unwrap().0, C2);
            assert!(q.pop().is_none());
            assert_eq!(q.iter().count(), 0);
        }
    }

    #[test]
    fn merge_replaces_in_place_keeping_order() {
        let db = tourist_database();
        for engine in both_engines() {
            let mut stats = Stats::new();
            let mut q = IncompleteQueue::new(engine);
            // Example 4.1: Incomplete holds {c1,a2}, {c2}; merging
            // T′ = {c1,s1} replaces {c1,a2} with {c1,a2,s1} in place.
            q.push(C1, rebuild(&db, vec![C1, A2]), &mut stats);
            q.push(C2, TupleSet::singleton(&db, C2), &mut stats);

            let t_prime = [C1, S1];
            assert!(merge(&db, &mut q, C1, &t_prime, &mut stats));
            assert_eq!(stats.merges, 1);

            let (root, merged) = q.pop().unwrap();
            assert_eq!(root, C1);
            assert_eq!(merged.tuples(), &[C1, A2, S1]);
            assert_eq!(q.pop().unwrap().0, C2);
        }
    }

    #[test]
    fn merge_fails_without_candidates() {
        let db = tourist_database();
        for engine in both_engines() {
            let mut stats = Stats::new();
            let mut q = IncompleteQueue::new(engine);
            q.push(C2, TupleSet::singleton(&db, C2), &mut stats);
            let t_prime = [C1, S1];
            assert!(!merge(&db, &mut q, C1, &t_prime, &mut stats));
        }
    }

    /// Seeds in two relations (a seeded delta run): `T′ = {c1, s1}` joins
    /// the entry `{a2}`, but that entry is rooted at another seed, so the
    /// merge must go to `c1`'s own entry under both engines.
    #[test]
    fn merge_never_crosses_roots() {
        let db = tourist_database();
        for engine in both_engines() {
            let mut stats = Stats::new();
            let mut q = IncompleteQueue::new(engine);
            q.push(A2, TupleSet::singleton(&db, A2), &mut stats);
            q.push(C1, TupleSet::singleton(&db, C1), &mut stats);
            let t_prime = [C1, S1];
            assert!(merge(&db, &mut q, C1, &t_prime, &mut stats));
            assert_eq!(stats.merges, 1);
            let (root, other) = q.pop().unwrap();
            assert_eq!((root, other.tuples()), (A2, &[A2][..]), "{engine:?}");
            let (root, own) = q.pop().unwrap();
            assert_eq!((root, own.tuples()), (C1, &[C1, S1][..]), "{engine:?}");

            // Without an entry of its own root, `T′` is not merged at all.
            let mut q = IncompleteQueue::new(engine);
            q.push(A2, TupleSet::singleton(&db, A2), &mut stats);
            assert!(!merge(&db, &mut q, C1, &t_prime, &mut stats));
            assert_eq!(q.pop().unwrap().1.tuples(), &[A2], "{engine:?}");
        }
    }

    /// `T′ = {c1, s1}` joins both entries rooted at `c1`: `{c1}` from the
    /// first batch and `{c1, a2}` from the second. Both engines give it
    /// to the first in pop order — the newer batch's entry.
    #[test]
    fn merge_takes_the_first_partner_in_pop_order() {
        let db = tourist_database();
        for engine in both_engines() {
            let mut stats = Stats::new();
            let mut q = IncompleteQueue::new(engine);
            q.push(C2, TupleSet::singleton(&db, C2), &mut stats);
            q.push(C1, TupleSet::singleton(&db, C1), &mut stats);
            assert_eq!(q.pop().unwrap().0, C2);
            q.push(C1, rebuild(&db, vec![C1, A2]), &mut stats);
            assert!(merge(&db, &mut q, C1, &[C1, S1], &mut stats));
            let order: Vec<Vec<TupleId>> = q.iter().map(|s| s.tuples().to_vec()).collect();
            assert_eq!(order, vec![vec![C1, A2, S1], vec![C1]], "{engine:?}");
        }
    }

    #[test]
    fn indexed_engine_scans_fewer_entries() {
        let db = tourist_database();
        let mut scan_stats = Stats::new();
        let mut idx_stats = Stats::new();
        let t_prime = [C1, S1];

        let mut q = IncompleteQueue::new(StoreEngine::Scan);
        q.push(C2, TupleSet::singleton(&db, C2), &mut scan_stats);
        q.push(C1, rebuild(&db, vec![C1, A2]), &mut scan_stats);
        assert!(merge(&db, &mut q, C1, &t_prime, &mut scan_stats));

        let mut q = IncompleteQueue::new(StoreEngine::Indexed);
        q.push(C2, TupleSet::singleton(&db, C2), &mut idx_stats);
        q.push(C1, rebuild(&db, vec![C1, A2]), &mut idx_stats);
        assert!(merge(&db, &mut q, C1, &t_prime, &mut idx_stats));

        assert!(idx_stats.incomplete_scans < scan_stats.incomplete_scans);
    }

    #[test]
    fn popped_slots_are_skipped() {
        let db = tourist_database();
        let mut stats = Stats::new();
        let mut q = IncompleteQueue::new(StoreEngine::Indexed);
        q.push(C1, rebuild(&db, vec![C1, A2]), &mut stats);
        let _ = q.pop();
        // Merge must not resurrect the popped slot.
        let t_prime = [C1, S1];
        assert!(!merge(&db, &mut q, C1, &t_prime, &mut stats));
        assert_eq!(q.iter().count(), 0);
    }
}
