//! The `Complete` and `Incomplete` lists of `INCREMENTALFD` (Fig. 1).
//!
//! The paper stores both as linked lists and scans them linearly; its
//! Section 7 then recommends hashing the tuple sets by their tuple from
//! `Ri` — every merge or containment candidate necessarily shares that
//! *root tuple*, because a valid tuple set holds at most one tuple per
//! relation. Both engines are provided behind one interface so the
//! ablation benchmark (experiment E10) can compare them; they produce
//! identical results and differ only in scan work.

use crate::stats::Stats;
use crate::tupleset::TupleSet;
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

/// The `Complete` list: results already printed.
#[derive(Debug)]
pub(crate) struct CompleteStore {
    engine: StoreEngine,
    sets: Vec<TupleSet>,
    /// Indexed engine: root tuple → indices into `sets`.
    by_root: FxHashMap<TupleId, Vec<u32>>,
}

impl CompleteStore {
    /// An empty store.
    pub(crate) fn new(engine: StoreEngine) -> Self {
        CompleteStore {
            engine,
            sets: Vec::new(),
            by_root: FxHashMap::default(),
        }
    }

    /// The stored results, in print order.
    pub(crate) fn sets(&self) -> &[TupleSet] {
        &self.sets
    }

    /// Inserts a printed result. `roots` are the tuples under which the
    /// set should be discoverable — for `INCREMENTALFD(R, i)` and a ranked
    /// queue's `Complete_i` that is the set's `Ri` tuple; a `Complete`
    /// shared by several runs registers every member.
    pub(crate) fn insert(&mut self, set: TupleSet, roots: &[TupleId]) {
        let idx = self.sets.len() as u32;
        if self.engine == StoreEngine::Indexed {
            for &r in roots {
                self.by_root.entry(r).or_default().push(idx);
            }
        }
        self.sets.push(set);
    }

    /// Fig. 2 line 11: is `t` contained in some stored result? `root` is
    /// `t`'s tuple from `Ri`; any superset must also contain it.
    pub(crate) fn contains_superset(&self, t: &TupleSet, root: TupleId, stats: &mut Stats) -> bool {
        match self.engine {
            StoreEngine::Scan => self.sets.iter().any(|s| {
                stats.complete_scans += 1;
                t.is_subset_of(s)
            }),
            StoreEngine::Indexed => match self.by_root.get(&root) {
                Some(idxs) => idxs.iter().any(|&i| {
                    stats.complete_scans += 1;
                    t.is_subset_of(&self.sets[i as usize])
                }),
                None => false,
            },
        }
    }
}

/// Fig. 3 line 17's exact view of `Complete`: the member lists of the
/// printed results. Only the drivers that ask "printed already?" keep
/// one: the ranked stream and the seeded delta run.
#[derive(Debug, Default)]
pub(crate) struct Printed(FxHashSet<Box<[TupleId]>>);

impl Printed {
    /// Records a printed set; false when it was printed before.
    pub(crate) fn insert(&mut self, tuples: &[TupleId]) -> bool {
        self.0.insert(tuples.into())
    }

    /// Has exactly this set been printed already?
    pub(crate) fn contains(&self, tuples: &[TupleId]) -> bool {
        self.0.contains(tuples)
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
    /// Indexed engine: root tuple → slots (live or dead; filtered on use).
    by_root: FxHashMap<TupleId, Vec<u32>>,
}

impl IncompleteQueue {
    /// An empty queue.
    pub(crate) fn new(engine: StoreEngine) -> Self {
        IncompleteQueue {
            engine,
            slots: Vec::new(),
            order: VecDeque::new(),
            batch: Vec::new(),
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
            self.by_root.entry(root).or_default().push(slot);
        }
    }

    /// Fig. 2 line 1: removes the first tuple set (splicing the pending
    /// batch to the front first).
    pub(crate) fn pop(&mut self) -> Option<(TupleId, TupleSet)> {
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
    /// first `S` rooted at `T′`'s `root` for which `union(S)` succeeds by
    /// that union, preserving its queue position. Returns true when a
    /// merge happened.
    ///
    /// Only an entry sharing the root may take the union, under both
    /// engines. In a plain or Section-7 run every root lies in `Ri`, and
    /// two tuples of one relation never join (Lemma 4.4), so the rule
    /// changes nothing there; in a seeded run whose seeds span relations
    /// it keeps `T′` out of entries rooted at another seed.
    ///
    /// With a `unique` partner (exact joins, Lemma 4.4) the order does not
    /// matter: the indexed engine probes the root's entries, the scan
    /// engine offers `T′` to every entry in pop order, as Fig. 2 does, and
    /// keeps the first same-root union. Otherwise (approximate joins) only
    /// the same-root entries are scanned, in pop order.
    pub(crate) fn try_merge(
        &mut self,
        root: TupleId,
        unique: bool,
        stats: &mut Stats,
        mut union: impl FnMut(&TupleSet, &mut Stats) -> Option<TupleSet>,
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
            if !unique && *r != root {
                return false;
            }
            stats.incomplete_scans += 1;
            match union(s, stats) {
                Some(u) if *r == root => {
                    stats.merges += 1;
                    *s = u;
                    true
                }
                _ => false,
            }
        };
        if unique && *engine == StoreEngine::Indexed {
            by_root
                .get(&root)
                .is_some_and(|idx| idx.iter().any(|&slot| offer(slot, stats)))
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
    use crate::jcc::{rebuild, try_union};
    use fd_relational::{tourist_database, Database};

    const C1: TupleId = TupleId(0);
    const C2: TupleId = TupleId(1);
    const A2: TupleId = TupleId(4);
    const S1: TupleId = TupleId(6);

    fn merge(
        db: &Database,
        q: &mut IncompleteQueue,
        root: TupleId,
        t_prime: &TupleSet,
        stats: &mut Stats,
    ) -> bool {
        q.try_merge(root, true, stats, |s, stats| {
            try_union(db, s, t_prime, stats)
        })
    }

    fn both_engines() -> [StoreEngine; 2] {
        [StoreEngine::Scan, StoreEngine::Indexed]
    }

    #[test]
    fn complete_superset_lookup() {
        let db = tourist_database();
        for engine in both_engines() {
            let mut stats = Stats::new();
            let mut complete = CompleteStore::new(engine);
            let big = rebuild(&db, vec![C1, A2, S1]);
            complete.insert(big, &[C1]);

            let small = rebuild(&db, vec![C1, S1]);
            assert!(complete.contains_superset(&small, C1, &mut stats));

            let other = rebuild(&db, vec![C2]);
            assert!(!complete.contains_superset(&other, C2, &mut stats));
        }
    }

    #[test]
    fn complete_exact_lookup() {
        let mut printed = Printed::default();
        assert!(printed.insert(&[C1, A2]));
        assert!(!printed.insert(&[C1, A2]), "a second print is a duplicate");
        assert!(printed.contains(&[C1, A2]));
        assert!(!printed.contains(&[C1]));
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

            let t_prime = rebuild(&db, vec![C1, S1]);
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
            let t_prime = rebuild(&db, vec![C1, S1]);
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
            let t_prime = rebuild(&db, vec![C1, S1]);
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

    #[test]
    fn indexed_engine_scans_fewer_entries() {
        let db = tourist_database();
        let mut scan_stats = Stats::new();
        let mut idx_stats = Stats::new();
        let t_prime = rebuild(&db, vec![C1, S1]);

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
        let t_prime = rebuild(&db, vec![C1, S1]);
        assert!(!merge(&db, &mut q, C1, &t_prime, &mut stats));
        assert_eq!(q.iter().count(), 0);
    }
}
