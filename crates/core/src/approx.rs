//! `APPROXINCREMENTALFD` (Figs. 5–6 of the paper): `(A, τ)`-approximate
//! full disjunctions.
//!
//! An *approximate join function* `A` maps tuple sets to `[0, 1]`; it is
//! **acceptable** when `A(T) = 0` for disconnected `T` and `A` is
//! antitone under set growth (`T ⊆ T′ ⇒ A(T) ≥ A(T′)` for connected
//! sets). Given a threshold `τ`, `AFD(R, A, τ)` consists of the maximal
//! tuple sets with `A(T) ≥ τ` (Definition 6.2).
//!
//! Members of an approximate tuple set may *disagree* on shared
//! attributes (that is the point — `Cannada ≈ Canada`), so unlike the
//! exact algorithm nothing here relies on binding consistency; structure
//! (one tuple per relation, connectivity) plus the score decide
//! everything.
//!
//! The algorithm mirrors `INCREMENTALFD` with three changes (the starred
//! lines of Figs. 5–6): initialization keeps only singletons with
//! `A({t}) ≥ τ`; extension and merging test `A(…) ≥ τ` instead of `JCC`;
//! and line 8 can yield **several** maximal subsets `T′ ⊆ T ∪ {tb}` — one
//! for [`AMin`] (Prop. 6.5), possibly many for [`AProd`] (Example 6.3).
//! Those changes are the [`Approx`] policy of the shared `GETNEXTRESULT`
//! engine; [`ApproxFdIter`], [`ApproxAllIter`] and [`RankedApproxFdIter`]
//! are the engine's iterators under that policy.
//!
//! `A(T)` is evaluated over and over, but `sim(t, t′)` is a fixed
//! function of the pair for the whole run, and so is line 7's bound for
//! a (member, relation) pair. The policy keeps both in one [`SimMemo`]
//! per run, which its parallel workers share.

use crate::getnext::{candidate_bound, Policy};
use crate::incremental::{FdConfig, MultiRunIter, RunIter};
use crate::init::InitStrategy;
use crate::jcc::{extend_greedy, rebuild, retain_component, Union};
use crate::priority::RankedIter;
use crate::ranking::MonotoneCDetermined;
use crate::sim::Similarity;
use crate::stats::Stats;
use crate::tupleset::{is_sorted_subset, TupleSet};
use fd_relational::fxhash::FxHashSet;
use fd_relational::{Database, RelId, TupleId};
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Per-tuple correctness probabilities `prob(t)` (Section 6), in `[0,1]`.
#[derive(Debug, Clone)]
pub struct ProbScores {
    scores: Vec<f64>,
    /// Probability of tuples inserted after construction.
    default: f64,
}

impl ProbScores {
    /// Every tuple has the same probability — including tuples inserted
    /// later.
    pub fn uniform(db: &Database, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability in [0,1]");
        ProbScores {
            scores: vec![p; db.tuple_id_bound() as usize],
            default: p,
        }
    }

    /// Per-tuple probabilities from a closure (called over the whole id
    /// space, including any tombstoned ids). Tuples inserted later
    /// default to probability `1.0` (certain).
    pub fn from_fn(db: &Database, mut f: impl FnMut(TupleId) -> f64) -> Self {
        ProbScores {
            scores: (0..db.tuple_id_bound())
                .map(TupleId)
                .map(|t| {
                    let p = f(t);
                    assert!((0.0..=1.0).contains(&p), "probability in [0,1]");
                    p
                })
                .collect(),
            default: 1.0,
        }
    }

    /// `prob(t)`; the constructor's documented default for tuples
    /// inserted after this assignment was built.
    #[inline]
    pub fn prob(&self, t: TupleId) -> f64 {
        self.scores.get(t.index()).copied().unwrap_or(self.default)
    }
}

/// An acceptable approximate join function (Section 6).
pub trait ApproxJoin {
    /// `A(T)` for a structurally valid tuple set (one tuple per relation).
    /// Must return 0 for disconnected sets and be antitone under growth.
    fn score(&self, db: &Database, members: &[TupleId]) -> f64;

    /// [`score`](Self::score) with the pair similarities read through the
    /// run's memo. The approximate policy scores through this; the
    /// default ignores the memo.
    fn score_with(&self, db: &Database, memo: &SimMemo, members: &[TupleId]) -> f64 {
        let _ = memo;
        self.score(db, members)
    }

    /// Fig. 6 line 8: calls `f` on the sorted member list of every
    /// **maximal** subset `T′ ⊆ T ∪ {tb}` that contains `tb` and has
    /// `A(T′) ≥ τ`, reading pair similarities through `memo`. `buf` is
    /// the caller's reused scratch list: a join function with a unique
    /// maximal subset writes it there. `A` is *efficiently computable*
    /// (Definition 6.4) when this runs in polynomial time.
    // Line 8's inputs (`T`, `tb`, `τ`) plus the run's memo and the
    // caller's buffer, counters and callback; a bundling struct would
    // only move them, and the method must stay object-safe for
    // `BoxedApprox`.
    #[allow(clippy::too_many_arguments)]
    fn for_each_maximal_subset(
        &self,
        db: &Database,
        memo: &SimMemo,
        set: &TupleSet,
        tb: TupleId,
        tau: f64,
        buf: &mut Vec<TupleId>,
        stats: &mut Stats,
        f: &mut dyn FnMut(&[TupleId], &mut Stats),
    );

    /// Bounds Fig. 6 line 7 for the member `m` of the popped set: appends
    /// to `out`, in any order, a superset of the tuples `tb` of `rel`
    /// (which shares an attribute with `m`'s relation) with
    /// `A({m, tb}) ≥ tau`, and returns `true`. The default returns
    /// `false`, and line 7 scans `rel`.
    fn candidates(
        &self,
        _db: &Database,
        _m: TupleId,
        _rel: RelId,
        _tau: f64,
        _out: &mut Vec<TupleId>,
    ) -> bool {
        false
    }
}

// The approximate policy *owns* its join function, so borrowing and
// boxing callers both work: `ApproxFdIter::new(&db, ri, &a, τ)`
// instantiates `A = &AMin<…>`, the query builder's dynamic path
// `A = Box<dyn ApproxJoin>`.

impl<A: ApproxJoin + ?Sized> ApproxJoin for &A {
    fn score(&self, db: &Database, members: &[TupleId]) -> f64 {
        (**self).score(db, members)
    }

    fn score_with(&self, db: &Database, memo: &SimMemo, members: &[TupleId]) -> f64 {
        (**self).score_with(db, memo, members)
    }

    fn for_each_maximal_subset(
        &self,
        db: &Database,
        memo: &SimMemo,
        set: &TupleSet,
        tb: TupleId,
        tau: f64,
        buf: &mut Vec<TupleId>,
        stats: &mut Stats,
        f: &mut dyn FnMut(&[TupleId], &mut Stats),
    ) {
        (**self).for_each_maximal_subset(db, memo, set, tb, tau, buf, stats, f)
    }

    fn candidates(
        &self,
        db: &Database,
        m: TupleId,
        rel: RelId,
        tau: f64,
        out: &mut Vec<TupleId>,
    ) -> bool {
        (**self).candidates(db, m, rel, tau, out)
    }
}

impl<A: ApproxJoin + ?Sized> ApproxJoin for Box<A> {
    fn score(&self, db: &Database, members: &[TupleId]) -> f64 {
        (**self).score(db, members)
    }

    fn score_with(&self, db: &Database, memo: &SimMemo, members: &[TupleId]) -> f64 {
        (**self).score_with(db, memo, members)
    }

    fn for_each_maximal_subset(
        &self,
        db: &Database,
        memo: &SimMemo,
        set: &TupleSet,
        tb: TupleId,
        tau: f64,
        buf: &mut Vec<TupleId>,
        stats: &mut Stats,
        f: &mut dyn FnMut(&[TupleId], &mut Stats),
    ) {
        (**self).for_each_maximal_subset(db, memo, set, tb, tau, buf, stats, f)
    }

    fn candidates(
        &self,
        db: &Database,
        m: TupleId,
        rel: RelId,
        tau: f64,
        out: &mut Vec<TupleId>,
    ) -> bool {
        (**self).candidates(db, m, rel, tau, out)
    }
}

/// Are two tuples "connected" in the Section 6 sense — do their relations
/// share an attribute? `sim` only applies to connected pairs.
fn pair_connected(db: &Database, t1: TupleId, t2: TupleId) -> bool {
    db.rels_connected(db.rel_of(t1), db.rel_of(t2))
}

thread_local! {
    /// [`members_connected`]'s working copy of the members, reused.
    static COMPONENT: RefCell<Vec<TupleId>> = const { RefCell::new(Vec::new()) };
}

/// Is the member list a structurally valid, connected tuple set: its
/// members from distinct relations whose relations are connected? Runs
/// on every score, so it allocates nothing.
fn members_connected(db: &Database, members: &[TupleId]) -> bool {
    let distinct = members.iter().enumerate().all(|(i, &t)| {
        let rel = db.rel_of(t);
        members[..i].iter().all(|&u| db.rel_of(u) != rel)
    });
    let Some(&first) = members.first() else {
        return true;
    };
    distinct
        && COMPONENT.with_borrow_mut(|component| {
            component.clear();
            component.extend_from_slice(members);
            retain_component(db, component, db.rel_of(first));
            component.len() == members.len()
        })
}

/// `A_min` (Example 6.1): the minimum over member probabilities and the
/// similarities of all connected member pairs; `prob(t)` for singletons;
/// 0 for disconnected sets. Efficiently computable (Prop. 6.5).
#[derive(Debug, Clone)]
pub struct AMin<S> {
    sim: S,
    prob: ProbScores,
}

impl<S: Similarity> AMin<S> {
    /// Builds from a similarity and per-tuple probabilities.
    pub fn new(sim: S, prob: ProbScores) -> Self {
        AMin { sim, prob }
    }
}

impl<S: Similarity> ApproxJoin for AMin<S> {
    fn score(&self, db: &Database, members: &[TupleId]) -> f64 {
        self.score_with(db, &SimMemo::default(), members)
    }

    fn score_with(&self, db: &Database, memo: &SimMemo, members: &[TupleId]) -> f64 {
        if members.is_empty() || !members_connected(db, members) {
            return 0.0;
        }
        let mut m = members
            .iter()
            .map(|&t| self.prob.prob(t))
            .fold(f64::INFINITY, f64::min);
        for (i, &t1) in members.iter().enumerate() {
            for &t2 in &members[i + 1..] {
                if pair_connected(db, t1, t2) {
                    m = m.min(memo.sim(db, &self.sim, t1, t2));
                }
            }
        }
        m
    }

    /// Prop. 6.5's linear procedure, generalized to handle a same-relation
    /// member of `tb`: drop members that can never accompany `tb` (same
    /// relation, or connected with `sim < τ`), keep `tb`'s component. The
    /// result is the unique maximal subset, written to `buf`, or nothing
    /// when `A({tb}) < τ`.
    fn for_each_maximal_subset(
        &self,
        db: &Database,
        memo: &SimMemo,
        set: &TupleSet,
        tb: TupleId,
        tau: f64,
        buf: &mut Vec<TupleId>,
        stats: &mut Stats,
        f: &mut dyn FnMut(&[TupleId], &mut Stats),
    ) {
        stats.approx_evals += 1;
        if self.prob.prob(tb) < tau {
            return;
        }
        let rel_b = db.rel_of(tb);
        buf.clear();
        buf.extend(set.tuples().iter().copied().filter(|&t| {
            db.rel_of(t) != rel_b
                && (!pair_connected(db, t, tb) || {
                    stats.approx_evals += 1;
                    memo.sim(db, &self.sim, t, tb) >= tau
                })
        }));
        insert_member(buf, tb);
        retain_component(db, buf, rel_b);
        debug_assert!(self.score_with(db, memo, buf) >= tau);
        f(buf, stats);
    }

    /// `A_min({m, tb}) ≤ sim(m, tb)`, so the similarity's bound is one.
    fn candidates(
        &self,
        db: &Database,
        m: TupleId,
        rel: RelId,
        tau: f64,
        out: &mut Vec<TupleId>,
    ) -> bool {
        self.sim.candidates(db, m, rel, tau, out)
    }
}

/// `A_prod` (Example 6.1): the product of the similarities of all
/// connected member pairs; 1 for singletons; 0 for disconnected sets.
/// Not known to have a unique maximal subset (Example 6.3 exhibits two),
/// so line 8 uses a memoized removal search over subsets.
#[derive(Debug, Clone)]
pub struct AProd<S> {
    sim: S,
}

impl<S: Similarity> AProd<S> {
    /// Builds from a similarity.
    pub fn new(sim: S) -> Self {
        AProd { sim }
    }
}

impl<S: Similarity> ApproxJoin for AProd<S> {
    fn score(&self, db: &Database, members: &[TupleId]) -> f64 {
        self.score_with(db, &SimMemo::default(), members)
    }

    fn score_with(&self, db: &Database, memo: &SimMemo, members: &[TupleId]) -> f64 {
        if members.is_empty() || !members_connected(db, members) {
            return 0.0;
        }
        let mut p = 1.0;
        for (i, &t1) in members.iter().enumerate() {
            for &t2 in &members[i + 1..] {
                if pair_connected(db, t1, t2) {
                    p *= memo.sim(db, &self.sim, t1, t2);
                }
            }
        }
        p
    }

    /// A removal search from `tb`'s component of `T ∪ {tb}`; calls `f`
    /// once per maximal subset found.
    fn for_each_maximal_subset(
        &self,
        db: &Database,
        memo: &SimMemo,
        set: &TupleSet,
        tb: TupleId,
        tau: f64,
        _buf: &mut Vec<TupleId>,
        stats: &mut Stats,
        f: &mut dyn FnMut(&[TupleId], &mut Stats),
    ) {
        let rel_b = db.rel_of(tb);
        let mut members: Vec<TupleId> = set
            .tuples()
            .iter()
            .copied()
            .filter(|&t| db.rel_of(t) != rel_b)
            .collect();
        insert_member(&mut members, tb);
        retain_component(db, &mut members, rel_b);

        // Removal search: dropping a member can only raise the product
        // (similarities are ≤ 1), so sets that reach τ are frontier
        // candidates; recursion below them is pruned.
        let mut seen: FxHashSet<Box<[TupleId]>> = FxHashSet::default();
        let mut found: Vec<Vec<TupleId>> = Vec::new();
        let mut stack: Vec<Vec<TupleId>> = vec![members];
        while let Some(cand) = stack.pop() {
            if !seen.insert(cand.as_slice().into()) {
                continue;
            }
            stats.approx_evals += 1;
            if self.score_with(db, memo, &cand) >= tau {
                found.push(cand);
                continue;
            }
            if cand.len() <= 1 {
                continue;
            }
            for &t in &cand {
                if t == tb {
                    continue;
                }
                let mut shrunk: Vec<TupleId> = cand.iter().copied().filter(|&x| x != t).collect();
                retain_component(db, &mut shrunk, rel_b);
                stack.push(shrunk);
            }
        }
        // Keep only the maximal candidates.
        let mut out: Vec<Vec<TupleId>> = Vec::new();
        for cand in found {
            if out.iter().any(|kept| is_sorted_subset(&cand, kept)) {
                continue;
            }
            out.retain(|kept| !is_sorted_subset(kept, &cand));
            out.push(cand);
        }
        for t_prime in &out {
            f(t_prime, stats);
        }
    }

    /// `A_prod({m, tb}) = sim(m, tb)`, so the similarity's bound is one.
    fn candidates(
        &self,
        db: &Database,
        m: TupleId,
        rel: RelId,
        tau: f64,
        out: &mut Vec<TupleId>,
    ) -> bool {
        self.sim.candidates(db, m, rel, tau, out)
    }
}

/// Sorted `members` plus `t`, kept sorted.
fn insert_member(members: &mut Vec<TupleId>, t: TupleId) {
    let pos = members.partition_point(|&x| x < t);
    members.insert(pos, t);
}

/// A [`SimMemo`] table that would take more bytes than this is not
/// built; its lookups then compute.
const MEMO_TABLE_BYTES: usize = 8 << 20;

/// The most entries of type `T` a [`SimMemo`] table may hold.
fn memo_cap<T>() -> usize {
    MEMO_TABLE_BYTES / std::mem::size_of::<T>()
}

/// A pair slot no similarity has been stored in: a NaN pattern. A
/// similarity returning this very NaN is recomputed on every call.
const UNKNOWN: u64 = u64::MAX;

/// One run's memo of an approximate join function's similarity work,
/// built by the [`Approx`] policy over the run's database and dropped
/// with it. It holds two tables:
///
/// * the **pair table**: the exact `f64` value of `sim(t1, t2)` for
///   every pair of tuples of two distinct connected relations, one
///   lock-free slot each, filled on first use ([`sim`](Self::sim));
/// * the **candidate table**: line 7's bound for a (member, relation)
///   pair, the id list [`ApproxJoin::candidates`] appended or "cannot
///   bound, scan", computed once per run.
///
/// Parallel workers share one memo. A table over 8 MiB (2²⁰ pair
/// slots; 2¹⁸ candidate keys on 64-bit targets) is not built, and its
/// lookups compute directly; so does
/// [`SimMemo::default`], the memo of a call outside a run. The memo is
/// per run, not per join function: one [`AMin`] may score databases
/// whose equal tuple ids are different tuples.
#[derive(Default)]
pub struct SimMemo {
    /// Relations of the database.
    rels: usize,
    /// Rows of each relation (tombstones included): the pair table's
    /// strides.
    rows: Vec<usize>,
    /// The first slot of each connected relation pair `r1 < r2`'s block
    /// of `pairs`, at `r1 * rels + r2`; empty when the pair table is
    /// not built.
    blocks: Vec<Option<usize>>,
    /// `sim` bits by (row of `t1`, row of `t2`) within a block, or
    /// [`UNKNOWN`].
    pairs: Vec<AtomicU64>,
    /// Line 7's bound by `m * rels + rel`: `Some(ids)`, or `None` when
    /// the join function cannot bound it.
    candidates: Vec<OnceLock<Option<Vec<TupleId>>>>,
}

impl SimMemo {
    /// Both tables, sized for `db`, each left out above the size cap.
    pub(crate) fn new(db: &Database) -> Self {
        let rels = db.num_relations();
        let rows: Vec<usize> = (0..rels)
            .map(|r| db.relation(RelId(r as u16)).len())
            .collect();
        let mut blocks = vec![None; rels * rels];
        let mut slots = 0usize;
        for r1 in 0..rels {
            for r2 in r1 + 1..rels {
                if db.rels_connected(RelId(r1 as u16), RelId(r2 as u16)) {
                    blocks[r1 * rels + r2] = Some(slots);
                    slots = slots.saturating_add(rows[r1].saturating_mul(rows[r2]));
                }
            }
        }
        if slots > memo_cap::<AtomicU64>() {
            blocks = Vec::new();
            slots = 0;
        }
        let keys = (db.tuple_id_bound() as usize).saturating_mul(rels);
        let keys = if keys > memo_cap::<OnceLock<Option<Vec<TupleId>>>>() {
            0
        } else {
            keys
        };
        SimMemo {
            rels,
            rows,
            blocks,
            pairs: (0..slots).map(|_| AtomicU64::new(UNKNOWN)).collect(),
            candidates: (0..keys).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Slots of the pair table (0 when it is not built).
    fn pair_slots(&self) -> usize {
        self.pairs.len()
    }

    /// Keys of the candidate table (0 when it is not built).
    fn candidate_slots(&self) -> usize {
        self.candidates.len()
    }

    /// `s.sim(db, t1, t2)` for tuples of two connected relations, from
    /// the pair table when it holds the pair. `db` is the database the
    /// memo was built over, the one passed along with it; `s` is
    /// symmetric, so a pair is computed once whichever way round it is
    /// asked.
    pub fn sim<S: Similarity + ?Sized>(
        &self,
        db: &Database,
        s: &S,
        t1: TupleId,
        t2: TupleId,
    ) -> f64 {
        let (a, b) = (db.locate(t1), db.locate(t2));
        let ((r1, row1, t1), (r2, row2, t2)) = if a.0 <= b.0 {
            ((a.0, a.1, t1), (b.0, b.1, t2))
        } else {
            ((b.0, b.1, t2), (a.0, a.1, t1))
        };
        debug_assert!(
            self.blocks.is_empty()
                || (row1 < self.rows[r1.index()] && row2 < self.rows[r2.index()]),
            "a memo asked about another database"
        );
        let slot = self
            .blocks
            .get(r1.index() * self.rels + r2.index())
            .copied()
            .flatten()
            .and_then(|block| self.pairs.get(block + row1 * self.rows[r2.index()] + row2));
        let Some(slot) = slot else {
            return s.sim(db, t1, t2);
        };
        // Relaxed: a slot publishes nothing but its own value, and workers
        // racing on an empty slot store the same bits.
        let bits = slot.load(Ordering::Relaxed);
        if bits != UNKNOWN {
            return f64::from_bits(bits);
        }
        let v = s.sim(db, t1, t2);
        slot.store(v.to_bits(), Ordering::Relaxed);
        v
    }

    /// Line 7's bound for `m` and `rel`: appends the ids `bound` appends
    /// and returns what it returns. `bound` runs once per run and key;
    /// later lookups read the candidate table.
    fn candidates(
        &self,
        m: TupleId,
        rel: RelId,
        out: &mut Vec<TupleId>,
        bound: impl FnOnce(&mut Vec<TupleId>) -> bool,
    ) -> bool {
        let Some(slot) = self.candidates.get(m.index() * self.rels + rel.index()) else {
            return bound(out);
        };
        let ids = slot.get_or_init(|| {
            let mut ids = Vec::new();
            bound(&mut ids).then_some(ids)
        });
        match ids {
            Some(ids) => {
                out.extend_from_slice(ids);
                true
            }
            None => false,
        }
    }
}

impl fmt::Debug for SimMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimMemo")
            .field("pair_slots", &self.pair_slots())
            .field("candidate_slots", &self.candidate_slots())
            .finish()
    }
}

/// The approximate consistency policy `(A, τ)` of Figs. 5–6: a set is
/// consistent when it is structurally valid and `A(T) ≥ τ`. Members of
/// such a set may disagree on shared attributes, so nothing here relies
/// on bindings. Line 7 takes its candidates from
/// [`ApproxJoin::candidates`] when the join function bounds them (for
/// [`AMin`] and [`AProd`], when their similarity does), and so do
/// lines 2–6's extension and Fig. 3's seed growth; a relation the join
/// function cannot bound is scanned whole.
///
/// The policy is built over the run's database with one [`SimMemo`]:
/// every score reads pair similarities through it, and each
/// (member, relation) bound is probed once per run. Its borrowed form
/// ([`Policy::by_ref`]) shares the memo with parallel workers.
#[derive(Debug)]
pub struct Approx<A> {
    a: A,
    tau: f64,
    memo: Arc<SimMemo>,
}

impl<A: ApproxJoin> Approx<A> {
    pub(crate) fn new(db: &Database, a: A, tau: f64) -> Self {
        Approx {
            a,
            tau,
            memo: Arc::new(SimMemo::new(db)),
        }
    }

    /// Does the member list reach the threshold?
    fn accepts(&self, db: &Database, members: &[TupleId], stats: &mut Stats) -> bool {
        stats.approx_evals += 1;
        self.a.score_with(db, &self.memo, members) >= self.tau
    }
}

impl<A: ApproxJoin> Policy for Approx<A> {
    const OFFER_EVERY_ENTRY: bool = false;
    type Ref<'a>
        = Approx<&'a A>
    where
        A: 'a;

    fn by_ref(&self) -> Approx<&A> {
        Approx {
            a: &self.a,
            tau: self.tau,
            memo: Arc::clone(&self.memo),
        }
    }

    fn admits(&self, db: &Database, t: TupleId, stats: &mut Stats) -> bool {
        self.accepts(db, &[t], stats)
    }

    /// Fig. 6 lines 2–6: greedily extend while the score stays above τ,
    /// trying each relation's tuples within line 7's bound
    /// (`candidate_bound`), ascending, and scanning a relation the join
    /// function cannot bound. The bound loses no tuple the scan would
    /// pick: a connected `set ∪ {tg}` has a member `m` adjacent to `tg`,
    /// and `A` is antitone, so `A({m, tg}) ≥ A(set ∪ {tg}) ≥ τ` puts `tg`
    /// in `m`'s bound.
    fn extend(&self, db: &Database, set: TupleSet, rel_min: usize, stats: &mut Stats) -> TupleSet {
        extend_greedy(db, self, set, rel_min, stats, |set, rel, out| {
            candidate_bound(db, self, set.tuples(), rel, out) && {
                out.sort_unstable();
                out.dedup();
                true
            }
        })
    }

    /// The join function's bound ([`ApproxJoin::candidates`]), probed
    /// once per run and key.
    fn candidates(&self, db: &Database, m: TupleId, rel: RelId, out: &mut Vec<TupleId>) -> bool {
        self.memo.candidates(m, rel, out, |out| {
            self.a.candidates(db, m, rel, self.tau, out)
        })
    }

    /// Fig. 6 line 8: possibly several maximal subsets.
    fn for_each_subset(
        &self,
        db: &Database,
        set: &TupleSet,
        tb: TupleId,
        buf: &mut Vec<TupleId>,
        stats: &mut Stats,
        mut f: impl FnMut(&[TupleId], &mut Stats),
    ) {
        self.a
            .for_each_maximal_subset(db, &self.memo, set, tb, self.tau, buf, stats, &mut f)
    }

    /// Fig. 6 lines 4 and 14–15 analog: a structural union that stays
    /// above τ. Members must be relation-disjoint (shared tuples allowed)
    /// and the result connected.
    fn union(
        &self,
        db: &Database,
        s: &TupleSet,
        t_prime: &[TupleId],
        stats: &mut Stats,
    ) -> Option<Union> {
        // As `jcc::union_with`: `S` is consistent, so `T′ ⊆ S` is `S`
        // itself; a member of `T′ \ S` from a relation `S` holds is a
        // clash. Neither needs a score, and the member list is built only
        // when the union may grow `S`.
        let mut grows = false;
        for &t in t_prime {
            if s.contains(t) {
                continue;
            }
            if s.tuple_from(db, db.rel_of(t)).is_some() {
                return None;
            }
            grows = true;
        }
        if !grows {
            debug_assert!(self.a.score_with(db, &self.memo, s.tuples()) >= self.tau);
            return Some(Union::Same);
        }
        let mut members: Vec<TupleId> = s.tuples().iter().chain(t_prime).copied().collect();
        members.sort_unstable();
        members.dedup();
        let grown = members_connected(db, &members) && self.accepts(db, &members, stats);
        grown.then(|| Union::Grown(rebuild(db, members)))
    }
}

/// Streaming `APPROXINCREMENTALFD(R, i, A, τ)` (Fig. 5): the tuple sets
/// of `AFDi(R, A, τ)` — maximal sets with `A(T) ≥ τ` containing a tuple
/// from `Ri` — with incremental polynomial delay for efficiently
/// computable `A` (Theorem 6.6).
pub type ApproxFdIter<'db, A> = RunIter<'db, Approx<A>>;

/// Streaming `AFD(R, A, τ)`: the union of the `APPROXINCREMENTALFD` runs
/// over every `i ≤ n`, with exactly-once emission — the approximate
/// counterpart of [`FdIter`](crate::FdIter), and what the query builder's
/// `.approx(…)` streaming mode is backed by.
pub type ApproxAllIter<'db, A> = MultiRunIter<'db, Approx<A>>;

/// Streaming ranked `AFD(R, A, τ)`: yields `(tuple set, rank)` with the
/// highest ranks first; every yielded set satisfies `A(T) ≥ τ` and
/// together they form exactly the approximate full disjunction. Both
/// ingredients keep their own requirement: `f` must be monotonically
/// c-determined (Lemma 5.4's argument) and `A` acceptable and efficiently
/// computable (Theorem 6.6's).
pub type RankedApproxFdIter<'db, A, F> = RankedIter<'db, Approx<A>, F>;

impl<'db, A: ApproxJoin> ApproxFdIter<'db, A> {
    /// Initializes `Incomplete` with the singletons of `Ri` whose score
    /// reaches `τ` (Fig. 5 line 3*).
    ///
    /// The join function is taken by value; pass `&a` to keep using a
    /// borrowed one (references implement [`ApproxJoin`]).
    pub fn new(db: &'db Database, ri: RelId, a: A, tau: f64) -> Self {
        Self::with_config(db, ri, a, tau, FdConfig::default())
    }

    /// Like [`new`](Self::new) with an explicit execution configuration:
    /// `engine` selects the `Complete` store structure, `page_size`
    /// switches the candidate scans to block-based execution.
    pub fn with_config(db: &'db Database, ri: RelId, a: A, tau: f64, cfg: FdConfig) -> Self {
        Self::with_policy(db, ri, Approx::new(db, a, tau), cfg)
    }
}

impl<'db, A: ApproxJoin> ApproxAllIter<'db, A> {
    /// Builds the driver with default configuration.
    pub fn new(db: &'db Database, a: A, tau: f64) -> Self {
        Self::with_config(db, a, tau, FdConfig::default())
    }

    /// Builds the driver with an explicit execution configuration, passed
    /// to every per-relation run. The Section 7 reuse strategies are an
    /// exact-join refinement: every approximate run starts from
    /// singletons.
    pub fn with_config(db: &'db Database, a: A, tau: f64, cfg: FdConfig) -> Self {
        let cfg = FdConfig {
            init: InitStrategy::Singletons,
            ..cfg
        };
        Self::with_policy(db, Approx::new(db, a, tau), cfg)
    }
}

impl<'db, A: ApproxJoin, F: MonotoneCDetermined> RankedApproxFdIter<'db, A, F> {
    /// Builds the iterator: enumerates the acceptable sets of size ≤ c
    /// per relation, merges mergeable pairs, seeds the queues.
    ///
    /// Both functions are taken by value; pass `&a` / `&f` to keep using
    /// borrowed ones (references implement the traits).
    pub fn new(db: &'db Database, a: A, tau: f64, f: F) -> Self {
        Self::with_config(db, a, tau, f, FdConfig::default())
    }

    /// Like [`new`](Self::new) with an explicit execution configuration:
    /// `engine` selects the `Complete` store structure, `page_size`
    /// switches the candidate scans to block-based execution.
    pub fn with_config(db: &'db Database, a: A, tau: f64, f: F, cfg: FdConfig) -> Self {
        let n = db.num_relations();
        Self::for_policy(db, Approx::new(db, a, tau), f, cfg, 0..n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{EditDistanceSim, ExactSim, TableSim};
    use fd_relational::tourist_database;

    fn approx_full_disjunction<A: ApproxJoin>(db: &Database, a: &A, tau: f64) -> Vec<TupleSet> {
        ApproxAllIter::new(db, a, tau).collect()
    }

    const C1: TupleId = TupleId(0);
    const A2: TupleId = TupleId(4);
    const S1: TupleId = TupleId(6);
    const S2: TupleId = TupleId(7);

    /// Fig. 4 of the paper: the misspelled `c1 = (Cannada, diverse)` with
    /// explicit probabilities and pair similarities.
    fn figure_4() -> (fd_relational::Database, TableSim<ExactSim>, ProbScores) {
        let db = tourist_database();
        let mut sim = TableSim::new(ExactSim);
        // Edges of Fig. 4 (labels: c1, a2, s1, s2 as in the figure).
        sim.set(C1, A2, 0.8); // Cannada ≈ Canada
        sim.set(C1, S1, 0.8);
        sim.set(C1, S2, 0.8);
        sim.set(A2, S1, 1.0);
        sim.set(A2, S2, 0.5);
        let prob = ProbScores::from_fn(&db, |t| match t.0 {
            0 => 0.9, // c1
            4 => 1.0, // a2
            6 => 0.9, // s1
            7 => 0.7, // s2
            _ => 1.0,
        });
        (db, sim, prob)
    }

    #[test]
    fn example_6_1_amin_and_aprod_values() {
        let (db, sim, prob) = figure_4();
        // T1 = {c1, a2, s2}.
        let t1 = [C1, A2, S2];
        let amin = AMin::new(sim.clone(), prob);
        assert!(
            (amin.score(&db, &t1) - 0.5).abs() < 1e-12,
            "A_min(T1) = 0.5"
        );
        let aprod = AProd::new(sim);
        // A_prod(T1) = 0.8 * 0.8 * 0.5 = 0.32.
        assert!(
            (aprod.score(&db, &t1) - 0.32).abs() < 1e-12,
            "A_prod(T1) = 0.32"
        );
    }

    #[test]
    fn example_6_3_maximal_subsets() {
        let (db, sim, prob) = figure_4();
        let tau = 0.4;
        let mut stats = Stats::new();
        // T = {c1, s1, a2}, tb = s2.
        let t = crate::jcc::rebuild(&db, vec![C1, A2, S1]);

        let mut subsets = |a: &dyn ApproxJoin| {
            let mut subs: Vec<Vec<TupleId>> = Vec::new();
            a.for_each_maximal_subset(
                &db,
                &SimMemo::default(),
                &t,
                S2,
                tau,
                &mut Vec::new(),
                &mut stats,
                &mut |m, _| subs.push(m.to_vec()),
            );
            subs
        };

        // A_min: the unique maximal subset is {c1, s2, a2}.
        let amin = AMin::new(sim.clone(), prob);
        assert_eq!(subsets(&amin), vec![vec![C1, A2, S2]]);
        assert!(amin.score(&db, &[C1, A2, S2]) >= tau);

        // A_prod: {c1,s2,a2} scores 0.32 < τ; the two maximal subsets are
        // {c1, s2} and {s2, a2}.
        let aprod = AProd::new(sim);
        let mut subs = subsets(&aprod);
        subs.sort();
        assert_eq!(subs, vec![vec![C1, S2], vec![A2, S2]]);
    }

    #[test]
    fn exact_similarity_reduces_afd_to_fd() {
        let db = tourist_database();
        let amin = AMin::new(ExactSim, ProbScores::uniform(&db, 1.0));
        let mut afd: Vec<Vec<TupleId>> = approx_full_disjunction(&db, &amin, 0.99)
            .into_iter()
            .map(|s| s.tuples().to_vec())
            .collect();
        afd.sort();
        let mut fd: Vec<Vec<TupleId>> = crate::incremental::FdIter::new(&db)
            .map(|s| s.tuples().to_vec())
            .collect();
        fd.sort();
        assert_eq!(afd, fd);
    }

    #[test]
    fn lower_tau_merges_more() {
        let (db, sim, prob) = figure_4();
        let amin = AMin::new(sim, prob);
        // τ = 0.75: sims of 0.8 qualify, 0.5/0.7 do not.
        let strict = approx_full_disjunction(&db, &amin, 0.75);
        // τ = 0.4: everything in Fig. 4 qualifies.
        let loose = approx_full_disjunction(&db, &amin, 0.4);
        // Each strict result must be contained in some loose result
        // (antitone A: growing τ only shrinks sets).
        for s in &strict {
            assert!(
                loose.iter().any(|l| s.is_subset_of(l)),
                "{} not covered at looser τ",
                s.label(&db)
            );
        }
    }

    #[test]
    fn afd_results_respect_threshold_and_maximality() {
        let (db, sim, prob) = figure_4();
        let amin = AMin::new(sim, prob);
        let tau = 0.6;
        let afd = approx_full_disjunction(&db, &amin, tau);
        for s in &afd {
            assert!(amin.score(&db, s.tuples()) >= tau, "{}", s.label(&db));
        }
        for a in &afd {
            for b in &afd {
                if a.tuples() != b.tuples() {
                    assert!(!a.is_subset_of(b));
                }
            }
        }
    }

    #[test]
    fn low_probability_tuples_are_excluded_entirely() {
        let db = tourist_database();
        let prob = ProbScores::from_fn(&db, |t| if t.0 == 0 { 0.1 } else { 1.0 });
        let amin = AMin::new(ExactSim, prob);
        let afd = approx_full_disjunction(&db, &amin, 0.5);
        // c1 (prob 0.1) can appear in no result.
        assert!(afd.iter().all(|s| !s.contains(TupleId(0))));
    }

    /// The pair table covers the pairs of connected relations (all three
    /// tourist relations share `Country`: 3·3 + 3·4 + 3·4 slots), holds
    /// what the similarity computes whichever way round a pair is asked,
    /// and the candidate table has a key per (tuple, relation).
    #[test]
    fn memo_tables_cover_connected_pairs_and_store_exact_values() {
        let db = tourist_database();
        let memo = SimMemo::new(&db);
        assert_eq!(memo.pair_slots(), 33);
        assert_eq!(memo.candidate_slots(), 10 * 3);
        let tuples: Vec<TupleId> = db.all_tuples().collect();
        for _ in 0..2 {
            for &t1 in &tuples {
                for &t2 in &tuples {
                    if db.rel_of(t1) != db.rel_of(t2) {
                        let direct = EditDistanceSim.sim(&db, t1, t2);
                        assert_eq!(memo.sim(&db, &EditDistanceSim, t1, t2), direct);
                    }
                }
            }
        }
    }

    /// Above the size cap the pair table is left out and `sim` computes.
    #[test]
    fn memo_skips_a_pair_table_over_the_slot_cap() {
        let rows = 1025; // 1025² pair slots > 2²⁰
        let mut b = fd_relational::DatabaseBuilder::new();
        let mut r = b.relation("R", &["A"]);
        for i in 0..rows {
            r.row([i as i64]);
        }
        let mut s = b.relation("S", &["A"]);
        for i in 0..rows {
            s.row([i as i64 + 1]);
        }
        let db = b.build().unwrap();
        let memo = SimMemo::new(&db);
        assert_eq!(memo.pair_slots(), 0);
        assert_eq!(memo.candidate_slots(), 2 * rows * 2);
        let (t1, t2) = (TupleId(3), TupleId(rows as u32 + 3));
        let direct = EditDistanceSim.sim(&db, t1, t2);
        assert!(direct > 0.0 && direct < 1.0);
        assert_eq!(memo.sim(&db, &EditDistanceSim, t1, t2), direct);
    }

    /// Fig. 4 at τ 0.75 with `S = {c1, a2}` (`A_min` 0.8): the union
    /// scores only a `T′` that may grow `S`.
    fn figure_4_union(t_prime: &[TupleId]) -> (Option<Union>, u64) {
        let (db, sim, prob) = figure_4();
        let policy = Approx::new(&db, AMin::new(sim, prob), 0.75);
        let s = rebuild(&db, vec![C1, A2]);
        let mut stats = Stats::new();
        let union = policy.union(&db, &s, t_prime, &mut stats);
        (union, stats.approx_evals)
    }

    #[test]
    fn a_clashing_union_is_rejected_unscored() {
        // a1 and a3 are Accommodations tuples, as is `S`'s a2.
        assert_eq!(figure_4_union(&[TupleId(3)]), (None, 0));
        assert_eq!(figure_4_union(&[C1, TupleId(5)]), (None, 0));
    }

    #[test]
    fn a_union_inside_s_is_s_unscored() {
        assert_eq!(figure_4_union(&[C1]), (Some(Union::Same), 0));
        assert_eq!(figure_4_union(&[C1, A2]), (Some(Union::Same), 0));
        // A growing union is scored: {c1, a2, s1} has A_min 0.8.
        let (grown, evals) = figure_4_union(&[A2, S1]);
        assert!(matches!(grown, Some(Union::Grown(ref g)) if g.tuples() == [C1, A2, S1]));
        assert_eq!(evals, 1);
    }

    #[test]
    fn aprod_singletons_score_one() {
        let db = tourist_database();
        let aprod = AProd::new(ExactSim);
        assert_eq!(aprod.score(&db, &[TupleId(0)]), 1.0);
        assert_eq!(aprod.score(&db, &[]), 0.0);
    }
}
