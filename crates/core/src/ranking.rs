//! Ranking functions over tuple sets (Section 5).
//!
//! Every tuple `t` carries an importance `imp(t)` ([`ImpScores`]). A
//! [`RankingFunction`] maps a tuple set to a score; the tractability
//! boundary of the top-k problem is the class of **monotonically
//! c-determined** functions (Definition in Section 5):
//!
//! * *c-determined*: for every tuple set `T` there is a connected
//!   `T′ ⊆ T` with `|T′| ≤ c` and `f(T′) = f(T)`;
//! * *monotone*: `T′ ⊆ T ⇒ f(T′) ≤ f(T)` for connected sets.
//!
//! [`FMax`] is monotonically 1-determined; [`FTriple`] reproduces the
//! paper's 3-determined example `max{imp(t1) + imp(t2)·imp(t3)}`;
//! [`FSum`] is *not* c-determined for any c — Proposition 5.1 shows its
//! top-1 problem is NP-hard, and the type system mirrors that boundary:
//! only [`MonotoneCDetermined`] implementors can drive
//! [`crate::RankedFdIter`].

use crate::tupleset::TupleSet;
use fd_relational::{Database, TupleId};

/// Importance assignment `imp(t)` for every tuple in the database.
///
/// Scores are indexed by tuple id over the database's full id space, so
/// the assignment stays valid under the tombstone-based mutation layer;
/// tuples inserted *after* construction default to importance `0.0`.
#[derive(Debug, Clone)]
pub struct ImpScores {
    scores: Vec<f64>,
    /// Importance of tuples inserted after construction.
    default: f64,
}

impl ImpScores {
    /// All tuples share the same importance — including tuples inserted
    /// later.
    pub fn uniform(db: &Database, value: f64) -> Self {
        ImpScores {
            scores: vec![value; db.tuple_id_bound() as usize],
            default: value,
        }
    }

    /// Computes `imp(t)` per tuple from a closure (called over the whole
    /// id space, including any tombstoned ids). Tuples inserted later
    /// default to importance `0.0`.
    pub fn from_fn(db: &Database, f: impl FnMut(TupleId) -> f64) -> Self {
        ImpScores {
            scores: (0..db.tuple_id_bound()).map(TupleId).map(f).collect(),
            default: 0.0,
        }
    }

    /// Builds from an explicit score vector (index = tuple id). Tuples
    /// inserted later default to importance `0.0`.
    ///
    /// # Panics
    /// Panics if the vector length does not match the tuple id space or
    /// any score is NaN.
    pub fn from_vec(db: &Database, scores: Vec<f64>) -> Self {
        assert_eq!(
            scores.len(),
            db.tuple_id_bound() as usize,
            "one score per tuple"
        );
        assert!(scores.iter().all(|s| !s.is_nan()), "scores must not be NaN");
        ImpScores {
            scores,
            default: 0.0,
        }
    }

    /// `imp(t)`; the constructor's documented default for tuples
    /// inserted after this assignment was built.
    #[inline]
    pub fn imp(&self, t: TupleId) -> f64 {
        self.scores.get(t.index()).copied().unwrap_or(self.default)
    }
}

/// The canonical ranked emission order shared by every ranked plan —
/// the sequential stream, the parallel plan's one sort of its collected
/// answers, and the live top-k window: rank descending, member ids ascending within equal ranks.
/// All cross-plan "output-identical" guarantees are stated against this
/// one comparator.
pub fn canonical_rank_order(
    a_rank: f64,
    a_set: &TupleSet,
    b_rank: f64,
    b_set: &TupleSet,
) -> std::cmp::Ordering {
    b_rank.total_cmp(&a_rank).then_with(|| a_set.cmp(b_set))
}

/// A ranking function `f` over tuple sets. Implementations must be
/// computable in polynomial time in `|T|` (the paper's standing
/// assumption).
pub trait RankingFunction {
    /// `f(T)`.
    fn rank(&self, db: &Database, set: &TupleSet) -> f64;
}

/// Marker for monotonically c-determined ranking functions — the class
/// for which `PRIORITYINCREMENTALFD` returns answers in ranking order
/// (Theorem 5.5). Implementing this trait is a semantic promise; the
/// property tests exercise it on the provided implementations.
pub trait MonotoneCDetermined: RankingFunction {
    /// The determining constant `c`.
    fn c(&self) -> usize;
}

// The enumeration drivers *own* their ranking function, so borrowing and
// boxing callers both work: `RankedFdIter::new(&db, &f)` instantiates
// `F = &FMax`, the query builder's dynamic path `F = Box<dyn
// MonotoneCDetermined>`.

impl<F: RankingFunction + ?Sized> RankingFunction for &F {
    fn rank(&self, db: &Database, set: &TupleSet) -> f64 {
        (**self).rank(db, set)
    }
}

impl<F: MonotoneCDetermined + ?Sized> MonotoneCDetermined for &F {
    fn c(&self) -> usize {
        (**self).c()
    }
}

impl<F: RankingFunction + ?Sized> RankingFunction for Box<F> {
    fn rank(&self, db: &Database, set: &TupleSet) -> f64 {
        (**self).rank(db, set)
    }
}

impl<F: MonotoneCDetermined + ?Sized> MonotoneCDetermined for Box<F> {
    fn c(&self) -> usize {
        (**self).c()
    }
}

/// `f_max(T) = max{imp(t) | t ∈ T}` — monotonically 1-determined.
#[derive(Debug, Clone)]
pub struct FMax<'a> {
    imp: &'a ImpScores,
}

impl<'a> FMax<'a> {
    /// Builds over an importance assignment.
    pub fn new(imp: &'a ImpScores) -> Self {
        FMax { imp }
    }
}

impl RankingFunction for FMax<'_> {
    fn rank(&self, _db: &Database, set: &TupleSet) -> f64 {
        set.tuples()
            .iter()
            .map(|&t| self.imp.imp(t))
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

impl MonotoneCDetermined for FMax<'_> {
    fn c(&self) -> usize {
        1
    }
}

/// `f_sum(T) = Σ imp(t)` — monotone (for non-negative importances) but
/// **not** c-determined; Proposition 5.1 proves its top-1 problem NP-hard.
/// Deliberately not [`MonotoneCDetermined`], so it cannot drive the
/// ranked iterator; the baseline crate's exhaustive search uses it.
#[derive(Debug, Clone)]
pub struct FSum<'a> {
    imp: &'a ImpScores,
}

impl<'a> FSum<'a> {
    /// Builds over an importance assignment.
    pub fn new(imp: &'a ImpScores) -> Self {
        FSum { imp }
    }
}

impl RankingFunction for FSum<'_> {
    fn rank(&self, _db: &Database, set: &TupleSet) -> f64 {
        set.tuples().iter().map(|&t| self.imp.imp(t)).sum()
    }
}

/// The paper's 3-determined example:
/// `f(T) = max{imp(t1) + imp(t2)·imp(t3) | t1,t2,t3 ∈ T, {t1,t2,t3}
/// connected}`. The maximizing tuples need not be distinct, so every
/// non-empty set has a score; with non-negative importances it is
/// monotone, hence monotonically 3-determined.
#[derive(Debug, Clone)]
pub struct FTriple<'a> {
    imp: &'a ImpScores,
}

impl<'a> FTriple<'a> {
    /// Builds over an importance assignment.
    pub fn new(imp: &'a ImpScores) -> Self {
        FTriple { imp }
    }
}

impl RankingFunction for FTriple<'_> {
    fn rank(&self, db: &Database, set: &TupleSet) -> f64 {
        let ts = set.tuples();
        let mut best = f64::NEG_INFINITY;
        for &t1 in ts {
            for &t2 in ts {
                for &t3 in ts {
                    if connected_triple(db, t1, t2, t3) {
                        let v = self.imp.imp(t1) + self.imp.imp(t2) * self.imp.imp(t3);
                        best = best.max(v);
                    }
                }
            }
        }
        best
    }
}

impl MonotoneCDetermined for FTriple<'_> {
    fn c(&self) -> usize {
        3
    }
}

/// Is the (de-duplicated) set `{t1, t2, t3}` connected as a tuple set —
/// do the relations of its members form a connected subgraph?
fn connected_triple(db: &Database, t1: TupleId, t2: TupleId, t3: TupleId) -> bool {
    let mut rels = vec![db.rel_of(t1), db.rel_of(t2), db.rel_of(t3)];
    rels.sort_unstable();
    rels.dedup();
    db.subset_connected(&rels)
}

/// `f(T) = max{imp(t1) + imp(t2) | t1,t2 ∈ T, {t1,t2} connected}` — a
/// monotonically 2-determined function, completing the c = 1/2/3 example
/// ladder. The maximizing pair may repeat a tuple (`t1 = t2`), so
/// singletons score `2·imp(t)`.
#[derive(Debug, Clone)]
pub struct FPairSum<'a> {
    imp: &'a ImpScores,
}

impl<'a> FPairSum<'a> {
    /// Builds over an importance assignment.
    pub fn new(imp: &'a ImpScores) -> Self {
        FPairSum { imp }
    }
}

impl RankingFunction for FPairSum<'_> {
    fn rank(&self, db: &Database, set: &TupleSet) -> f64 {
        let ts = set.tuples();
        let mut best = f64::NEG_INFINITY;
        for &t1 in ts {
            best = best.max(2.0 * self.imp.imp(t1));
            for &t2 in ts {
                if t1 < t2 && db.rels_connected(db.rel_of(t1), db.rel_of(t2)) {
                    best = best.max(self.imp.imp(t1) + self.imp.imp(t2));
                }
            }
        }
        best
    }
}

impl MonotoneCDetermined for FPairSum<'_> {
    fn c(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jcc::rebuild;
    use fd_relational::tourist_database;

    fn imp_by_id(db: &Database) -> ImpScores {
        ImpScores::from_fn(db, |t| t.0 as f64)
    }

    #[test]
    fn fmax_is_the_maximum_importance() {
        let db = tourist_database();
        let imp = imp_by_id(&db);
        let f = FMax::new(&imp);
        let set = rebuild(&db, vec![TupleId(0), TupleId(4), TupleId(6)]);
        assert_eq!(f.rank(&db, &set), 6.0);
        assert_eq!(f.c(), 1);
    }

    #[test]
    fn fsum_adds_importances() {
        let db = tourist_database();
        let imp = imp_by_id(&db);
        let f = FSum::new(&imp);
        let set = rebuild(&db, vec![TupleId(0), TupleId(4), TupleId(6)]);
        assert_eq!(f.rank(&db, &set), 10.0);
    }

    #[test]
    fn ftriple_on_singleton_uses_repeats() {
        let db = tourist_database();
        let imp = ImpScores::uniform(&db, 2.0);
        let f = FTriple::new(&imp);
        let set = TupleSet::singleton(&db, TupleId(0));
        // t1 = t2 = t3: 2 + 2*2 = 6.
        assert_eq!(f.rank(&db, &set), 6.0);
        assert_eq!(f.c(), 3);
    }

    #[test]
    fn ftriple_is_monotone_on_nonnegative_scores() {
        let db = tourist_database();
        let imp = imp_by_id(&db);
        let f = FTriple::new(&imp);
        let small = rebuild(&db, vec![TupleId(0), TupleId(4)]);
        let large = rebuild(&db, vec![TupleId(0), TupleId(4), TupleId(6)]);
        assert!(f.rank(&db, &small) <= f.rank(&db, &large));
    }

    #[test]
    fn monotonicity_of_fmax_on_chains() {
        let db = tourist_database();
        let imp = imp_by_id(&db);
        let f = FMax::new(&imp);
        let small = TupleSet::singleton(&db, TupleId(0));
        let large = rebuild(&db, vec![TupleId(0), TupleId(3)]);
        assert!(f.rank(&db, &small) <= f.rank(&db, &large));
    }

    #[test]
    #[should_panic(expected = "one score per tuple")]
    fn from_vec_validates_length() {
        let db = tourist_database();
        let _ = ImpScores::from_vec(&db, vec![1.0; 3]);
    }

    #[test]
    fn fpairsum_prefers_the_best_connected_pair() {
        let db = tourist_database();
        let imp = imp_by_id(&db);
        let f = FPairSum::new(&imp);
        // {c1, a2, s1}: pairs (c1,a2)=4, (c1,s1)=6, (a2,s1)=10, repeats
        // 2·6=12 ⇒ max is 12 (s1 twice).
        let set = rebuild(&db, vec![TupleId(0), TupleId(4), TupleId(6)]);
        assert_eq!(f.rank(&db, &set), 12.0);
        assert_eq!(f.c(), 2);
        // Singleton uses the repeat rule.
        let single = TupleSet::singleton(&db, TupleId(4));
        assert_eq!(f.rank(&db, &single), 8.0);
    }

    #[test]
    fn fpairsum_is_monotone_on_nonnegative_scores() {
        let db = tourist_database();
        let imp = imp_by_id(&db);
        let f = FPairSum::new(&imp);
        let small = rebuild(&db, vec![TupleId(0), TupleId(4)]);
        let large = rebuild(&db, vec![TupleId(0), TupleId(4), TupleId(6)]);
        assert!(f.rank(&db, &small) <= f.rank(&db, &large));
    }
}
