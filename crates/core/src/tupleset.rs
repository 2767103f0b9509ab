//! The central data structure: tuple sets.
//!
//! The paper represents a tuple set as a linked list of `(relation,
//! attribute, value)` triples sorted by attribute (Section 4). We keep the
//! same sorted-by-attribute *bindings* — enabling the single-linear-pass
//! JCC checks of Theorem 4.8 — but factor the relation/tuple membership
//! into a separate sorted id list, which gives `O(log)` membership tests
//! and cheap canonical hashing for global deduplication.

use fd_relational::{AttrId, Database, RelId, TupleId, Value};
use std::fmt;

/// A set of tuples from distinct relations, with the merged attribute
/// bindings of all members.
///
/// **Binding semantics.** For every attribute appearing in any member's
/// schema there is exactly one binding `(attr, value, origin)`. A
/// non-null value means every member whose schema has the attribute
/// carries that value; `origin` is the first member that bound it. A
/// `Value::Null` binding means the *single* member `origin` holds `⊥`
/// there — a valid join-consistent set can never have two members sharing
/// a null attribute. The origin disambiguates unions: two sets sharing
/// the member `s2` may both bind `City = ⊥` via `s2`, which is no
/// conflict, whereas nulls from different tuples always are.
///
/// Invariants (maintained by the constructors in [`crate::jcc`]):
/// * `tuples` is sorted ascending (hence grouped by relation — tuple ids
///   are dense per relation);
/// * at most one tuple per relation;
/// * `bindings` is sorted by attribute id with no duplicate attributes.
///
/// Equality, hashing and ordering use the member list only: the bindings
/// are derived data (and their origins depend on construction order).
#[derive(Debug, Clone)]
pub struct TupleSet {
    tuples: Vec<TupleId>,
    bindings: Vec<(AttrId, Value, TupleId)>,
}

impl PartialEq for TupleSet {
    fn eq(&self, other: &Self) -> bool {
        self.tuples == other.tuples
    }
}

impl Eq for TupleSet {}

impl std::hash::Hash for TupleSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.tuples.hash(state);
    }
}

impl TupleSet {
    /// The singleton tuple set `{t}`. Built in linear time from the
    /// relation's pre-sorted attribute positions — the paper's bucket-sort
    /// remark in Section 4.
    pub fn singleton(db: &Database, t: TupleId) -> Self {
        let schema = db.tuple_schema(t);
        let values = db.tuple_values(t);
        let bindings = schema
            .columns_by_attr()
            .iter()
            .map(|&(a, col)| (a, values[col as usize].clone(), t))
            .collect();
        TupleSet {
            tuples: vec![t],
            bindings,
        }
    }

    /// Builds a tuple set from parts. `tuples` must be sorted and
    /// relation-distinct, `bindings` sorted by attribute; debug-asserted.
    pub(crate) fn from_parts(
        tuples: Vec<TupleId>,
        bindings: Vec<(AttrId, Value, TupleId)>,
    ) -> Self {
        debug_assert!(tuples.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(bindings.windows(2).all(|w| w[0].0 < w[1].0));
        TupleSet { tuples, bindings }
    }

    /// Member tuples, ascending.
    #[inline]
    pub fn tuples(&self) -> &[TupleId] {
        &self.tuples
    }

    /// Merged attribute bindings `(attr, value, origin)`, ascending by
    /// attribute. `origin` is the member that established the binding —
    /// meaningful for null bindings, where it is the unique member holding
    /// the attribute.
    #[inline]
    pub fn bindings(&self) -> &[(AttrId, Value, TupleId)] {
        &self.bindings
    }

    /// Number of member tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True for the (never valid as a result) empty set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Is `t` a member?
    #[inline]
    pub fn contains(&self, t: TupleId) -> bool {
        self.tuples.binary_search(&t).is_ok()
    }

    /// The member from relation `rel`, if any (see `member_from`).
    pub fn tuple_from(&self, db: &Database, rel: RelId) -> Option<TupleId> {
        member_from(db, &self.tuples, rel)
    }

    /// Does the set contain a tuple from any relation before `rel`
    /// (`R1..R_{i-1}` in the paper's duplicate-suppression rule for
    /// computing the full `FD` from the `FDi`)?
    pub fn has_tuple_before(&self, db: &Database, rel: RelId) -> bool {
        self.tuples.iter().any(|&t| db.rel_of(t) < rel)
    }

    /// Is this a subset of `other`? (See `is_sorted_subset`.)
    pub fn is_subset_of(&self, other: &TupleSet) -> bool {
        is_sorted_subset(&self.tuples, &other.tuples)
    }

    /// The binding for `attr`, if any member's schema has it.
    #[inline]
    pub fn binding(&self, attr: AttrId) -> Option<&Value> {
        self.bindings
            .binary_search_by_key(&attr, |&(a, _, _)| a)
            .ok()
            .map(|i| &self.bindings[i].1)
    }

    /// Total size of the set as the paper measures output size `f`:
    /// the number of `(relation, attribute, value)` triples.
    #[inline]
    pub fn total_size(&self) -> usize {
        self.bindings.len()
    }

    /// Renders as the paper prints tuple sets: `{c1, a2, s1}`.
    pub fn label(&self, db: &Database) -> String {
        members_label(db, &self.tuples)
    }
}

/// The member of relation `rel` in a sorted member list, if any.
/// Builder-time tuple ids are dense per relation, so the common case is
/// one binary search over the base band; dynamically inserted members
/// (ids above the base space) fall back to a short scan of the list's
/// tail.
pub(crate) fn member_from(db: &Database, members: &[TupleId], rel: RelId) -> Option<TupleId> {
    let range = db.base_tuples(rel);
    let idx = members.partition_point(|&t| t.0 < range.start);
    if let Some(&t) = members.get(idx) {
        if t.0 < range.end {
            return Some(t);
        }
    }
    let base = db.base_tuple_count();
    members
        .iter()
        .rev()
        .take_while(|t| t.0 >= base)
        .find(|&&t| db.rel_of(t) == rel)
        .copied()
}

/// Is the sorted member list `a` a subset of the sorted list `b`?
/// (Sorted-merge containment.)
pub(crate) fn is_sorted_subset(a: &[TupleId], b: &[TupleId]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut j = 0;
    for &t in a {
        loop {
            if j >= b.len() {
                return false;
            }
            match b[j].cmp(&t) {
                std::cmp::Ordering::Less => j += 1,
                std::cmp::Ordering::Equal => {
                    j += 1;
                    break;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
    }
    true
}

/// A member list as the paper prints tuple sets: `{c1, a2, s1}`.
pub(crate) fn members_label(db: &Database, members: &[TupleId]) -> String {
    let labels: Vec<String> = members.iter().map(|&t| db.tuple_label(t)).collect();
    format!("{{{}}}", labels.join(", "))
}

impl fmt::Display for TupleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.tuples.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

/// Orders tuple sets canonically (by member id lists) so result
/// collections can be sorted deterministically for comparison.
impl PartialOrd for TupleSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TupleSet {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.tuples.cmp(&other.tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_relational::tourist_database;

    #[test]
    fn singleton_bindings_are_sorted_by_attr() {
        let db = tourist_database();
        // a1 = (Canada, Toronto, Plaza, 4) over Country City Hotel Stars.
        let s = TupleSet::singleton(&db, TupleId(3));
        assert_eq!(s.len(), 1);
        assert_eq!(s.bindings().len(), 4);
        assert!(s.bindings().windows(2).all(|w| w[0].0 < w[1].0));
        let country = db.attr_id("Country").unwrap();
        assert_eq!(s.binding(country), Some(&Value::str("Canada")));
    }

    #[test]
    fn singleton_preserves_nulls_in_bindings() {
        let db = tourist_database();
        // a3 = (Bahamas, Nassau, Hilton, ⊥).
        let s = TupleSet::singleton(&db, TupleId(5));
        let stars = db.attr_id("Stars").unwrap();
        assert!(s.binding(stars).unwrap().is_null());
    }

    #[test]
    fn tuple_from_finds_relation_member() {
        let db = tourist_database();
        let s = TupleSet::from_parts(
            vec![TupleId(0), TupleId(4)],
            Vec::new(), // bindings unused in this test
        );
        assert_eq!(s.tuple_from(&db, RelId(0)), Some(TupleId(0)));
        assert_eq!(s.tuple_from(&db, RelId(1)), Some(TupleId(4)));
        assert_eq!(s.tuple_from(&db, RelId(2)), None);
    }

    #[test]
    fn has_tuple_before_detects_earlier_relations() {
        let db = tourist_database();
        let s = TupleSet::from_parts(vec![TupleId(4)], Vec::new()); // a2 ∈ R1 (0-based)
        assert!(s.has_tuple_before(&db, RelId(2)));
        assert!(!s.has_tuple_before(&db, RelId(1)));
        assert!(!s.has_tuple_before(&db, RelId(0)));
    }

    #[test]
    fn subset_checks() {
        let a = TupleSet::from_parts(vec![TupleId(1), TupleId(5)], Vec::new());
        let b = TupleSet::from_parts(vec![TupleId(1), TupleId(3), TupleId(5)], Vec::new());
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_subset_of(&a));
        let c = TupleSet::from_parts(vec![TupleId(2)], Vec::new());
        assert!(!c.is_subset_of(&b));
    }

    #[test]
    fn label_matches_paper_notation() {
        let db = tourist_database();
        let s = TupleSet::from_parts(vec![TupleId(0), TupleId(4), TupleId(6)], Vec::new());
        assert_eq!(s.label(&db), "{c1, a2, s1}");
    }

    #[test]
    fn canonical_ordering_is_by_member_ids() {
        let a = TupleSet::from_parts(vec![TupleId(0), TupleId(2)], Vec::new());
        let b = TupleSet::from_parts(vec![TupleId(0), TupleId(3)], Vec::new());
        assert!(a < b);
    }
}
