//! Join consistency and connectivity (the paper's `JCC` predicate) and the
//! three primitive operations of `GETNEXTRESULT`:
//!
//! * [`can_add`] / [`add_tuple`] — grow a tuple set by one tuple (the
//!   maximal-extension loop, Fig. 2 lines 2–6);
//! * [`maximal_subset_into`] — footnote 3's unique maximal subset
//!   `T′ ⊆ T ∪ {tb}` that contains `tb` (Fig. 2 line 8), as a sorted
//!   member list in a reused buffer;
//! * [`union_with`] — the single-linear-pass `JCC(S ∪ T′)` test of
//!   Theorem 4.8 plus the actual merge (Fig. 2 lines 14–15), taking
//!   `T′` as that member list.
//!
//! `T′` stays a member list through lines 10–14; a [`TupleSet`] (with its
//! bindings) is built only for a merge that grows an entry (line 14) or
//! a new `Incomplete` entry (line 18), each once. [`maximal_subset_with`] and
//! [`try_union`] are the same operations on whole tuple sets.
//!
//! All predicates implement the paper's null semantics: a shared attribute
//! is consistent only when both sides are equal **and non-null**.

use crate::stats::Stats;
use crate::tupleset::TupleSet;
use fd_relational::{AttrId, Database, RelId, TupleId, Value};

/// Are two *tuples* join consistent — equal and non-null on every shared
/// attribute of their relations' schemas? Tuples of the same relation are
/// never combinable (a tuple set holds at most one tuple per relation), so
/// the caller must handle that case; this function only inspects values.
pub fn tuples_join_consistent(db: &Database, t1: TupleId, t2: TupleId) -> bool {
    let (r1, r2) = (db.rel_of(t1), db.rel_of(t2));
    db.shared_attrs(r1, r2).iter().all(|&a| {
        let v1 = db.tuple_value(t1, a).expect("shared attr in schema");
        let v2 = db.tuple_value(t2, a).expect("shared attr in schema");
        v1.join_consistent_with(v2)
    })
}

/// One merge pass of a non-member tuple `t` against a set's sorted
/// `bindings`: `None` when some attribute both bind is not equal and
/// non-null on both sides (a null binding always conflicts here, since
/// `t` is not its origin), else whether any attribute of `t` is bound.
fn agrees_with(db: &Database, bindings: &[(AttrId, Value, TupleId)], t: TupleId) -> Option<bool> {
    let values = db.tuple_values(t);
    let mut shared = false;
    let mut bi = bindings.iter().peekable();
    for &(attr, col) in db.tuple_schema(t).columns_by_attr() {
        // Advance set bindings to `attr`.
        while matches!(bi.peek(), Some(&&(a, _, _)) if a < attr) {
            bi.next();
        }
        if let Some(&&(a, ref bound, _)) = bi.peek() {
            if a == attr {
                if !bound.join_consistent_with(&values[col as usize]) {
                    return None;
                }
                shared = true;
            }
        }
    }
    Some(shared)
}

/// Can tuple `t` be added to `set` while keeping it join consistent and
/// connected (`JCC(T ∪ {t})`, Fig. 2 line 4)?
///
/// For a valid non-empty `set` this checks:
/// 1. `t`'s relation is not already represented (sets hold one tuple per
///    relation);
/// 2. every attribute of `t` that some member also has is equal & non-null
///    on both sides — one merge pass over the sorted bindings;
/// 3. `t`'s relation shares an attribute with some member relation
///    (connectivity is preserved because `set` is itself connected).
pub fn can_add(db: &Database, set: &TupleSet, t: TupleId, stats: &mut Stats) -> bool {
    stats.jcc_checks += 1;
    if set.is_empty() {
        return true;
    }
    let rel = db.rel_of(t);
    if set.tuple_from(db, rel).is_some() {
        return false;
    }
    // Connectivity first (cheap: relation-graph adjacency, no allocation).
    if !set
        .tuples()
        .iter()
        .any(|&m| db.rels_connected(db.rel_of(m), rel))
    {
        return false;
    }
    agrees_with(db, set.bindings(), t).is_some()
}

/// Adds tuple `t` to `set`, assuming [`can_add`] approved it. Returns the
/// grown set; merging the sorted binding lists is linear.
pub fn add_tuple(db: &Database, set: &TupleSet, t: TupleId) -> TupleSet {
    let mut tuples = Vec::with_capacity(set.len() + 1);
    tuples.extend_from_slice(set.tuples());
    let pos = tuples.partition_point(|&x| x < t);
    tuples.insert(pos, t);

    let schema = db.tuple_schema(t);
    let values = db.tuple_values(t);
    let new_bindings = schema.columns_by_attr();
    let mut merged = Vec::with_capacity(set.bindings().len() + new_bindings.len());
    let old = set.bindings();
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new_bindings.len() {
        if j >= new_bindings.len() {
            merged.push(old[i].clone());
            i += 1;
        } else if i >= old.len() {
            let (a, col) = new_bindings[j];
            merged.push((a, values[col as usize].clone(), t));
            j += 1;
        } else {
            let (a_new, col) = new_bindings[j];
            match old[i].0.cmp(&a_new) {
                std::cmp::Ordering::Less => {
                    merged.push(old[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push((a_new, values[col as usize].clone(), t));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    // Shared attribute: values are equal non-null by
                    // `can_add`; keep the existing binding.
                    merged.push(old[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    TupleSet::from_parts(tuples, merged)
}

/// A consistent union `S ∪ T′` (Fig. 2 lines 14–15).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Union {
    /// `T′ ⊆ S`: the union is `S` itself.
    Same,
    /// The union, a strict superset of `S`.
    Grown(TupleSet),
}

/// `JCC(S ∪ T′)` plus the union itself (Fig. 2 lines 14–15), for a valid
/// set `S` and the sorted member list of a valid `T′`. Returns `None`
/// when the union is not a join-consistent connected tuple set.
///
/// Implements the single-pass criterion of Theorem 4.8 on the members of
/// `T′` outside `S`: none may share a relation with `S`, each must agree
/// with `S`'s bindings (equal and non-null on every attribute both bind),
/// and the parts must touch — share a member, or bind a common attribute.
/// Members `S` already holds agree with it by construction. Nothing is
/// allocated unless the union grows `S`.
pub fn union_with(
    db: &Database,
    s: &TupleSet,
    t_prime: &[TupleId],
    stats: &mut Stats,
) -> Option<Union> {
    stats.jcc_checks += 1;
    let mut touches = false;
    // Members and bindings the union adds.
    let (mut added, mut added_bindings) = (0, 0);
    for &m in t_prime {
        if s.contains(m) {
            touches = true;
            continue;
        }
        if s.tuple_from(db, db.rel_of(m)).is_some() {
            return None;
        }
        touches |= agrees_with(db, s.bindings(), m)?;
        added += 1;
        added_bindings += db.tuple_schema(m).columns_by_attr().len();
    }
    if !touches {
        return None;
    }
    if added == 0 {
        return Some(Union::Same);
    }
    let mut tuples = Vec::with_capacity(s.len() + added);
    tuples.extend_from_slice(s.tuples());
    let mut bindings = Vec::with_capacity(s.bindings().len() + added_bindings);
    bindings.extend_from_slice(s.bindings());
    for &m in t_prime {
        if let Err(pos) = tuples.binary_search(&m) {
            tuples.insert(pos, m);
            push_bindings(db, m, &mut bindings);
        }
    }
    // Stable: on a shared attribute `S`'s binding stays, as the fold of
    // `add_tuple`s would keep it.
    bindings.sort_by_key(|b| b.0);
    bindings.dedup_by_key(|b| b.0);
    Some(Union::Grown(TupleSet::from_parts(tuples, bindings)))
}

/// [`union_with`] of two tuple sets, as a tuple set.
pub fn try_union(db: &Database, a: &TupleSet, b: &TupleSet, stats: &mut Stats) -> Option<TupleSet> {
    union_with(db, a, b.tuples(), stats).map(|u| match u {
        Union::Same => a.clone(),
        Union::Grown(set) => set,
    })
}

/// Appends `t`'s `(attr, value, t)` bindings, ascending by attribute.
fn push_bindings(db: &Database, t: TupleId, out: &mut Vec<(AttrId, Value, TupleId)>) {
    let values = db.tuple_values(t);
    out.extend(
        db.tuple_schema(t)
            .columns_by_attr()
            .iter()
            .map(|&(a, col)| (a, values[col as usize].clone(), t)),
    );
}

/// Footnote 3 / Fig. 2 line 8: writes to `out` the sorted member list of
/// the unique maximal subset `T′` of `T ∪ {tb}` that contains `tb` and
/// is join consistent and connected.
///
/// Procedure (as in the paper): drop every member of `T` that is not
/// pairwise join consistent with `tb` (members of `tb`'s own relation
/// drop automatically), then keep the connected component of `tb`'s
/// relation among the survivors. Each member is tested once, and `out`
/// is the only storage touched.
pub fn maximal_subset_into(
    db: &Database,
    set: &TupleSet,
    tb: TupleId,
    stats: &mut Stats,
    out: &mut Vec<TupleId>,
) {
    stats.subset_computations += 1;
    let rel_b = db.rel_of(tb);
    out.clear();
    // Does a survivor's relation share an attribute with tb's?
    let mut attached = false;
    for &t in set.tuples() {
        stats.jcc_checks += 1;
        let rel = db.rel_of(t);
        if rel != rel_b && tuples_join_consistent(db, t, tb) {
            out.push(t);
            attached |= db.rels_connected(rel, rel_b);
        }
    }
    // Fast paths covering the overwhelmingly common candidate outcomes:
    // no survivor touches tb (T′ = {tb}), or everything survives and tb
    // attaches to the — already connected — set (T′ = T ∪ {tb}).
    if !attached {
        out.clear();
        out.push(tb);
        return;
    }
    let all_survive = out.len() == set.len();
    let pos = out.partition_point(|&x| x < tb);
    out.insert(pos, tb);
    if !all_survive {
        // General path: tb's component among the survivors (O(n²)
        // auxiliary-graph search, Theorem 4.8).
        retain_component(db, out, rel_b);
    }
}

/// [`maximal_subset_into`], built as a tuple set.
pub fn maximal_subset_with(
    db: &Database,
    set: &TupleSet,
    tb: TupleId,
    stats: &mut Stats,
) -> TupleSet {
    let mut members = Vec::with_capacity(set.len() + 1);
    maximal_subset_into(db, set, tb, stats, &mut members);
    rebuild(db, members)
}

/// Keeps the members whose relations lie in `anchor`'s connected
/// component of the members' relations (Theorem 4.8's auxiliary graph;
/// `anchor` need not hold a member). Member relations must be distinct;
/// sorted members stay sorted. Works in place, allocating nothing.
pub(crate) fn retain_component(db: &Database, members: &mut Vec<TupleId>, anchor: RelId) {
    // `members[..reached]` is the component found so far; everything
    // after it is still unreached.
    let mut reached = 0;
    for j in 0..members.len() {
        let rel = db.rel_of(members[j]);
        if rel == anchor || db.rels_connected(anchor, rel) {
            members.swap(reached, j);
            reached += 1;
        }
    }
    let mut next = 0;
    while next < reached {
        let rel = db.rel_of(members[next]);
        let unreached = reached;
        for j in unreached..members.len() {
            if db.rels_connected(rel, db.rel_of(members[j])) {
                members.swap(reached, j);
                reached += 1;
            }
        }
        next += 1;
    }
    members.truncate(reached);
    members.sort_unstable();
}

/// Builds a [`TupleSet`] from sorted, relation-distinct member tuples that
/// are already known to be mutually join consistent, in one pass: every
/// member's bindings, stably sorted by attribute, the first of each
/// attribute kept (so its origin is the smallest member holding it).
pub fn rebuild(db: &Database, tuples: Vec<TupleId>) -> TupleSet {
    let mut bindings = Vec::with_capacity(
        tuples
            .iter()
            .map(|&t| db.tuple_schema(t).columns_by_attr().len())
            .sum(),
    );
    for &t in &tuples {
        push_bindings(db, t, &mut bindings);
    }
    bindings.sort_by_key(|b| b.0);
    bindings.dedup_by_key(|b| b.0);
    TupleSet::from_parts(tuples, bindings)
}

/// Full `JCC` validation of an arbitrary candidate set — used by tests,
/// the brute-force oracle, and property checks rather than the hot path.
/// Checks all pairs for join consistency, one-tuple-per-relation, and
/// connectivity of the member relations.
pub fn is_jcc(db: &Database, tuples: &[TupleId]) -> bool {
    if tuples.is_empty() {
        return false;
    }
    for (i, &t1) in tuples.iter().enumerate() {
        for &t2 in &tuples[i + 1..] {
            if db.rel_of(t1) == db.rel_of(t2) || !tuples_join_consistent(db, t1, t2) {
                return false;
            }
        }
    }
    let mut rels: Vec<RelId> = tuples.iter().map(|&t| db.rel_of(t)).collect();
    rels.sort_unstable();
    rels.dedup();
    db.subset_connected(&rels)
}

/// The maximal-extension loop of Fig. 2 lines 2–6: repeatedly add any
/// tuple `tg ∉ T` with `JCC(T ∪ {tg})` until a fixpoint.
///
/// Tuples are scanned in global id order (relation order, then row order),
/// matching the paper's trace in Table 3. The loop re-scans until no tuple
/// is added: a pass can newly connect a relation whose tuples were
/// rejected earlier, so up to `n` passes may be needed (`O(s·n)` total,
/// Theorem 4.8).
pub fn extend_to_maximal(db: &Database, set: TupleSet, stats: &mut Stats) -> TupleSet {
    extend_to_maximal_from(db, set, 0, stats)
}

/// [`extend_to_maximal`] restricted to candidate tuples from relations
/// with index `≥ rel_min` — Section 7's "iterate only over tuples in
/// `R_{i+1}, …, R_n`" refinement for the repeated-work-minimizing
/// initialization strategies.
///
/// Candidates come from [`Database::probe`] rather than a relation scan:
/// a connected relation always shares at least one attribute with some
/// member's schema, and every member-schema attribute is bound, so the
/// probe intersects posting lists on those bindings and yields — in
/// ascending id order, the same first-match order as the scan it
/// replaces — exactly the tuples agreeing with the set on every shared
/// attribute. [`can_add`] stays as the authoritative `JCC` check on each
/// candidate (it also keeps the operation counts meaningful).
pub fn extend_to_maximal_from(
    db: &Database,
    set: TupleSet,
    rel_min: usize,
    stats: &mut Stats,
) -> TupleSet {
    extend_greedy(
        db,
        set,
        rel_min,
        stats,
        |set, rel, out| {
            db.probe(rel, set.bindings(), out);
            true
        },
        |set, t, stats| can_add(db, set, t, stats).then(|| add_tuple(db, set, t)),
    )
}

/// The greedy fixpoint behind both policies' extensions: for each
/// relation `≥ rel_min` not yet represented but connected to the set,
/// add the first candidate that `grow` accepts (one tuple per relation),
/// and repeat passes until one adds nothing. `candidates` appends a
/// relation's candidates to a reused buffer, ascending, and returns
/// `true`; returning `false` scans the relation instead.
pub(crate) fn extend_greedy(
    db: &Database,
    mut set: TupleSet,
    rel_min: usize,
    stats: &mut Stats,
    mut candidates: impl FnMut(&TupleSet, RelId, &mut Vec<TupleId>) -> bool,
    mut grow: impl FnMut(&TupleSet, TupleId, &mut Stats) -> Option<TupleSet>,
) -> TupleSet {
    let mut buf = Vec::new();
    loop {
        stats.extension_passes += 1;
        let mut grew = false;
        for rel_idx in rel_min..db.num_relations() {
            let rel = RelId(rel_idx as u16);
            // Skip relations already represented or unreachable from the
            // current set (footnote 5's refinement).
            if set.tuple_from(db, rel).is_some()
                || !set
                    .tuples()
                    .iter()
                    .any(|&m| db.rels_connected(db.rel_of(m), rel))
            {
                continue;
            }
            buf.clear();
            let probed = candidates(&set, rel, &mut buf);
            let mut try_grow = |t| {
                stats.extension_scans += 1;
                grow(&set, t, stats)
            };
            let grown = if probed {
                buf.iter().find_map(|&t| try_grow(t))
            } else {
                db.tuples_of(rel).find_map(try_grow)
            };
            if let Some(grown) = grown {
                set = grown;
                grew = true; // one tuple per relation; move on.
            }
        }
        if !grew {
            return set;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_relational::{tourist_database, Value};

    // Tourist tuple ids: c1..c3 = 0..2, a1..a3 = 3..5, s1..s4 = 6..9.
    const C1: TupleId = TupleId(0);
    const C2: TupleId = TupleId(1);
    const C3: TupleId = TupleId(2);
    const A1: TupleId = TupleId(3);
    const A2: TupleId = TupleId(4);
    const A3: TupleId = TupleId(5);
    const S1: TupleId = TupleId(6);
    const S2: TupleId = TupleId(7);

    /// Overflow ids from dynamic inserts do not group by relation, so
    /// the one-tuple-per-relation test must not rely on id adjacency:
    /// here two relation-A tuples are separated by a relation-B id.
    #[test]
    fn try_union_rejects_same_relation_members_with_interleaved_ids() {
        let mut b = fd_relational::DatabaseBuilder::new();
        b.relation("A", &["X", "Y"]).row([1, 2]);
        b.relation("B", &["X", "Z"]).row([1, 7]);
        let mut db = b.build().unwrap();
        let a1 = db.insert_tuple(RelId(0), vec![1.into(), 2.into()]).unwrap();
        let b1 = db.insert_tuple(RelId(1), vec![1.into(), 7.into()]).unwrap();
        let a2 = db.insert_tuple(RelId(0), vec![1.into(), 2.into()]).unwrap();
        assert!(a1 < b1 && b1 < a2, "ids interleave the relations");

        let mut stats = Stats::new();
        let left = rebuild(&db, vec![a1, b1]);
        let right = rebuild(&db, vec![b1, a2]);
        // a1 and a2 bind identical values, so only the relation test can
        // reject the union — and it must.
        assert!(try_union(&db, &left, &right, &mut stats).is_none());
    }

    /// The component step of line 8, anchored at a relation with or
    /// without a member (the A–B–C chain, D apart).
    #[test]
    fn member_component_anchored() {
        let mut b = fd_relational::DatabaseBuilder::new();
        b.relation("A", &["x"]).row([1]);
        b.relation("B", &["x", "y"]).row([1, 2]);
        b.relation("C", &["y"]).row([2]);
        b.relation("D", &["z"]).row([3]);
        let db = b.build().unwrap();
        let (a, bb, c, d) = (TupleId(0), TupleId(1), TupleId(2), TupleId(3));
        let component = |members: &[TupleId], anchor: u16| {
            let mut members = members.to_vec();
            retain_component(&db, &mut members, RelId(anchor));
            members
        };
        // Among {A, C, D} anchored at A: only A (C not directly connected).
        assert_eq!(component(&[a, c, d], 0), vec![a]);
        // Among {A, B, C} anchored at C: all three, still sorted.
        assert_eq!(component(&[a, bb, c], 2), vec![a, bb, c]);
        // Anchored at B, which holds no member: A and C attach through it.
        assert_eq!(component(&[a, c, d], 1), vec![a, c]);
    }

    #[test]
    fn pairwise_consistency_follows_paper_examples() {
        let db = tourist_database();
        assert!(tuples_join_consistent(&db, C1, A1)); // Canada = Canada
        assert!(tuples_join_consistent(&db, C1, S2)); // share only Country
        assert!(!tuples_join_consistent(&db, C1, A3)); // Canada ≠ Bahamas
                                                       // s2 has City = ⊥, Accommodations has City ⇒ never consistent.
        assert!(!tuples_join_consistent(&db, A1, S2));
        assert!(!tuples_join_consistent(&db, A2, S2));
        // a2 (London) and s1 (London) agree on Country and City.
        assert!(tuples_join_consistent(&db, A2, S1));
        assert!(!tuples_join_consistent(&db, A1, S1)); // Toronto ≠ London
    }

    #[test]
    fn can_add_enforces_relation_uniqueness() {
        let db = tourist_database();
        let mut stats = Stats::new();
        let set = TupleSet::singleton(&db, C1);
        assert!(!can_add(&db, &set, C2, &mut stats));
        assert!(can_add(&db, &set, A1, &mut stats));
    }

    #[test]
    fn can_add_checks_all_members_not_just_bindings_of_one() {
        let db = tourist_database();
        let mut stats = Stats::new();
        let set = rebuild(&db, vec![C1, A1]); // Canada, Toronto
                                              // s1 is Canada/London: conflicts with a1's Toronto via City.
        assert!(!can_add(&db, &set, S1, &mut stats));
        // s2 has City ⊥, conflicting with a1 having City bound.
        assert!(!can_add(&db, &set, S2, &mut stats));
    }

    #[test]
    fn add_tuple_merges_bindings() {
        let db = tourist_database();
        let set = rebuild(&db, vec![C1, A2]);
        assert_eq!(set.len(), 2);
        let climate = db.attr_id("Climate").unwrap();
        let hotel = db.attr_id("Hotel").unwrap();
        let country = db.attr_id("Country").unwrap();
        assert_eq!(set.binding(climate), Some(&Value::str("diverse")));
        assert_eq!(set.binding(hotel), Some(&Value::str("Ramada")));
        assert_eq!(set.binding(country), Some(&Value::str("Canada")));
        // 2 + 4 schemas attrs, 1 shared (Country): 5 bindings.
        assert_eq!(set.bindings().len(), 5);
    }

    #[test]
    fn try_union_requires_shared_structure() {
        let db = tourist_database();
        let mut stats = Stats::new();
        let ca = rebuild(&db, vec![C1, A2]);
        let cs = rebuild(&db, vec![C1, S1]);
        // {c1,a2} ∪ {c1,s1} = {c1,a2,s1}: the Example 4.1 merge.
        let u = try_union(&db, &ca, &cs, &mut stats).expect("merge succeeds");
        assert_eq!(u.tuples(), &[C1, A2, S1]);

        // {c1,s1} vs {c1,s2}: two Sites tuples ⇒ invalid.
        let cs2 = rebuild(&db, vec![C1, S2]);
        assert!(try_union(&db, &cs, &cs2, &mut stats).is_none());

        // {c2} vs {c1,s2}: two Climates tuples ⇒ invalid.
        let c2 = TupleSet::singleton(&db, C2);
        assert!(try_union(&db, &c2, &cs2, &mut stats).is_none());
    }

    #[test]
    fn try_union_rejects_value_conflicts() {
        let db = tourist_database();
        let mut stats = Stats::new();
        let a1 = TupleSet::singleton(&db, A1); // Toronto
        let s1 = TupleSet::singleton(&db, S1); // London
        assert!(try_union(&db, &a1, &s1, &mut stats).is_none());
    }

    #[test]
    fn try_union_rejects_disconnected_parts() {
        // Build a database where two relations share no attributes.
        let mut b = fd_relational::DatabaseBuilder::new();
        b.relation("P", &["A"]).row([1]);
        b.relation("Q", &["B"]).row([2]);
        let db = b.build().unwrap();
        let mut stats = Stats::new();
        let p = TupleSet::singleton(&db, TupleId(0));
        let q = TupleSet::singleton(&db, TupleId(1));
        assert!(try_union(&db, &p, &q, &mut stats).is_none());
    }

    #[test]
    fn maximal_subset_matches_example_4_1() {
        let db = tourist_database();
        let mut stats = Stats::new();

        // T = {c1, a1}; tb = a2 ⇒ T′ = {c1, a2}.
        let t = rebuild(&db, vec![C1, A1]);
        let t1 = maximal_subset_with(&db, &t, A2, &mut stats);
        assert_eq!(t1.tuples(), &[C1, A2]);

        // T = {c1, a1}; tb = a3 ⇒ T′ = {a3} (no Climates tuple).
        let t2 = maximal_subset_with(&db, &t, A3, &mut stats);
        assert_eq!(t2.tuples(), &[A3]);

        // T = {c1, a1}; tb = s1 ⇒ T′ = {c1, s1} (a1 conflicts on City).
        let t3 = maximal_subset_with(&db, &t, S1, &mut stats);
        assert_eq!(t3.tuples(), &[C1, S1]);

        // T = {c1, a2, s1}; tb = s2 ⇒ T′ = {c1, s2}.
        let t4 = rebuild(&db, vec![C1, A2, S1]);
        let t5 = maximal_subset_with(&db, &t4, S2, &mut stats);
        assert_eq!(t5.tuples(), &[C1, S2]);
    }

    #[test]
    fn maximal_subset_keeps_only_component_of_tb() {
        // A - B(bridge) - C, where tb kills the bridge: C must drop even
        // though it is consistent with tb.
        let mut b = fd_relational::DatabaseBuilder::new();
        b.relation("A", &["x", "w"]).row([1, 5]);
        b.relation("B", &["x", "y"]).row([1, 2]).row([9, 2]);
        b.relation("C", &["y"]).row([2]);
        let db = b.build().unwrap();
        let mut stats = Stats::new();
        // T = {a1, b1, c1}; tb = b2 (x=9 conflicts with nothing shared
        // with A? A has x: b2.x=9 vs a1.x=1 conflict ⇒ a1 dropped;
        // c1 consistent with b2 on y ⇒ stays via b2's component).
        let t = rebuild(&db, vec![TupleId(0), TupleId(1), TupleId(3)]);
        let sub = maximal_subset_with(&db, &t, TupleId(2), &mut stats);
        assert_eq!(sub.tuples(), &[TupleId(2), TupleId(3)]);
    }

    #[test]
    fn extension_reaches_maximal_set() {
        let db = tourist_database();
        let mut stats = Stats::new();
        let t = extend_to_maximal(&db, TupleSet::singleton(&db, C1), &mut stats);
        // Table 3: {c1} extends to {c1, a1}.
        assert_eq!(t.tuples(), &[C1, A1]);

        let t2 = extend_to_maximal(&db, TupleSet::singleton(&db, C3), &mut stats);
        // {c3} extends to {c3, a3}.
        assert_eq!(t2.tuples(), &[C3, A3]);
    }

    #[test]
    fn extension_uses_multiple_passes_when_connectivity_arrives_late() {
        // D is connected only through C; scanning order tries... relations
        // in order, so C is reached after D fails once.
        let mut b = fd_relational::DatabaseBuilder::new();
        b.relation("A", &["x"]).row([1]);
        b.relation("D", &["z"]).row([3]);
        b.relation("C", &["x", "z"]).row([1, 3]);
        let db = b.build().unwrap();
        let mut stats = Stats::new();
        let t = extend_to_maximal(&db, TupleSet::singleton(&db, TupleId(0)), &mut stats);
        assert_eq!(t.len(), 3);
        assert!(stats.extension_passes >= 2);
    }

    #[test]
    fn is_jcc_validates_full_predicate() {
        let db = tourist_database();
        assert!(is_jcc(&db, &[C1]));
        assert!(is_jcc(&db, &[C1, A2, S1]));
        assert!(!is_jcc(&db, &[C1, C2])); // same relation
        assert!(!is_jcc(&db, &[A1, S1])); // Toronto vs London
        assert!(!is_jcc(&db, &[])); // empty is not a result
    }
}
