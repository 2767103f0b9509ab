//! The database catalog: interned attributes, relations, the global tuple
//! id space `Tuples(R)`, and the relation connectivity graph.

use crate::error::{RelationalError, Result};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ids::{AttrId, RelId, TupleId};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::value::{IStr, Value};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Probe instrumentation, shared behind `&Database` across threads.
/// Cloning a database snapshots the counter values.
#[derive(Debug, Default)]
struct ProbeCounters {
    probes: AtomicU64,
    hits: AtomicU64,
}

impl Clone for ProbeCounters {
    fn clone(&self) -> Self {
        ProbeCounters {
            probes: AtomicU64::new(self.probes.load(Ordering::Relaxed)),
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
        }
    }
}

/// A set of relations `R = {R1, …, Rn}` plus every derived index the
/// paper's algorithms need:
///
/// * a global tuple id space (`Tuples(R)`),
/// * the *relation graph* — vertices are relations, edges connect relations
///   whose schemas share an attribute (Section 2),
/// * per-pair shared-attribute lists, used by the `O(n²)` connected-
///   component step of `GETNEXTRESULT` (Theorem 4.8),
/// * an attribute → relations index.
///
/// The *schema* is immutable once built (see [`DatabaseBuilder`]), so all
/// algorithms can borrow a database freely, including across threads. The
/// *data* supports a mutation layer for dynamic maintenance
/// ([`insert_tuple`](Database::insert_tuple) /
/// [`remove_tuple`](Database::remove_tuple)): inserted tuples receive
/// fresh ids above the builder-time id space, deletions tombstone the
/// tuple in place, and existing [`TupleId`]s never change meaning.
#[derive(Debug, Clone)]
pub struct Database {
    attr_names: Vec<String>,
    attr_ids: HashMap<String, AttrId>,
    relations: Vec<Relation>,
    rel_ids: HashMap<String, RelId>,
    /// `tuple_start[r]` = first global tuple id of relation `r` at build
    /// time; `tuple_start[n]` = builder-time tuple count (sentinel).
    /// Tuples inserted later live *above* this dense base layout.
    tuple_start: Vec<u32>,
    /// Dynamically inserted tuples: id `base + i` maps to
    /// `overflow[i] = (relation, row index within the relation)`.
    overflow: Vec<(RelId, u32)>,
    /// Global ids of each relation's dynamic tuples, ascending.
    overflow_by_rel: Vec<Vec<u32>>,
    /// Liveness per tuple id; `false` marks a tombstoned (deleted) tuple.
    alive: Vec<bool>,
    /// Number of live tuples.
    live: usize,
    /// Adjacency lists of the relation graph, ascending.
    adjacency: Vec<Vec<RelId>>,
    /// Shared attributes per relation pair, flattened `n × n` row-major.
    shared: Vec<Vec<AttrId>>,
    /// Relations containing each attribute, ascending.
    attr_rels: Vec<Vec<RelId>>,
    /// Per relation: the *join columns* — attributes of its schema shared
    /// with at least one other relation's schema — as `(attr, column)`
    /// pairs ascending by attribute. Only these can carry a binding a
    /// probe needs to match, so only these are indexed.
    indexed_attrs: Vec<Vec<(AttrId, u16)>>,
    /// Per (relation, join-column slot): value → ascending **live**
    /// global tuple ids of that relation holding the value. Nulls are
    /// never indexed (`⊥` is join-consistent with nothing). Maintained by
    /// [`insert_tuple`](Database::insert_tuple) /
    /// [`remove_tuple`](Database::remove_tuple).
    postings: Vec<Vec<FxHashMap<Value, Vec<u32>>>>,
    /// One copy of each distinct string in the rows (tombstoned rows
    /// included: they keep their data). Every stored `Value::Str` is the
    /// copy from this set, so equal join values across relations share
    /// one allocation and compare equal on the pointer.
    strings: FxHashSet<IStr>,
    /// When false, [`probe`](Database::probe) always takes the fallback
    /// scan — the A/B lever the scaling bench uses to price the index.
    index_enabled: bool,
    probe_counters: ProbeCounters,
}

/// Replaces each string of `row` by its copy in `strings`, adding the
/// strings not seen before.
fn share_strings(strings: &mut FxHashSet<IStr>, row: &mut [Value]) {
    for v in row {
        if let Value::Str(s) = v {
            match strings.get(s) {
                Some(shared) => *s = shared.clone(),
                None => {
                    strings.insert(s.clone());
                }
            }
        }
    }
}

impl Database {
    /// Number of relations (`n` in the paper).
    #[inline]
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Number of *live* tuples across all relations (`|Tuples(R)|`):
    /// tombstoned tuples are excluded, inserted ones included.
    #[inline]
    pub fn num_tuples(&self) -> usize {
        self.live
    }

    /// Number of builder-time tuples; ids `>= base_tuple_count()` were
    /// inserted dynamically and live in the overflow layout.
    #[inline]
    pub fn base_tuple_count(&self) -> u32 {
        *self.tuple_start.last().expect("sentinel")
    }

    /// Exclusive upper bound of the tuple id space (live or dead). Useful
    /// for id-indexed side tables like importance assignments.
    #[inline]
    pub fn tuple_id_bound(&self) -> u32 {
        self.base_tuple_count() + self.overflow.len() as u32
    }

    /// Is `t` a live tuple (allocated and not tombstoned)?
    #[inline]
    pub fn is_live(&self, t: TupleId) -> bool {
        self.alive.get(t.index()).copied().unwrap_or(false)
    }

    /// Has the database been mutated since it was built? (Baselines that
    /// read relation rows directly require an unmutated database.)
    #[inline]
    pub fn has_mutations(&self) -> bool {
        !self.overflow.is_empty() || self.live != self.base_tuple_count() as usize
    }

    /// Number of distinct attributes.
    #[inline]
    pub fn num_attrs(&self) -> usize {
        self.attr_names.len()
    }

    /// Total size `s` as the paper measures it: the number of
    /// (tuple, attribute, value) entries over all relations.
    pub fn total_size(&self) -> usize {
        self.relations.iter().map(Relation::total_size).sum()
    }

    /// All relations in `R1..Rn` order.
    #[inline]
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// The relation with the given id.
    #[inline]
    pub fn relation(&self, id: RelId) -> &Relation {
        &self.relations[id.index()]
    }

    /// Looks a relation up by name.
    pub fn relation_by_name(&self, name: &str) -> Result<&Relation> {
        let id = self
            .rel_ids
            .get(name)
            .ok_or_else(|| RelationalError::UnknownRelation {
                relation: name.to_owned(),
            })?;
        Ok(&self.relations[id.index()])
    }

    /// The interned id of an attribute name.
    pub fn attr_id(&self, name: &str) -> Result<AttrId> {
        self.attr_ids
            .get(name)
            .copied()
            .ok_or_else(|| RelationalError::UnknownAttribute {
                attribute: name.to_owned(),
            })
    }

    /// The name of an interned attribute.
    #[inline]
    pub fn attr_name(&self, attr: AttrId) -> &str {
        &self.attr_names[attr.index()]
    }

    /// All attribute ids, ascending.
    pub fn attrs(&self) -> impl ExactSizeIterator<Item = AttrId> {
        (0..self.attr_names.len() as u32).map(AttrId)
    }

    /// The builder-time dense id band of relation `rel`. Dynamic tuples of
    /// `rel` live *outside* this range; use [`tuples_of`](Self::tuples_of)
    /// to enumerate them all.
    #[inline]
    pub fn base_tuples(&self, rel: RelId) -> Range<u32> {
        self.tuple_start[rel.index()]..self.tuple_start[rel.index() + 1]
    }

    /// The live tuples of relation `rel`: the builder-time band minus
    /// tombstones, then dynamically inserted tuples in insert order.
    pub fn tuples_of(&self, rel: RelId) -> impl Iterator<Item = TupleId> + '_ {
        self.base_tuples(rel)
            .chain(self.overflow_by_rel[rel.index()].iter().copied())
            .filter(|&raw| self.alive[raw as usize])
            .map(TupleId)
    }

    /// All live global tuple ids, in ascending id order — builder-time
    /// tuples in `R1..Rn` then row order (the scan order of the paper's
    /// `foreach` loops), then dynamic inserts in insertion order.
    pub fn all_tuples(&self) -> impl Iterator<Item = TupleId> + '_ {
        (0..self.tuple_id_bound())
            .filter(|&raw| self.alive[raw as usize])
            .map(TupleId)
    }

    /// The relation a tuple belongs to.
    #[inline]
    pub fn rel_of(&self, t: TupleId) -> RelId {
        let base = self.base_tuple_count();
        if t.0 >= base {
            return self.overflow[(t.0 - base) as usize].0;
        }
        // partition_point returns the count of starts <= t, so the owning
        // relation is one before that.
        let idx = self.tuple_start.partition_point(|&s| s <= t.0) - 1;
        RelId(idx as u16)
    }

    /// The row index of a tuple within its relation.
    #[inline]
    pub fn row_of(&self, t: TupleId) -> usize {
        self.locate(t).1
    }

    /// Splits a tuple id into (relation, row).
    #[inline]
    pub fn locate(&self, t: TupleId) -> (RelId, usize) {
        let base = self.base_tuple_count();
        if t.0 >= base {
            let (rel, row) = self.overflow[(t.0 - base) as usize];
            return (rel, row as usize);
        }
        let rel = self.rel_of(t);
        (rel, (t.0 - self.tuple_start[rel.index()]) as usize)
    }

    /// Appends a tuple to relation `rel`, returning its fresh global id.
    ///
    /// Existing ids are untouched: the new tuple is allocated *above* the
    /// current id space and the relation's row storage grows at the end,
    /// so labels, importance tables and previously computed tuple sets
    /// all stay valid.
    pub fn insert_tuple(&mut self, rel: RelId, values: Vec<Value>) -> Result<TupleId> {
        if rel.index() >= self.relations.len() {
            return Err(RelationalError::UnknownRelation {
                relation: rel.to_string(),
            });
        }
        if self.tuple_id_bound() == u32::MAX {
            return Err(RelationalError::CapacityExceeded { what: "tuples" });
        }
        let id = self.tuple_id_bound();
        let row = self.relations[rel.index()].len() as u32;
        self.relations[rel.index()].push_row(values)?;
        share_strings(
            &mut self.strings,
            self.relations[rel.index()].row_mut(row as usize),
        );
        self.overflow.push((rel, row));
        self.overflow_by_rel[rel.index()].push(id);
        self.alive.push(true);
        self.live += 1;
        // Maintain the join-column postings: `id` is above every existing
        // id, so appending keeps each list ascending.
        let r = rel.index();
        for (slot, &(_, col)) in self.indexed_attrs[r].iter().enumerate() {
            let v = &self.relations[r].row(row as usize)[col as usize];
            if !v.is_null() {
                let v = v.clone();
                self.postings[r][slot].entry(v).or_default().push(id);
            }
        }
        Ok(TupleId(id))
    }

    /// Tombstones tuple `t`: it disappears from every scan while its id
    /// (and the ids of all other tuples) keep their meaning. The row data
    /// is retained so historical tuple sets can still be rendered.
    pub fn remove_tuple(&mut self, t: TupleId) -> Result<()> {
        if !self.is_live(t) {
            return Err(RelationalError::NoSuchTuple { id: t.0 });
        }
        self.alive[t.index()] = false;
        self.live -= 1;
        // Drop the tombstoned id from its relation's posting lists so
        // probes never surface dead tuples.
        let (rel, row) = self.locate(t);
        let r = rel.index();
        for (slot, &(_, col)) in self.indexed_attrs[r].iter().enumerate() {
            let v = &self.relations[r].row(row)[col as usize];
            if v.is_null() {
                continue;
            }
            if let Some(list) = self.postings[r][slot].get_mut(v) {
                if let Ok(pos) = list.binary_search(&t.0) {
                    list.remove(pos);
                }
                if list.is_empty() {
                    self.postings[r][slot].remove(v);
                }
            }
        }
        Ok(())
    }

    /// `t[A]`: the value of attribute `attr` in tuple `t`, or `None` when
    /// `attr` is not in `Schema(t)`.
    #[inline]
    pub fn tuple_value(&self, t: TupleId, attr: AttrId) -> Option<&Value> {
        let (rel, row) = self.locate(t);
        self.relations[rel.index()].value(row, attr)
    }

    /// The values of tuple `t` in column order.
    #[inline]
    pub fn tuple_values(&self, t: TupleId) -> &[Value] {
        let (rel, row) = self.locate(t);
        self.relations[rel.index()].row(row)
    }

    /// `Schema(t)`: the schema of the relation tuple `t` belongs to.
    #[inline]
    pub fn tuple_schema(&self, t: TupleId) -> &Schema {
        self.relations[self.rel_of(t).index()].schema()
    }

    /// A short, human-readable label like the paper's `c1`, `a2`, `s3`:
    /// first letter of the relation name (lowercased) plus the 1-based row.
    pub fn tuple_label(&self, t: TupleId) -> String {
        let (rel, row) = self.locate(t);
        let initial = self.relations[rel.index()]
            .name()
            .chars()
            .next()
            .map(|c| c.to_ascii_lowercase())
            .unwrap_or('t');
        format!("{initial}{}", row + 1)
    }

    /// Relations adjacent to `rel` in the relation graph.
    #[inline]
    pub fn neighbors(&self, rel: RelId) -> &[RelId] {
        &self.adjacency[rel.index()]
    }

    /// Attributes shared by two relations' schemas (empty ⇔ not connected).
    #[inline]
    pub fn shared_attrs(&self, a: RelId, b: RelId) -> &[AttrId] {
        &self.shared[a.index() * self.relations.len() + b.index()]
    }

    /// Are two relations connected (do their schemas share an attribute)?
    #[inline]
    pub fn rels_connected(&self, a: RelId, b: RelId) -> bool {
        !self.shared_attrs(a, b).is_empty()
    }

    /// Relations whose schemas contain `attr`.
    #[inline]
    pub fn relations_with_attr(&self, attr: AttrId) -> &[RelId] {
        &self.attr_rels[attr.index()]
    }

    /// The join columns of `rel`: attributes of its schema shared with at
    /// least one other relation (the indexed attributes), ascending.
    pub fn join_columns(&self, rel: RelId) -> impl ExactSizeIterator<Item = AttrId> + '_ {
        self.indexed_attrs[rel.index()].iter().map(|&(a, _)| a)
    }

    /// Candidate tuples of `rel` matching a sorted binding list — the
    /// probe primitive of the paper's maximal-extension loops (Fig. 2
    /// lines 2–6): "the tuples of `rel` that could be join-consistent
    /// with these bindings".
    ///
    /// `bindings` is a `(attribute, value, owner)` list ascending by
    /// attribute — exactly a
    /// `TupleSet::bindings()` slice. Bindings on attributes outside
    /// `rel`'s schema are ignored (they constrain nothing here). When at
    /// least one binding lands on a join column, the posting lists are
    /// intersected and the result is *exact*: every returned tuple is
    /// live and agrees with every applicable binding, in ascending id
    /// order — the same first-match order as
    /// [`tuples_of`](Self::tuples_of). A null binding on a join column
    /// returns no candidates (`⊥` is join-consistent with nothing).
    ///
    /// When no binding applies (an empty binding list, an all-null set,
    /// score-based approximate matching, or block-granular `Pager`
    /// scans), this falls back to the liveness-aware scan, i.e. exactly
    /// `tuples_of(rel)`.
    pub fn probe(&self, rel: RelId, bindings: &[(AttrId, Value, TupleId)]) -> Vec<TupleId> {
        debug_assert!(
            bindings.windows(2).all(|w| w[0].0 < w[1].0),
            "probe bindings must be ascending by attribute"
        );
        self.probe_counters.probes.fetch_add(1, Ordering::Relaxed);
        if self.index_enabled {
            if let Some(ids) = self.probe_indexed(rel, bindings) {
                self.probe_counters.hits.fetch_add(1, Ordering::Relaxed);
                return ids;
            }
        }
        self.tuples_of(rel).collect()
    }

    /// The indexed arm of [`probe`](Self::probe): `None` when no binding
    /// lands on a join column of `rel` (the caller falls back to a scan).
    fn probe_indexed(
        &self,
        rel: RelId,
        bindings: &[(AttrId, Value, TupleId)],
    ) -> Option<Vec<TupleId>> {
        let slots = &self.indexed_attrs[rel.index()];
        let maps = &self.postings[rel.index()];
        let mut lists: Vec<&[u32]> = Vec::new();
        let (mut i, mut j) = (0, 0);
        let mut applicable = false;
        while i < slots.len() && j < bindings.len() {
            match slots[i].0.cmp(&bindings[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    applicable = true;
                    let v = &bindings[j].1;
                    if v.is_null() {
                        // A null binding on a shared attribute conflicts
                        // with every candidate: zero results, decisively.
                        return Some(Vec::new());
                    }
                    match maps[i].get(v) {
                        Some(list) => lists.push(list),
                        None => return Some(Vec::new()),
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        if !applicable {
            return None;
        }
        // Intersect ascending posting lists: walk the smallest, binary-
        // search the rest. Output stays ascending — `tuples_of` order.
        lists.sort_unstable_by_key(|l| l.len());
        let (first, rest) = lists.split_first().expect("applicable ⇒ non-empty");
        let mut out = Vec::with_capacity(first.len());
        'ids: for &id in *first {
            for l in rest {
                if l.binary_search(&id).is_err() {
                    continue 'ids;
                }
            }
            out.push(TupleId(id));
        }
        Some(out)
    }

    /// Total [`probe`](Self::probe) calls since construction (or clone).
    pub fn index_probes(&self) -> u64 {
        self.probe_counters.probes.load(Ordering::Relaxed)
    }

    /// Probes answered from posting lists (the rest fell back to scans).
    pub fn index_hits(&self) -> u64 {
        self.probe_counters.hits.load(Ordering::Relaxed)
    }

    /// Is the indexed probe arm enabled? (Defaults to true.)
    pub fn index_enabled(&self) -> bool {
        self.index_enabled
    }

    /// Enables or disables the indexed probe arm. With the index off,
    /// every probe takes the fallback scan — the A/B lever the scaling
    /// bench uses to price the index against linear scans.
    pub fn set_index_enabled(&mut self, enabled: bool) {
        self.index_enabled = enabled;
    }

    /// Audits every posting list against a from-scratch scan: each
    /// (relation, join column, value) must list exactly the live tuples
    /// holding that value, ascending. Used by recovery verification and
    /// the churn tests; returns a description of the first divergence.
    pub fn verify_indexes(&self) -> std::result::Result<(), String> {
        for rel in &self.relations {
            let r = rel.id().index();
            for (slot, &(attr, col)) in self.indexed_attrs[r].iter().enumerate() {
                let mut expected: FxHashMap<Value, Vec<u32>> = FxHashMap::default();
                for t in self.tuples_of(rel.id()) {
                    let (_, row) = self.locate(t);
                    let v = &rel.row(row)[col as usize];
                    if !v.is_null() {
                        expected.entry(v.clone()).or_default().push(t.0);
                    }
                }
                let actual = &self.postings[r][slot];
                if actual.len() != expected.len() {
                    return Err(format!(
                        "index {}.{}: {} posting keys, scan finds {}",
                        rel.name(),
                        self.attr_names[attr.index()],
                        actual.len(),
                        expected.len()
                    ));
                }
                for (v, ids) in &expected {
                    if actual.get(v).map(Vec::as_slice) != Some(ids.as_slice()) {
                        return Err(format!(
                            "index {}.{}: postings for {v} diverge from scan",
                            rel.name(),
                            self.attr_names[attr.index()],
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Is the whole set of relations connected, in the paper's sense of the
    /// relation graph forming one connected component?
    pub fn is_connected(&self) -> bool {
        let n = self.relations.len();
        if n <= 1 {
            return true;
        }
        self.component_of(RelId(0)).len() == n
    }

    /// The connected component of the relation graph containing `start`.
    pub fn component_of(&self, start: RelId) -> Vec<RelId> {
        let n = self.relations.len();
        let mut seen = vec![false; n];
        let mut stack = vec![start];
        let mut out = Vec::new();
        seen[start.index()] = true;
        while let Some(r) = stack.pop() {
            out.push(r);
            for &nb in self.neighbors(r) {
                if !seen[nb.index()] {
                    seen[nb.index()] = true;
                    stack.push(nb);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Checks whether a *subset* of relations is connected via shared
    /// attributes **within the subset**. Used for tuple-set connectivity:
    /// a tuple set is connected iff the relations of its members are.
    ///
    /// Runs in `O(n²)` like the auxiliary-graph search in Theorem 4.8.
    pub fn subset_connected(&self, rels: &[RelId]) -> bool {
        match rels.len() {
            0 | 1 => true,
            _ => {
                let mut seen = vec![false; rels.len()];
                let mut stack = vec![0usize];
                seen[0] = true;
                let mut count = 1;
                while let Some(i) = stack.pop() {
                    for (j, &rj) in rels.iter().enumerate() {
                        if !seen[j] && self.rels_connected(rels[i], rj) {
                            seen[j] = true;
                            count += 1;
                            stack.push(j);
                        }
                    }
                }
                count == rels.len()
            }
        }
    }

    /// The members of `rels` in the same connected component as `anchor`,
    /// where connectivity only uses edges between members of `rels`
    /// (plus `anchor`). This is the second step of the paper's footnote-3
    /// procedure for computing the maximal subset `T′`.
    pub fn subset_component(&self, rels: &[RelId], anchor: RelId) -> Vec<RelId> {
        let mut all: Vec<RelId> = Vec::with_capacity(rels.len() + 1);
        all.extend_from_slice(rels);
        if !all.contains(&anchor) {
            all.push(anchor);
        }
        let mut seen = vec![false; all.len()];
        let anchor_idx = all
            .iter()
            .position(|&r| r == anchor)
            .expect("anchor present");
        seen[anchor_idx] = true;
        let mut stack = vec![anchor_idx];
        let mut out = vec![anchor];
        while let Some(i) = stack.pop() {
            for (j, &rj) in all.iter().enumerate() {
                if !seen[j] && self.rels_connected(all[i], rj) {
                    seen[j] = true;
                    stack.push(j);
                    out.push(rj);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// Fluent builder for [`Database`].
///
/// ```
/// use fd_relational::{DatabaseBuilder, Value};
///
/// let mut b = DatabaseBuilder::new();
/// b.relation("Climates", &["Country", "Climate"])
///     .row(["Canada", "diverse"])
///     .row(["UK", "temperate"]);
/// b.relation("Sites", &["Country", "Site"])
///     .row(["Canada", "Air Show"]);
/// let db = b.build().unwrap();
/// assert_eq!(db.num_relations(), 2);
/// assert_eq!(db.num_tuples(), 3);
/// assert!(db.is_connected());
/// ```
#[derive(Debug, Default)]
pub struct DatabaseBuilder {
    attr_names: Vec<String>,
    attr_ids: HashMap<String, AttrId>,
    relations: Vec<PendingRelation>,
    errors: Vec<RelationalError>,
}

#[derive(Debug)]
struct PendingRelation {
    name: String,
    attrs: Vec<AttrId>,
    rows: Vec<Vec<Value>>,
}

/// Handle for appending rows to a relation under construction.
#[derive(Debug)]
pub struct RelationBuilder<'a> {
    builder: &'a mut DatabaseBuilder,
    rel: usize,
}

impl DatabaseBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(&mut self, name: &str) -> AttrId {
        if let Some(&id) = self.attr_ids.get(name) {
            return id;
        }
        let id = AttrId(self.attr_names.len() as u32);
        self.attr_names.push(name.to_owned());
        self.attr_ids.insert(name.to_owned(), id);
        id
    }

    /// Declares a relation with the given attribute names and returns a
    /// handle for adding its rows. Duplicate attribute or relation names
    /// are reported when [`build`](Self::build) runs.
    pub fn relation(&mut self, name: &str, attrs: &[&str]) -> RelationBuilder<'_> {
        if self.relations.iter().any(|r| r.name == name) {
            self.errors.push(RelationalError::DuplicateRelation {
                relation: name.to_owned(),
            });
        }
        let mut ids = Vec::with_capacity(attrs.len());
        for &a in attrs {
            let id = self.intern(a);
            if ids.contains(&id) {
                self.errors.push(RelationalError::DuplicateAttribute {
                    relation: name.to_owned(),
                    attribute: a.to_owned(),
                });
            }
            ids.push(id);
        }
        self.relations.push(PendingRelation {
            name: name.to_owned(),
            attrs: ids,
            rows: Vec::new(),
        });
        let rel = self.relations.len() - 1;
        RelationBuilder { builder: self, rel }
    }

    /// Finishes construction, computing the relation graph and indexes.
    pub fn build(self) -> Result<Database> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        if self.relations.len() > u16::MAX as usize {
            return Err(RelationalError::CapacityExceeded { what: "relations" });
        }

        let mut relations = Vec::with_capacity(self.relations.len());
        let mut rel_ids = HashMap::new();
        let mut tuple_start = Vec::with_capacity(self.relations.len() + 1);
        let mut next_tuple: u64 = 0;
        let mut strings = FxHashSet::default();
        for (i, pending) in self.relations.into_iter().enumerate() {
            let id = RelId(i as u16);
            rel_ids.insert(pending.name.clone(), id);
            tuple_start.push(next_tuple as u32);
            next_tuple += pending.rows.len() as u64;
            if next_tuple > u32::MAX as u64 {
                return Err(RelationalError::CapacityExceeded { what: "tuples" });
            }
            let mut rel = Relation::new(pending.name, id, Schema::new(pending.attrs));
            for mut row in pending.rows {
                share_strings(&mut strings, &mut row);
                rel.push_row(row)?;
            }
            relations.push(rel);
        }
        tuple_start.push(next_tuple as u32);

        let n = relations.len();
        let mut shared = vec![Vec::new(); n * n];
        let mut adjacency = vec![Vec::new(); n];
        for a in 0..n {
            for b in (a + 1)..n {
                let s = relations[a].schema().shared_attrs(relations[b].schema());
                if !s.is_empty() {
                    adjacency[a].push(RelId(b as u16));
                    adjacency[b].push(RelId(a as u16));
                }
                shared[a * n + b] = s.clone();
                shared[b * n + a] = s;
            }
        }

        let mut attr_rels: Vec<Vec<RelId>> = vec![Vec::new(); self.attr_names.len()];
        for rel in &relations {
            for &a in rel.schema().attrs() {
                attr_rels[a.index()].push(rel.id());
            }
        }
        for v in &mut attr_rels {
            v.sort_unstable();
            v.dedup();
        }

        // Join-column indexes: one posting map per (relation, shared
        // attribute). Base rows are dense and ascending, so pushing in
        // row order yields sorted posting lists directly.
        let mut indexed_attrs: Vec<Vec<(AttrId, u16)>> = Vec::with_capacity(n);
        for rel in &relations {
            indexed_attrs.push(
                rel.schema()
                    .columns_by_attr()
                    .iter()
                    .filter(|&&(a, _)| attr_rels[a.index()].len() >= 2)
                    .copied()
                    .collect(),
            );
        }
        let mut postings: Vec<Vec<FxHashMap<Value, Vec<u32>>>> = indexed_attrs
            .iter()
            .map(|slots| vec![FxHashMap::default(); slots.len()])
            .collect();
        for (r, rel) in relations.iter().enumerate() {
            let start = tuple_start[r];
            for (slot, &(_, col)) in indexed_attrs[r].iter().enumerate() {
                for (row, values) in rel.rows().enumerate() {
                    let v = &values[col as usize];
                    if !v.is_null() {
                        postings[r][slot]
                            .entry(v.clone())
                            .or_default()
                            .push(start + row as u32);
                    }
                }
            }
        }

        Ok(Database {
            attr_names: self.attr_names,
            attr_ids: self.attr_ids,
            relations,
            rel_ids,
            alive: vec![true; next_tuple as usize],
            live: next_tuple as usize,
            overflow: Vec::new(),
            overflow_by_rel: vec![Vec::new(); n],
            tuple_start,
            adjacency,
            shared,
            attr_rels,
            indexed_attrs,
            postings,
            strings,
            index_enabled: true,
            probe_counters: ProbeCounters::default(),
        })
    }
}

impl RelationBuilder<'_> {
    /// Appends a row given anything convertible to [`Value`]s.
    pub fn row<V, I>(&mut self, values: I) -> &mut Self
    where
        V: Into<Value>,
        I: IntoIterator<Item = V>,
    {
        let row: Vec<Value> = values.into_iter().map(Into::into).collect();
        self.builder.relations[self.rel].rows.push(row);
        self
    }

    /// Appends a row of explicit [`Value`]s (convenient when mixing nulls
    /// with typed values).
    pub fn row_values(&mut self, values: Vec<Value>) -> &mut Self {
        self.builder.relations[self.rel].rows.push(values);
        self
    }
}

/// Returns the canonical map `attribute → index` over the union of all
/// schemas, in ascending attribute order. This is the universal schema used
/// for the padded-tuple view of results (Table 2's last columns).
pub fn universal_schema(db: &Database) -> Vec<AttrId> {
    let mut attrs: Vec<AttrId> = db.attrs().collect();
    attrs.retain(|&a| !db.relations_with_attr(a).is_empty());
    attrs
}

/// Maps each attribute to its position in [`universal_schema`].
pub fn universal_positions(db: &Database) -> FxHashMap<AttrId, usize> {
    universal_schema(db)
        .into_iter()
        .enumerate()
        .map(|(i, a)| (a, i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::NULL;
    use std::sync::Arc;

    /// Table 1 of the paper.
    pub(crate) fn tourist_db() -> Database {
        let mut b = DatabaseBuilder::new();
        b.relation("Climates", &["Country", "Climate"])
            .row(["Canada", "diverse"])
            .row(["UK", "temperate"])
            .row(["Bahamas", "tropical"]);
        b.relation("Accommodations", &["Country", "City", "Hotel", "Stars"])
            .row_values(vec![
                "Canada".into(),
                "Toronto".into(),
                "Plaza".into(),
                4.into(),
            ])
            .row_values(vec![
                "Canada".into(),
                "London".into(),
                "Ramada".into(),
                3.into(),
            ])
            .row_values(vec![
                "Bahamas".into(),
                "Nassau".into(),
                "Hilton".into(),
                NULL,
            ]);
        b.relation("Sites", &["Country", "City", "Site"])
            .row_values(vec!["Canada".into(), "London".into(), "Air Show".into()])
            .row_values(vec!["Canada".into(), NULL, "Mount Logan".into()])
            .row_values(vec!["UK".into(), "London".into(), "Buckingham".into()])
            .row_values(vec!["UK".into(), "London".into(), "Hyde Park".into()]);
        b.build().unwrap()
    }

    #[test]
    fn tourist_catalog_shape() {
        let db = tourist_db();
        assert_eq!(db.num_relations(), 3);
        assert_eq!(db.num_tuples(), 10);
        assert_eq!(db.num_attrs(), 6); // Country City Climate Hotel Stars Site
        assert!(db.is_connected());
        // s = 3*2 + 3*4 + 4*3 = 30 entries
        assert_eq!(db.total_size(), 30);
    }

    #[test]
    fn tuple_id_mapping_is_dense_and_invertible() {
        let db = tourist_db();
        assert_eq!(
            db.tuples_of(RelId(0)).map(|t| t.0).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(
            db.tuples_of(RelId(1)).map(|t| t.0).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(
            db.tuples_of(RelId(2)).map(|t| t.0).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        for t in db.all_tuples() {
            let (rel, row) = db.locate(t);
            assert_eq!(db.base_tuples(rel).start + row as u32, t.0);
        }
    }

    #[test]
    fn insert_allocates_above_the_base_id_space() {
        let mut db = tourist_db();
        assert!(!db.has_mutations());
        let t = db
            .insert_tuple(RelId(0), vec!["Chile".into(), "arid".into()])
            .unwrap();
        assert_eq!(t, TupleId(10));
        assert!(db.has_mutations());
        assert_eq!(db.num_tuples(), 11);
        assert_eq!(db.rel_of(t), RelId(0));
        assert_eq!(db.row_of(t), 3);
        assert_eq!(db.tuple_label(t), "c4");
        let country = db.attr_id("Country").unwrap();
        assert_eq!(db.tuple_value(t, country), Some(&Value::str("Chile")));
        // The relation's live scan sees base tuples first, then the insert.
        assert_eq!(
            db.tuples_of(RelId(0)).map(|t| t.0).collect::<Vec<_>>(),
            vec![0, 1, 2, 10]
        );
        // Other relations are untouched.
        assert_eq!(
            db.tuples_of(RelId(1)).map(|t| t.0).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
    }

    #[test]
    fn remove_tombstones_in_place() {
        let mut db = tourist_db();
        db.remove_tuple(TupleId(1)).unwrap();
        assert_eq!(db.num_tuples(), 9);
        assert!(!db.is_live(TupleId(1)));
        assert_eq!(
            db.tuples_of(RelId(0)).map(|t| t.0).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert!(db.all_tuples().all(|t| t != TupleId(1)));
        // Ids and labels of survivors never move.
        assert_eq!(db.tuple_label(TupleId(2)), "c3");
        // Double deletion and unknown ids are rejected.
        assert!(matches!(
            db.remove_tuple(TupleId(1)),
            Err(RelationalError::NoSuchTuple { id: 1 })
        ));
        assert!(db.remove_tuple(TupleId(99)).is_err());
    }

    #[test]
    fn insert_validates_relation_and_arity() {
        let mut db = tourist_db();
        assert!(matches!(
            db.insert_tuple(RelId(9), vec![1.into()]),
            Err(RelationalError::UnknownRelation { .. })
        ));
        assert!(matches!(
            db.insert_tuple(RelId(0), vec![1.into()]),
            Err(RelationalError::ArityMismatch { .. })
        ));
        // A failed insert leaves the database untouched.
        assert_eq!(db.num_tuples(), 10);
        assert!(!db.has_mutations());
    }

    #[test]
    fn insert_after_remove_keeps_ids_stable() {
        let mut db = tourist_db();
        db.remove_tuple(TupleId(4)).unwrap();
        let t = db
            .insert_tuple(
                RelId(1),
                vec!["UK".into(), "London".into(), "Savoy".into(), 5.into()],
            )
            .unwrap();
        assert_eq!(t, TupleId(10));
        assert_eq!(
            db.tuples_of(RelId(1)).map(|t| t.0).collect::<Vec<_>>(),
            vec![3, 5, 10]
        );
        assert_eq!(db.num_tuples(), 10);
        // The tombstoned row's data is retained for rendering history.
        let hotel = db.attr_id("Hotel").unwrap();
        assert_eq!(
            db.tuple_value(TupleId(4), hotel),
            Some(&Value::str("Ramada"))
        );
    }

    #[test]
    fn tuple_labels_match_paper() {
        let db = tourist_db();
        assert_eq!(db.tuple_label(TupleId(0)), "c1");
        assert_eq!(db.tuple_label(TupleId(4)), "a2");
        assert_eq!(db.tuple_label(TupleId(7)), "s2");
    }

    #[test]
    fn tuple_value_access() {
        let db = tourist_db();
        let country = db.attr_id("Country").unwrap();
        let stars = db.attr_id("Stars").unwrap();
        assert_eq!(
            db.tuple_value(TupleId(0), country),
            Some(&Value::str("Canada"))
        );
        assert_eq!(db.tuple_value(TupleId(5), stars), Some(&NULL)); // Hilton's missing rating
        assert_eq!(db.tuple_value(TupleId(0), stars), None); // Climates has no Stars
    }

    #[test]
    fn relation_graph_edges() {
        let db = tourist_db();
        let (c, a, s) = (RelId(0), RelId(1), RelId(2));
        assert!(db.rels_connected(c, a)); // share Country
        assert!(db.rels_connected(a, s)); // share Country, City
        assert_eq!(db.shared_attrs(a, s).len(), 2);
        assert_eq!(db.neighbors(c), &[a, s]);
    }

    #[test]
    fn subset_connectivity() {
        let mut b = DatabaseBuilder::new();
        b.relation("A", &["x"]).row([1]);
        b.relation("B", &["x", "y"]).row([1, 2]);
        b.relation("C", &["y"]).row([2]);
        b.relation("D", &["z"]).row([3]);
        let db = b.build().unwrap();
        assert!(!db.is_connected());
        assert!(db.subset_connected(&[RelId(0), RelId(1), RelId(2)]));
        assert!(!db.subset_connected(&[RelId(0), RelId(2)])); // A–C only via B
        assert!(!db.subset_connected(&[RelId(0), RelId(3)]));
        assert_eq!(db.component_of(RelId(3)), vec![RelId(3)]);
        assert_eq!(
            db.component_of(RelId(0)),
            vec![RelId(0), RelId(1), RelId(2)]
        );
    }

    #[test]
    fn subset_component_anchored() {
        let mut b = DatabaseBuilder::new();
        b.relation("A", &["x"]).row([1]);
        b.relation("B", &["x", "y"]).row([1, 2]);
        b.relation("C", &["y"]).row([2]);
        b.relation("D", &["z"]).row([3]);
        let db = b.build().unwrap();
        // Among {A, C, D} anchored at A: only A (C not directly connected).
        assert_eq!(
            db.subset_component(&[RelId(0), RelId(2), RelId(3)], RelId(0)),
            vec![RelId(0)]
        );
        // Among {A, B, C} anchored at C: all three.
        assert_eq!(
            db.subset_component(&[RelId(0), RelId(1), RelId(2)], RelId(2)),
            vec![RelId(0), RelId(1), RelId(2)]
        );
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut b = DatabaseBuilder::new();
        b.relation("A", &["x", "x"]);
        assert!(matches!(
            b.build(),
            Err(RelationalError::DuplicateAttribute { .. })
        ));

        let mut b = DatabaseBuilder::new();
        b.relation("A", &["x"]);
        b.relation("A", &["y"]);
        assert!(matches!(
            b.build(),
            Err(RelationalError::DuplicateRelation { .. })
        ));
    }

    #[test]
    fn join_columns_are_the_shared_attrs() {
        let db = tourist_db();
        let country = db.attr_id("Country").unwrap();
        let city = db.attr_id("City").unwrap();
        // Climates: only Country is shared; Climate is private.
        assert_eq!(db.join_columns(RelId(0)).collect::<Vec<_>>(), vec![country]);
        // Accommodations shares Country and City, not Hotel/Stars.
        let mut acc: Vec<AttrId> = db.join_columns(RelId(1)).collect();
        acc.sort_unstable();
        let mut want = vec![country, city];
        want.sort_unstable();
        assert_eq!(acc, want);
    }

    #[test]
    fn probe_matches_the_scan_it_replaces() {
        let db = tourist_db();
        let country = db.attr_id("Country").unwrap();
        let canada = (country, Value::str("Canada"), TupleId(0));
        // Sites tuples bound to Country=Canada: s1 (t6), s2 (t7).
        assert_eq!(
            db.probe(RelId(2), std::slice::from_ref(&canada)),
            vec![TupleId(6), TupleId(7)]
        );
        // An unbound probe falls back to the full live scan.
        assert_eq!(
            db.probe(RelId(2), &[]),
            db.tuples_of(RelId(2)).collect::<Vec<_>>()
        );
        // A null binding on a shared attribute joins nothing.
        assert_eq!(
            db.probe(RelId(2), &[(country, Value::Null, TupleId(0))]),
            Vec::<TupleId>::new()
        );
        // One probe hit the index (fallback + null-binding also count
        // as probes; only index-answered ones are hits).
        assert_eq!(db.index_probes(), 3);
        assert_eq!(db.index_hits(), 2);
    }

    #[test]
    fn probe_multi_attr_intersection() {
        let db = tourist_db();
        let country = db.attr_id("Country").unwrap();
        let city = db.attr_id("City").unwrap();
        let mut bindings = vec![
            (country, Value::str("Canada"), TupleId(0)),
            (city, Value::str("London"), TupleId(0)),
        ];
        bindings.sort_by_key(|b| b.0);
        // Sites with Country=Canada ∧ City=London: only s1 (t6).
        assert_eq!(db.probe(RelId(2), &bindings), vec![TupleId(6)]);
    }

    #[test]
    fn indexes_track_inserts_and_tombstones() {
        let mut db = tourist_db();
        let country = db.attr_id("Country").unwrap();
        let canada = (country, Value::str("Canada"), TupleId(0));
        let t = db
            .insert_tuple(RelId(0), vec!["Canada".into(), "arctic".into()])
            .unwrap();
        assert_eq!(
            db.probe(RelId(0), std::slice::from_ref(&canada)),
            vec![TupleId(0), t]
        );
        db.remove_tuple(TupleId(0)).unwrap();
        assert_eq!(db.probe(RelId(0), std::slice::from_ref(&canada)), vec![t]);
        db.remove_tuple(t).unwrap();
        assert_eq!(
            db.probe(RelId(0), std::slice::from_ref(&canada)),
            Vec::<TupleId>::new()
        );
        db.verify_indexes().unwrap();
    }

    #[test]
    fn disabling_the_index_forces_the_scan_path() {
        let mut db = tourist_db();
        db.set_index_enabled(false);
        assert!(!db.index_enabled());
        let country = db.attr_id("Country").unwrap();
        let uk = (country, Value::str("UK"), TupleId(1));
        // Scan fallback over-approximates (every live tuple of the
        // relation); the caller's JCC check filters, so enumeration
        // stays correct — just slower.
        assert_eq!(
            db.probe(RelId(2), std::slice::from_ref(&uk)),
            db.tuples_of(RelId(2)).collect::<Vec<_>>()
        );
        assert_eq!(db.index_hits(), 0);
        assert_eq!(db.index_probes(), 1);
    }

    #[test]
    fn equal_strings_share_one_allocation_across_relations() {
        fn text(db: &Database, t: TupleId, attr: &str) -> Arc<str> {
            match db.tuple_value(t, db.attr_id(attr).unwrap()) {
                Some(Value::Str(s)) => Arc::clone(s.arc()),
                other => panic!("t{} {attr}: expected a string, got {other:?}", t.0),
            }
        }
        let mut db = tourist_db();
        // c1 (Climates) and a1 (Accommodations) were built from separate
        // `Value::str("Canada")` calls.
        let canada = text(&db, TupleId(0), "Country");
        assert!(Arc::ptr_eq(&canada, &text(&db, TupleId(3), "Country")));
        assert!(Arc::ptr_eq(&canada, &text(&db, TupleId(7), "Country")));
        assert!(!Arc::ptr_eq(&canada, &text(&db, TupleId(1), "Country")));
        // An insert into a third relation joins the same allocation,
        // and a string new to the database is kept for later rows.
        let s = db
            .insert_tuple(RelId(2), vec!["Canada".into(), "Banff".into(), NULL])
            .unwrap();
        assert!(Arc::ptr_eq(&canada, &text(&db, s, "Country")));
        let a = db
            .insert_tuple(
                RelId(1),
                vec!["UK".into(), "Banff".into(), "Fairmont".into(), NULL],
            )
            .unwrap();
        assert!(Arc::ptr_eq(&text(&db, s, "City"), &text(&db, a, "City")));
        assert!(Arc::ptr_eq(
            &text(&db, TupleId(1), "Country"),
            &text(&db, a, "Country")
        ));
    }

    #[test]
    fn verify_indexes_accepts_a_fresh_build() {
        tourist_db().verify_indexes().unwrap();
    }

    #[test]
    fn universal_schema_covers_all_attrs() {
        let db = tourist_db();
        let uni = universal_schema(&db);
        assert_eq!(uni.len(), 6);
        let pos = universal_positions(&db);
        assert_eq!(pos.len(), 6);
        for (i, a) in uni.iter().enumerate() {
            assert_eq!(pos[a], i);
        }
    }
}
