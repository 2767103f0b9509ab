//! Null-aware natural joins over derived (schema-carrying) relations.
//!
//! The paper's baselines need classical operators: the natural join (for
//! the NP-hardness reduction of Prop. 5.1 and the join-emptiness oracle)
//! and the binary full outerjoin (for the Rajaraman–Ullman 1996 baseline,
//! see [`crate::outerjoin`]). Matching follows the paper's null semantics:
//! a shared attribute matches only when both values are **equal and
//! non-null**.

use crate::database::Database;
use crate::fxhash::FxHashMap;
use crate::ids::{AttrId, RelId};
use crate::value::Value;

/// An intermediate relation whose schema is an explicit, ascending
/// attribute list. Source relations are converted into this form before
/// algebraic operators run over them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerivedRelation {
    /// Attributes in ascending id order.
    pub attrs: Vec<AttrId>,
    /// Rows aligned with `attrs`.
    pub rows: Vec<Box<[Value]>>,
}

impl DerivedRelation {
    /// An empty relation over the given (ascending) attributes.
    pub fn empty(mut attrs: Vec<AttrId>) -> Self {
        attrs.sort_unstable();
        attrs.dedup();
        DerivedRelation {
            attrs,
            rows: Vec::new(),
        }
    }

    /// Converts a stored relation, reordering columns to ascending
    /// attribute order.
    pub fn from_relation(db: &Database, rel: RelId) -> Self {
        let r = db.relation(rel);
        let by_attr = r.schema().columns_by_attr();
        let attrs: Vec<AttrId> = by_attr.iter().map(|&(a, _)| a).collect();
        let rows = r
            .rows()
            .map(|row| {
                by_attr
                    .iter()
                    .map(|&(_, col)| row[col as usize].clone())
                    .collect::<Box<[Value]>>()
            })
            .collect();
        DerivedRelation { attrs, rows }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the relation empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Position of `attr` in this relation's column list.
    #[inline]
    pub fn column_of(&self, attr: AttrId) -> Option<usize> {
        self.attrs.binary_search(&attr).ok()
    }

    /// Sorts rows lexicographically and removes exact duplicates.
    pub fn sort_dedup(&mut self) {
        self.rows.sort_unstable();
        self.rows.dedup();
    }
}

/// Column bookkeeping shared by join operators: which columns of `a`/`b`
/// are join columns, and how output columns map back to input columns.
struct JoinPlan {
    /// Output attribute list (sorted union).
    out_attrs: Vec<AttrId>,
    /// For each output column: `(from_b, input_column)`. Shared attributes
    /// read from side `a`.
    out_src: Vec<(bool, usize)>,
    /// Columns of `a` that are shared with `b`.
    a_key: Vec<usize>,
    /// Columns of `b` that are shared with `a`, aligned with `a_key`.
    b_key: Vec<usize>,
}

fn plan(a: &DerivedRelation, b: &DerivedRelation) -> JoinPlan {
    let mut out_attrs = Vec::with_capacity(a.attrs.len() + b.attrs.len());
    let mut out_src = Vec::with_capacity(a.attrs.len() + b.attrs.len());
    let mut a_key = Vec::new();
    let mut b_key = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.attrs.len() || j < b.attrs.len() {
        if j >= b.attrs.len() || (i < a.attrs.len() && a.attrs[i] < b.attrs[j]) {
            out_attrs.push(a.attrs[i]);
            out_src.push((false, i));
            i += 1;
        } else if i >= a.attrs.len() || b.attrs[j] < a.attrs[i] {
            out_attrs.push(b.attrs[j]);
            out_src.push((true, j));
            j += 1;
        } else {
            out_attrs.push(a.attrs[i]);
            out_src.push((false, i));
            a_key.push(i);
            b_key.push(j);
            i += 1;
            j += 1;
        }
    }
    JoinPlan {
        out_attrs,
        out_src,
        a_key,
        b_key,
    }
}

/// A hashable join key; `None` when any key column is null (null never
/// matches anything, per the paper's join-consistency semantics).
fn key_of(row: &[Value], cols: &[usize]) -> Option<Vec<Value>> {
    let mut key = Vec::with_capacity(cols.len());
    for &c in cols {
        if row[c].is_null() {
            return None;
        }
        key.push(row[c].clone());
    }
    Some(key)
}

fn merge_rows(p: &JoinPlan, ra: &[Value], rb: &[Value]) -> Box<[Value]> {
    p.out_src
        .iter()
        .map(|&(from_b, c)| if from_b { rb[c].clone() } else { ra[c].clone() })
        .collect()
}

/// Null-aware natural join. With no shared attributes this degenerates to
/// the Cartesian product (standard natural-join semantics).
///
/// Hash join: builds on the smaller input, probes with the larger.
pub fn natural_join(a: &DerivedRelation, b: &DerivedRelation) -> DerivedRelation {
    // Build on the smaller side (perf-book: cheapest-side hash build).
    let (build, probe, swapped) = if a.len() <= b.len() {
        (a, b, false)
    } else {
        (b, a, true)
    };
    let p = plan(a, b);
    let (build_key, probe_key) = if swapped {
        (p.b_key.clone(), p.a_key.clone())
    } else {
        (p.a_key.clone(), p.b_key.clone())
    };

    let mut table: FxHashMap<Vec<Value>, Vec<usize>> = FxHashMap::default();
    for (idx, row) in build.rows.iter().enumerate() {
        if let Some(k) = key_of(row, &build_key) {
            table.entry(k).or_default().push(idx);
        }
    }

    let mut out = DerivedRelation {
        attrs: p.out_attrs.clone(),
        rows: Vec::new(),
    };
    if p.a_key.is_empty() {
        // Cartesian product.
        for ra in &a.rows {
            for rb in &b.rows {
                out.rows.push(merge_rows(&p, ra, rb));
            }
        }
        return out;
    }
    for prow in &probe.rows {
        let Some(k) = key_of(prow, &probe_key) else {
            continue;
        };
        if let Some(matches) = table.get(&k) {
            for &bidx in matches {
                let brow = &build.rows[bidx];
                let (ra, rb) = if swapped { (prow, brow) } else { (brow, prow) };
                out.rows.push(merge_rows(&p, &ra[..], &rb[..]));
            }
        }
    }
    out
}

/// Natural join of many relations, left to right.
pub fn natural_join_all(db: &Database, rels: &[RelId]) -> DerivedRelation {
    assert!(
        !rels.is_empty(),
        "natural_join_all needs at least one relation"
    );
    let mut acc = DerivedRelation::from_relation(db, rels[0]);
    for &r in &rels[1..] {
        acc = natural_join(&acc, &DerivedRelation::from_relation(db, r));
    }
    acc
}

/// Full outerjoin building blocks, shared with [`crate::outerjoin`]:
/// returns `(joined, a_matched, b_matched)` flags alongside the inner join.
pub(crate) fn join_with_match_flags(
    a: &DerivedRelation,
    b: &DerivedRelation,
) -> (DerivedRelation, Vec<bool>, Vec<bool>, JoinColumns) {
    let p = plan(a, b);
    let mut table: FxHashMap<Vec<Value>, Vec<usize>> = FxHashMap::default();
    for (idx, row) in a.rows.iter().enumerate() {
        if let Some(k) = key_of(row, &p.a_key) {
            table.entry(k).or_default().push(idx);
        }
    }
    let mut a_matched = vec![false; a.len()];
    let mut b_matched = vec![false; b.len()];
    let mut out = DerivedRelation {
        attrs: p.out_attrs.clone(),
        rows: Vec::new(),
    };
    for (jdx, brow) in b.rows.iter().enumerate() {
        let Some(k) = key_of(brow, &p.b_key) else {
            continue;
        };
        if let Some(matches) = table.get(&k) {
            for &idx in matches {
                a_matched[idx] = true;
                b_matched[jdx] = true;
                out.rows.push(merge_rows(&p, &a.rows[idx], brow));
            }
        }
    }
    let cols = JoinColumns { out_src: p.out_src };
    (out, a_matched, b_matched, cols)
}

/// Output-column provenance needed to pad dangling rows.
pub(crate) struct JoinColumns {
    /// `(from_b, input_column)` per output column.
    pub out_src: Vec<(bool, usize)>,
}

impl JoinColumns {
    /// Pads a left-side row into the output schema (nulls for b-only
    /// columns).
    pub(crate) fn pad_left(&self, ra: &[Value]) -> Box<[Value]> {
        self.out_src
            .iter()
            .map(|&(from_b, c)| if from_b { Value::Null } else { ra[c].clone() })
            .collect()
    }

    /// Pads a right-side row into the output schema. Shared columns come
    /// from the left in `out_src`, so recover them from `b` via the fact
    /// that shared attrs exist in both: for a dangling `b` row the shared
    /// values are `b`'s own.
    pub(crate) fn pad_right(
        &self,
        b: &DerivedRelation,
        attrs: &[AttrId],
        rb: &[Value],
    ) -> Box<[Value]> {
        attrs
            .iter()
            .map(|a| match b.column_of(*a) {
                Some(c) => rb[c].clone(),
                None => Value::Null,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::DatabaseBuilder;
    use crate::value::NULL;

    fn two_rel_db() -> Database {
        let mut b = DatabaseBuilder::new();
        b.relation("R", &["A", "B"])
            .row([1, 10])
            .row([2, 20])
            .row_values(vec![3.into(), NULL]);
        b.relation("S", &["B", "C"])
            .row([10, 100])
            .row([10, 101])
            .row([30, 300]);
        b.build().unwrap()
    }

    #[test]
    fn natural_join_matches_on_shared_attrs() {
        let db = two_rel_db();
        let out = natural_join_all(&db, &[RelId(0), RelId(1)]);
        // Only B=10 matches, twice.
        assert_eq!(out.len(), 2);
        assert_eq!(out.attrs.len(), 3);
        let mut cs: Vec<i64> = out
            .rows
            .iter()
            .map(|r| match &r[2] {
                Value::Int(i) => *i,
                v => panic!("unexpected {v:?}"),
            })
            .collect();
        cs.sort_unstable();
        assert_eq!(cs, vec![100, 101]);
    }

    #[test]
    fn null_join_keys_never_match() {
        let db = two_rel_db();
        let r = DerivedRelation::from_relation(&db, RelId(0));
        let s = DerivedRelation::from_relation(&db, RelId(1));
        let out = natural_join(&r, &s);
        // Row (3, ⊥) contributes nothing even though S has rows.
        assert!(out.rows.iter().all(|row| row[0] != Value::Int(3)));
    }

    #[test]
    fn disjoint_schemas_produce_cartesian_product() {
        let mut b = DatabaseBuilder::new();
        b.relation("X", &["A"]).row([1]).row([2]);
        b.relation("Y", &["B"]).row([7]).row([8]).row([9]);
        let db = b.build().unwrap();
        let out = natural_join_all(&db, &[RelId(0), RelId(1)]);
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn join_result_column_order_is_ascending_attrs() {
        let db = two_rel_db();
        let out = natural_join_all(&db, &[RelId(0), RelId(1)]);
        let mut sorted = out.attrs.clone();
        sorted.sort_unstable();
        assert_eq!(out.attrs, sorted);
    }

    #[test]
    fn sort_dedup_removes_duplicates() {
        let mut r = DerivedRelation::empty(vec![AttrId(0)]);
        r.rows.push(Box::new([Value::Int(1)]));
        r.rows.push(Box::new([Value::Int(1)]));
        r.rows.push(Box::new([Value::Int(0)]));
        r.sort_dedup();
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0][0], Value::Int(0));
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        let a = DerivedRelation::empty(vec![AttrId(0), AttrId(1)]);
        let b = DerivedRelation::empty(vec![AttrId(1), AttrId(2)]);
        assert!(natural_join(&a, &b).is_empty());
    }

    #[test]
    fn build_side_swap_is_transparent() {
        // Larger left side forces the swapped code path.
        let mut a = DerivedRelation::empty(vec![AttrId(0)]);
        for i in 0..10 {
            a.rows.push(Box::new([Value::Int(i)]));
        }
        let mut b = DerivedRelation::empty(vec![AttrId(0)]);
        b.rows.push(Box::new([Value::Int(3)]));
        let out1 = natural_join(&a, &b);
        let out2 = natural_join(&b, &a);
        assert_eq!(out1.len(), 1);
        assert_eq!(out2.len(), 1);
        assert_eq!(out1.rows[0], out2.rows[0]);
    }
}
