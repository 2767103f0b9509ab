//! Relations: a named schema plus a bag of rows.

use crate::error::{RelationalError, Result};
use crate::ids::{AttrId, RelId};
use crate::schema::Schema;
use crate::value::Value;

/// One source relation `Ri`.
///
/// Rows are stored row-major (`Box<[Value]>` per row); the paper's
/// algorithms scan whole relations tuple by tuple, which row storage serves
/// directly. Rows may contain nulls — the paper explicitly allows null
/// values in source relations.
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    id: RelId,
    schema: Schema,
    rows: Vec<Box<[Value]>>,
}

impl Relation {
    /// Creates a relation. Called by the database builder, which has
    /// already interned the attribute names.
    pub(crate) fn new(name: String, id: RelId, schema: Schema) -> Self {
        Relation {
            name,
            id,
            schema,
            rows: Vec::new(),
        }
    }

    /// Appends a row, validating arity.
    pub(crate) fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(RelationalError::ArityMismatch {
                relation: self.name.clone(),
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        self.rows.push(row.into_boxed_slice());
        Ok(())
    }

    /// The relation's name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation's id (its index in the database's relation list).
    #[inline]
    pub fn id(&self) -> RelId {
        self.id
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
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

    /// The `row`-th tuple's values, in column order.
    #[inline]
    pub fn row(&self, row: usize) -> &[Value] {
        &self.rows[row]
    }

    /// The `row`-th tuple's values, mutably (the database swaps each
    /// string for its shared copy).
    #[inline]
    pub(crate) fn row_mut(&mut self, row: usize) -> &mut [Value] {
        &mut self.rows[row]
    }

    /// All rows.
    #[inline]
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> {
        self.rows.iter().map(|r| r.as_ref())
    }

    /// Value of `attr` in the `row`-th tuple (`t[A]` in the paper), or
    /// `None` if the attribute is not in this schema.
    #[inline]
    pub fn value(&self, row: usize, attr: AttrId) -> Option<&Value> {
        self.schema.column_of(attr).map(|c| &self.rows[row][c])
    }

    /// Total size of the relation measured the way the paper measures `s`:
    /// number of (tuple, attribute, value) entries.
    pub fn total_size(&self) -> usize {
        self.len() * self.schema.arity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_relation() -> Relation {
        let schema = Schema::new(vec![AttrId(0), AttrId(1)]);
        let mut r = Relation::new("T".into(), RelId(0), schema);
        r.push_row(vec![Value::Int(1), Value::str("a")]).unwrap();
        r.push_row(vec![Value::Int(2), Value::Null]).unwrap();
        r
    }

    #[test]
    fn rows_round_trip() {
        let r = test_relation();
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(0)[0], Value::Int(1));
        assert_eq!(r.value(1, AttrId(1)), Some(&Value::Null));
        assert_eq!(r.value(0, AttrId(7)), None);
        assert_eq!(r.total_size(), 4);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let schema = Schema::new(vec![AttrId(0), AttrId(1)]);
        let mut r = Relation::new("T".into(), RelId(0), schema);
        let err = r.push_row(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(
            err,
            RelationalError::ArityMismatch {
                got: 1,
                expected: 2,
                ..
            }
        ));
    }
}
