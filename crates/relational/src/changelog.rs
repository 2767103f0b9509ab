//! Mutation descriptions for dynamic databases.
//!
//! A [`Delta`] describes one *pending* mutation — the unit the live
//! maintenance engine applies; a [`DeltaBatch`] groups several pending
//! mutations into one transactional unit (what a session commits with a
//! single maintenance pass); a [`Change`] records a mutation that
//! *happened* (with the tuple id the database assigned).

use crate::database::Database;
use crate::error::Result;
use crate::ids::{RelId, TupleId};
use crate::value::Value;

/// One pending mutation against a [`Database`].
#[derive(Debug, Clone, PartialEq)]
pub enum Delta {
    /// Insert a tuple with the given values into a relation.
    Insert {
        /// Target relation.
        rel: RelId,
        /// Row values in the relation's column order.
        values: Vec<Value>,
    },
    /// Remove (tombstone) the tuple with this id.
    Delete {
        /// The tuple to remove.
        tuple: TupleId,
    },
}

/// An ordered group of pending mutations applied as one unit.
///
/// A batch is the argument of a transactional commit: every mutation is
/// validated up front, then all of them are applied to the [`Database`]
/// together ([`apply_batch`]) — either the whole batch lands or none of
/// it does — and downstream maintenance (the full-disjunction session)
/// runs **one** pass over the net change instead of one per mutation.
///
/// Deletes refer to tuple ids that are live *before* the batch; a tuple
/// inserted by the batch has no id until commit and cannot be deleted in
/// the same batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaBatch {
    deltas: Vec<Delta>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a tuple insertion.
    pub fn insert(&mut self, rel: RelId, values: Vec<Value>) -> &mut Self {
        self.deltas.push(Delta::Insert { rel, values });
        self
    }

    /// Queues a tuple deletion.
    pub fn delete(&mut self, tuple: TupleId) -> &mut Self {
        self.deltas.push(Delta::Delete { tuple });
        self
    }

    /// Queues an already-built [`Delta`].
    pub fn push(&mut self, delta: Delta) -> &mut Self {
        self.deltas.push(delta);
        self
    }

    /// Number of queued mutations.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// The queued mutations, in application order.
    pub fn deltas(&self) -> &[Delta] {
        &self.deltas
    }

    /// Consumes the batch, returning the queued mutations.
    pub fn into_deltas(self) -> Vec<Delta> {
        self.deltas
    }
}

impl From<Delta> for DeltaBatch {
    fn from(delta: Delta) -> Self {
        DeltaBatch {
            deltas: vec![delta],
        }
    }
}

impl FromIterator<Delta> for DeltaBatch {
    fn from_iter<I: IntoIterator<Item = Delta>>(iter: I) -> Self {
        DeltaBatch {
            deltas: iter.into_iter().collect(),
        }
    }
}

/// A realized mutation: what a [`Delta`] became once applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Change {
    /// A tuple was inserted and received this id.
    Inserted {
        /// The relation inserted into.
        rel: RelId,
        /// The id the database allocated.
        tuple: TupleId,
    },
    /// A tuple was tombstoned.
    Removed {
        /// The relation the tuple belonged to.
        rel: RelId,
        /// The removed tuple's id.
        tuple: TupleId,
    },
}

impl Change {
    /// The tuple the change concerns.
    pub fn tuple(&self) -> TupleId {
        match *self {
            Change::Inserted { tuple, .. } | Change::Removed { tuple, .. } => tuple,
        }
    }
}

/// Applies a delta to a database, returning the realized [`Change`].
pub fn apply_delta(db: &mut Database, delta: Delta) -> Result<Change> {
    match delta {
        Delta::Insert { rel, values } => {
            let tuple = db.insert_tuple(rel, values)?;
            Ok(Change::Inserted { rel, tuple })
        }
        Delta::Delete { tuple } => {
            if !db.is_live(tuple) {
                return Err(crate::error::RelationalError::NoSuchTuple { id: tuple.0 });
            }
            let rel = db.rel_of(tuple);
            db.remove_tuple(tuple)?;
            Ok(Change::Removed { rel, tuple })
        }
    }
}

/// Applies a whole batch to a database **atomically**: the batch is
/// validated up front without touching the database, so either every
/// mutation lands (returning the realized [`Change`]s, in order) or none
/// does and the database is untouched.
///
/// Validation covers everything [`Database::insert_tuple`] /
/// [`Database::remove_tuple`] can reject: unknown relations, arity
/// mismatches, id-space capacity, deletes of dead or unknown tuples —
/// including a tuple deleted *earlier in the same batch*.
pub fn apply_batch(db: &mut Database, batch: DeltaBatch) -> Result<Vec<Change>> {
    validate_batch(db, &batch)?;

    // Application pass: cannot fail after validation.
    let mut changes = Vec::with_capacity(batch.len());
    for delta in batch.into_deltas() {
        changes.push(apply_delta(db, delta).expect("validated batch mutations cannot fail"));
    }
    Ok(changes)
}

/// The validation pass of [`apply_batch`], as pure reads: succeeds iff
/// applying `batch` to `db` would succeed. Durable sessions call it
/// before appending the batch to a write-ahead log, so a batch that
/// would be rejected never reaches the log.
pub fn validate_batch(db: &Database, batch: &DeltaBatch) -> Result<()> {
    let mut pending_inserts: u64 = 0;
    let mut pending_deletes: Vec<TupleId> = Vec::new();
    for delta in batch.deltas() {
        match delta {
            Delta::Insert { rel, values } => {
                if rel.index() >= db.num_relations() {
                    return Err(crate::error::RelationalError::UnknownRelation {
                        relation: rel.to_string(),
                    });
                }
                let expected = db.relation(*rel).schema().arity();
                if values.len() != expected {
                    return Err(crate::error::RelationalError::ArityMismatch {
                        relation: db.relation(*rel).name().to_owned(),
                        expected,
                        got: values.len(),
                    });
                }
                pending_inserts += 1;
                if u64::from(db.tuple_id_bound()) + pending_inserts > u64::from(u32::MAX) {
                    return Err(crate::error::RelationalError::CapacityExceeded { what: "tuples" });
                }
            }
            Delta::Delete { tuple } => {
                if !db.is_live(*tuple) || pending_deletes.contains(tuple) {
                    return Err(crate::error::RelationalError::NoSuchTuple { id: tuple.0 });
                }
                pending_deletes.push(*tuple);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tourist_database;

    #[test]
    fn deltas_apply_and_log() {
        let mut db = tourist_database();
        let c1 = apply_delta(
            &mut db,
            Delta::Insert {
                rel: RelId(0),
                values: vec!["Chile".into(), "arid".into()],
            },
        )
        .unwrap();
        assert_eq!(c1.tuple(), TupleId(10));
        let c2 = apply_delta(&mut db, Delta::Delete { tuple: TupleId(0) }).unwrap();
        assert_eq!(
            [c1, c2],
            [
                Change::Inserted {
                    rel: RelId(0),
                    tuple: TupleId(10)
                },
                Change::Removed {
                    rel: RelId(0),
                    tuple: TupleId(0)
                },
            ]
        );
        assert_eq!(db.num_tuples(), 10);
    }

    #[test]
    fn deleting_a_dead_tuple_is_an_error() {
        let mut db = tourist_database();
        apply_delta(&mut db, Delta::Delete { tuple: TupleId(3) }).unwrap();
        assert!(apply_delta(&mut db, Delta::Delete { tuple: TupleId(3) }).is_err());
    }

    #[test]
    fn batches_apply_atomically() {
        let mut db = tourist_database();
        let mut batch = DeltaBatch::new();
        batch
            .insert(RelId(0), vec!["Chile".into(), "arid".into()])
            .delete(TupleId(0))
            .insert(RelId(0), vec!["Peru".into(), "arid".into()]);
        assert_eq!(batch.len(), 3);
        let changes = apply_batch(&mut db, batch).unwrap();
        assert_eq!(changes.len(), 3);
        assert_eq!(
            changes[0],
            Change::Inserted {
                rel: RelId(0),
                tuple: TupleId(10)
            }
        );
        assert_eq!(changes[2].tuple(), TupleId(11));
        assert!(!db.is_live(TupleId(0)));
        assert!(db.is_live(TupleId(11)));
    }

    #[test]
    fn invalid_batches_leave_the_database_untouched() {
        let mut db = tourist_database();
        let before_bound = db.tuple_id_bound();

        // A bad trailing mutation must roll back the whole batch.
        for bad in [
            Delta::Delete { tuple: TupleId(99) }, // unknown tuple
            Delta::Delete { tuple: TupleId(0) },  // duplicate delete (queued below)
            Delta::Insert {
                rel: RelId(7),
                values: vec![],
            }, // unknown relation
            Delta::Insert {
                rel: RelId(0),
                values: vec!["just-one".into()], // arity mismatch
            },
        ] {
            let mut batch = DeltaBatch::new();
            batch
                .insert(RelId(0), vec!["Chile".into(), "arid".into()])
                .delete(TupleId(0))
                .push(bad);
            assert!(apply_batch(&mut db, batch).is_err());
            assert_eq!(db.tuple_id_bound(), before_bound, "insert leaked");
            assert!(db.is_live(TupleId(0)), "delete leaked");
        }
    }
}
