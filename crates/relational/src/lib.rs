//! # fd-relational
//!
//! The in-memory relational substrate underneath the full-disjunction
//! algorithms of Cohen & Sagiv (PODS 2005 / JCSS 2007):
//!
//! * [`Value`] — atomic values with the null `⊥` and the paper's
//!   join-consistency semantics (shared attributes must be equal **and**
//!   non-null); a string ([`IStr`]) carries its own hash, so the check
//!   rejects unequal strings on one word;
//! * [`Database`] / [`DatabaseBuilder`] — catalogs with a database-wide
//!   tuple id space and the relation connectivity graph; each database
//!   keeps one copy of each distinct string of its rows, so equal join
//!   values share an allocation;
//! * [`join`] / [`outerjoin`] — null-aware natural joins, binary full
//!   outerjoins, and subsumption removal (the Rajaraman–Ullman baseline's
//!   operators);
//! * [`hypergraph`] — α- (GYO) and γ- (D'Atri–Moscarini) acyclicity tests
//!   gating the outerjoin baseline;
//! * [`storage`] — simulated paged access with I/O accounting for the
//!   paper's Section 7 block-based execution;
//! * [`textio`] — a tiny textual table format for examples and docs;
//! * [`lockcheck`] — a named `Mutex` wrapper that detects
//!   lock-order inversions at runtime (on under `debug_assertions` or
//!   the `lockcheck` feature; transparent in release);
//! * [`changelog`] — [`Delta`]/[`DeltaBatch`]/[`Change`]: the mutation
//!   vocabulary of the dynamic-maintenance layer
//!   ([`Database::insert_tuple`] / [`Database::remove_tuple`]).
//!
//! The crate is dependency-free; schemas are immutable after build (so
//! algorithm crates can share `&Database` across threads) while the data
//! layer accepts tombstone-based inserts and deletes with stable ids.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod database;
mod error;
mod ids;
mod relation;
mod schema;
mod value;

pub mod changelog;
pub mod fxhash;
pub mod hypergraph;
pub mod join;
pub mod lockcheck;
pub mod outerjoin;
pub mod storage;
pub mod textio;

pub use changelog::{apply_batch, apply_delta, validate_batch, Change, Delta, DeltaBatch};
pub use database::{
    universal_positions, universal_schema, Database, DatabaseBuilder, RelationBuilder,
};
pub use error::{RelationalError, Result};
pub use ids::{AttrId, RelId, TupleId};
pub use relation::Relation;
pub use schema::Schema;
pub use value::{IStr, Value, NULL};

/// Builds the paper's running example: Table 1 (Climates, Accommodations,
/// Sites), including its null values. Exposed here because nearly every
/// test, example and benchmark anchors on it.
pub fn tourist_database() -> Database {
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
    b.build().expect("tourist database is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tourist_database_matches_table_1() {
        let db = tourist_database();
        assert_eq!(db.num_relations(), 3);
        assert_eq!(db.num_tuples(), 10);
        assert_eq!(db.tuple_label(TupleId(5)), "a3");
        let stars = db.attr_id("Stars").unwrap();
        assert!(db.tuple_value(TupleId(5), stars).unwrap().is_null());
    }
}
