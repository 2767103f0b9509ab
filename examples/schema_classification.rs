//! Database-integration substrate in action (the Section 7 context):
//! the schema's acyclicity classification with its join tree, which
//! decides whether an outerjoin plan is available, then the actual full
//! disjunction and ranked *approximate* retrieval over the same data.
//!
//! ```sh
//! cargo run --release --example schema_classification
//! ```

use full_disjunction::core::{AMin, EditDistanceSim};
use full_disjunction::prelude::*;
use full_disjunction::relational::hypergraph::{join_tree, Hypergraph};
use full_disjunction::workloads::{travel, DataSpec};

fn main() {
    // A 40-country travel corpus with missing cities and star ratings.
    let db = travel(
        40,
        300,
        &DataSpec {
            null_rate: 0.1,
            ..DataSpec::default()
        },
    );
    println!(
        "database: {} relations, {} tuples",
        db.num_relations(),
        db.num_tuples()
    );

    // 1. Schema classification: γ-acyclic, so even the restricted
    //    outerjoin plan would be available on null-free data; the join
    //    tree drives such plans.
    let hg = Hypergraph::of_database(&db);
    println!(
        "\nschema: α-acyclic = {}, γ-acyclic = {}",
        hg.is_alpha_acyclic(),
        hg.is_gamma_acyclic()
    );
    if let Some(jt) = join_tree(&db) {
        println!("join tree (child -> parent on shared attrs):");
        for (c, p, shared) in &jt.edges {
            let names: Vec<&str> = shared.iter().map(|&a| db.attr_name(a)).collect();
            println!(
                "  {} -> {} on {:?}",
                db.relation(RelId(*c as u16)).name(),
                db.relation(RelId(*p as u16)).name(),
                names
            );
        }
    }

    // 2. Execute: the actual full disjunction, then ranked approximate
    //    retrieval of the 5 best-rated combined answers, tolerant of the
    //    injected nulls and future typos.
    let fd = FdQuery::over(&db).run().unwrap().into_sets();
    println!("\nactual |FD| = {} tuple sets", fd.len());

    let stars = db.attr_id("Stars").expect("attribute exists");
    let imp = ImpScores::from_fn(&db, |t| match db.tuple_value(t, stars) {
        Some(Value::Int(s)) => *s as f64,
        _ => 0.0,
    });
    let f = FMax::new(&imp);
    let a = AMin::new(EditDistanceSim, ProbScores::uniform(&db, 1.0));
    println!("top-5 by star rating (approximate, τ = 0.9):");
    let top5 = FdQuery::over(&db)
        .approx(&a, 0.9)
        .ranked(&f)
        .top_k(5)
        .run()
        .unwrap()
        .into_ranked()
        .unwrap();
    for (set, rank) in top5 {
        println!("  rank {rank:.0}  {} tuples: {}", set.len(), set.label(&db));
    }
}
