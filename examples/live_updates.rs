//! Dynamic full disjunctions: maintain the paper's Table 2 while the
//! database changes, watching the result events stream by — all through
//! the transactional [`FdSession`] API.
//!
//! ```sh
//! cargo run --example live_updates
//! ```

use full_disjunction::prelude::*;

fn main() {
    // Start from Table 1 and materialize Table 2 (six tuple sets).
    let mut session = FdSession::new(tourist_database());
    println!("initial full disjunction: {} tuple sets", session.len());
    for set in session.canonical_results() {
        println!("  {}", set.label(session.db()));
    }
    assert_eq!(session.len(), 6);

    // Push subscribers see every commit's net events; a VecSink collects.
    let sink = VecSink::new();
    session.subscribe(sink.clone());

    // A new hotel opens in London, Canada: it joins c1 on Country and s1
    // on City, so a brand-new combined answer appears.
    println!("\ninsert Accommodations | Canada | London | Fairmont | 5");
    let commit = session
        .apply(Delta::Insert {
            rel: RelId(1),
            values: vec![
                "Canada".into(),
                "London".into(),
                "Fairmont".into(),
                5.into(),
            ],
        })
        .expect("insert");
    for event in &commit.events {
        println!("  {}", event.label(session.db()));
    }
    assert!(
        commit.events.iter().any(|e| matches!(e, FdEvent::Added(_))),
        "insert yields additions"
    );
    assert_eq!(sink.events(), commit.events, "the sink saw the same events");

    // The Ramada closes and a second climate arrives — two mutations,
    // ONE transaction, ONE maintenance pass.
    println!("\nbegin; delete a2 (t4); insert Climates | Chile | arid; commit");
    let mut batch = session.begin();
    batch
        .delete(TupleId(4))
        .insert(RelId(0), vec!["Chile".into(), "arid".into()]);
    let commit = session.commit(batch).expect("commit");
    for event in &commit.events {
        println!("  {}", event.label(session.db()));
    }
    assert_eq!(session.maintenance_passes(), 2);

    // The live state always equals a from-scratch recomputation of the
    // current snapshot — the subsystem's oracle invariant.
    assert!(session.verify_snapshot());

    // A ranked session keeps a top-k window current under the same
    // mutations. AttrMax ranks by the live attribute value, so it owns
    // no borrowed score table — the same function `fd serve` uses.
    let db = session.db().clone();
    let f = AttrMax::new(&db, "Stars").expect("Stars attribute");
    let mut ranked = FdSession::ranked(db, f, 2);
    println!("\ntop-2 by max(Stars):");
    for (set, rank) in ranked.window().expect("ranked session") {
        println!("  {:>5.1}  {}", rank, set.label(ranked.db()));
    }
    let commit = ranked
        .apply(Delta::Delete { tuple: TupleId(10) }) // the Fairmont again
        .expect("delete");
    let update = commit.topk.expect("ranked sessions report window changes");
    println!(
        "after deleting the Fairmont: {} window changes",
        update.entered.len() + update.left.len()
    );
    for (set, rank) in ranked.window().expect("ranked session") {
        println!("  {:>5.1}  {}", rank, set.label(ranked.db()));
    }
    println!(
        "\nsession: {} commits applied",
        session.maintenance_passes()
    );
}
