//! Transactional sessions: batch several mutations, commit them in ONE
//! maintenance pass, and let subscribers receive the net-effect events
//! by push instead of polling.
//!
//! ```sh
//! cargo run --example session_batch
//! ```

use full_disjunction::prelude::*;

fn main() {
    // Open a session over Table 1 of the paper — the session clones the
    // database, materializes Table 2 (six tuple sets) and maintains it.
    let db = tourist_database();
    let mut session = FdQuery::over(&db).session().expect("plain session");
    println!("session opened: {} tuple sets", session.len());

    // Two push subscribers: a collecting sink and an mpsc channel (what
    // a network front end would drain).
    let sink = VecSink::new();
    session.subscribe(sink.clone());
    let (channel, events_rx) = ChannelSink::new();
    session.subscribe(channel);

    // One transaction, three mutations: a new hotel joining c1 and s1,
    // a brand-new country, and the Ramada closing. Commit applies all
    // three to the database atomically and runs ONE maintenance pass —
    // deletes processed as a group, inserts seeded together in a single
    // multi-seed FDi run.
    let mut batch = session.begin();
    batch
        .insert(
            RelId(1),
            vec![
                "Canada".into(),
                "London".into(),
                "Fairmont".into(),
                5.into(),
            ],
        )
        .insert(RelId(0), vec!["Chile".into(), "arid".into()])
        .delete(TupleId(4)); // the Ramada (a2)
    let commit = session.commit(batch).expect("valid batch");

    println!(
        "\ncommitted {} mutations in {} maintenance pass(es):",
        commit.changes.len(),
        session.maintenance_passes()
    );
    for event in &commit.events {
        println!("  {}", event.label(session.db()));
    }
    assert_eq!(session.maintenance_passes(), 1);

    // Both subscribers saw exactly the commit's net-effect events.
    let pushed: Vec<FdEvent> = events_rx.try_iter().collect();
    assert_eq!(pushed, commit.events);
    assert_eq!(sink.events(), commit.events);
    println!("subscribers received {} pushed events", pushed.len());

    // A failed commit is transactional: nothing changes, typed error.
    let mut bad = session.begin();
    bad.insert(RelId(0), vec!["Peru".into(), "arid".into()])
        .delete(TupleId(999));
    let err = session.commit(bad).expect_err("t999 does not exist");
    println!("\nrejected commit: {err}");
    assert!(matches!(err, FdError::Mutation { .. }));
    assert_eq!(session.maintenance_passes(), 1, "no pass on failure");

    // The invariant: the maintained state equals a from-scratch
    // recomputation of the current snapshot.
    assert!(session.verify_snapshot());

    // Ranked sessions maintain a top-k window through the same commits.
    let stars = db.attr_id("Stars").expect("Stars attribute");
    let imp = ImpScores::from_fn(&db, |t| match db.tuple_value(t, stars) {
        Some(Value::Int(i)) => *i as f64,
        _ => 0.0,
    });
    let mut ranked = FdQuery::over(&db)
        .ranked(FMax::new(&imp))
        .top_k(2)
        .session()
        .expect("ranked session");
    println!("\ntop-2 by max(Stars):");
    for (set, rank) in ranked.window().expect("ranked") {
        println!("  {:>5.1}  {}", rank, set.label(ranked.db()));
    }
    let mut batch = ranked.begin();
    batch.delete(TupleId(3)).delete(TupleId(4)); // both London hotels close
    let commit = ranked.commit(batch).expect("valid batch");
    let update = commit.topk.expect("ranked commits report the window");
    println!(
        "after one batched commit: {} entered, {} left the window",
        update.entered.len(),
        update.left.len()
    );
    for (set, rank) in ranked.window().expect("ranked") {
        println!("  {:>5.1}  {}", rank, set.label(ranked.db()));
    }
    assert!(ranked.verify_snapshot());

    println!(
        "\nsession: {} commit(s) applied",
        session.maintenance_passes()
    );
}
