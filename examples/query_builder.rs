//! Tour of `FdQuery`, the unified builder: every enumeration mode of the
//! paper's algorithm family — batch, streaming, ranked top-k/threshold,
//! approximate, ranked-approximate, parallel, delta and live — behind one
//! typed entry point, with engine/page-size/init knobs honored uniformly
//! and invalid combinations surfacing as typed `FdError`s.
//!
//! ```sh
//! cargo run --example query_builder
//! ```

use full_disjunction::core::{ExactSim, FdQuery};
use full_disjunction::prelude::*;

fn main() -> Result<(), FdError> {
    let db = tourist_database();

    // 1. Batch, with explicit execution knobs (Section 7 ablation axes).
    let fd = FdQuery::over(&db)
        .engine(StoreEngine::Scan)
        .page_size(4)
        .init(InitStrategy::ReuseResults)
        .run()?;
    println!("batch: {} tuple sets (Table 2 of the paper)", fd.len());

    // 2. Streaming with polynomial delay — one enum-backed stream type
    //    regardless of mode.
    let mut stream = FdQuery::over(&db).stream()?;
    let first = stream.next().expect("non-empty")?;
    println!("stream: first answer {}", first.label(&db));

    // 3. Ranked enumeration (PRIORITYINCREMENTALFD): prefer high tuple
    //    ids, take the top 3, in non-increasing rank order.
    let imp = ImpScores::from_fn(&db, |t| t.0 as f64);
    let top = FdQuery::over(&db).ranked(FMax::new(&imp)).top_k(3).run()?;
    for (set, rank) in top.sets().iter().zip(top.ranks().expect("ranked mode")) {
        println!("ranked: {rank:>4.1}  {}", set.label(&db));
    }

    // 4. Threshold variant (Remark 5.6), streamed.
    let at_least_5 = FdQuery::over(&db)
        .ranked(FMax::new(&imp))
        .threshold(5.0)
        .run()?;
    println!("threshold ≥ 5: {} answers", at_least_5.len());

    // 5. Approximate full disjunction (APPROXINCREMENTALFD), and the
    //    ranked-approximate combination the paper sketches at the end of
    //    Section 6 — same builder, same knobs.
    let a = AMin::new(ExactSim, ProbScores::uniform(&db, 1.0));
    let afd = FdQuery::over(&db).approx(&a, 0.9).run()?;
    let ranked_afd = FdQuery::over(&db)
        .approx(&a, 0.9)
        .ranked(FMax::new(&imp))
        .top_k(2)
        .run()?;
    println!(
        "approx: {} sets; ranked-approx top-2 best rank {:.1}",
        afd.len(),
        ranked_afd.ranks().expect("ranked mode")[0]
    );

    // 6. Parallel execution — batch across the independent FDi runs,
    //    and *ranked*: sharded priority queues whose answers are sorted
    //    once into the exact canonical ranking for any worker count
    //    (here equal to the sequential plan, whose stream is in order).
    let par = FdQuery::over(&db).parallel(4).run()?;
    assert_eq!(par.len(), fd.len());
    println!("parallel: {} tuple sets across 4 workers", par.len());
    let par_ranked = FdQuery::over(&db)
        .ranked(FMax::new(&imp))
        .top_k(3)
        .parallel(4)
        .run()?;
    assert_eq!(top.sets(), par_ranked.sets());
    assert_eq!(top.ranks(), par_ranked.ranks());
    println!(
        "parallel ranked: top-{} identical to the sequential plan across 4 workers",
        par_ranked.len()
    );

    // 7. Delta maintenance through the same builder (no bare FdConfig).
    let mut mutable = tourist_database();
    let before = FdQuery::over(&mutable).run()?.into_sets();
    let t = mutable
        .insert_tuple(RelId(0), vec!["Chile".into(), "arid".into()])
        .expect("valid row");
    let delta = FdQuery::over(&mutable).delta_insert(t, &before)?;
    println!(
        "delta: +{} / -{} after inserting {}",
        delta.added.len(),
        delta.subsumed.len(),
        mutable.tuple_label(t)
    );

    // 8. Live maintenance is built from a query too: `.session()` turns
    // the configured builder into a transactional FdSession.
    let mut session = FdQuery::over(&db).engine(StoreEngine::Indexed).session()?;
    let commit = session
        .apply(Delta::Insert {
            rel: RelId(0),
            values: vec!["Iceland".into(), "arctic".into()],
        })
        .expect("valid row");
    println!("live: {} event(s) from one insert", commit.events.len());

    // 9. Invalid combinations are typed errors, not panics.
    let err = FdQuery::over(&db).top_k(3).run().unwrap_err();
    println!("typed error: {err}");
    assert_eq!(err, FdError::RankingRequired { option: ".top_k" });
    let err = FdQuery::over(&db).approx(&a, 1.5).run().unwrap_err();
    println!("typed error: {err}");

    Ok(())
}
