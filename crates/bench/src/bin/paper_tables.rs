//! Regenerates every table and figure of the paper plus the measured
//! experiment tables E3–E16 (see the README's "Build, test, bench"
//! section). Every table that compares contenders asserts that their
//! answers agree before printing a time, so a panic is a correctness
//! failure.
//!
//! ```sh
//! cargo run --release -p fd-bench --bin paper_tables           # full
//! cargo run --release -p fd-bench --bin paper_tables -- --fast # small sizes
//! ```

use fd_baselines::{exhaustive_top1_fsum, naive_top_k, outerjoin_fd, pio_fd};
use fd_bench::{
    bench_chain, bench_noisy_chain, bench_star, fmt_duration, nearest_rank, time_median, time_once,
};
use fd_core::delta::delta_insert_many;
use fd_core::serve::{Client, Server};
use fd_core::session::{DeltaBatch, FdSession};
use fd_core::sim::TableSim;
use fd_core::store::FsyncPolicy;
use fd_core::{
    canonicalize, format_results, AMin, AProd, ApproxJoin, EditDistanceSim, ExactSim, FMax,
    FPairSum, FTriple, FdConfig, FdIter, FdQuery, FdiIter, ImpScores, InitStrategy,
    MonotoneCDetermined, ProbScores, RankedFdIter, TupleSet,
};
use fd_relational::textio::{format_relation, format_table};
use fd_relational::{tourist_database, Database, RelId, TupleId, Value};
use fd_workloads::{chain, random_importance, DataSpec};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let scale = if fast { 1 } else { 2 };

    table_1_and_2();
    table_3();
    figure_4_examples();
    e3_total_runtime(scale);
    e4_first_k(scale);
    e5_scaling(scale);
    e6_ranked_topk(scale);
    e7_nphard(fast);
    e8_e9_approx(scale);
    e10_store_ablation(scale);
    e11_init_ablation(scale);
    e12_block_ablation(scale);
    e13_parallel(scale);
    e14_delta_maintenance(scale);
    e14_fd_sweep(fast);
    e15_serve_fanout(scale);
    e16_durability(scale);
}

fn header(title: &str) {
    println!("\n══════════════════════════════════════════════════════════════");
    println!("{title}");
    println!("══════════════════════════════════════════════════════════════");
}

/// E1: Table 1 (the source relations) and Table 2 (their full
/// disjunction).
fn table_1_and_2() {
    header("E1 — Table 1 (sources) and Table 2 (full disjunction)");
    let db = tourist_database();
    for rel in db.relations() {
        println!("{}", format_relation(&db, rel.id()));
    }
    let fd = canonicalize(FdQuery::over(&db).run().unwrap().into_sets());
    println!(
        "{}",
        format_results(&db, "Table 2: FD(Climates, Accommodations, Sites)", &fd)
    );
}

/// E2: Table 3 — the Incomplete/Complete trace of
/// `INCREMENTALFD({Climates, Accommodations, Sites}, 1)`.
fn table_3() {
    header("E2 — Table 3: the execution trace of INCREMENTALFD(R, 1)");
    let db = tourist_database();
    let mut it = FdiIter::with_config(&db, RelId(0), FdConfig::paper_faithful());
    let mut columns: Vec<(String, Vec<String>, Vec<String>)> = Vec::new();
    let (inc, comp) = it.snapshot();
    columns.push(("Initialization".into(), inc, comp));
    let mut iteration = 0;
    while it.next().is_some() {
        iteration += 1;
        let (inc, comp) = it.snapshot();
        columns.push((format!("Iteration {iteration}"), inc, comp));
    }
    for (name, inc, comp) in &columns {
        println!("{name}:");
        println!(
            "  Incomplete: {}",
            if inc.is_empty() {
                "∅".into()
            } else {
                inc.join("  ")
            }
        );
        println!(
            "  Complete:   {}",
            if comp.is_empty() {
                "∅".into()
            } else {
                comp.join("  ")
            }
        );
    }
}

/// E8 (part 1): Fig. 4 with Examples 6.1 and 6.3.
fn figure_4_examples() {
    header("E8 — Fig. 4 / Examples 6.1 and 6.3");
    let db = tourist_database();
    let (c1, a2, s1, s2) = (TupleId(0), TupleId(4), TupleId(6), TupleId(7));
    let mut sim = TableSim::new(ExactSim);
    sim.set(c1, a2, 0.8);
    sim.set(c1, s1, 0.8);
    sim.set(c1, s2, 0.8);
    sim.set(a2, s1, 1.0);
    sim.set(a2, s2, 0.5);
    let prob = ProbScores::from_fn(&db, |t| match t.0 {
        0 => 0.9,
        4 => 1.0,
        6 => 0.9,
        7 => 0.7,
        _ => 1.0,
    });
    let amin = AMin::new(sim.clone(), prob);
    let aprod = AProd::new(sim);
    println!(
        "A_min({{c1,a2,s2}})  = {}   (paper: 0.5)",
        amin.score(&db, &[c1, a2, s2])
    );
    println!(
        "A_prod({{c1,a2,s2}}) = {}  (paper: 0.32)",
        aprod.score(&db, &[c1, a2, s2])
    );
    let t = fd_core::jcc::rebuild(&db, vec![c1, a2, s1]);
    let mut stats = fd_core::Stats::new();
    let variants: [(&str, &dyn ApproxJoin); 2] = [("A_min", &amin), ("A_prod", &aprod)];
    for (name, a) in variants {
        let mut labels = Vec::new();
        a.for_each_maximal_subset(
            &db,
            &fd_core::SimMemo::default(),
            &t,
            s2,
            0.4,
            &mut Vec::new(),
            &mut stats,
            &mut |m, _| labels.push(fd_core::jcc::rebuild(&db, m.to_vec()).label(&db)),
        );
        println!(
            "Example 6.3 (τ=0.4): {name} maximal subsets: {}",
            labels.join(", ")
        );
    }
}

/// E3: total-runtime comparison (Cor. 4.9 vs reference \[3\] and \[2\]).
/// "Incremental" is the plain n-run algorithm; "Sec.7" adds the paper's
/// repeated-work optimization (TrimExtend initialization) — the
/// configuration the paper positions against \[3\].
fn e3_total_runtime(scale: usize) {
    header("E3 — total runtime: INCREMENTALFD vs batch [3] vs outerjoin [2]");
    let trim = FdConfig {
        init: InitStrategy::TrimExtend,
        ..FdConfig::default()
    };
    let mut rows_out = Vec::new();
    for (shape, db) in [
        ("chain n=3", bench_chain(3, 50 * scale)),
        ("chain n=4", bench_chain(4, 16 * scale)),
        ("star  n=4", bench_star(4, 16 * scale)),
    ] {
        let (fd, t_naive) = time_median(3, || FdQuery::over(&db).run().unwrap().into_sets());
        let (fd7, t_sec7) = time_median(3, || {
            FdQuery::over(&db)
                .with_config(trim)
                .run()
                .unwrap()
                .into_sets()
        });
        let ((batch, _), t_batch) = time_median(3, || pio_fd(&db));
        assert_eq!(canonicalize(fd.clone()), batch);
        assert_eq!(canonicalize(fd7), batch);
        let t_oj = match time_median(3, || outerjoin_fd(&db)) {
            (Ok(_), t) => fmt_duration(t),
            (Err(e), _) => format!("refused ({e})"),
        };
        rows_out.push(vec![
            shape.to_string(),
            db.num_tuples().to_string(),
            fd.len().to_string(),
            fmt_duration(t_naive),
            fmt_duration(t_sec7),
            fmt_duration(t_batch),
            t_oj,
            format!("{:.1}x", t_batch.as_secs_f64() / t_sec7.as_secs_f64()),
        ]);
    }
    println!(
        "{}",
        format_table(
            "total runtime (median of 3)",
            &[
                "workload",
                "tuples",
                "|FD|",
                "incremental",
                "incr. + Sec.7",
                "batch [3]",
                "outerjoin [2]",
                "Sec.7 vs [3]",
            ],
            &rows_out
        )
    );
}

/// E4: time to the first k answers (Thm 4.10 / PINC).
fn e4_first_k(scale: usize) {
    header("E4 — time to first k answers (incremental vs batch)");
    let db = bench_chain(5, 12 * scale);
    let (_, t_batch) = time_median(1, || pio_fd(&db));
    let mut rows_out = Vec::new();
    for k in [1usize, 10, 100] {
        let (got, t_k) = time_median(3, || FdIter::new(&db).take(k).count());
        rows_out.push(vec![
            k.to_string(),
            got.to_string(),
            fmt_duration(t_k),
            fmt_duration(t_batch),
            format!(
                "{:.0}x",
                t_batch.as_secs_f64() / t_k.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    println!(
        "{}",
        format_table(
            "first-k delivery (batch returns nothing until done)",
            &[
                "k",
                "delivered",
                "incremental",
                "batch first answer",
                "advantage"
            ],
            &rows_out
        )
    );
}

/// E5: runtime vs output size (the f² shape of Thm 4.8).
fn e5_scaling(scale: usize) {
    header("E5 — runtime vs output size f (Thm 4.8: quadratic-in-f family)");
    let rows = 40 * scale;
    let mut rows_out = Vec::new();
    for domain in [rows, rows / 2, rows / 4, rows / 8] {
        let db = chain(3, &DataSpec::new(rows, domain.max(1)).seed(0xFD));
        let (fd, t) = time_median(3, || FdQuery::over(&db).run().unwrap().into_sets());
        let f: usize = fd.iter().map(TupleSet::total_size).sum();
        rows_out.push(vec![
            domain.to_string(),
            fd.len().to_string(),
            f.to_string(),
            fmt_duration(t),
        ]);
    }
    println!(
        "{}",
        format_table(
            "fixed input, shrinking join domain ⇒ growing output",
            &["join domain", "|FD| sets", "f (total size)", "runtime"],
            &rows_out
        )
    );
}

/// E6: ranked top-k vs full-then-sort (Thm 5.5). The parallel column is
/// the sharded plan (`.parallel(4)`): per-worker enumeration, then one
/// sort of the collected answers, so it has no early exit for small k.
/// A second table splits c = 2 and c = 3 rankings into the seeding
/// (building the iterator) and the next k answers.
fn e6_ranked_topk(scale: usize) {
    header("E6 — top-k in ranking order vs materialize-and-sort");
    let db = bench_chain(4, 40 * scale);
    let imp = random_importance(&db, 7);
    let f = FMax::new(&imp);
    let mut rows_out = Vec::new();
    for k in [1usize, 10, 50] {
        let (ranked, t_ranked) = time_median(3, || {
            FdQuery::over(&db)
                .ranked(&f)
                .top_k(k)
                .run()
                .unwrap()
                .into_ranked()
                .unwrap()
        });
        let (parallel, t_parallel) = time_median(3, || {
            FdQuery::over(&db)
                .ranked(&f)
                .top_k(k)
                .parallel(4)
                .run()
                .unwrap()
                .into_ranked()
                .unwrap()
        });
        let (naive, t_naive) = time_median(3, || naive_top_k(&db, &f, k));
        let ranks = |answers: &[(TupleSet, f64)]| answers.iter().map(|x| x.1).collect::<Vec<_>>();
        assert_eq!(ranks(&ranked), ranks(&naive));
        assert_eq!(ranks(&parallel), ranks(&naive));
        rows_out.push(vec![
            k.to_string(),
            fmt_duration(t_ranked),
            fmt_duration(t_parallel),
            fmt_duration(t_naive),
            format!(
                "{:.1}x",
                t_naive.as_secs_f64() / t_ranked.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    println!(
        "{}",
        format_table(
            "top-k with f_max (monotonically 1-determined)",
            &[
                "k",
                "PriorityIncrementalFD",
                "parallel(4)",
                "full + sort",
                "speedup"
            ],
            &rows_out
        )
    );

    // c ≥ 2: building the iterator runs Fig. 3's seeding (every consistent
    // set of ≤ c tuples, merged to a fixpoint); the next k answers are
    // timed apart from it.
    let k = 10;
    let mut rows_out = Vec::new();
    for (name, db) in [
        (
            format!("chain(4)×{}", 200 * scale),
            bench_chain(4, 200 * scale),
        ),
        (format!("star(4)×{}", 50 * scale), bench_star(4, 50 * scale)),
    ] {
        let imp = random_importance(&db, 7);
        let (pair_sum, triple) = (FPairSum::new(&imp), FTriple::new(&imp));
        let rankings: [(&str, &dyn MonotoneCDetermined); 2] = [
            ("f_pairsum (c = 2)", &pair_sum),
            ("f_triple (c = 3)", &triple),
        ];
        for (f_name, f) in rankings {
            let (mut seeding, mut top_k, mut ranked) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..3 {
                let (mut it, t_seed) = time_once(|| RankedFdIter::new(&db, f));
                let (answers, t_top) = time_once(|| it.by_ref().take(k).collect::<Vec<_>>());
                seeding.push(t_seed);
                top_k.push(t_top);
                ranked = answers;
            }
            seeding.sort();
            top_k.sort();
            let naive = naive_top_k(&db, &f, k);
            let ranks =
                |answers: &[(TupleSet, f64)]| answers.iter().map(|x| x.1).collect::<Vec<_>>();
            assert_eq!(ranks(&ranked), ranks(&naive), "{name} {f_name}");
            rows_out.push(vec![
                name.clone(),
                f_name.to_string(),
                fmt_duration(seeding[1]),
                fmt_duration(top_k[1]),
            ]);
        }
    }
    println!(
        "{}",
        format_table(
            &format!("c ≥ 2 rankings: seeding vs the next {k} answers (median of 3)"),
            &["database", "ranking", "seeding", &format!("top-{k}")],
            &rows_out
        )
    );
}

/// E7: the NP-hard f_sum vs the tractable f_max (Prop. 5.1).
fn e7_nphard(fast: bool) {
    header("E7 — Prop 5.1: exhaustive top-(1, f_sum) blows up; f_max stays flat");
    let max_n = if fast { 5 } else { 6 };
    let mut rows_out = Vec::new();
    for n in 2..=max_n {
        // domain 2 with several rows ⇒ the number of maximal sets grows
        // exponentially with n.
        let db = chain(n, &DataSpec::new(8, 2).seed(0xFD));
        let imp = ImpScores::uniform(&db, 1.0);
        let (_, t_sum) = time_median(1, || exhaustive_top1_fsum(&db, &imp));
        let fmax = FMax::new(&imp);
        let (_, t_max) = time_median(1, || {
            FdQuery::over(&db)
                .ranked(&fmax)
                .top_k(1)
                .run()
                .unwrap()
                .into_ranked()
                .unwrap()
        });
        rows_out.push(vec![
            n.to_string(),
            fmt_duration(t_sum),
            fmt_duration(t_max),
        ]);
    }
    println!(
        "{}",
        format_table(
            "top-1 under f_sum (exhaustive) vs f_max (ranked algorithm)",
            &["n relations", "f_sum exhaustive", "f_max ranked"],
            &rows_out
        )
    );
}

/// E8/E9: approximate full disjunctions across thresholds. Each variant
/// runs twice: unpaged, where line 7 visits the candidates the similarity
/// probe returns, and with `.page_size(4)`, which scans every tuple; both
/// must emit the same sets in the same order.
fn e8_e9_approx(scale: usize) {
    header("E9 — APPROXINCREMENTALFD across thresholds (A_min and A_prod, edit distance)");
    let db = bench_noisy_chain(3, 20 * scale, 0.3);
    let exact = FdQuery::over(&db).run().unwrap().into_sets();
    let a = AMin::new(EditDistanceSim, ProbScores::uniform(&db, 1.0));
    let mut rows_out = vec![vec![
        "exact FD".to_string(),
        exact.len().to_string(),
        exact.iter().filter(|s| s.len() >= 2).count().to_string(),
        "-".into(),
        "-".into(),
    ]];
    let aprod = AProd::new(EditDistanceSim);
    let variants: [(&str, &(dyn ApproxJoin + Sync), f64); 4] = [
        ("A_min", &a, 0.95),
        ("A_min", &a, 0.85),
        ("A_min", &a, 0.75),
        ("A_prod", &aprod, 0.8),
    ];
    for (name, join, tau) in variants {
        let run = |query: FdQuery<'_>| query.approx(join, tau).run().unwrap().into_sets();
        let (afd, t) = time_median(3, || run(FdQuery::over(&db)));
        let (scanned, t_scan) = time_median(3, || run(FdQuery::over(&db).page_size(4)));
        let members = |sets: &[TupleSet]| -> Vec<Vec<TupleId>> {
            sets.iter().map(|s| s.tuples().to_vec()).collect()
        };
        assert_eq!(
            members(&afd),
            members(&scanned),
            "{name} τ={tau}: the probed run diverges from the scan"
        );
        rows_out.push(vec![
            format!("{name} τ={tau}"),
            afd.len().to_string(),
            afd.iter().filter(|s| s.len() >= 2).count().to_string(),
            fmt_duration(t),
            fmt_duration(t_scan),
        ]);
    }
    println!(
        "{}",
        format_table(
            "typo'd chain: lower τ recovers more joins",
            &[
                "variant",
                "results",
                "combined (≥2 tuples)",
                "runtime",
                "scan (page 4)"
            ],
            &rows_out
        )
    );
}

/// E10: the Section 7 access paths. The paper-faithful configuration
/// scans both lists (`StoreEngine::Scan`) and, with the join-column
/// indexes off, every relation; the second keeps the indexes off under
/// the hashed store; the default adds the posting-list probes. All three
/// must emit the same sets in the same order.
fn e10_store_ablation(scale: usize) {
    header("E10 — Section 7 ablation: list scans vs hash index by Ri-tuple vs join-column probes");
    let mut rows_out = Vec::new();
    // Both sizes lists reach 40 rows, where a `T′` meets several
    // same-root merge partners and the engines must agree on which one
    // takes it (the first in pop order).
    let sizes: &[usize] = if scale == 1 {
        &[10, 15, 20, 40]
    } else {
        &[20, 30, 40]
    };
    for &rows in sizes {
        let db = bench_chain(4, rows);
        let mut unindexed = db.clone();
        unindexed.set_index_enabled(false);
        let run = |db: &Database, cfg: FdConfig| {
            time_median(3, || {
                let mut it = FdIter::with_config(db, cfg);
                let order: Vec<Vec<TupleId>> = it.by_ref().map(|s| s.tuples().to_vec()).collect();
                (order, it.stats_total().total_store_scans())
            })
        };
        let ((faithful, scan_scans), t_faithful) = run(&unindexed, FdConfig::paper_faithful());
        let ((store, indexed_scans), t_store) = run(&unindexed, FdConfig::default());
        let ((default, _), t_default) = run(&db, FdConfig::default());
        assert_eq!(store, default, "join-index A/B diverges at {rows} rows");
        assert_eq!(
            faithful, default,
            "store-engine A/B diverges at {rows} rows"
        );
        rows_out.push(vec![
            rows.to_string(),
            default.len().to_string(),
            scan_scans.to_string(),
            indexed_scans.to_string(),
            fmt_duration(t_faithful),
            fmt_duration(t_store),
            fmt_duration(t_default),
            format!(
                "{:.1}x",
                t_faithful.as_secs_f64() / t_default.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    println!(
        "{}",
        format_table(
            "chain n=4; identical emission order in all three (median of 3)",
            &[
                "rows/rel",
                "|FD|",
                "Scan: store scans",
                "Indexed: store scans",
                "paper-faithful",
                "Indexed, index off",
                "default",
                "speedup"
            ],
            &rows_out
        )
    );
}

/// E11: initialization-strategy ablation (Section 7).
fn e11_init_ablation(scale: usize) {
    header("E11 — Section 7 ablation: Incomplete initialization strategies");
    let db = bench_chain(4, 20 * scale);
    let mut rows_out = Vec::new();
    for init in [
        InitStrategy::Singletons,
        InitStrategy::ReuseResults,
        InitStrategy::TrimExtend,
    ] {
        let cfg = FdConfig {
            init,
            ..FdConfig::default()
        };
        let ((count, stats), t) = time_median(3, || {
            let mut it = FdIter::with_config(&db, cfg);
            let mut n = 0usize;
            for _ in it.by_ref() {
                n += 1;
            }
            (n, it.stats_total())
        });
        rows_out.push(vec![
            format!("{init:?}"),
            count.to_string(),
            stats.candidate_scans.to_string(),
            stats.jcc_checks.to_string(),
            fmt_duration(t),
        ]);
    }
    println!(
        "{}",
        format_table(
            "full FD over all i (chain n=4)",
            &[
                "strategy",
                "results",
                "candidate scans",
                "jcc checks",
                "runtime"
            ],
            &rows_out
        )
    );
}

/// E12: block-based execution (Section 7) — simulated page fetches.
fn e12_block_ablation(scale: usize) {
    header("E12 — Section 7: block-based execution (simulated pages touched)");
    let db = bench_chain(3, 40 * scale);
    let mut rows_out = Vec::new();
    for page_size in [1usize, 8, 64, 512] {
        let cfg = FdConfig {
            page_size: Some(page_size),
            ..FdConfig::default()
        };
        let ((results, pages), t) = time_median(3, || {
            let mut total_pages = 0u64;
            let mut results = 0usize;
            for rel_idx in 0..db.num_relations() {
                let ri = RelId(rel_idx as u16);
                let mut it = FdiIter::with_config(&db, ri, cfg);
                for set in it.by_ref() {
                    if !set.has_tuple_before(&db, ri) {
                        results += 1;
                    }
                }
                total_pages += it.pages_read();
            }
            (results, total_pages)
        });
        rows_out.push(vec![
            page_size.to_string(),
            results.to_string(),
            pages.to_string(),
            fmt_duration(t),
        ]);
    }
    println!(
        "{}",
        format_table(
            "chain n=3; identical results at every block size",
            &["tuples/page", "results", "pages fetched", "runtime"],
            &rows_out
        )
    );
}

/// E13: parallel full disjunction across the n independent runs.
fn e13_parallel(scale: usize) {
    header("E13 — parallel full disjunction (one FDi run per worker)");
    let db = bench_star(5, 8 * scale);
    let mut baseline = None;
    let mut rows_out = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (out, t) = time_median(3, || {
            FdQuery::over(&db)
                .parallel(threads)
                .run()
                .unwrap()
                .into_sets()
        });
        let base = *baseline.get_or_insert(t);
        rows_out.push(vec![
            threads.to_string(),
            out.len().to_string(),
            fmt_duration(t),
            format!("{:.2}x", base.as_secs_f64() / t.as_secs_f64().max(1e-9)),
        ]);
    }
    println!(
        "{}",
        format_table(
            "star n=5",
            &["threads", "results", "runtime", "speedup"],
            &rows_out
        )
    );
}

/// E14: live maintenance vs recomputing the full disjunction. Both
/// sides see the same post-insert database; the maintained side also
/// gets the pre-insert results, which is what a session has on hand.
fn e14_delta_maintenance(scale: usize) {
    header("E14 — delta maintenance vs full recomputation (chain n=4)");
    let cfg = FdConfig::default();
    let recompute = |db: &Database| canonicalize(FdIter::with_config(db, cfg).collect());

    let mut rows_out = Vec::new();
    for rows in [8 * scale, 16 * scale, 32 * scale] {
        let mut db = bench_chain(4, rows);
        let previous: Vec<TupleSet> = FdIter::with_config(&db, cfg).collect();
        // A well-connected row: join values inside the generated domain.
        let inserted = db
            .insert_tuple(
                RelId(1),
                vec![Value::Int(0), Value::Int(1), Value::Int(9_999_999)],
            )
            .expect("insert");
        let (delta, t_delta) =
            time_median(3, || delta_insert_many(&db, &[inserted], &previous, cfg));
        let (fd, t_full) = time_median(3, || recompute(&db));
        let mut maintained = previous.clone();
        apply_result_delta(&mut maintained, &delta.subsumed, delta.added);
        assert_eq!(canonicalize(maintained), fd);
        rows_out.push(vec![
            rows.to_string(),
            fd.len().to_string(),
            fmt_duration(t_delta),
            fmt_duration(t_full),
            format!(
                "{:.1}x",
                t_full.as_secs_f64() / t_delta.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    println!(
        "{}",
        format_table(
            "one insert: delta_insert_many vs recompute (median of 3)",
            &["rows/rel", "|FD| after", "delta", "recompute", "speedup"],
            &rows_out
        )
    );

    let mut rows_out = Vec::new();
    for rows in [16 * scale, 32 * scale, 64 * scale] {
        let db = bench_chain(4, rows);
        let previous: Vec<TupleSet> = FdIter::with_config(&db, cfg).collect();
        let batch = overlapping_inserts(rows, 0..BATCH_INSERTS);
        let insert_all = || {
            let mut db = db.clone();
            let ids: Vec<TupleId> = batch
                .iter()
                .map(|(rel, row)| db.insert_tuple(*rel, row.clone()).expect("insert"))
                .collect();
            (db, ids)
        };
        let (batched, t_batch) = time_median(3, || {
            let (db, ids) = insert_all();
            delta_insert_many(&db, &ids, &previous, cfg)
        });
        let (singletons, t_singletons) = time_median(3, || {
            let mut db = db.clone();
            let mut results = previous.clone();
            for (rel, row) in &batch {
                let t = db.insert_tuple(*rel, row.clone()).expect("insert");
                let d = delta_insert_many(&db, &[t], &results, cfg);
                apply_result_delta(&mut results, &d.subsumed, d.added);
            }
            results
        });
        let (fd, t_full) = time_median(3, || recompute(&insert_all().0));
        let mut maintained = previous.clone();
        apply_result_delta(&mut maintained, &batched.subsumed, batched.added);
        assert_eq!(canonicalize(maintained), fd);
        assert_eq!(canonicalize(singletons), fd);
        rows_out.push(vec![
            rows.to_string(),
            fd.len().to_string(),
            fmt_duration(t_batch),
            fmt_duration(t_singletons),
            fmt_duration(t_full),
        ]);
    }
    println!(
        "{}",
        format_table(
            &format!(
                "{BATCH_INSERTS} overlapping inserts: one multi-seed delta vs \
                 {BATCH_INSERTS} delta_insert applies vs recompute (median of 3)"
            ),
            &[
                "rows/rel",
                "|FD| after",
                "multi-seed delta",
                "singleton applies",
                "recompute"
            ],
            &rows_out
        )
    );
}

/// Insert-then-delete commit pairs per E14 |FD| sweep size.
const SWEEP_PAIRS: usize = 200;

/// E14's |FD| sweep: a session commit costs what its delta touches, not
/// what the result holds. Over `chain(2)` with as many join values as
/// rows, each pair of commits inserts one `C0` row joining an existing
/// `C1` row on `J1` and then deletes it again. Every commit does about
/// the same maintenance work whatever |FD| is, and `results_examined`
/// (the previous results a commit looks at) must show it.
fn e14_fd_sweep(fast: bool) {
    header("E14 — commit cost against |FD| (chain n=2, insert/delete pairs)");
    let sizes: &[usize] = if fast {
        &[1_000, 4_000]
    } else {
        &[1_000, 4_000, 16_000, 64_000]
    };
    let mut rows_out = Vec::new();
    let mut examined_per_commit = Vec::new();
    for &rows in sizes {
        let mut session = FdSession::new(chain(2, &DataSpec::new(rows, rows).seed(1)));
        let fd = session.len();
        let c1: Vec<TupleId> = session.db().tuples_of(RelId(1)).collect();
        let (mut commits, mut examined) = (Vec::new(), 0);
        for pair in 0..SWEEP_PAIRS {
            let partner = c1[(pair * 7_919) % c1.len()];
            let j1 = session.db().tuple_values(partner)[0].clone();
            let values = vec![Value::Int(-1), j1, Value::Int(-1 - pair as i64)];
            let mut batch = DeltaBatch::new();
            batch.insert(RelId(0), values);
            let insert = session.commit(batch).expect("insert commits");
            // Maintained == recomputed, where recomputing is cheap.
            if pair + 1 == SWEEP_PAIRS && rows <= 16_000 {
                assert!(session.verify_snapshot(), "{rows} rows after the insert");
            }
            let mut batch = DeltaBatch::new();
            batch.delete(insert.inserted()[0]);
            let delete = session.commit(batch).expect("delete commits");
            for c in [insert, delete] {
                commits.push(c.timings.total);
                examined += c.stats.results_examined;
            }
        }
        if rows <= 16_000 {
            assert!(session.verify_snapshot(), "{rows} rows after the pairs");
        }
        assert_eq!(session.len(), fd, "every pair round-trips");
        commits.sort();
        let per_commit = examined as f64 / commits.len() as f64;
        examined_per_commit.push(per_commit);
        rows_out.push(vec![
            rows.to_string(),
            fd.to_string(),
            fmt_duration(nearest_rank(&commits, 0.5)),
            format!("{per_commit:.2}"),
        ]);
    }
    println!(
        "{}",
        format_table(
            &format!("{SWEEP_PAIRS} insert/delete commit pairs on a plain session"),
            &["rows/rel", "|FD|", "commit p50", "results examined/commit"],
            &rows_out
        )
    );
    // Flat, not proportional: a scan over the results would grow 4x per
    // size step.
    let least = examined_per_commit.iter().copied().fold(f64::MAX, f64::min);
    for (&rows, &per_commit) in sizes.iter().zip(&examined_per_commit) {
        assert!(
            per_commit <= 2.0 * least,
            "results examined grows with |FD|: {per_commit:.2}/commit at {rows} rows"
        );
    }
}

/// A session commit's bookkeeping for one delta, on a plain result list.
fn apply_result_delta(results: &mut Vec<TupleSet>, retracted: &[TupleSet], added: Vec<TupleSet>) {
    results.retain(|s| !retracted.contains(s));
    results.extend(added);
}

/// Inserts per E14 batch.
const BATCH_INSERTS: usize = 32;

/// Rows `ids` of the overlapping-insert shape batched commits exist for,
/// over `bench_chain(4, rows)`: each group of 4 consecutive ids spans the
/// whole chain and joins the *other rows of its group* through fresh
/// values (1000 + g·10 + r, unseen in the base data), anchored to the
/// existing rows through the group's first join column. A singleton
/// replay derives every growing prefix of a group and then subsumes it
/// one insert later; the batch's single multi-seed run derives only
/// each group's final sets. Disjoint `ids` give disjoint rows.
fn overlapping_inserts(rows: usize, ids: Range<usize>) -> Vec<(RelId, Vec<Value>)> {
    let domain = (rows / 4).max(2) as i64;
    ids.map(|i| {
        let rel = (i % 4) as i64;
        let group = (i / 4) as i64;
        let left = if rel == 0 {
            group % domain
        } else {
            1_000 + group * 10 + rel
        };
        (
            RelId(rel as u16),
            vec![
                Value::Int(left),
                Value::Int(1_000 + group * 10 + rel + 1),
                Value::Int(9_000_000 + i as i64),
            ],
        )
    })
    .collect()
}

/// E15: `fd serve` commit-to-event latency over loopback TCP, from the
/// committing client sending a singleton insert to each subscribed client
/// reading the pushed `event` line. The inserts use unique join values,
/// so every commit yields exactly one event and the numbers isolate the
/// serve and fan-out path rather than maintenance (E14 covers that).
fn e15_serve_fanout(scale: usize) {
    header("E15 — fd serve fan-out: commit-to-event latency over loopback");
    let commits = 50 * scale;
    let mut rows_out = Vec::new();
    for subscribers in [1usize, 8, 32] {
        let lat = fanout_latencies(subscribers, commits);
        rows_out.push(vec![
            subscribers.to_string(),
            lat.len().to_string(),
            fmt_duration(nearest_rank(&lat, 0.5)),
            fmt_duration(nearest_rank(&lat, 0.99)),
            fmt_duration(*lat.last().expect("samples")),
        ]);
    }
    println!(
        "{}",
        format_table(
            &format!(
                "tourist database, {commits} singleton-insert commits after \
                 {FANOUT_WARMUP} unsampled ones (nearest-rank quantiles)"
            ),
            &["subscribers", "samples", "p50", "p99", "max"],
            &rows_out
        )
    );
}

/// Commits E15 does not sample (thread spin-up, allocator warm-up).
const FANOUT_WARMUP: usize = 5;

/// One E15 configuration: a fresh daemon, `subscribers` subscribed
/// connections and one committer issuing `commits` sampled singleton
/// inserts. Returns the ascending latencies, one per subscriber per
/// sampled commit; the committer waits for every subscriber's stamp
/// before the next commit, so samples never cross commits.
fn fanout_latencies(subscribers: usize, commits: usize) -> Vec<Duration> {
    let server = Server::start(FdSession::new(tourist_database()), "127.0.0.1:0")
        .expect("bind ephemeral port");
    let addr = server.addr();

    let (tx, rx) = mpsc::channel::<Instant>();
    let mut readers = Vec::with_capacity(subscribers);
    for _ in 0..subscribers {
        let mut client = Client::connect(addr).expect("connect");
        client.read_response().expect("greeting");
        client.request("subscribe").expect("subscribe");
        let tx = tx.clone();
        readers.push(std::thread::spawn(move || {
            // Stamp every pushed event line on receipt; EOF (daemon
            // shutdown) ends the loop.
            while let Ok(Some(line)) = client.read_line() {
                if line.starts_with("event ") {
                    let _ = tx.send(Instant::now());
                }
            }
        }));
    }
    drop(tx);

    let mut committer = Client::connect(addr).expect("connect");
    committer.read_response().expect("greeting");
    let mut latencies = Vec::with_capacity(commits * subscribers);
    for i in 0..FANOUT_WARMUP + commits {
        let sent = Instant::now();
        let reply = committer
            .request(&format!("insert Climates | Bench-{i} | arid"))
            .expect("insert");
        assert!(reply[0].starts_with("ok inserted"), "{reply:?}");
        for _ in 0..subscribers {
            let stamp = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("event delivery");
            if i >= FANOUT_WARMUP {
                latencies.push(stamp.saturating_duration_since(sent));
            }
        }
    }

    committer.request("shutdown").expect("shutdown");
    server.wait().expect("clean daemon exit");
    for reader in readers {
        reader.join().expect("subscriber thread");
    }
    latencies.sort_unstable();
    latencies
}

/// Base rows per relation of the E16 chain and star sessions.
const DURABLE_ROWS: usize = 64;

/// Rows per E16 churn insert (two whole groups of `overlapping_inserts`).
const CHURN_BATCH: usize = 8;

/// E16: durability. A chain n=4 session churns — insert a batch of
/// well-connected rows, commit, delete them, commit — in memory and under
/// each fsync policy, with compaction off so every durable commit pays
/// exactly one WAL append. The quantiles are nearest-rank over the
/// commits' own `Commit::timings` (`total`, `wal`). Then recovery: a
/// session commits `n` singleton batches without a checkpoint, and
/// reopening its directory is timed (snapshot load plus `n` replayed
/// maintenance passes, no recomputation).
fn e16_durability(scale: usize) {
    header("E16 — durability: commit latency per fsync policy, recovery vs WAL length");
    let rounds = 25 * scale;
    let mut rows_out = Vec::new();
    for policy in [
        None,
        Some(FsyncPolicy::Off),
        Some(FsyncPolicy::OnCommit),
        Some(FsyncPolicy::Always),
    ] {
        let (total, wal) = churn_timings(policy, rounds);
        rows_out.push(vec![
            policy.map_or_else(|| "in-memory".to_owned(), |p| p.to_string()),
            total.len().to_string(),
            fmt_duration(nearest_rank(&total, 0.5)),
            fmt_duration(nearest_rank(&total, 0.99)),
            match policy {
                Some(_) => fmt_duration(nearest_rank(&wal, 0.5)),
                None => "-".into(),
            },
        ]);
    }
    println!(
        "{}",
        format_table(
            &format!(
                "chain n=4 x {DURABLE_ROWS}, {rounds} rounds of insert-{CHURN_BATCH} / \
                 delete-{CHURN_BATCH} commits"
            ),
            &[
                "mode",
                "commits",
                "commit p50",
                "commit p99",
                "WAL append p50"
            ],
            &rows_out
        )
    );

    let mut rows_out = Vec::new();
    for batches in [16usize, 64, 256] {
        let mut line = vec![batches.to_string()];
        for db in [bench_chain(4, DURABLE_ROWS), bench_star(4, DURABLE_ROWS)] {
            let (results, t) = recovery_time(db, batches);
            line.push(results.to_string());
            line.push(fmt_duration(t));
        }
        rows_out.push(line);
    }
    println!(
        "{}",
        format_table(
            &format!("recovery of n singleton commits, n=4 x {DURABLE_ROWS} (one run each)"),
            &[
                "replayed batches",
                "chain: results",
                "chain: recovery",
                "star: results",
                "star: recovery"
            ],
            &rows_out
        )
    );
}

/// A fresh, absent directory under the system temp dir for one E16 run.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fd-paper-tables-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clearing a stale directory");
    }
    dir
}

/// E16's churn under `policy` (`None`: in memory). Returns the ascending
/// `total` and `wal` timings of every commit.
fn churn_timings(policy: Option<FsyncPolicy>, rounds: usize) -> (Vec<Duration>, Vec<Duration>) {
    let mut session = FdSession::new(bench_chain(4, DURABLE_ROWS));
    let dir = policy.map(|p| {
        let dir = scratch_dir(&format!("churn-{p}"));
        session.persist_to(&dir, p).expect("persist");
        session.set_wal_compaction_threshold(u64::MAX);
        dir
    });
    let base_results = session.len();
    let (mut total, mut wal) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let mut batch = DeltaBatch::new();
        let ids = round * CHURN_BATCH..(round + 1) * CHURN_BATCH;
        for (rel, values) in overlapping_inserts(DURABLE_ROWS, ids) {
            batch.insert(rel, values);
        }
        let insert = session.commit(batch).expect("insert commit");
        let mut batch = DeltaBatch::new();
        for tuple in insert.inserted() {
            batch.delete(tuple);
        }
        let delete = session.commit(batch).expect("delete commit");
        for commit in [insert, delete] {
            total.push(commit.timings.total);
            wal.push(commit.timings.wal);
        }
    }
    assert_eq!(session.len(), base_results, "churn must round-trip");
    drop(session);
    if let Some(dir) = dir {
        std::fs::remove_dir_all(dir).ok();
    }
    total.sort_unstable();
    wal.sort_unstable();
    (total, wal)
}

/// Commits `batches` singleton inserts to a durable session over `db`
/// without a checkpoint, then times reopening its directory. Returns the
/// recovered result count and the recovery time.
fn recovery_time(db: Database, batches: usize) -> (usize, Duration) {
    let dir = scratch_dir(&format!("recover-{batches}"));
    {
        let mut session = FdSession::new(db);
        session.persist_to(&dir, FsyncPolicy::Off).expect("persist");
        session.set_wal_compaction_threshold(u64::MAX);
        let arity = session.db().relation(RelId(0)).schema().arity();
        for i in 0..batches {
            let mut batch = DeltaBatch::new();
            // The first column joins a small shared domain; the rest are
            // fresh values, the last one a unique payload.
            let mut values = vec![Value::Int((i % 7) as i64)];
            values.extend((1..arity - 1).map(|c| Value::Int(5_000 + (i * 8 + c) as i64)));
            values.push(Value::Int(9_000_000 + i as i64));
            batch.insert(RelId(0), values);
            session.commit(batch).expect("commit");
        }
    }
    let (session, elapsed) = time_once(|| FdSession::open(&dir).expect("recovery"));
    assert_eq!(session.replayed_batches(), batches as u64);
    let results = session.len();
    drop(session);
    std::fs::remove_dir_all(&dir).ok();
    (results, elapsed)
}
