//! Cross-engine equivalence of the `FdQuery` builder: every public
//! enumeration mode must compute identical answers — as canonical sets,
//! and in identical (deterministic, canonically tie-broken) rank order
//! for the ranked modes — across every `StoreEngine` × page size ×
//! thread count combination, on the paper's tourist example and the
//! chain/star workloads. This is the acceptance gate for "engine/
//! page-size/threads are honored uniformly" and for the parallel ranked
//! plan being output-identical to the sequential one.
//!
//! `InitStrategy` is a *sequential batch* knob: the reuse strategies are
//! crossed only with the batch mode, and their combination with
//! `.ranked`/`.approx`/`.parallel` is asserted to be a typed error
//! (never a silent no-op).

use full_disjunction::core::{canonical_rank_order, EditDistanceSim, FdQuery, TupleSet};
use full_disjunction::prelude::*;
use full_disjunction::workloads::{chain, star, DataSpec};
use proptest::prelude::*;

fn workloads() -> Vec<(String, Database)> {
    vec![
        ("tourist".into(), tourist_database()),
        ("chain".into(), chain(3, &DataSpec::new(8, 4).seed(41))),
        ("star".into(), star(4, &DataSpec::new(6, 4).seed(42))),
    ]
}

/// Engine × page size × init — the full cross, valid for the sequential
/// batch mode only.
fn batch_configs() -> Vec<FdConfig> {
    let mut out = Vec::new();
    for engine in [StoreEngine::Scan, StoreEngine::Indexed] {
        for page_size in [None, Some(1), Some(7), Some(256)] {
            for init in [
                InitStrategy::Singletons,
                InitStrategy::ReuseResults,
                InitStrategy::TrimExtend,
            ] {
                out.push(FdConfig {
                    engine,
                    page_size,
                    init,
                });
            }
        }
    }
    out
}

/// Engine × page size (singleton init) — the cross valid for every mode.
fn exec_configs() -> Vec<FdConfig> {
    let mut out = Vec::new();
    for engine in [StoreEngine::Scan, StoreEngine::Indexed] {
        for page_size in [None, Some(1), Some(7), Some(256)] {
            out.push(FdConfig {
                engine,
                page_size,
                init: InitStrategy::Singletons,
            });
        }
    }
    out
}

fn canonical(sets: Vec<TupleSet>) -> Vec<Vec<TupleId>> {
    let mut out: Vec<Vec<TupleId>> = sets.into_iter().map(|s| s.tuples().to_vec()).collect();
    out.sort();
    out
}

fn ordered(sets: &[TupleSet]) -> Vec<Vec<TupleId>> {
    sets.iter().map(|s| s.tuples().to_vec()).collect()
}

#[test]
fn batch_mode_is_config_invariant() {
    for (name, db) in workloads() {
        let base = canonical(FdQuery::over(&db).run().unwrap().into_sets());
        assert!(!base.is_empty(), "{name}");
        for cfg in batch_configs() {
            let got = canonical(
                FdQuery::over(&db)
                    .with_config(cfg)
                    .run()
                    .unwrap()
                    .into_sets(),
            );
            assert_eq!(base, got, "{name} {cfg:?}");
        }
    }
}

#[test]
fn parallel_mode_is_config_invariant() {
    for (name, db) in workloads() {
        let base = canonical(FdQuery::over(&db).run().unwrap().into_sets());
        for cfg in exec_configs() {
            for threads in [1usize, 3, 8] {
                let got = canonical(
                    FdQuery::over(&db)
                        .with_config(cfg)
                        .parallel(threads)
                        .run()
                        .unwrap()
                        .into_sets(),
                );
                assert_eq!(base, got, "{name} {cfg:?} threads={threads}");
            }
        }
    }
}

#[test]
fn ranked_mode_is_config_invariant_in_rank_order() {
    for (name, db) in workloads() {
        let imp = ImpScores::from_fn(&db, |t| (t.0 % 7) as f64);
        let base = FdQuery::over(&db).ranked(FMax::new(&imp)).run().unwrap();
        let base_ranks: Vec<f64> = base.ranks().unwrap().to_vec();
        let base_sets = ordered(base.sets());
        // Emission must be non-increasing in rank.
        for w in base_ranks.windows(2) {
            assert!(w[0] >= w[1], "{name}: rank order violated");
        }
        for cfg in exec_configs() {
            let got = FdQuery::over(&db)
                .with_config(cfg)
                .ranked(FMax::new(&imp))
                .run()
                .unwrap();
            // Deterministic emission: identical rank sequence AND
            // identical set order (ties are canonically broken), for
            // every engine and page size.
            assert_eq!(&base_ranks, got.ranks().unwrap(), "{name} {cfg:?}");
            assert_eq!(base_sets, ordered(got.sets()), "{name} {cfg:?}");
        }
    }
}

/// The tentpole acceptance test: `.ranked(f)[.top_k(k)].parallel(n)`
/// yields exactly the sequential ranked output — sets and order — for
/// n ∈ {1, 2, 4}, across engines and page sizes, on every workload.
#[test]
fn parallel_ranked_is_output_identical_to_sequential() {
    for (name, db) in workloads() {
        // `% 5` forces rank ties, stressing the canonical tie-breaking
        // on both the sequential and the merged plan.
        let imp = ImpScores::from_fn(&db, |t| (t.0 % 5) as f64);
        let sequential = FdQuery::over(&db).ranked(FMax::new(&imp)).run().unwrap();
        for cfg in exec_configs() {
            for threads in [1usize, 2, 4] {
                let parallel = FdQuery::over(&db)
                    .with_config(cfg)
                    .ranked(FMax::new(&imp))
                    .parallel(threads)
                    .run()
                    .unwrap();
                assert_eq!(
                    ordered(sequential.sets()),
                    ordered(parallel.sets()),
                    "{name} {cfg:?} threads={threads}"
                );
                assert_eq!(
                    sequential.ranks(),
                    parallel.ranks(),
                    "{name} {cfg:?} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn parallel_ranked_top_k_and_threshold_match_sequential() {
    for (name, db) in workloads() {
        let imp = ImpScores::from_fn(&db, |t| (t.0 % 5) as f64);
        let all = FdQuery::over(&db).ranked(FMax::new(&imp)).run().unwrap();
        let tau = all.ranks().unwrap()[all.len() / 2];
        for threads in [1usize, 2, 4] {
            for k in [0usize, 1, all.len() / 2, all.len(), all.len() + 3] {
                let seq = FdQuery::over(&db)
                    .ranked(FMax::new(&imp))
                    .top_k(k)
                    .run()
                    .unwrap();
                let par = FdQuery::over(&db)
                    .ranked(FMax::new(&imp))
                    .top_k(k)
                    .parallel(threads)
                    .run()
                    .unwrap();
                assert_eq!(
                    ordered(seq.sets()),
                    ordered(par.sets()),
                    "{name} k={k} threads={threads}"
                );
                assert_eq!(seq.ranks(), par.ranks(), "{name} k={k} threads={threads}");
            }
            let seq = FdQuery::over(&db)
                .ranked(FMax::new(&imp))
                .threshold(tau)
                .run()
                .unwrap();
            let par = FdQuery::over(&db)
                .ranked(FMax::new(&imp))
                .threshold(tau)
                .parallel(threads)
                .run()
                .unwrap();
            assert_eq!(
                ordered(seq.sets()),
                ordered(par.sets()),
                "{name} τ={tau} threads={threads}"
            );
            assert_eq!(seq.ranks(), par.ranks(), "{name} τ={tau} threads={threads}");
        }
    }
}

/// The sequential and parallel ranked plans against an oracle that
/// ranks every answer of the unranked plan and sorts once by
/// `canonical_rank_order`: the same sets, ranks and order, and the same
/// prefixes under `.top_k` (at a tie boundary) and `.threshold`, over
/// seeded chain/star databases and rankings. Covers the exact mode and a
/// non-exact similarity.
#[test]
fn parallel_ranked_is_the_sorted_full_disjunction() {
    for seed in 0..5u64 {
        let dbs = [
            (
                "star3",
                star(3, &DataSpec::new(8, 4).typos(0.3).seed(5 + seed)),
            ),
            ("chain4", chain(4, &DataSpec::new(10, 4).seed(3 + seed))),
        ];
        for (name, db) in &dbs {
            let m = [5, 3, 7][seed as usize % 3];
            let imp = ImpScores::from_fn(db, |t| (t.0 % m) as f64);
            let f = FMax::new(&imp);
            let a = AMin::new(EditDistanceSim, ProbScores::uniform(db, 1.0));
            // τ 0.6 triples chain4's answer count; one seed runs it.
            let taus = if seed == 0 {
                &[None, Some(0.6), Some(0.8)][..]
            } else {
                &[None, Some(0.8)][..]
            };
            for &tau in taus {
                let query = || match tau {
                    None => FdQuery::over(db),
                    Some(tau) => FdQuery::over(db).approx(&a, tau),
                };
                let mut oracle: Vec<(TupleSet, f64)> = query()
                    .run()
                    .unwrap()
                    .into_sets()
                    .into_iter()
                    .map(|set| {
                        let r = f.rank(db, &set);
                        (set, r)
                    })
                    .collect();
                oracle.sort_by(|x, y| canonical_rank_order(x.1, &x.0, y.1, &y.0));
                // A cut inside a tie group when there is one, else the middle.
                let k = (1..oracle.len())
                    .find(|&i| oracle[i - 1].1 == oracle[i].1)
                    .unwrap_or(oracle.len() / 2);
                let r = oracle[oracle.len() / 2].1;
                let above = oracle.iter().take_while(|x| x.1 >= r).count();
                for threads in [None, Some(2usize), Some(3)] {
                    let ctx = format!("{name} seed={seed} m={m} τ={tau:?} threads={threads:?}");
                    let run = |q: FdQuery<'_>| match threads {
                        None => q.run(),
                        Some(t) => q.parallel(t).run(),
                    };
                    let run = |q| run(q).unwrap().into_ranked().unwrap();
                    assert_eq!(run(query().ranked(&f)), oracle, "{ctx}");
                    assert_eq!(run(query().ranked(&f).top_k(k)), oracle[..k], "{ctx} k={k}");
                    assert_eq!(
                        run(query().ranked(&f).threshold(r)),
                        oracle[..above],
                        "{ctx} r={r}"
                    );
                }
            }
        }
    }
}

#[test]
fn ranked_top_k_and_threshold_are_config_invariant() {
    for (name, db) in workloads() {
        let imp = ImpScores::from_fn(&db, |t| (t.0 % 7) as f64);
        let all = FdQuery::over(&db).ranked(FMax::new(&imp)).run().unwrap();
        let k = (all.len() / 2).max(1);
        let tau = all.ranks().unwrap()[all.len() / 2];
        let base_topk: Vec<f64> = all.ranks().unwrap()[..k].to_vec();
        let base_thresh: Vec<f64> = all
            .ranks()
            .unwrap()
            .iter()
            .copied()
            .filter(|&r| r >= tau)
            .collect();
        for cfg in exec_configs() {
            let topk = FdQuery::over(&db)
                .with_config(cfg)
                .ranked(FMax::new(&imp))
                .top_k(k)
                .run()
                .unwrap();
            assert_eq!(base_topk, topk.ranks().unwrap(), "{name} {cfg:?} top-k");

            let thresh = FdQuery::over(&db)
                .with_config(cfg)
                .ranked(FMax::new(&imp))
                .threshold(tau)
                .run()
                .unwrap();
            assert_eq!(
                base_thresh,
                thresh.ranks().unwrap(),
                "{name} {cfg:?} threshold"
            );
        }
    }
}

#[test]
fn approx_mode_is_config_invariant_and_parallelizes() {
    for (name, db) in workloads() {
        let a = AMin::new(
            full_disjunction::core::ExactSim,
            ProbScores::uniform(&db, 1.0),
        );
        let base = canonical(
            FdQuery::over(&db)
                .approx(&a, 0.9)
                .run()
                .unwrap()
                .into_sets(),
        );
        for cfg in exec_configs() {
            let got = canonical(
                FdQuery::over(&db)
                    .with_config(cfg)
                    .approx(&a, 0.9)
                    .run()
                    .unwrap()
                    .into_sets(),
            );
            assert_eq!(base, got, "{name} {cfg:?}");
            for threads in [2usize, 4] {
                let par = canonical(
                    FdQuery::over(&db)
                        .with_config(cfg)
                        .approx(&a, 0.9)
                        .parallel(threads)
                        .run()
                        .unwrap()
                        .into_sets(),
                );
                assert_eq!(base, par, "{name} {cfg:?} threads={threads}");
            }
        }
    }
}

#[test]
fn ranked_approx_mode_is_config_invariant_and_parallelizes_in_rank_order() {
    for (name, db) in workloads() {
        let a = AMin::new(
            full_disjunction::core::ExactSim,
            ProbScores::uniform(&db, 1.0),
        );
        let imp = ImpScores::from_fn(&db, |t| (t.0 % 5) as f64);
        let base = FdQuery::over(&db)
            .approx(&a, 0.9)
            .ranked(FMax::new(&imp))
            .run()
            .unwrap();
        let base_ranks: Vec<f64> = base.ranks().unwrap().to_vec();
        let base_sets = ordered(base.sets());
        for cfg in exec_configs() {
            let got = FdQuery::over(&db)
                .with_config(cfg)
                .approx(&a, 0.9)
                .ranked(FMax::new(&imp))
                .run()
                .unwrap();
            assert_eq!(&base_ranks, got.ranks().unwrap(), "{name} {cfg:?}");
            assert_eq!(base_sets, ordered(got.sets()), "{name} {cfg:?}");
            for threads in [2usize, 4] {
                let par = FdQuery::over(&db)
                    .with_config(cfg)
                    .approx(&a, 0.9)
                    .ranked(FMax::new(&imp))
                    .parallel(threads)
                    .run()
                    .unwrap();
                assert_eq!(
                    &base_ranks,
                    par.ranks().unwrap(),
                    "{name} {cfg:?} threads={threads}"
                );
                assert_eq!(
                    base_sets,
                    ordered(par.sets()),
                    "{name} {cfg:?} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn nondefault_init_errors_in_single_seed_and_parallel_modes() {
    let db = tourist_database();
    let imp = ImpScores::from_fn(&db, |t| t.0 as f64);
    let a = AMin::new(
        full_disjunction::core::ExactSim,
        ProbScores::uniform(&db, 1.0),
    );
    for init in [InitStrategy::ReuseResults, InitStrategy::TrimExtend] {
        // Sequential batch honors the strategy.
        assert!(FdQuery::over(&db).init(init).run().is_ok());
        // Everything else reports a typed error instead of silently
        // ignoring the setting — from .run() and .stream() alike.
        let ranked_err = FdQuery::over(&db)
            .init(init)
            .ranked(FMax::new(&imp))
            .run()
            .unwrap_err();
        assert_eq!(
            ranked_err,
            FdError::Incompatible {
                left: ".init(ReuseResults/TrimExtend)",
                right: ".ranked"
            }
        );
        assert!(FdQuery::over(&db)
            .init(init)
            .ranked(FMax::new(&imp))
            .stream()
            .is_err());
        assert_eq!(
            FdQuery::over(&db)
                .init(init)
                .approx(&a, 0.9)
                .run()
                .unwrap_err(),
            FdError::Incompatible {
                left: ".init(ReuseResults/TrimExtend)",
                right: ".approx"
            }
        );
        assert_eq!(
            FdQuery::over(&db).init(init).parallel(2).run().unwrap_err(),
            FdError::Incompatible {
                left: ".init(ReuseResults/TrimExtend)",
                right: ".parallel"
            }
        );
    }
}

#[test]
fn streaming_agrees_with_materialized_for_every_config() {
    let db = tourist_database();
    let imp = ImpScores::from_fn(&db, |t| t.0 as f64);
    for cfg in batch_configs() {
        let ran = FdQuery::over(&db)
            .with_config(cfg)
            .run()
            .unwrap()
            .into_sets();
        let streamed: Vec<TupleSet> = FdQuery::over(&db)
            .with_config(cfg)
            .stream()
            .unwrap()
            .map(|r| r.expect("streams do not fail"))
            .collect();
        assert_eq!(ran, streamed, "batch {cfg:?}");
    }
    for cfg in exec_configs() {
        for threads in [None, Some(2)] {
            let build = || {
                let mut q = FdQuery::over(&db)
                    .with_config(cfg)
                    .ranked(FMax::new(&imp))
                    .top_k(3);
                if let Some(t) = threads {
                    q = q.parallel(t);
                }
                q
            };
            let ran = build().run().unwrap().into_sets();
            let streamed: Vec<TupleSet> = build()
                .stream()
                .unwrap()
                .map(|r| r.expect("streams do not fail"))
                .collect();
            assert_eq!(ran, streamed, "ranked {cfg:?} threads={threads:?}");
        }
    }
}

#[test]
fn block_based_ranked_and_approx_runs_actually_page() {
    let db = tourist_database();
    let imp = ImpScores::from_fn(&db, |t| t.0 as f64);
    let mut s = FdQuery::over(&db)
        .page_size(2)
        .ranked(FMax::new(&imp))
        .stream()
        .unwrap();
    while s.next().is_some() {}
    assert!(s.pages_read() > 0, "ranked candidate scans must page");

    let a = AMin::new(
        full_disjunction::core::ExactSim,
        ProbScores::uniform(&db, 1.0),
    );
    let mut s = FdQuery::over(&db)
        .page_size(2)
        .approx(&a, 0.9)
        .stream()
        .unwrap();
    while s.next().is_some() {}
    assert!(s.pages_read() > 0, "approx candidate scans must page");

    // Parallel plans aggregate pages across workers.
    let mut s = FdQuery::over(&db)
        .page_size(2)
        .ranked(FMax::new(&imp))
        .parallel(3)
        .stream()
        .unwrap();
    while s.next().is_some() {}
    assert!(s.pages_read() > 0, "parallel ranked workers must page");
}

#[test]
fn delta_maintenance_is_config_invariant() {
    for (name, mut db) in workloads() {
        let before = FdQuery::over(&db).run().unwrap().into_sets();
        let rel = RelId(0);
        let arity = db.relations()[0].schema().arity();
        let t = db
            .insert_tuple(
                rel,
                (0..arity).map(|i| Value::Int(900 + i as i64)).collect(),
            )
            .unwrap();
        let base = {
            let d = FdQuery::over(&db).delta_insert(t, &before).unwrap();
            canonical(d.added)
        };
        for cfg in batch_configs() {
            let d = FdQuery::over(&db)
                .with_config(cfg)
                .delta_insert(t, &before)
                .unwrap();
            assert_eq!(base, canonical(d.added), "{name} {cfg:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The merged parallel ranked stream is globally non-increasing in
    /// rank and equals the sequential plan on random workloads, thread
    /// counts and importance seeds.
    #[test]
    fn parallel_ranked_stream_is_globally_non_increasing(
        seed in 1u64..200,
        threads in 1usize..6,
        modulus in 1u64..9,
    ) {
        let db = chain(3, &DataSpec::new(6, 3).seed(seed));
        let imp = ImpScores::from_fn(&db, move |t| (t.0 as u64 % modulus) as f64);
        let mut stream = FdQuery::over(&db)
            .ranked(FMax::new(&imp))
            .parallel(threads)
            .stream()
            .unwrap();
        let mut merged: Vec<(TupleSet, f64)> = Vec::new();
        while let Some((set, rank)) = stream.next_ranked() {
            merged.push((set, rank.expect("ranked mode emits ranks")));
        }
        for w in merged.windows(2) {
            prop_assert!(w[0].1 >= w[1].1, "merged stream out of order");
            if w[0].1 == w[1].1 {
                prop_assert!(w[0].0 < w[1].0, "tie not canonically broken");
            }
        }
        let sequential = FdQuery::over(&db).ranked(FMax::new(&imp)).run().unwrap();
        let merged_sets: Vec<TupleSet> = merged.into_iter().map(|p| p.0).collect();
        prop_assert_eq!(sequential.into_sets(), merged_sets);
    }
}
