//! E6 — ranked top-k (Theorem 5.5): `PRIORITYINCREMENTALFD` vs
//! materialize-everything-then-sort. Expected shape: the ranked
//! algorithm wins decisively for small k and converges toward the naive
//! cost as k approaches |FD|.
//!
//! The `query_builder` series runs the same computation through
//! `FdQuery`: one boxed vtable call per rank evaluation, plus the
//! deterministic-tie guarantee — the builder buffers one full tie group
//! ahead of the cursor, so on tie-heavy rankings a tiny k pays for the
//! first tie group where `direct_iter` (arbitrary tie order) stops at
//! exactly k. The `parallel_ranked` series is the sharded plan
//! (`.parallel(4)`): per-worker shard enumeration, then one canonical
//! sort of the collected answers; expect it to trail for tiny k (no
//! early exit inside a worker) and to approach the naive
//! full-enumeration cost divided by the useful core count as k
//! approaches |FD|.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fd_baselines::naive_top_k;
use fd_bench::bench_chain;
use fd_core::{FMax, FdQuery, RankedFdIter};
use fd_workloads::random_importance;
use std::hint::black_box;

fn ranked_topk(c: &mut Criterion) {
    let db = bench_chain(4, 24);
    let imp = random_importance(&db, 7);
    let f = FMax::new(&imp);
    let mut group = c.benchmark_group("e6_ranked_topk");
    group.sample_size(10);
    for k in [1usize, 10, 50] {
        group.bench_with_input(BenchmarkId::new("direct_iter", k), &k, |b, &k| {
            b.iter(|| black_box(RankedFdIter::new(&db, &f).take(k).collect::<Vec<_>>()))
        });
        group.bench_with_input(BenchmarkId::new("query_builder", k), &k, |b, &k| {
            b.iter(|| {
                black_box(
                    FdQuery::over(&db)
                        .ranked(&f)
                        .top_k(k)
                        .run()
                        .expect("valid ranked query")
                        .into_ranked()
                        .expect("ranked mode"),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("parallel_ranked", k), &k, |b, &k| {
            b.iter(|| {
                black_box(
                    FdQuery::over(&db)
                        .ranked(&f)
                        .top_k(k)
                        .parallel(4)
                        .run()
                        .expect("valid parallel ranked query")
                        .into_ranked()
                        .expect("ranked mode"),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("full_then_sort", k), &k, |b, &k| {
            b.iter(|| black_box(naive_top_k(&db, &f, k)))
        });
    }
    group.finish();
}

criterion_group!(benches, ranked_topk);
criterion_main!(benches);
