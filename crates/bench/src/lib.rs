//! # fd-bench
//!
//! Benchmark harness regenerating every table, figure and complexity /
//! ordering claim of the paper. The README's "Build, test, bench" section
//! lists the targets; the committed `BENCH_*.json` files at the
//! repository root record the measured trajectories. The crate offers:
//!
//! * shared workload constructors used by both the Criterion benches and
//!   the `paper_tables` binary, so the two always measure the same
//!   databases;
//! * small measurement utilities (wall-clock one-shot timing) for the
//!   table-printing binary — Criterion owns the statistically rigorous
//!   numbers, the binary owns the human-readable experiment tables.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use fd_core::{ApproxAllIter, ApproxJoin, FdConfig, FdIter, TupleSet};
use fd_relational::Database;
use fd_workloads::{chain, star, DataSpec};
use std::time::{Duration, Instant};

/// Materializes the full disjunction with an explicit configuration —
/// the benches' shared stand-in for the removed `full_disjunction_with`
/// free function (kept once here instead of per bench target).
pub fn full_fd_with(db: &Database, cfg: FdConfig) -> Vec<TupleSet> {
    FdIter::with_config(db, cfg).collect()
}

/// [`full_fd_with`] at the default configuration.
pub fn full_fd(db: &Database) -> Vec<TupleSet> {
    full_fd_with(db, FdConfig::default())
}

/// Materializes the approximate full disjunction, shared by the approx
/// bench targets.
pub fn approx_fd<A: ApproxJoin>(db: &Database, a: &A, tau: f64) -> Vec<TupleSet> {
    ApproxAllIter::new(db, a, tau).collect()
}

/// The chain family used by E3/E4/E5/E10/E11/E12: `n` relations,
/// `rows` rows each, join domain sized for a healthy but bounded output.
pub fn bench_chain(n: usize, rows: usize) -> Database {
    chain(n, &DataSpec::new(rows, (rows / 4).max(2)).seed(0xFD))
}

/// The star family used by E3/E13.
pub fn bench_star(n: usize, rows: usize) -> Database {
    star(n, &DataSpec::new(rows, (rows / 4).max(2)).seed(0xFD))
}

/// A typo-noised chain for the approximate experiments (E8/E9).
pub fn bench_noisy_chain(n: usize, rows: usize, typo_rate: f64) -> Database {
    chain(
        n,
        &DataSpec::new(rows, (rows / 4).max(2))
            .seed(0xFD)
            .typos(typo_rate),
    )
}

/// One-shot wall-clock measurement.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Median-of-`runs` wall-clock measurement (the binary's quick numbers).
pub fn time_median<T>(runs: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    assert!(runs >= 1);
    let mut durations = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let (out, d) = time_once(&mut f);
        durations.push(d);
        last = Some(out);
    }
    durations.sort();
    (
        last.expect("at least one run"),
        durations[durations.len() / 2],
    )
}

/// Formats a duration compactly for tables.
pub fn fmt_duration(d: Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.2}s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1}µs", d.as_secs_f64() * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_workloads_are_deterministic() {
        let a = bench_chain(3, 20);
        let b = bench_chain(3, 20);
        assert_eq!(a.num_tuples(), b.num_tuples());
        for t in a.all_tuples() {
            assert_eq!(a.tuple_values(t), b.tuple_values(t));
        }
    }

    #[test]
    fn time_median_runs_the_closure() {
        let (v, d) = time_median(3, || 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() < 1_000_000_000);
    }

    #[test]
    fn duration_formatting() {
        assert!(fmt_duration(Duration::from_micros(5)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with('s'));
    }
}
