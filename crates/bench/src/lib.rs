//! # fd-bench
//!
//! The experiment harness of the repository. The `paper_tables` binary
//! regenerates every table and figure of the paper and times every
//! experimental claim (E3–E16): the algorithms, the Section 7
//! ablations, delta maintenance, serve fan-out and durability. E3, E6,
//! E10, E14, E15 and E16 assert that their contenders' answers agree
//! before printing a time. The crate offers:
//!
//! * shared workload constructors, so every table measures the same
//!   databases;
//! * small wall-clock utilities (one-shot and median-of-`n` timing, a
//!   nearest-rank quantile, compact duration formatting) for the table
//!   printer.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use fd_relational::Database;
use fd_workloads::{chain, star, DataSpec};
use std::time::{Duration, Instant};

/// The chain family used by E3/E4/E6/E10/E11/E12/E14: `n` relations,
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

/// The nearest-rank `p`-quantile (`0 < p ≤ 1`) of ascending `sorted`
/// samples: an observed sample, never an interpolation.
pub fn nearest_rank(sorted: &[Duration], p: f64) -> Duration {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let idx = ((sorted.len() as f64 * p).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[idx]
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
    fn nearest_rank_picks_an_observed_sample() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        assert_eq!(nearest_rank(&samples, 0.5), Duration::from_micros(50));
        assert_eq!(nearest_rank(&samples, 0.99), Duration::from_micros(99));
        assert_eq!(nearest_rank(&samples, 1.0), Duration::from_micros(100));
        assert_eq!(nearest_rank(&samples[..1], 0.5), Duration::from_micros(1));
    }

    #[test]
    fn duration_formatting() {
        assert!(fmt_duration(Duration::from_micros(5)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with('s'));
    }
}
