//! The repository's benchmark: one command per workload, measuring the
//! whole path (batch, streaming, ranked and approximate queries, durable
//! commits, commit-to-event over the wire) from outside, through the
//! public APIs. See `README.md` in this directory.
//!
//! ```sh
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     --workload sparse --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object; the lines
//! before it (prefixed `#`) describe the run.

mod commit;
mod data;
mod query;
mod record;
mod serve;

use crate::commit::{CommitGroup, Finish, PREFIX_COMMITS};
use crate::data::{Group, Shaped, Workload, DEFAULT_SHAPE_SEED};
use crate::query::{ApproxGroup, QueryGroup};
use crate::record::{fnv1a, Counters, Outcome, Recorder, Samples};
use crate::serve::ServeGroup;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run: at least `MIN_SETUPS`, and more, up to `MAX_SETUPS`,
/// until they have taken `SETUP_SECONDS` in all; `setup_s` is their median.
const MIN_SETUPS: usize = 7;
const MAX_SETUPS: usize = 63;
const SETUP_SECONDS: f64 = 1.5;

/// The measured time is split into this many rounds, each running every
/// group for its share, so that each group samples the whole run.
const ROUNDS: u32 = 8;

/// Steps each group takes before the measured time, unsampled: the
/// first steps of a group fill caches, indexes and buffers. A workload's
/// own queries need none: set-up computed their reference results on the
/// same database.
fn warm_up_steps(group: Group, primary: bool) -> u64 {
    match (group, primary) {
        (Group::Query | Group::Approx, true) => 0,
        (Group::Query | Group::Approx, false) => 1,
        (Group::Commit | Group::Serve, _) => 32,
    }
}

/// Share of the measured time each secondary group gets.
const SECONDARY_SHARE: f64 = 0.1;

/// Where runs keep their data directories, span files and counter
/// records, relative to the working directory.
const DATA_ROOT: &str = ".bench_data";

const USAGE: &str = "usage: fd-perf --workload sparse|dense|churn|serve --seed N --seconds N \
                     --trace 0|1 [--shape-seed N]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    shape: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut shape = DEFAULT_SHAPE_SEED;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1) as f64),
            "--trace" => trace = Some(number()? != 0),
            "--shape-seed" => shape = number()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        shape,
    })
}

/// The started write and serve groups of a run.
struct Rig {
    commit: CommitGroup,
    commit_shape: &'static str,
    serve: ServeGroup,
    serve_shape: &'static str,
}

/// Generates every database and starts the write and serve groups;
/// returns the read groups' databases beside them.
fn set_up(args: &Args, dir: &Path) -> Result<(Shaped, Shaped, Rig), String> {
    let w = args.workload;
    let query = w.db(Group::Query, args.shape);
    let approx = w.db(Group::Approx, args.shape);
    let Shaped {
        db,
        shape: commit_shape,
    } = w.db(Group::Commit, args.shape);
    let commit = CommitGroup::open(db, dir.join("commit"), args.shape, args.seed)
        .map_err(|e| e.to_string())?;
    let Shaped {
        db,
        shape: serve_shape,
    } = w.db(Group::Serve, args.shape);
    let serve = ServeGroup::start(db, args.shape, args.seed).map_err(|e| e.to_string())?;
    let rig = Rig {
        commit,
        commit_shape,
        serve,
        serve_shape,
    };
    Ok((query, approx, rig))
}

/// The read groups over the rig's databases (their reference results
/// are computed here, untimed).
struct Groups<'a> {
    query: QueryGroup<'a>,
    approx: ApproxGroup<'a>,
}

/// One step of `group`.
fn step(
    group: Group,
    rig: &mut Rig,
    groups: &mut Groups<'_>,
    rec: &mut Recorder,
    counters: &mut Counters,
    out: &mut Outcome,
) {
    match group {
        Group::Query => groups.query.step(rec, counters, out),
        Group::Approx => groups.approx.step(rec, counters, out),
        Group::Commit => rig.commit.step(rec, counters, out),
        Group::Serve => rig.serve.step(rec, counters, out),
    }
}

/// Runs every group for its share of `seconds`, in [`ROUNDS`] rounds.
fn measure(
    args: &Args,
    seconds: f64,
    rig: &mut Rig,
    groups: &mut Groups<'_>,
    rec: &mut Recorder,
    counters: &mut Counters,
    out: &mut Outcome,
) {
    let primary = args.workload.primary();
    let primary_share = 1.0 - SECONDARY_SHARE * (4 - primary.len()) as f64;
    for r in 0..ROUNDS {
        rec.start_round(r);
        for group in [Group::Query, Group::Approx, Group::Commit, Group::Serve] {
            let own = primary.iter().find(|&&(g, _)| g == group);
            let (share, min) = match own {
                Some(&(_, weight)) => (primary_share * weight, min_steps(group, true)),
                None => (SECONDARY_SHARE, min_steps(group, false)),
            };
            // The first step after another group ran works on caches that
            // group filled; it runs unsampled where a round has steps to
            // spare (a workload's own queries take a few steps a round).
            let unsampled_first = own.is_none() || matches!(group, Group::Commit | Group::Serve);
            let slice = Duration::from_secs_f64(seconds * share / f64::from(ROUNDS));
            let min = min.div_ceil(u64::from(ROUNDS));
            rec.calibrate();
            let start = Instant::now();
            let mut steps = 0;
            while steps < min || start.elapsed() < slice {
                step(group, rig, groups, rec, counters, out);
                steps += 1;
                if steps == 1 && unsampled_first {
                    rec.discard_pending();
                }
                rec.calibrate_if_due();
            }
            rec.calibrate();
        }
    }
}

/// The fewest steps a group takes in one measured phase, whatever its
/// time share: enough for a p99 with ten samples beyond it where the
/// metric has one, and for the commit prefix.
fn min_steps(group: Group, primary: bool) -> u64 {
    match (group, primary) {
        (Group::Query | Group::Approx, true) => 4,
        (Group::Query | Group::Approx, false) => 40,
        (Group::Commit | Group::Serve, _) => 1_000.max(PREFIX_COMMITS),
    }
}

/// Pins the process to the last CPU it may run on, before it starts any
/// thread (threads inherit the mask); returns that CPU.
///
/// The `serve` path hands every request from thread to thread (client,
/// connection, forwarder). Across two CPUs of a virtual machine each hand-off
/// wakes the other vCPU, and how fast the host runs it varies with the host's
/// load: the p50 of a `top` round trip spread by 50% between runs that way.
/// On one CPU a hand-off is a local context switch.
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is a readable buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV digest of this executable: two runs compare counters only when
/// they ran the same build.
fn binary_digest() -> u64 {
    std::env::current_exe()
        .and_then(std::fs::read)
        .map_or(0, |bytes| fnv1a(&bytes))
}

/// The deterministic counter gate across runs: the first run of a
/// (workload, seed, binary) records its counter digest, later runs must
/// match it.
fn counter_gate(args: &Args, digest: u64, binary: u64, out: &mut Outcome) {
    let dir = Path::new(DATA_ROOT).join("counters");
    let path = dir.join(format!(
        "{}-{}-{}-{binary:016x}",
        args.workload.name(),
        args.seed,
        args.shape
    ));
    match std::fs::read_to_string(&path) {
        Ok(recorded) => {
            out.check(recorded.trim() == format!("{digest:016x}"), || {
                format!(
                    "counters {digest:016x} differ from an earlier run with this seed ({})",
                    recorded.trim()
                )
            });
        }
        Err(_) => {
            let written = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, format!("{digest:016x}\n")));
            out.check(written.is_ok(), || {
                format!("recording counters failed: {written:?}")
            });
        }
    }
}

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: usize,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        samples,
    }
}

/// The end-to-end latency metrics: (metric, recorded samples, quantile).
/// A p50 is taken over all samples of the run, a p99 is the median over
/// rounds of each round's p99 ([`Recorder::round_quantile`]).
const LATENCIES: [(&str, &str, f64, &str); 10] = [
    ("full_ms", "full_ms", 0.5, "ms"),
    ("first_k_ms", "first_k_ms", 0.5, "ms"),
    ("top_k_ms", "top_k_ms", 0.5, "ms"),
    ("approx_ms", "approx_ms", 0.5, "ms"),
    ("approx_top_k_ms", "approx_top_k_ms", 0.5, "ms"),
    ("commit_p50_us", "commit_us", 0.5, "us"),
    ("commit_p99_us", "commit_us", 0.99, "us"),
    ("event_p50_us", "event_us", 0.5, "us"),
    ("event_p99_us", "event_us", 0.99, "us"),
    ("read_p50_us", "read_us", 0.5, "us"),
];

fn end_to_end(rec: &Recorder) -> Vec<Metric> {
    LATENCIES
        .iter()
        .map(|&(name, samples, q, unit)| {
            let (value, n) = if q > 0.5 {
                rec.round_quantile(samples, q)
            } else {
                rec.quantile(samples, q)
            }
            .unwrap_or((f64::NAN, 0));
            metric(name, unit, value, n)
        })
        .collect()
}

/// Per-operation layer counters: (metric prefix, `Stats` field).
const OP_COUNTERS: [(&str, &str); 7] = [
    ("getnext.candidate_scans", "candidate_scans"),
    ("jcc.checks", "jcc_checks"),
    ("jcc.extension_scans", "extension_scans"),
    ("jcc.subset_computations", "subset_computations"),
    ("lists.complete_scans", "complete_scans"),
    ("lists.incomplete_scans", "incomplete_scans"),
    ("lists.merges", "merges"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of a traced run.
fn per_layer(
    untraced: &Recorder,
    traced: &Recorder,
    counters: &Counters,
    finish: &Finish,
) -> Vec<Metric> {
    let mut m = Vec::new();
    for op in ["full", "first_k", "top_k", "approx", "approx_top_k"] {
        let runs = counters.get(&format!("{op}.runs"));
        let per_run = |field: &str| ratio(counters.get(&format!("{op}.{field}")), runs);
        for (name, field) in OP_COUNTERS {
            m.push(metric(
                format!("{name}.{op}"),
                "count",
                per_run(field),
                runs as usize,
            ));
        }
        let useful = ratio(per_run("results"), per_run("candidate_scans"));
        m.push(metric(
            format!("getnext.useful_ratio.{op}"),
            "ratio",
            useful,
            runs as usize,
        ));
        m.push(metric(
            format!("relational.index_probes.{op}"),
            "count",
            per_run("index_probes"),
            runs as usize,
        ));
        let hit = ratio(per_run("index_hits"), per_run("index_probes"));
        m.push(metric(
            format!("relational.index_hit_ratio.{op}"),
            "ratio",
            hit,
            runs as usize,
        ));
        if op.ends_with("top_k") && op != "first_k" {
            m.push(metric(
                format!("priority.heap_pops.{op}"),
                "count",
                per_run("heap_pops"),
                runs as usize,
            ));
            m.push(metric(
                format!("priority.rank_evals.{op}"),
                "count",
                per_run("rank_evals"),
                runs as usize,
            ));
        }
        if op.starts_with("approx") {
            m.push(metric(
                format!("approx.evals.{op}"),
                "count",
                per_run("approx_evals"),
                runs as usize,
            ));
        }
    }

    let commits = counters.get("commit.runs");
    let per_commit = |field: &str| ratio(counters.get(&format!("commit.{field}")), commits);
    m.push(metric(
        "relational.index_probes.commit",
        "count",
        per_commit("index_probes"),
        commits as usize,
    ));
    let hit = ratio(per_commit("index_hits"), per_commit("index_probes"));
    m.push(metric(
        "relational.index_hit_ratio.commit",
        "ratio",
        hit,
        commits as usize,
    ));
    m.push(metric(
        "delta.candidate_scans",
        "count",
        per_commit("candidate_scans"),
        commits as usize,
    ));
    m.push(metric(
        "store.wal_bytes_per_commit",
        "B",
        per_commit("wal_bytes"),
        commits as usize,
    ));

    for (name, span) in [
        ("relational.validate_us", "relational.validate"),
        ("relational.apply_us", "relational.apply"),
        ("delta.delete_us", "delta.delete"),
        ("delta.insert_us", "delta.insert"),
        ("store.wal_append_us", "store.wal_append"),
        ("session.self_us", "session.self_us"),
        ("query.plan_us", "query.plan"),
        ("getnext.delay_p50_us", "getnext.next"),
        ("serve.inproc_commit_us", "serve.inproc_commit"),
    ] {
        let (value, n) = traced.p50(span);
        m.push(metric(name, "us", value, n));
    }
    let delays = traced.all("getnext.next");
    m.push(metric(
        "getnext.delay_max_us",
        "us",
        delays.max(),
        delays.len(),
    ));
    m.push(metric(
        "store.checkpoint_ms",
        "ms",
        finish.checkpoint_ms(),
        1,
    ));
    m.push(metric("store.recovery_ms", "ms", finish.recovery_ms(), 1));

    let (event, events) = traced.p50("event_us");
    let wire = event - traced.p50("serve.inproc_commit").0;
    m.push(metric("serve.wire_us", "us", wire, events));

    // Tracing overhead: the median over the latency metrics of traced
    // over untraced p50.
    let mut ratios = Samples::default();
    for &(_, samples, q, _) in &LATENCIES {
        if q == 0.5 {
            ratios.push(traced.p50(samples).0 / untraced.p50(samples).0);
        }
    }
    m.push(metric(
        "trace.overhead",
        "ratio",
        ratios.p50(),
        ratios.len(),
    ));
    m
}

fn json_line(correct: bool, out: &Outcome, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = pin_to_one_cpu();
    let dir = Path::new(DATA_ROOT).join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let mut out = Outcome::default();

    // Set up several times; keep the last rig, time all of them.
    let mut setup = Recorder::new(false);
    let mut rig = None;
    let setup_start = Instant::now();
    let mut i = 0;
    while i < MIN_SETUPS || (i < MAX_SETUPS && setup_start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        if let Some((_, _, old)) = rig.take() {
            let Rig { commit, serve, .. } = old;
            commit.discard();
            serve.stop()?;
        }
        setup.calibrate();
        let start = Instant::now();
        let built = set_up(args, &dir.join(format!("setup{i}")))?;
        setup.sample("setup_s", start.elapsed().as_secs_f64());
        setup.calibrate();
        rig = Some(built);
        i += 1;
    }
    let (query, approx, mut rig) = rig.expect("MIN_SETUPS >= 1");
    let mut groups = Groups {
        query: QueryGroup::new(&query.db, args.shape).map_err(|e| e.to_string())?,
        approx: ApproxGroup::new(&approx.db, args.shape).map_err(|e| e.to_string())?,
    };

    let mut counters = Counters::default();
    let mut warm_up = Recorder::new(false);
    warm_up.calibrate();
    for group in [Group::Query, Group::Approx, Group::Commit, Group::Serve] {
        let primary = args.workload.primary().iter().any(|&(g, _)| g == group);
        for _ in 0..warm_up_steps(group, primary) {
            step(
                group,
                &mut rig,
                &mut groups,
                &mut warm_up,
                &mut counters,
                &mut out,
            );
        }
    }
    // The peak after set-up and a fixed amount of work: later commits
    // and blocks add tombstones, so a peak taken at the end would grow
    // with the speed of the host.
    let peak_rss_mb = vm_hwm_mb();
    let mut untraced = Recorder::new(false);
    let mut traced = Recorder::new(true);
    let phase = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    measure(
        args,
        phase,
        &mut rig,
        &mut groups,
        &mut untraced,
        &mut counters,
        &mut out,
    );
    if args.trace {
        // Counters cover a fixed prefix of each group's steps, so the
        // traced phase leaves them as an untraced run would.
        measure(
            args,
            phase,
            &mut rig,
            &mut groups,
            &mut traced,
            &mut counters,
            &mut out,
        );
    }

    let Rig {
        commit,
        commit_shape,
        serve,
        serve_shape,
    } = rig;
    let commits = commit.commits();
    let commit_size = (commit.tuples(), commit.results());
    let blocks = serve.blocks();
    let finish = commit.finish(&mut out);
    serve.finish(&mut counters, &mut out);

    let digest = counters.digest();
    let binary = binary_digest();
    counter_gate(args, digest, binary, &mut out);

    let mut metrics = end_to_end(&untraced);
    let (setup_s, setups) = setup.p50("setup_s");
    metrics.push(metric("setup_s", "s", setup_s, setups));
    metrics.push(metric("peak_rss_mb", "MB", peak_rss_mb, 1));
    let error_rate = ratio(out.failed as f64, out.attempted as f64);
    if args.trace {
        let layers = per_layer(&untraced, &traced, &counters, &finish);
        let tsv = Path::new(DATA_ROOT).join("traces");
        let written = std::fs::create_dir_all(&tsv).and_then(|()| {
            std::fs::write(
                tsv.join(format!("{}-{}.tsv", args.workload.name(), args.seed)),
                traced.spans_tsv(),
            )
        });
        out.check(written.is_ok(), || {
            format!("writing spans failed: {written:?}")
        });
        print_summary(
            args,
            &metrics,
            &counters,
            digest,
            binary,
            error_rate,
            out.defects,
        );
        metrics = layers;
    } else {
        print_summary(
            args,
            &metrics,
            &counters,
            digest,
            binary,
            error_rate,
            out.defects,
        );
    }
    println!(
        "# databases: query {} ({} tuples, f={}); approx {} ({} tuples, f={}); \
         commit {} ({} tuples, {} results, {commits} commits); serve {serve_shape} ({blocks} blocks)",
        query.shape,
        query.db.num_tuples(),
        groups.query.f(),
        approx.shape,
        approx.db.num_tuples(),
        groups.approx.f(),
        commit_shape,
        commit_size.0,
        commit_size.1,
    );
    println!(
        "# run: workload={} seed={} shape_seed={} seconds={} trace={} git_rev={} profile={} \
         nproc={nproc} pinned_cpu={} fsync={} setups={setups} reference_ms={:.4} (times scaled to {})",
        args.workload.name(),
        args.seed,
        args.shape,
        args.seconds,
        u8::from(args.trace),
        git_rev(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        cpu.map_or_else(|| "none".to_owned(), |c| c.to_string()),
        commit::POLICY,
        untraced.reference_ms(),
        record::REFERENCE_MS,
    );
    let _ = std::fs::remove_dir_all(&dir);

    let finite = metrics.iter().all(|m| m.value.is_finite());
    out.check(finite, || "a metric is not a finite number".into());
    let correct = out.failed == 0;
    println!("{}", json_line(correct, &out, &metrics));
    Ok(correct)
}

fn print_summary(
    args: &Args,
    metrics: &[Metric],
    counters: &Counters,
    digest: u64,
    binary: u64,
    error_rate: f64,
    defects: u64,
) {
    for m in metrics {
        println!(
            "# {:<16} {:>14.3} {:<3} ({} samples)",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("# error_rate       {error_rate} (failed / attempted)");
    println!("# known defects    {defects} (top-k answers that differ from the naive top-k)");
    let mut line = String::new();
    for (k, v) in counters.iter() {
        let _ = write!(line, " {k}={v}");
    }
    println!("# counters{line}");
    println!(
        "# counters digest {digest:016x} (binary {binary:016x}, workload {}, seed {})",
        args.workload.name(),
        args.seed
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            #[allow(clippy::print_stderr)]
            {
                eprintln!("fd-perf: {e}\n{USAGE}");
            }
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            #[allow(clippy::print_stderr)]
            {
                eprintln!("fd-perf: {e}");
            }
            let _ = std::fs::remove_dir_all(PathBuf::from(DATA_ROOT).join(format!(
                "{}-{}-{}",
                args.workload.name(),
                args.seed,
                std::process::id()
            )));
            ExitCode::from(1)
        }
    }
}
