//! What a run records: exact latency samples, trace spans and the
//! deterministic work counters.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Every observation of one metric, kept whole so that quantiles are
/// exact order statistics rather than histogram bucket bounds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile: the smallest sample with at least
    /// `q · n` samples at or below it.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.0.is_empty(), "quantile of an empty sample set");
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn max(&self) -> f64 {
        self.quantile(1.0)
    }
}

/// Microseconds and milliseconds of a duration, at full resolution.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One timed call into a layer, recorded from outside the program.
/// Spans of one operation share `req`; `parent` names the enclosing
/// span of the same operation.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<&'static str>,
    req: u64,
    start_ns: u128,
    dur_ns: u128,
}

/// How long the reference loop takes on the host the benchmark was
/// tuned on, when nothing else loads it (ms).
pub const REFERENCE_MS: f64 = 0.45;

/// A fixed CPU workload that does not use the program: hashing, small
/// allocations, a sort and a dependent walk through memory. Its time
/// tracks the speed of the host.
fn reference() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: std::collections::HashMap<u64, Vec<u32>> = std::collections::HashMap::new();
    for i in 0..4096 {
        map.entry(next() % 1024).or_default().push(i);
    }
    let mut v: Vec<u64> = (0..16384).map(|_| next()).collect();
    v.sort_unstable();
    let mut acc = (0..1024)
        .filter_map(|k| map.get(&k))
        .map(|l| l.len() as u64)
        .sum::<u64>();
    let mut i = 0;
    for _ in 0..16384 {
        i = (v[i] % v.len() as u64) as usize;
        acc = acc.wrapping_add(i as u64);
    }
    acc
}

/// Samples and (when tracing) spans of one measurement phase, in time
/// scaled to a reference host speed.
///
/// The host this benchmark was tuned on changed speed by up to 3× over
/// periods of seconds, because of load outside the container (thread
/// CPU time rose with wall time, so the host got slower; it did not
/// deschedule the process). The recorder therefore times a fixed
/// reference loop between steps, at least every [`CALIBRATE_EVERY`],
/// and scales each sample by [`REFERENCE_MS`] over the mean of the
/// reference times just before and just after it.
#[derive(Debug)]
pub struct Recorder {
    traced: bool,
    epoch: Instant,
    samples: BTreeMap<&'static str, Samples>,
    spans: Vec<Span>,
    /// Reference loop times (ms), in order.
    calibrations: Vec<f64>,
    last_calibration: Instant,
    /// Samples since the last calibration, with the index of the
    /// calibration before them and their round.
    pending: Vec<(&'static str, f64, usize, u32)>,
    /// The samples again, by metric and round.
    by_round: BTreeMap<(&'static str, u32), Samples>,
    round: u32,
}

/// The longest a sample waits for the calibration after it.
pub const CALIBRATE_EVERY: Duration = Duration::from_millis(50);

impl Recorder {
    pub fn new(traced: bool) -> Self {
        Recorder {
            traced,
            epoch: Instant::now(),
            samples: BTreeMap::new(),
            spans: Vec::new(),
            calibrations: Vec::new(),
            last_calibration: Instant::now(),
            pending: Vec::new(),
            by_round: BTreeMap::new(),
            round: 0,
        }
    }

    /// Times the reference loop, then scales and files every pending
    /// sample by the calibrations around it.
    pub fn calibrate(&mut self) {
        const REPS: u32 = 2;
        let start = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(reference());
        }
        self.calibrations
            .push(ms(start.elapsed()) / f64::from(REPS));
        self.last_calibration = Instant::now();
        for (metric, value, before, round) in std::mem::take(&mut self.pending) {
            let speed = (self.calibrations[before] + self.calibrations[before + 1]) / 2.0;
            let scaled = value * REFERENCE_MS / speed;
            self.samples.entry(metric).or_default().push(scaled);
            self.by_round
                .entry((metric, round))
                .or_default()
                .push(scaled);
        }
    }

    /// Files the samples taken from now on under round `round`.
    pub fn start_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Drops the samples taken since the last calibration.
    pub fn discard_pending(&mut self) {
        self.pending.clear();
    }

    /// Calibrates if the last calibration is [`CALIBRATE_EVERY`] old.
    pub fn calibrate_if_due(&mut self) {
        if self.last_calibration.elapsed() >= CALIBRATE_EVERY {
            self.calibrate();
        }
    }

    /// The median reference loop time of the phase (ms).
    pub fn reference_ms(&self) -> f64 {
        Samples(self.calibrations.clone()).p50()
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Adds one raw observation of a timed metric; it is scaled and
    /// filed at the next calibration.
    pub fn sample(&mut self, metric: &'static str, value: f64) {
        assert!(!self.calibrations.is_empty(), "calibrate before sampling");
        self.pending
            .push((metric, value, self.calibrations.len() - 1, self.round));
    }

    /// Records a span that started at `start` and lasted `dur`; its
    /// duration in µs also becomes a sample under the span's name.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        start: Instant,
        dur: Duration,
    ) {
        debug_assert!(self.traced, "spans are recorded in traced phases only");
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos(),
            dur_ns: dur.as_nanos(),
        });
        self.sample(name, us(dur));
    }

    /// The `q`-quantile of a metric's samples and their number;
    /// `None` when the metric has no samples.
    pub fn quantile(&self, metric: &str, q: f64) -> Option<(f64, usize)> {
        let s = self.samples.get(metric)?;
        Some((s.quantile(q), s.len()))
    }

    /// The median over rounds of each round's `q`-quantile of a metric,
    /// and the number of samples. A burst of load outside the process
    /// moves the tail of the rounds it falls in; the median over rounds
    /// does not follow it until it covers half the rounds.
    pub fn round_quantile(&self, metric: &'static str, q: f64) -> Option<(f64, usize)> {
        let mut per_round = Samples::default();
        let mut n = 0;
        for ((_, _), s) in self.by_round.range((metric, 0)..=(metric, u32::MAX)) {
            per_round.push(s.quantile(q));
            n += s.len();
        }
        (n > 0).then(|| (per_round.p50(), n))
    }

    /// The median of a metric's samples (NaN without samples) and their
    /// number.
    pub fn p50(&self, metric: &str) -> (f64, usize) {
        self.quantile(metric, 0.5).unwrap_or((f64::NAN, 0))
    }

    /// Every sample of a metric.
    pub fn all(&self, metric: &str) -> Samples {
        self.samples.get(metric).cloned().unwrap_or_default()
    }

    /// The spans as tab-separated lines: name, parent, request, start
    /// and duration in ns from the phase start.
    pub fn spans_tsv(&self) -> String {
        let mut out = String::from("name\tparent\treq\tstart_ns\tdur_ns\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name,
                s.parent.unwrap_or("-"),
                s.req,
                s.start_ns,
                s.dur_ns
            );
        }
        out
    }
}

/// Exact work counters of the deterministic part of a run. Two runs of
/// one binary with one seed must produce identical counters.
#[derive(Debug, Default)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.0.entry(name.into()).or_default() += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Adds the [`fd_core::Stats`] fields of one operation under
    /// `<op>.<field>`.
    pub fn add_stats(&mut self, op: &str, stats: &fd_core::Stats) {
        for (field, value) in stats.fields() {
            self.add(format!("{op}.{field}"), value as f64);
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// FNV-1a digest of the rendered counters.
    pub fn digest(&self) -> u64 {
        let mut text = String::new();
        for (k, v) in &self.0 {
            let _ = writeln!(text, "{k}={v}");
        }
        fnv1a(text.as_bytes())
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Failed checks and operations of a run, counted against attempts.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers of a known defect: reported, but not failures.
    pub defects: u64,
}

impl Outcome {
    /// Counts one attempted operation or check; a `false` result is a
    /// failure, reported on stderr with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // The benchmark's stderr is its diagnostic channel.
            #[allow(clippy::print_stderr)]
            {
                eprintln!("fd-perf: check failed: {}", what());
            }
        }
        ok
    }

    /// Like [`check`](Self::check), for a check a known defect of the
    /// program fails: a `false` result counts in `defects` instead.
    pub fn defect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.defects += 1;
            #[allow(clippy::print_stderr)]
            {
                eprintln!("fd-perf: known defect: {}", what());
            }
        }
    }
}
