//! Zero-dependency observability: metrics, spans, and a scrape endpoint.
//!
//! The paper's evaluation (Section 7) compares *operation counts* —
//! [`Stats`](crate::Stats) counts them — but a long-lived `fd serve`
//! daemon needs *latency, throughput, and queue health over time*. This
//! module provides the substrate with nothing beyond `std`:
//!
//! * [`Counter`] — monotonically increasing `AtomicU64`;
//! * [`Gauge`] — signed up/down `AtomicI64` (active connections, queue
//!   depth);
//! * [`Histogram`] — lock-free latency histogram with power-of-two
//!   (log₂) nanosecond buckets, exact max, and p50/p99 estimates that
//!   are always ≤ the observed max;
//! * [`Span`] — a drop-guard that times a scope into a histogram:
//!   `let _s = Span::timed(&hist);`
//! * [`Registry`] — a named collection of the above that renders
//!   Prometheus-style text exposition (`# HELP` / `# TYPE`, counters,
//!   gauges, and histograms-as-summaries with `quantile` labels);
//! * [`MetricsServer`] — a minimal HTTP/1.0 `GET /metrics` endpoint on
//!   a std [`TcpListener`], so `curl`/Prometheus can scrape a running
//!   daemon with zero new dependencies;
//! * [`EventLog`] — structured `key=value` event lines on stderr for
//!   `fd serve --log`;
//! * [`QueryTimings`] — wall-clock, time-to-first-result, and
//!   time-to-k-th-result for one query run, the axes any-k papers plot;
//! * [`lockcheck`] — a named `Mutex` wrapper (re-exported from
//!   [`fd_relational::lockcheck`]) that record per-thread acquisition
//!   order into a global graph and panic, with both back-traces, on a
//!   detected lock-order inversion. Active under `debug_assertions` or
//!   the `lockcheck` cargo feature; transparent in release. The serve
//!   session lock, the per-connection writer locks and the signal slot
//!   all go through it — see `LOCK_ORDER.md` for the declared order.
//!
//! Everything is thread-safe behind `Arc`; recording is a handful of
//! relaxed atomic ops, cheap enough for the commit hot path. Registries
//! are **per instance**, not global: each
//! [`FdSession`](crate::FdSession) owns one and the serve daemon reuses
//! it, so concurrent sessions (and concurrent tests) never
//! cross-pollute.
//!
//! ```
//! use fd_core::obs::{Registry, Span};
//! use std::sync::Arc;
//!
//! let reg = Arc::new(Registry::new());
//! let hits = reg.counter("cache_hits_total", "Cache hits.");
//! hits.inc();
//! let hist = reg.histogram("lookup_seconds", "Lookup latency.");
//! {
//!     let _span = Span::timed(&hist); // records on drop
//! }
//! let text = reg.render();
//! assert!(text.contains("cache_hits_total 1"));
//! assert!(text.contains("lookup_seconds_count 1"));
//! ```

pub use fd_relational::lockcheck;

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Number of log₂ buckets in a [`Histogram`]: bucket `i` holds samples
/// whose nanosecond duration has bit length `i`, i.e. values in
/// `[2^(i-1), 2^i - 1]` (bucket 0 holds exactly 0 ns). 64 buckets cover
/// the full `u64` nanosecond range — half a millennium.
const BUCKETS: usize = 64;

/// A monotonically increasing counter (`_total` metrics).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed gauge that can go up and down (active connections, queue
/// depth).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` (negative to decrement).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the gauge to an absolute value.
    pub fn set(&self, n: i64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A lock-free latency histogram with power-of-two nanosecond buckets.
///
/// Recording is three relaxed `fetch_add`s and one `fetch_max`.
/// Quantiles walk the cumulative bucket counts and report the matched
/// bucket's upper bound, clamped to the exact observed maximum — so
/// `p50 ≤ p99 ≤ max` holds by construction and `quantile(1.0)` returns
/// the true max. Log₂ buckets bound the relative error of any quantile
/// by 2×, which is plenty for latency monitoring.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum_seconds", &self.sum_seconds())
            .field("max_seconds", &self.max_seconds())
            .finish()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }

    /// Records one duration sample.
    pub fn record(&self, d: Duration) {
        self.record_nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one sample given directly in nanoseconds.
    pub fn record_nanos(&self, nanos: u64) {
        let idx = (64 - nanos.leading_zeros()) as usize;
        self.buckets[idx.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all samples, in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Largest recorded sample, in seconds (exact, not bucketed).
    pub fn max_seconds(&self) -> f64 {
        self.max_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) in seconds.
    ///
    /// Returns the upper bound of the bucket containing the `⌈q·n⌉`-th
    /// smallest sample, clamped to the exact max; `0.0` when empty.
    /// Monotone in `q`, and `quantile(1.0)` equals
    /// [`max_seconds`](Self::max_seconds).
    pub fn quantile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let max = self.max_nanos.load(Ordering::Relaxed);
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                let upper = if i >= BUCKETS - 1 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return upper.min(max) as f64 / 1e9;
            }
        }
        max as f64 / 1e9
    }
}

/// A drop-guard that times a scope into a [`Histogram`].
///
/// The elapsed time since construction is recorded exactly once: on
/// drop, or explicitly via [`finish`](Self::finish). Use
/// [`cancel`](Self::cancel) to discard a measurement (e.g. on an error
/// path that should not pollute a success-latency histogram).
#[derive(Debug)]
pub struct Span {
    hist: Option<Arc<Histogram>>,
    start: Instant,
}

impl Span {
    /// Starts timing; the duration lands in `hist` when the span ends.
    pub fn timed(hist: &Arc<Histogram>) -> Self {
        Self {
            hist: Some(Arc::clone(hist)),
            start: Instant::now(),
        }
    }

    /// Time elapsed so far, without ending the span.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Ends the span now and returns the recorded duration.
    pub fn finish(mut self) -> Duration {
        let d = self.start.elapsed();
        if let Some(h) = self.hist.take() {
            h.record(d);
        }
        d
    }

    /// Ends the span without recording anything.
    pub fn cancel(mut self) {
        self.hist = None;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(h) = self.hist.take() {
            h.record(self.start.elapsed());
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "summary",
        }
    }
}

#[derive(Debug)]
struct Entry {
    help: String,
    metric: Metric,
}

/// A named collection of metrics that renders Prometheus text
/// exposition.
///
/// Registration is get-or-create: asking for an existing name returns
/// the already-registered handle (the first `help` string wins), so
/// call sites can cheaply re-derive handles from shared registries.
/// Names may embed Prometheus labels directly
/// (`r#"fd_ops_total{op="merges"}"#`); the rendered `# HELP`/`# TYPE`
/// headers group all series of a family (the name up to `{`) together,
/// which the sorted map guarantees. Registering the same name with a
/// different metric kind is a programming error and panics.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Entry>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(&self, name: &str, help: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let entry = inner.entry(name.to_string()).or_insert_with(|| Entry {
            help: help.to_string(),
            metric: make(),
        });
        entry.metric.clone()
    }

    /// Registers (or retrieves) a counter.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        match self.get_or_insert(name, help, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or retrieves) a gauge.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, help, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or retrieves) a histogram.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, help, || Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Renders the registry as Prometheus text exposition (version
    /// 0.0.4): `# HELP`/`# TYPE` per family, one sample line per
    /// series, histograms as summaries with `quantile="0.5"`, `"0.99"`
    /// and `"1"` labels plus `_sum`/`_count`. Families appear in sorted
    /// name order, so the output is stable and diffable.
    pub fn render(&self) -> String {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = String::new();
        let mut last_family: Option<String> = None;
        for (name, entry) in inner.iter() {
            let family = name.split('{').next().unwrap_or(name);
            if last_family.as_deref() != Some(family) {
                let _ = writeln!(out, "# HELP {family} {}", entry.help);
                let _ = writeln!(out, "# TYPE {family} {}", entry.metric.kind());
                last_family = Some(family.to_string());
            }
            match &entry.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "{name}{{quantile=\"0.5\"}} {}", h.quantile(0.5));
                    let _ = writeln!(out, "{name}{{quantile=\"0.99\"}} {}", h.quantile(0.99));
                    let _ = writeln!(out, "{name}{{quantile=\"1\"}} {}", h.max_seconds());
                    let _ = writeln!(out, "{name}_sum {}", h.sum_seconds());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }
}

/// A minimal HTTP/1.0 metrics endpoint over a std [`TcpListener`].
///
/// `GET /metrics` (or `/`) returns the registry's
/// [`render`](Registry::render) output as
/// `text/plain; version=0.0.4` — directly scrapeable by Prometheus or
/// `curl`. Any other path is a 404, any other method a 405. One
/// accept thread handles requests serially; scrapes are rare and the
/// render is cheap, so that is plenty. The listener shuts down when
/// [`stop`](Self::stop)ped or dropped.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (`127.0.0.1:0` picks an ephemeral port) and starts
    /// serving `registry` in a background thread.
    pub fn start(registry: Arc<Registry>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::spawn(move || scrape_loop(&listener, &registry, &flag));
        Ok(Self {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the endpoint and joins its thread.
    pub fn stop(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

fn scrape_loop(listener: &TcpListener, registry: &Registry, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = serve_scrape(stream, registry);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Answers one HTTP request on `stream` with the rendered registry.
fn serve_scrape(stream: TcpStream, registry: &Registry) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request = String::new();
    reader.read_line(&mut request)?;
    // Drain the request headers up to the blank line; the body (none
    // for GET) is ignored.
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim().is_empty() => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    let mut parts = request.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = if method != "GET" {
        ("405 Method Not Allowed", "method not allowed\n".to_string())
    } else if path == "/metrics" || path == "/" {
        ("200 OK", registry.render())
    } else {
        ("404 Not Found", "not found (try /metrics)\n".to_string())
    };
    let mut writer = stream;
    write!(
        writer,
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

/// Structured `key=value` event lines on stderr (`fd serve --log`).
///
/// Each line is `ts=<unix-seconds> event=<name> k=v ...`; values
/// containing spaces, quotes or `=` are rendered as Rust string
/// literals so the lines stay machine-splittable on whitespace. A
/// [`disabled`](Self::disabled) log makes every emit a no-op, so call
/// sites need no conditionals.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventLog {
    enabled: bool,
}

impl EventLog {
    /// A log that writes to stderr.
    pub const fn stderr() -> Self {
        Self { enabled: true }
    }

    /// A log that drops everything.
    pub const fn disabled() -> Self {
        Self { enabled: false }
    }

    /// Whether emits go anywhere (lets callers skip expensive field
    /// formatting).
    pub const fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Emits one event line with the given fields.
    // stderr IS this log's sink: the daemon's structured events stream
    // there so stdout stays free for query results.
    #[allow(clippy::print_stderr)]
    pub fn emit(&self, event: &str, fields: &[(&str, String)]) {
        if !self.enabled {
            return;
        }
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        eprintln!("ts={ts} {}", format_event(event, fields));
    }
}

/// Renders `event=<name> k=v ...` (without the timestamp) — split out
/// so the quoting rules are unit-testable.
fn format_event(event: &str, fields: &[(&str, String)]) -> String {
    let mut line = format!("event={event}");
    for (k, v) in fields {
        if v.contains([' ', '"', '=']) || v.is_empty() {
            let _ = write!(line, " {k}={v:?}");
        } else {
            let _ = write!(line, " {k}={v}");
        }
    }
    line
}

/// Timing milestones of one query run.
///
/// `first_result` / `kth_result` are the axes the any-k literature
/// plots (time-to-first, time-to-k-th); `kth_result` is only set for
/// ranked streams with a `top_k` bound, once the k-th set is emitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryTimings {
    /// Wall-clock time from plan construction to the measurement point
    /// (end of the run for [`FdQuery::run`](crate::FdQuery::run)).
    pub wall: Duration,
    /// Time until the first tuple set was emitted, if any was.
    pub first_result: Option<Duration>,
    /// Time until the `top_k`-th tuple set was emitted, if reached.
    pub kth_result: Option<Duration>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.add(3);
        g.add(-5);
        assert_eq!(g.get(), -2);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_percentiles_are_monotone_and_clamped_to_max() {
        let h = Histogram::new();
        // Samples spread over many buckets, including 0.
        for nanos in [0u64, 1, 7, 120, 999, 4_096, 65_000, 1_000_000, 123] {
            h.record_nanos(nanos);
        }
        assert_eq!(h.count(), 9);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        let max = h.max_seconds();
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        assert!(p99 <= max, "p99 {p99} > max {max}");
        assert_eq!(h.quantile(1.0), max);
        assert_eq!(max, 1_000_000.0 / 1e9);
    }

    #[test]
    fn histogram_single_sample_quantiles_collapse_to_max() {
        let h = Histogram::new();
        h.record(Duration::from_micros(42));
        assert_eq!(h.quantile(0.5), h.max_seconds());
        assert_eq!(h.quantile(0.99), h.max_seconds());
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.max_seconds(), 0.0);
    }

    #[test]
    fn span_records_once_and_cancel_records_nothing() {
        let h = Arc::new(Histogram::new());
        {
            let _s = Span::timed(&h);
        }
        assert_eq!(h.count(), 1);
        let d = Span::timed(&h).finish();
        assert_eq!(h.count(), 2);
        assert!(d >= Duration::ZERO);
        Span::timed(&h).cancel();
        assert_eq!(h.count(), 2);
        assert_eq!(Arc::strong_count(&h), 1, "spans must not leak handles");
    }

    #[test]
    fn registry_is_get_or_create_and_renders_sorted_families() {
        let reg = Registry::new();
        let a = reg.counter("b_total", "Second family.");
        let b = reg.counter("b_total", "ignored on re-register");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same name must return the same counter");
        reg.gauge("a_gauge", "First family.").set(-3);
        reg.counter(r#"c_total{kind="x"}"#, "Labeled family.")
            .add(9);
        reg.counter(r#"c_total{kind="y"}"#, "Labeled family.")
            .add(1);
        reg.histogram("d_seconds", "A latency.")
            .record(Duration::from_nanos(100));
        let text = reg.render();
        let expected = "\
# HELP a_gauge First family.
# TYPE a_gauge gauge
a_gauge -3
# HELP b_total Second family.
# TYPE b_total counter
b_total 2
# HELP c_total Labeled family.
# TYPE c_total counter
c_total{kind=\"x\"} 9
c_total{kind=\"y\"} 1
# HELP d_seconds A latency.
# TYPE d_seconds summary
d_seconds{quantile=\"0.5\"} 0.000000127
d_seconds{quantile=\"0.99\"} 0.000000127
d_seconds{quantile=\"1\"} 0.0000001
d_seconds_sum 0.0000001
d_seconds_count 1
";
        // The quantile sample values depend on bucket bounds; compare
        // everything except those three lines byte-for-byte.
        let filter = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("quantile"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(filter(&text), filter(expected));
        // And the quantile lines must still parse and be monotone.
        let q = |needle: &str| {
            text.lines()
                .find(|l| l.starts_with(needle))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap()
        };
        let (p50, p99, p100) = (
            q("d_seconds{quantile=\"0.5\"}"),
            q("d_seconds{quantile=\"0.99\"}"),
            q("d_seconds{quantile=\"1\"}"),
        );
        assert!(p50 <= p99 && p99 <= p100);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_panics_on_kind_mismatch() {
        let reg = Registry::new();
        reg.counter("x_total", "a counter");
        reg.gauge("x_total", "not a gauge");
    }

    #[test]
    fn metrics_server_serves_exposition_over_http() {
        let reg = Arc::new(Registry::new());
        reg.counter("up_total", "Test counter.").inc();
        let server = MetricsServer::start(Arc::clone(&reg), "127.0.0.1:0").expect("bind");
        let addr = server.addr();

        let fetch = |path: &str, method: &str| -> String {
            let mut s = TcpStream::connect(addr).expect("connect");
            write!(s, "{method} {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
            let mut out = String::new();
            std::io::Read::read_to_string(&mut s, &mut out).expect("read");
            out
        };

        let ok = fetch("/metrics", "GET");
        assert!(ok.starts_with("HTTP/1.0 200 OK\r\n"), "{ok}");
        assert!(ok.contains("\r\n\r\n# HELP up_total Test counter."), "{ok}");
        assert!(ok.contains("up_total 1"), "{ok}");

        let missing = fetch("/nope", "GET");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
        let bad = fetch("/metrics", "POST");
        assert!(bad.starts_with("HTTP/1.0 405"), "{bad}");

        server.stop();
    }

    #[test]
    fn event_lines_quote_awkward_values() {
        assert_eq!(
            format_event("commit", &[("changes", "3".to_string())]),
            "event=commit changes=3"
        );
        assert_eq!(
            format_event("err", &[("line", "insert A | x y".to_string())]),
            r#"event=err line="insert A | x y""#
        );
        assert_eq!(
            format_event("e", &[("v", String::new())]),
            r#"event=e v="""#
        );
        let disabled = EventLog::disabled();
        assert!(!disabled.is_enabled());
        disabled.emit("ignored", &[]); // must be a no-op, not a panic
        assert!(EventLog::stderr().is_enabled());
    }
}
