//! `fd serve` — the network daemon over [`FdSession`].
//!
//! PR 5 collapsed the live surface into one transactional session with
//! push-based [`EventSink`] subscribers precisely so a server could sit
//! directly on it; this module is that server. The ranked-enumeration
//! line of work frames the consumer side as a *query-serving* primitive
//! — first results in milliseconds over a long-lived connection — and
//! the pieces here map onto that frame one-to-one:
//!
//! * [`SessionHandle`] — a poison-safe `Arc<Mutex<FdSession<'static>>>`
//!   every connection thread shares. Commits serialize through the one
//!   session, so each lands in exactly **one** maintenance pass and all
//!   subscribers observe the same commit order.
//! * [`Server`] — a std-`TcpListener` daemon, one thread per connection
//!   plus per-subscriber forwarding threads; no runtime dependencies.
//! * The wire protocol — line-oriented text, a superset of the `fd
//!   watch` REPL grammar ([`parse_command`]), framed by
//!   [`fd_relational::textio`]'s quote/escape discipline (one value, one
//!   line — a row never contains a raw newline).
//! * [`Client`] — a small blocking client the CLI's `fd connect`
//!   subcommand and the integration tests drive.
//!
//! ## Wire protocol
//!
//! Every request is one line; every reply is a block of zero or more
//! payload lines (indented two spaces) terminated by exactly one status
//! line, `ok …` or `error …`. Commits additionally fan out to every
//! subscribed connection as asynchronous `event + {…}` / `event - {…}`
//! lines, which may interleave *between* reply blocks but never inside
//! one (replies and events go through one per-connection writer lock).
//!
//! ```text
//! insert REL | V1 | V2 ...   apply (or queue) an insert
//! delete tN                  apply (or queue) a delete
//! begin / commit / abort     transaction control, as in fd watch; at
//!                            most MAX_PENDING_MUTATIONS queued mutations
//! show                       every current result, canonical order
//! top                        the ranked top-k window (ranked daemons)
//! stats                      result/pass/subscriber counters + work totals
//! metrics                    Prometheus-style text exposition
//! subscribe / unsubscribe    start/stop the event feed to this client
//! quit                       close this connection
//! shutdown                   stop the daemon (flushes in-flight events)
//! ```
//!
//! A malformed line earns an `error protocol: …` reply — never a panic,
//! never a disconnect of *other* clients. A subscriber whose socket died
//! is reaped via [`FdSession::unsubscribe`] on the first failed write —
//! counted in `fd_serve_reaps_total`, no longer silently.
//!
//! ## Observability
//!
//! The daemon instruments itself into the session's
//! [`Registry`] (per-command request counters,
//! reply latency, connection/subscriber gauges, queue depth, protocol
//! errors, reaps) alongside the session's own commit metrics. Three ways
//! out: the `metrics` wire command returns the text exposition as a
//! reply block; [`ServeOptions::metrics_addr`] additionally serves it
//! over plain HTTP (`GET /metrics`, scrapeable by Prometheus or `curl`,
//! zero new dependencies); [`ServeOptions::log`] emits structured
//! `key=value` event lines on stderr (connection open/close, commit
//! summaries with phase timings, reap and backpressure warnings).

use crate::error::FdError;
use crate::obs::lockcheck::TrackedMutex;
use crate::obs::{Counter, EventLog, Gauge, Histogram, MetricsServer, Registry, Span};
use crate::ranking::RankingFunction;
use crate::session::{Commit, CommitTimings, EventSink, FdSession, SinkId};
use crate::tupleset::TupleSet;
use fd_relational::{textio, AttrId, Database, DeltaBatch, TupleId, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection thread blocks in `read` before re-checking the
/// shutdown flag. Bounds both shutdown latency and the cost of idle
/// connections (one wakeup per interval).
const READ_POLL: Duration = Duration::from_millis(100);

/// The longest request line a connection may send, newline included.
/// A longer line gets `error line too long` and the connection closes,
/// so one client cannot grow the daemon's memory without limit.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// The longest line a [`Client`] reads, newline included; a longer one
/// is a protocol error, so a bad peer cannot grow the client without
/// limit. The daemon echoes an unknown command of up to
/// `MAX_LINE_BYTES` with its error prefix and [`GRAMMAR`], so the cap
/// leaves room for that.
const MAX_REPLY_BYTES: usize = 2 * MAX_LINE_BYTES;

/// The most mutations one `begin` block may queue. A further `insert` or
/// `delete` gets `error transaction too large …` and is counted in
/// `fd_serve_batch_rejections_total`; the transaction stays open, so the
/// client can still `commit` or `abort` what it queued.
pub const MAX_PENDING_MUTATIONS: usize = 4096;

/// The most connections the daemon serves at once (one thread each). A
/// connection over the cap gets `error too many connections`, is closed,
/// and is counted in `fd_serve_connections_rejected_total`.
pub const MAX_CONNECTIONS: usize = 128;

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// The one-line command summary quoted in protocol error replies and
/// the connection greeting.
pub const GRAMMAR: &str =
    "insert REL | V.. / delete tN / begin / commit / abort / show / top / stats / metrics / \
     subscribe / unsubscribe / quit / shutdown";

/// When the cross-subscriber commit-queue depth reaches this many
/// undelivered batches, `--log` emits a backpressure warning per
/// delivery (the metric `fd_serve_queue_depth` carries the exact value
/// at all times).
const BACKPRESSURE_WARN_DEPTH: i64 = 64;

/// Capacity of each subscriber's commit-label queue. A consumer more
/// than this many commits behind starts losing events (counted in
/// `fd_events_dropped_total`) instead of growing the queue without
/// bound.
const SUBSCRIBER_QUEUE_CAP: usize = 256;

/// The slow-consumer policy: after this many dropped sends the
/// subscriber is disconnected and reaped — a client that can't keep up
/// gets a closed feed it can re-establish, not a silently gappy one.
const SLOW_CONSUMER_MAX_DROPS: u64 = 64;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a serve-side operation failed. Wraps [`FdError`] so query/session
/// failures keep their typed cause ([`std::error::Error::source`]);
/// the transport and protocol layers get variants of their own instead
/// of stringly-typed formatting.
#[derive(Debug)]
pub enum ServeError {
    /// A socket operation failed.
    Io {
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A peer (or a config value) violated the wire protocol.
    Protocol {
        /// What was malformed.
        reason: String,
    },
    /// The shared session mutex was poisoned — a thread panicked while
    /// holding the session. The daemon refuses to touch the state
    /// rather than unwrap and propagate the panic.
    SessionPoisoned,
    /// The session rejected the operation (e.g. a bad mutation batch).
    Query {
        /// The session's typed rejection.
        source: FdError,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io { source } => write!(f, "i/o: {source}"),
            ServeError::Protocol { reason } => write!(f, "protocol: {reason}"),
            ServeError::SessionPoisoned => {
                write!(f, "session poisoned: a server thread panicked mid-commit")
            }
            ServeError::Query { source } => write!(f, "{source}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io { source } => Some(source),
            ServeError::Query { source } => Some(source),
            ServeError::Protocol { .. } | ServeError::SessionPoisoned => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(source: std::io::Error) -> Self {
        ServeError::Io { source }
    }
}

impl From<FdError> for ServeError {
    fn from(source: FdError) -> Self {
        ServeError::Query { source }
    }
}

// ---------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------

/// One parsed wire command. The grammar is a superset of the `fd watch`
/// REPL (`fd watch` scripts are valid `fd connect` scripts).
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `insert REL | V1 | V2 ...`
    Insert {
        /// The target relation, by name (resolved against the session).
        rel: String,
        /// The row, parsed under [`textio`]'s quoting rules.
        values: Vec<Value>,
    },
    /// `delete tN` (or `delete N`).
    Delete(TupleId),
    /// `begin` — open a transaction; mutations queue until `commit`.
    Begin,
    /// `commit` — land the queued batch in one maintenance pass.
    Commit,
    /// `abort` — discard the queued batch.
    Abort,
    /// `show` — every current result, canonical order.
    Show,
    /// `top` — the ranked window (ranked daemons only).
    Top,
    /// `stats` — result/pass/subscriber counters plus the cumulative
    /// [`Stats`](crate::Stats) work counters.
    Stats,
    /// `metrics` — the full Prometheus-style text exposition of the
    /// session + daemon registry, as an indented reply block.
    Metrics,
    /// `subscribe` — start the event feed to this connection.
    Subscribe,
    /// `unsubscribe` — stop the event feed.
    Unsubscribe,
    /// `quit` / `exit` — close this connection.
    Quit,
    /// `shutdown` — stop the whole daemon.
    Shutdown,
}

/// Why a line failed to parse as a [`Command`]. Structured so each front
/// end renders its own wording: `fd watch` keeps its historical
/// (golden-pinned) messages, the daemon replies `error protocol: …`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The first word is not a command.
    Unknown {
        /// The offending line.
        cmd: String,
    },
    /// A known command with malformed arguments.
    Usage {
        /// The expected form.
        usage: &'static str,
    },
    /// `delete` with a token that is not `tN` or `N`.
    BadTupleId {
        /// The offending token.
        token: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Unknown { cmd } => write!(f, "unknown command: {cmd}"),
            ParseError::Usage { usage } => write!(f, "usage: {usage}"),
            ParseError::BadTupleId { token } => write!(f, "bad tuple id: {token}"),
        }
    }
}

/// Parses one line of the wire protocol (also the `fd watch` REPL
/// grammar). Leading/trailing whitespace is ignored; blank lines and
/// `#` comments are the caller's business (both front ends skip them
/// before parsing).
pub fn parse_command(line: &str) -> Result<Command, ParseError> {
    let cmd = line.trim();
    match cmd {
        "begin" => return Ok(Command::Begin),
        "commit" => return Ok(Command::Commit),
        "abort" => return Ok(Command::Abort),
        "show" => return Ok(Command::Show),
        "top" => return Ok(Command::Top),
        "stats" => return Ok(Command::Stats),
        "metrics" => return Ok(Command::Metrics),
        "subscribe" => return Ok(Command::Subscribe),
        "unsubscribe" => return Ok(Command::Unsubscribe),
        "quit" | "exit" => return Ok(Command::Quit),
        "shutdown" => return Ok(Command::Shutdown),
        _ => {}
    }
    if let Some(rest) = cmd.strip_prefix("insert ") {
        let (rel, row) = rest.split_once('|').ok_or(ParseError::Usage {
            usage: "insert REL | V1 | V2 ...",
        })?;
        return Ok(Command::Insert {
            rel: rel.trim().to_owned(),
            values: textio::parse_row(row),
        });
    }
    if let Some(rest) = cmd.strip_prefix("delete ") {
        let token = rest.trim();
        let raw: u32 = token
            .strip_prefix('t')
            .unwrap_or(token)
            .parse()
            .map_err(|_| ParseError::BadTupleId {
                token: token.to_owned(),
            })?;
        return Ok(Command::Delete(TupleId(raw)));
    }
    Err(ParseError::Unknown {
        cmd: cmd.to_owned(),
    })
}

/// Is this reply line a status line (the terminator of a reply block)?
pub fn is_status(line: &str) -> bool {
    line == "ok" || line == "error" || line.starts_with("ok ") || line.starts_with("error ")
}

// ---------------------------------------------------------------------
// SessionHandle — the shared-state core
// ---------------------------------------------------------------------

/// The shared, thread-safe handle every server component works through:
/// a clonable `Arc<Mutex<FdSession<'static>>>` whose lock acquisition is
/// poison-safe — a panicking holder turns later calls into
/// [`ServeError::SessionPoisoned`] instead of a propagated panic.
#[derive(Debug, Clone)]
pub struct SessionHandle {
    inner: Arc<TrackedMutex<FdSession<'static>>>,
}

/// Lock-order role of the shared session mutex (rank 1 in
/// `LOCK_ORDER.md`: held for a whole commit, query or checkpoint, so it
/// is always taken *before* any leaf lock).
const SESSION_LOCK: &str = "serve.session";

/// Lock-order role of each connection's writer mutex (rank 2: a leaf —
/// nothing is acquired while holding it).
const WRITER_LOCK: &str = "serve.conn_writer";

impl SessionHandle {
    /// Wraps an owned session for sharing across threads.
    pub fn new(session: FdSession<'static>) -> Self {
        SessionHandle {
            inner: Arc::new(TrackedMutex::new(SESSION_LOCK, session)),
        }
    }

    /// Runs `f` under the session lock. The building block of every
    /// other method; exposed so callers (tests, the CLI) can read any
    /// session state without a per-accessor wrapper.
    pub fn with<R>(&self, f: impl FnOnce(&mut FdSession<'static>) -> R) -> Result<R, ServeError> {
        let mut guard = self.inner.lock().map_err(|_| ServeError::SessionPoisoned)?;
        Ok(f(&mut guard))
    }

    /// Commits a batch through the shared session: one maintenance pass,
    /// subscribers notified under the lock (so every subscriber sees
    /// every commit exactly once, in commit order).
    pub fn commit(&self, batch: DeltaBatch) -> Result<Commit, ServeError> {
        self.with(|s| s.commit(batch))?.map_err(ServeError::from)
    }

    /// Registers a per-client event queue: a [`Subscription`] whose
    /// receiver yields one [`CommitLabels`] per subsequent commit, with
    /// the events already rendered (`+ {…}` / `- {…}`) — the consumer
    /// never needs the session lock to format its feed.
    pub fn subscribe(&self) -> Result<Subscription, ServeError> {
        let (tx, rx) = mpsc::sync_channel(SUBSCRIBER_QUEUE_CAP);
        let gave_up = Arc::new(AtomicBool::new(false));
        let sink_gave_up = Arc::clone(&gave_up);
        let id = self.with(|s| {
            let depth = s.registry().gauge(QUEUE_DEPTH_METRIC, QUEUE_DEPTH_HELP);
            let dropped = s
                .registry()
                .counter(EVENTS_DROPPED_METRIC, EVENTS_DROPPED_HELP);
            s.subscribe(LabelSink {
                tx: Some(tx),
                depth,
                dropped,
                drops: 0,
                gave_up: sink_gave_up,
            })
        })?;
        Ok(Subscription { id, rx, gave_up })
    }

    /// Deregisters a subscriber, closing its channel (the receiver loop
    /// ends after draining). Double-unsubscribe is not an error, so a
    /// departing client and its forwarding thread can both reap.
    pub fn unsubscribe(&self, id: SinkId) -> Result<bool, ServeError> {
        self.with(|s| s.unsubscribe(id))
    }
}

/// The rendered net effect of one commit, as delivered to a
/// [`Subscription`]: one `+ {…}` / `- {…}` label per [`FdEvent`]
/// (retractions first), rendered against the post-commit database.
///
/// [`FdEvent`]: crate::session::FdEvent
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitLabels {
    /// The event labels, in event order.
    pub labels: Vec<String>,
}

/// A per-client event queue created by [`SessionHandle::subscribe`].
/// The queue is bounded (`SUBSCRIBER_QUEUE_CAP` commits): a consumer
/// that falls further behind loses events, and one that keeps losing
/// them (`SLOW_CONSUMER_MAX_DROPS` drops) is cut off — the channel
/// closes and the flag returned by [`Subscription::into_parts`]
/// reports why.
#[derive(Debug)]
pub struct Subscription {
    id: SinkId,
    rx: mpsc::Receiver<CommitLabels>,
    gave_up: Arc<AtomicBool>,
}

impl Subscription {
    /// The sink id to pass to [`SessionHandle::unsubscribe`].
    pub fn id(&self) -> SinkId {
        self.id
    }

    /// The receiving end of the queue.
    pub fn receiver(&self) -> &mpsc::Receiver<CommitLabels> {
        &self.rx
    }

    /// Splits the subscription for a forwarding thread that owns the
    /// receiver while the connection keeps the id. The flag turns true
    /// when the sink abandoned this subscriber as a slow consumer
    /// (checked after the receiver drains).
    pub fn into_parts(self) -> (SinkId, mpsc::Receiver<CommitLabels>, Arc<AtomicBool>) {
        (self.id, self.rx, self.gave_up)
    }
}

/// Metric name/help of the cross-subscriber commit-queue depth gauge:
/// batches queued by [`LabelSink`]s but not yet written out by their
/// forwarding threads. Shared between the sink (increments) and the
/// forwarder (decrements) via the session registry.
const QUEUE_DEPTH_METRIC: &str = "fd_serve_queue_depth";
const QUEUE_DEPTH_HELP: &str =
    "Commit batches queued to subscriber forwarders but not yet written to their sockets.";

/// Metric name/help of the slow-consumer drop counter: commit batches a
/// [`LabelSink`] discarded because the subscriber's bounded queue was
/// full. Shared between the sink (increments) and [`ServeMetrics`].
const EVENTS_DROPPED_METRIC: &str = "fd_events_dropped_total";
const EVENTS_DROPPED_HELP: &str =
    "Commit batches dropped because a subscriber's bounded queue was full.";

/// The [`EventSink`] behind a [`Subscription`]: renders each commit's
/// events under the session lock (where the post-commit database is at
/// hand) and queues the labels. The queue is bounded: a full queue drops
/// the batch (counted in `fd_events_dropped_total`), and a subscriber
/// that accumulates [`SLOW_CONSUMER_MAX_DROPS`] drops is abandoned —
/// the sink closes the channel and raises `gave_up`, so the forwarder
/// disconnects the client once the queue drains. Hang-ups are likewise
/// absorbed here; a dead receiver must never take the commit down.
struct LabelSink {
    tx: Option<mpsc::SyncSender<CommitLabels>>,
    depth: Arc<Gauge>,
    dropped: Arc<Counter>,
    drops: u64,
    gave_up: Arc<AtomicBool>,
}

impl EventSink for LabelSink {
    fn on_event(&mut self, _event: &crate::session::FdEvent) {}

    fn on_commit(&mut self, commit: &Commit, db: &Database) {
        let Some(tx) = self.tx.as_ref() else {
            return;
        };
        let labels = commit.events.iter().map(|e| e.label(db)).collect();
        match tx.try_send(CommitLabels { labels }) {
            Ok(()) => self.depth.add(1),
            Err(mpsc::TrySendError::Full(_)) => {
                self.dropped.inc();
                self.drops += 1;
                if self.drops >= SLOW_CONSUMER_MAX_DROPS {
                    self.gave_up.store(true, Ordering::Release);
                    // Dropping the sender closes the channel: the
                    // forwarder drains what's queued, sees `gave_up`,
                    // and reaps the connection.
                    self.tx = None;
                }
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {}
        }
    }
}

// ---------------------------------------------------------------------
// AttrMax — an owned ranking function for 'static sessions
// ---------------------------------------------------------------------

/// `f_max` over one numeric attribute, evaluated **live**: the rank of a
/// set is the maximum of the attribute's value over its member tuples
/// (missing / non-numeric ⇒ 0). Unlike [`FMax`] — which borrows a
/// frozen [`ImpScores`] table and therefore cannot outlive it — this
/// ranking owns its state, so a ranked [`FdSession`] built from it is
/// `'static` and can be served across threads; tuples inserted later
/// rank by their real attribute value instead of a frozen default.
///
/// [`FMax`]: crate::ranking::FMax
/// [`ImpScores`]: crate::ranking::ImpScores
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrMax {
    attr: AttrId,
}

impl AttrMax {
    /// Ranks by the attribute named `attr` of `db`.
    pub fn new(db: &Database, attr: &str) -> Result<Self, ServeError> {
        let attr = db.attr_id(attr).map_err(|_| ServeError::Protocol {
            reason: format!("unknown attribute '{attr}'"),
        })?;
        Ok(AttrMax { attr })
    }

    /// The ranked attribute.
    pub fn attr(&self) -> AttrId {
        self.attr
    }
}

impl RankingFunction for AttrMax {
    fn rank(&self, db: &Database, set: &TupleSet) -> f64 {
        set.tuples()
            .iter()
            .map(|&t| match db.tuple_value(t, self.attr) {
                Some(Value::Int(i)) => *i as f64,
                Some(Value::Float(f)) => *f,
                _ => 0.0,
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// Wire-command spellings, in [`Command`] declaration order — the
/// labels of the `fd_serve_requests_total{command=…}` series.
const COMMAND_NAMES: [&str; 13] = [
    "insert",
    "delete",
    "begin",
    "commit",
    "abort",
    "show",
    "top",
    "stats",
    "metrics",
    "subscribe",
    "unsubscribe",
    "quit",
    "shutdown",
];

fn command_index(cmd: &Command) -> usize {
    match cmd {
        Command::Insert { .. } => 0,
        Command::Delete(_) => 1,
        Command::Begin => 2,
        Command::Commit => 3,
        Command::Abort => 4,
        Command::Show => 5,
        Command::Top => 6,
        Command::Stats => 7,
        Command::Metrics => 8,
        Command::Subscribe => 9,
        Command::Unsubscribe => 10,
        Command::Quit => 11,
        Command::Shutdown => 12,
    }
}

/// Pre-bound handles into the (session-owned) registry for the daemon's
/// own metrics — resolved once at server start so the per-request path
/// never takes the registry lock.
struct ServeMetrics {
    connections: Arc<Counter>,
    rejected: Arc<Counter>,
    active: Arc<Gauge>,
    requests: [Arc<Counter>; COMMAND_NAMES.len()],
    reply: Arc<Histogram>,
    protocol_errors: Arc<Counter>,
    batch_rejections: Arc<Counter>,
    reaps: Arc<Counter>,
    pushed: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    dropped: Arc<Counter>,
}

impl ServeMetrics {
    fn new(registry: &Registry) -> Self {
        ServeMetrics {
            connections: registry.counter(
                "fd_serve_connections_total",
                "Connections accepted over the daemon's lifetime.",
            ),
            rejected: registry.counter(
                "fd_serve_connections_rejected_total",
                "Connections refused because the daemon already held its maximum of open connections.",
            ),
            active: registry.gauge("fd_serve_connections_active", "Currently open connections."),
            requests: std::array::from_fn(|i| {
                registry.counter(
                    &format!(
                        "fd_serve_requests_total{{command=\"{}\"}}",
                        COMMAND_NAMES[i]
                    ),
                    "Requests received, by wire command.",
                )
            }),
            reply: registry.histogram(
                "fd_serve_reply_seconds",
                "Request-to-reply latency of one wire command.",
            ),
            protocol_errors: registry.counter(
                "fd_serve_protocol_errors_total",
                "Lines that failed to parse as a wire command.",
            ),
            batch_rejections: registry.counter(
                "fd_serve_batch_rejections_total",
                "Mutations refused because the open transaction was full.",
            ),
            reaps: registry.counter(
                "fd_serve_reaps_total",
                "Dead subscribers reaped after a failed event write.",
            ),
            pushed: registry.counter(
                "fd_events_pushed_total",
                "Event lines written to subscriber sockets.",
            ),
            queue_depth: registry.gauge(QUEUE_DEPTH_METRIC, QUEUE_DEPTH_HELP),
            dropped: registry.counter(EVENTS_DROPPED_METRIC, EVENTS_DROPPED_HELP),
        }
    }
}

/// Optional daemon features, for [`Server::start_with`].
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Also serve the metrics registry over HTTP: `GET /metrics` on
    /// this address (e.g. `"127.0.0.1:9434"`, port 0 for ephemeral)
    /// returns the same Prometheus-style text exposition as the
    /// `metrics` wire command. `None` disables the endpoint.
    pub metrics_addr: Option<String>,
    /// Emit structured `key=value` event lines on stderr: connection
    /// open/close, per-commit summaries with phase timings, reap and
    /// backpressure warnings.
    pub log: bool,
}

/// What the accept loop and every connection thread share.
struct Shared {
    handle: SessionHandle,
    shutdown: AtomicBool,
    registry: Arc<Registry>,
    metrics: ServeMetrics,
    log: EventLog,
}

impl Shared {
    /// One `event=commit …` log line with the phase breakdown — the
    /// stderr twin of the `fd_commit_*_seconds` histograms.
    fn log_commit(&self, mutations: usize, events: usize, t: CommitTimings) {
        if !self.log.is_enabled() {
            return;
        }
        self.log.emit(
            "commit",
            &[
                ("mutations", mutations.to_string()),
                ("events", events.to_string()),
                ("validate_us", t.validate.as_micros().to_string()),
                ("wal_us", t.wal.as_micros().to_string()),
                ("apply_us", t.apply.as_micros().to_string()),
                ("maintain_us", t.maintain.as_micros().to_string()),
                ("window_us", t.window.as_micros().to_string()),
                ("fanout_us", t.fanout.as_micros().to_string()),
                ("total_us", t.total.as_micros().to_string()),
            ],
        );
    }
}

/// The `fd serve` daemon: accepts connections on a TCP address and
/// speaks the wire protocol over each, all against one shared session.
///
/// ```no_run
/// use fd_core::serve::{Client, Server};
/// use fd_core::FdSession;
/// use fd_relational::tourist_database;
///
/// let server = Server::start(FdSession::new(tourist_database()), "127.0.0.1:0")?;
/// let mut client = Client::connect(server.addr())?;
/// client.send("show")?;
/// server.stop()?;
/// # Ok::<(), fd_core::serve::ServeError>(())
/// ```
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    metrics_server: Option<MetricsServer>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("shutdown", &self.shared.shutdown.load(Ordering::Relaxed))
            .finish()
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port — [`addr`](Self::addr)
    /// reports the bound one) and starts accepting connections against
    /// `session`.
    pub fn start(
        session: FdSession<'static>,
        addr: impl ToSocketAddrs,
    ) -> Result<Self, ServeError> {
        Self::start_with(session, addr, ServeOptions::default())
    }

    /// [`start`](Self::start) with optional observability features: an
    /// HTTP metrics scrape endpoint and/or structured event logging.
    pub fn start_with(
        session: FdSession<'static>,
        addr: impl ToSocketAddrs,
        options: ServeOptions,
    ) -> Result<Self, ServeError> {
        let registry = Arc::clone(session.registry());
        let metrics = ServeMetrics::new(&registry);
        let metrics_server = match &options.metrics_addr {
            Some(maddr) => Some(MetricsServer::start(Arc::clone(&registry), maddr.as_str())?),
            None => None,
        };
        let log = if options.log {
            EventLog::stderr()
        } else {
            EventLog::disabled()
        };
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            handle: SessionHandle::new(session),
            shutdown: AtomicBool::new(false),
            registry,
            metrics,
            log,
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            metrics_server,
        })
    }

    /// The bound address (resolves `:0` requests to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound address of the HTTP metrics endpoint, if one was
    /// requested via [`ServeOptions::metrics_addr`].
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_server.as_ref().map(MetricsServer::addr)
    }

    /// The metrics registry behind the daemon (and its session) — the
    /// in-process way to read what `/metrics` exposes.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.registry)
    }

    /// A clone of the shared session handle (for in-process inspection —
    /// e.g. comparing the served state against an oracle).
    pub fn handle(&self) -> SessionHandle {
        self.shared.handle.clone()
    }

    /// Asks the daemon to stop, as the `shutdown` wire command does.
    /// Returns immediately; [`wait`](Self::wait) observes the exit.
    pub fn trigger_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }

    /// A detached handle that can stop this daemon from anywhere — a
    /// signal watcher, another thread, a test harness. Cloneable and
    /// `'static`; triggering after the server exited is a no-op.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until the daemon exits (a `shutdown` command arrived), then
    /// joins every connection thread — in-flight replies and subscriber
    /// queues are flushed, not dropped. A durable session additionally
    /// gets a final [`checkpoint`](FdSession::checkpoint), so graceful
    /// exits (wire `shutdown` and handled signals alike) leave a fresh
    /// snapshot and an empty write-ahead log.
    pub fn wait(mut self) -> Result<(), ServeError> {
        if let Some(h) = self.accept.take() {
            h.join().map_err(|_| ServeError::SessionPoisoned)?;
        }
        if let Some(m) = self.metrics_server.take() {
            m.stop();
        }
        // Best-effort: a failed final snapshot must not turn a clean
        // shutdown into an error exit — the WAL still holds every
        // committed batch, so recovery replays them on next open.
        // stderr directly: the event log may already be torn down at
        // this point in shutdown, and the warning must still land.
        #[allow(clippy::print_stderr)]
        match self.shared.handle.with(|s| s.checkpoint()) {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => eprintln!("fd serve: shutdown checkpoint failed: {e}"),
            Err(e) => eprintln!("fd serve: shutdown checkpoint failed: {e}"),
        }
        Ok(())
    }

    /// [`trigger_shutdown`](Self::trigger_shutdown) + [`wait`](Self::wait).
    pub fn stop(self) -> Result<(), ServeError> {
        self.trigger_shutdown();
        self.wait()
    }
}

/// A cloneable, `'static` way to stop a [`Server`] from outside —
/// obtained via [`Server::shutdown_handle`], handed to signal watchers
/// or supervisor threads. Triggering is idempotent and equivalent to
/// the `shutdown` wire command: the accept loop exits, connections are
/// joined, and [`Server::wait`] runs its final checkpoint.
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Asks the daemon to stop.
    pub fn trigger(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for ShutdownHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShutdownHandle")
            .field("triggered", &self.shared.shutdown.load(Ordering::Relaxed))
            .finish()
    }
}

/// Installs handlers for `SIGTERM` and `SIGINT` that trigger `handle`,
/// so killing the daemon is as safe as the `shutdown` wire command:
/// subscriber queues are flushed, forwarders joined, and a durable
/// session writes a final snapshot before the process exits. On
/// non-Unix platforms this is a no-op (Ctrl-C simply terminates).
///
/// The handler itself only stores an atomic flag (the only thing that
/// is async-signal-safe); a small watcher thread polls the flag and
/// performs the actual trigger. Call once per process — later calls
/// replace which handle the signals stop.
pub fn trigger_shutdown_on_signals(handle: ShutdownHandle) {
    signals::install(handle);
}

#[cfg(unix)]
mod signals {
    use super::ShutdownHandle;
    use crate::obs::lockcheck::TrackedMutex;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Set by the signal handler; drained by the watcher thread.
    static SIGNALLED: AtomicBool = AtomicBool::new(false);
    /// The handle the watcher triggers; replaced by later installs.
    /// (A lock-order leaf, like the writers — rank 3 in LOCK_ORDER.md.)
    static TARGET: TrackedMutex<Option<ShutdownHandle>> =
        TrackedMutex::new("serve.signal_target", None);

    extern "C" fn on_signal(_sig: i32) {
        // Async-signal-safe: one atomic store, nothing else.
        SIGNALLED.store(true, Ordering::Release);
    }

    extern "C" {
        // POSIX signal(2), straight from libc — the process already
        // links it; no crate needed for two classic signals.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub(super) fn install(handle: ShutdownHandle) {
        let mut target = TARGET.lock().unwrap_or_else(|p| p.into_inner());
        let first = target.is_none();
        *target = Some(handle);
        drop(target);
        if !first {
            return;
        }
        unsafe {
            #[allow(clippy::fn_to_numeric_cast_any)]
            let h = on_signal as extern "C" fn(i32) as usize;
            signal(SIGTERM, h);
            signal(SIGINT, h);
        }
        std::thread::Builder::new()
            .name("fd-signal-watch".into())
            .spawn(|| loop {
                if SIGNALLED.swap(false, Ordering::Acquire) {
                    let target = TARGET.lock().unwrap_or_else(|p| p.into_inner());
                    if let Some(h) = target.as_ref() {
                        h.trigger();
                    }
                }
                std::thread::sleep(Duration::from_millis(100));
            })
            .expect("spawning the signal watcher thread");
    }
}

#[cfg(not(unix))]
mod signals {
    use super::ShutdownHandle;

    pub(super) fn install(_handle: ShutdownHandle) {}
}

/// The accept loop: non-blocking accept + shutdown polling, one spawned
/// thread per connection up to [`MAX_CONNECTIONS`]; joins the live ones
/// on exit so shutdown flushes every connection.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        // Detach finished threads so a long-lived daemon doesn't hoard
        // handles and the cap counts live connections only; live ones
        // are joined below on shutdown.
        conns.retain(|h| !h.is_finished());
        match listener.accept() {
            Ok((mut stream, _)) if conns.len() >= MAX_CONNECTIONS => {
                shared.metrics.rejected.inc();
                // Best effort: the refused client may already be gone.
                let _ = stream.write_all(b"error too many connections\n");
                let _ = stream.shutdown(Shutdown::Write);
            }
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                conns.push(std::thread::spawn(move || {
                    // Connection errors end that connection only.
                    let _ = serve_connection(stream, &shared);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// A connection's writer: shared between the command loop (reply
/// blocks) and the forwarding thread (event lines). Lock poisoning is
/// deliberately forgiven — a panicking writer leaves bytes, not broken
/// invariants.
type SharedWriter = Arc<TrackedMutex<TcpStream>>;

fn write_block(writer: &SharedWriter, text: &str) -> std::io::Result<()> {
    let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
    w.write_all(text.as_bytes())
}

/// Per-connection protocol state.
struct Conn<'s> {
    shared: &'s Shared,
    writer: SharedWriter,
    pending: Option<DeltaBatch>,
    sub: Option<(SinkId, JoinHandle<()>)>,
}

/// What the command loop should do after a reply.
enum Flow {
    Continue,
    Close,
}

fn serve_connection(stream: TcpStream, shared: &Shared) -> Result<(), ServeError> {
    stream.set_read_timeout(Some(READ_POLL))?;
    // Replies and event fan-out are latency-sensitive small writes;
    // Nagle + delayed ACK would park each behind a ~40 ms timer.
    stream.set_nodelay(true)?;
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".to_owned());
    shared.metrics.connections.inc();
    let writer: SharedWriter = Arc::new(TrackedMutex::new(WRITER_LOCK, stream.try_clone()?));
    let mut reader = BufReader::new(stream);
    let mut conn = Conn {
        shared,
        writer,
        pending: None,
        sub: None,
    };

    let greeting = conn
        .shared
        .handle
        .with(|s| format!("ok fd serve ({} results); commands: {GRAMMAR}\n", s.len()));
    match greeting {
        Ok(text) => write_block(&conn.writer, &text)?,
        Err(_) => {
            let _ = write_block(&conn.writer, "error session poisoned\n");
            return Err(ServeError::SessionPoisoned);
        }
    }
    shared.metrics.active.add(1);
    shared.log.emit("conn.open", &[("peer", peer.clone())]);

    // The line reader: bytes accumulate in `buf` across read timeouts
    // (a timeout mid-line must not drop the partial line), and every
    // timeout re-checks the shutdown flag. No line grows past
    // `MAX_LINE_BYTES`.
    let mut buf: Vec<u8> = Vec::new();
    let outcome = loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            break Ok(());
        }
        let room = (MAX_LINE_BYTES - buf.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut buf) {
            Ok(0) => break Ok(()), // EOF
            Ok(_) if buf.len() >= MAX_LINE_BYTES && buf.last() != Some(&b'\n') => {
                conn.protocol_error(&format!("<{} bytes without a newline>", buf.len()));
                let _ = conn.reply("error line too long");
                // Send FIN after the reply, then discard what the client
                // already sent (bounded, up to the first read timeout),
                // so closing does not reset the connection before the
                // client has read the reply.
                let _ = reader.get_ref().shutdown(Shutdown::Write);
                let _ = std::io::copy(
                    &mut (&mut reader).take(MAX_LINE_BYTES as u64),
                    &mut std::io::sink(),
                );
                break Ok(());
            }
            Ok(_) => {
                let at_eof = buf.last() != Some(&b'\n');
                let line = String::from_utf8_lossy(&buf).trim().to_string();
                buf.clear();
                if !(line.is_empty() || line.starts_with('#')) {
                    match conn.execute(&line) {
                        Ok(Flow::Continue) => {}
                        Ok(Flow::Close) => break Ok(()),
                        Err(e) => break Err(e),
                    }
                }
                if at_eof {
                    break Ok(()); // final line arrived without a newline
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle (or mid-line) poll tick; loop re-checks shutdown.
            }
            Err(e) => break Err(ServeError::from(e)),
        }
    };

    conn.cleanup();
    shared.metrics.active.add(-1);
    shared.log.emit("conn.close", &[("peer", peer)]);
    outcome
}

impl Conn<'_> {
    /// Executes one command line: writes exactly one reply block and
    /// says whether the connection stays open. `Err` means the reply
    /// could not be written (or the session is poisoned) — only then
    /// does the connection die.
    fn execute(&mut self, line: &str) -> Result<Flow, ServeError> {
        let _reply_span = Span::timed(&self.shared.metrics.reply);
        let cmd = match parse_command(line) {
            Ok(cmd) => cmd,
            Err(ParseError::Unknown { cmd }) => {
                self.protocol_error(line);
                self.reply(&format!(
                    "error protocol: unknown command: {cmd} ({GRAMMAR})"
                ))?;
                return Ok(Flow::Continue);
            }
            Err(e) => {
                self.protocol_error(line);
                self.reply(&format!("error protocol: {e}"))?;
                return Ok(Flow::Continue);
            }
        };
        self.shared.metrics.requests[command_index(&cmd)].inc();
        match cmd {
            Command::Insert { rel, values } => self.insert(&rel, values),
            Command::Delete(tuple) => self.delete(tuple),
            Command::Begin => {
                if self.pending.is_some() {
                    self.reply("error transaction already open (commit or abort first)")?;
                } else {
                    self.pending = Some(DeltaBatch::new());
                    self.reply("ok begin (mutations now queue until commit)")?;
                }
                Ok(Flow::Continue)
            }
            Command::Commit => self.commit(),
            Command::Abort => {
                match self.pending.take() {
                    None => self.reply("error no open transaction (begin first)")?,
                    Some(batch) => self.reply(&format!(
                        "ok aborted ({} queued mutation(s) discarded)",
                        batch.len()
                    ))?,
                }
                Ok(Flow::Continue)
            }
            Command::Show => {
                let lines = self.session(|s| {
                    s.canonical_results()
                        .iter()
                        .map(|set| format!("  {}", set.label(s.db())))
                        .collect::<Vec<_>>()
                })?;
                let n = lines.len();
                self.reply_block(lines, &format!("ok {n} result(s)"))?;
                Ok(Flow::Continue)
            }
            Command::Top => {
                let window = self.session(|s| {
                    s.window().map(|w| {
                        (
                            w.iter()
                                .map(|(set, rank)| {
                                    format!("  rank {rank:>8.3}  {}", set.label(s.db()))
                                })
                                .collect::<Vec<_>>(),
                            s.len(),
                        )
                    })
                })?;
                match window {
                    None => self.reply(
                        "error not a ranked session (start fd serve with --rank-by/--top)",
                    )?,
                    Some((lines, total)) => {
                        let k = lines.len();
                        self.reply_block(lines, &format!("ok top {k} of {total}"))?;
                    }
                }
                Ok(Flow::Continue)
            }
            Command::Stats => {
                let (n, passes, subs, totals) = self.session(|s| {
                    (
                        s.len(),
                        s.maintenance_passes(),
                        s.num_subscribers(),
                        *s.stats(),
                    )
                })?;
                let lines = totals
                    .to_string()
                    .lines()
                    .map(|l| format!("  {l}"))
                    .collect();
                self.reply_block(
                    lines,
                    &format!("ok results={n} passes={passes} subscribers={subs}"),
                )?;
                Ok(Flow::Continue)
            }
            Command::Metrics => {
                let text = self.shared.registry.render();
                let lines = text.lines().map(|l| format!("  {l}")).collect();
                self.reply_block(lines, "ok metrics")?;
                Ok(Flow::Continue)
            }
            Command::Subscribe => self.subscribe(),
            Command::Unsubscribe => {
                match self.sub.take() {
                    None => self.reply("error not subscribed")?,
                    Some((id, forwarder)) => {
                        // Dropping the sink closes the channel; the
                        // forwarder drains what's queued, then exits —
                        // unsubscribe never loses an already-committed
                        // event.
                        let _ = self.shared.handle.unsubscribe(id)?;
                        let _ = forwarder.join();
                        self.reply(&format!("ok unsubscribed {id}"))?;
                    }
                }
                Ok(Flow::Continue)
            }
            Command::Quit => {
                self.reply("ok bye")?;
                Ok(Flow::Close)
            }
            Command::Shutdown => {
                self.reply("ok shutting down")?;
                self.shared.shutdown.store(true, Ordering::Relaxed);
                Ok(Flow::Close)
            }
        }
    }

    /// Counts (and, under `--log`, reports) one malformed request line.
    fn protocol_error(&self, line: &str) {
        self.shared.metrics.protocol_errors.inc();
        self.shared
            .log
            .emit("protocol.error", &[("line", line.to_string())]);
    }

    /// Runs `f` under the session lock, rendering a poisoned session as
    /// a terminal reply.
    fn session<R>(&self, f: impl FnOnce(&mut FdSession<'static>) -> R) -> Result<R, ServeError> {
        match self.shared.handle.with(f) {
            Ok(r) => Ok(r),
            Err(e) => {
                let _ = write_block(&self.writer, &format!("error {e}\n"));
                Err(e)
            }
        }
    }

    fn reply(&self, status: &str) -> Result<(), ServeError> {
        write_block(&self.writer, &format!("{status}\n")).map_err(ServeError::from)
    }

    /// Writes payload lines + status as ONE block under the writer lock,
    /// so concurrent event fan-out never interleaves into a reply.
    fn reply_block(&self, lines: Vec<String>, status: &str) -> Result<(), ServeError> {
        let mut text = String::new();
        for line in &lines {
            text.push_str(line);
            text.push('\n');
        }
        text.push_str(status);
        text.push('\n');
        write_block(&self.writer, &text).map_err(ServeError::from)
    }

    fn insert(&mut self, rel_name: &str, values: Vec<Value>) -> Result<Flow, ServeError> {
        let resolved = self.session(|s| {
            s.db()
                .relation_by_name(rel_name)
                .map(|r| (r.id(), r.name().to_owned()))
                .map_err(|e| e.to_string())
        })?;
        let (rel, rel_name) = match resolved {
            Ok(pair) => pair,
            Err(msg) => {
                self.reply(&format!("error {msg}"))?;
                return Ok(Flow::Continue);
            }
        };
        if self.pending.is_some() {
            let delta = fd_relational::Delta::Insert { rel, values };
            return self.queue(delta, &format!("insert into {rel_name}"));
        }
        let applied = self.session(|s| {
            s.apply(fd_relational::Delta::Insert { rel, values })
                .map(|commit| {
                    let label = s.db().tuple_label(commit.inserted()[0]);
                    (label, commit.events.len(), commit.timings)
                })
        })?;
        match applied {
            Ok((label, events, timings)) => {
                self.shared.log_commit(1, events, timings);
                self.reply(&format!(
                    "ok inserted {label} into {rel_name}; {events} event(s)"
                ))?;
            }
            Err(e) => self.reply(&format!("error {e}"))?,
        }
        Ok(Flow::Continue)
    }

    fn delete(&mut self, tuple: TupleId) -> Result<Flow, ServeError> {
        if self.pending.is_some() {
            let delta = fd_relational::Delta::Delete { tuple };
            return self.queue(delta, &format!("delete t{}", tuple.0));
        }
        let applied = self.session(|s| {
            s.apply(fd_relational::Delta::Delete { tuple })
                .map(|commit| {
                    // Tombstones retain row data, so the label still renders.
                    (
                        s.db().tuple_label(tuple),
                        commit.events.len(),
                        commit.timings,
                    )
                })
        })?;
        match applied {
            Ok((label, events, timings)) => {
                self.shared.log_commit(1, events, timings);
                self.reply(&format!("ok deleted {label}; {events} event(s)"))?;
            }
            Err(e) => self.reply(&format!("error {e}"))?,
        }
        Ok(Flow::Continue)
    }

    /// Adds `delta` to the open transaction, unless it already holds
    /// [`MAX_PENDING_MUTATIONS`].
    fn queue(&mut self, delta: fd_relational::Delta, what: &str) -> Result<Flow, ServeError> {
        let batch = self.pending.as_mut().expect("an open transaction");
        let n = batch.len();
        if n >= MAX_PENDING_MUTATIONS {
            self.shared.metrics.batch_rejections.inc();
            self.reply(&format!(
                "error transaction too large ({n} pending; commit or abort)"
            ))?;
        } else {
            batch.push(delta);
            self.reply(&format!("ok queued {what} ({} pending)", n + 1))?;
        }
        Ok(Flow::Continue)
    }

    fn commit(&mut self) -> Result<Flow, ServeError> {
        let Some(batch) = self.pending.take() else {
            self.reply("error no open transaction (begin first)")?;
            return Ok(Flow::Continue);
        };
        let n = batch.len();
        let committed = self.session(|s| s.commit(batch))?;
        match committed {
            Ok(commit) => {
                self.shared
                    .log_commit(commit.changes.len(), commit.events.len(), commit.timings);
                self.reply(&format!(
                    "ok committed {} mutation(s) in 1 maintenance pass; {} event(s)",
                    commit.changes.len(),
                    commit.events.len()
                ))?;
            }
            Err(e) => self.reply(&format!("error {e} (batch of {n} discarded)"))?,
        }
        Ok(Flow::Continue)
    }

    fn subscribe(&mut self) -> Result<Flow, ServeError> {
        if let Some((id, _)) = &self.sub {
            let id = *id;
            self.reply(&format!("error already subscribed ({id})"))?;
            return Ok(Flow::Continue);
        }
        let sub = match self.shared.handle.subscribe() {
            Ok(sub) => sub,
            Err(e) => {
                let _ = write_block(&self.writer, &format!("error {e}\n"));
                return Err(e);
            }
        };
        let id = sub.id();
        let writer = Arc::clone(&self.writer);
        let handle = self.shared.handle.clone();
        let ctx = ForwarderCtx {
            pushed: Arc::clone(&self.shared.metrics.pushed),
            reaps: Arc::clone(&self.shared.metrics.reaps),
            depth: Arc::clone(&self.shared.metrics.queue_depth),
            dropped: Arc::clone(&self.shared.metrics.dropped),
            log: self.shared.log,
        };
        let forwarder = std::thread::spawn(move || forward_events(sub, writer, handle, ctx));
        self.sub = Some((id, forwarder));
        self.reply(&format!("ok subscribed {id}"))?;
        Ok(Flow::Continue)
    }

    /// Disconnect path: reap the subscription (if any) and flush its
    /// queue by joining the forwarder.
    fn cleanup(&mut self) {
        if let Some((id, forwarder)) = self.sub.take() {
            let _ = self.shared.handle.unsubscribe(id);
            let _ = forwarder.join();
        }
    }
}

/// The observability handles a forwarding thread carries: delivered
/// event, reap and drop counters, the shared queue-depth gauge, and the
/// structured log for reap/backpressure warnings.
struct ForwarderCtx {
    pushed: Arc<Counter>,
    reaps: Arc<Counter>,
    depth: Arc<Gauge>,
    dropped: Arc<Counter>,
    log: EventLog,
}

/// The per-subscriber forwarding thread: drains the subscription queue
/// onto the connection's writer as `event …` lines — one write per
/// commit, so a commit's events reach the socket contiguously. A failed
/// write means the peer is gone: the forwarder unsubscribes itself
/// (dead-subscriber reaping — counted in `fd_serve_reaps_total` and
/// reported under `--log`) and exits. A subscriber the sink abandoned
/// as a slow consumer (`gave_up`) is reaped the same way once its queue
/// drains, and its socket is shut down so the client observes the
/// disconnect instead of a silently gappy feed.
fn forward_events(
    sub: Subscription,
    writer: SharedWriter,
    handle: SessionHandle,
    ctx: ForwarderCtx,
) {
    let (id, rx, gave_up) = sub.into_parts();
    for commit in rx.iter() {
        ctx.depth.add(-1);
        let backlog = ctx.depth.get();
        if backlog >= BACKPRESSURE_WARN_DEPTH {
            ctx.log.emit(
                "backpressure",
                &[("sink", id.to_string()), ("queued", backlog.to_string())],
            );
        }
        if commit.labels.is_empty() {
            continue;
        }
        let mut text = String::new();
        for label in &commit.labels {
            text.push_str("event ");
            text.push_str(label);
            text.push('\n');
        }
        if write_block(&writer, &text).is_err() {
            let _ = handle.unsubscribe(id);
            ctx.reaps.inc();
            ctx.log.emit("subscriber.reap", &[("sink", id.to_string())]);
            return;
        }
        ctx.pushed.add(commit.labels.len() as u64);
    }
    // The sender side is gone. If the sink gave the subscriber up as a
    // slow consumer (rather than us unsubscribing on hang-up), finish
    // the disconnect: reap the sink registration and close the socket.
    if gave_up.load(Ordering::Acquire) {
        let _ = handle.unsubscribe(id);
        ctx.reaps.inc();
        ctx.log.emit(
            "subscriber.reap",
            &[
                ("sink", id.to_string()),
                ("reason", "slow-consumer".to_string()),
                ("dropped_total", ctx.dropped.get().to_string()),
            ],
        );
        if let Ok(w) = writer.lock() {
            let _ = w.shutdown(std::net::Shutdown::Both);
        }
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A small blocking client of the wire protocol — what `fd connect` and
/// the integration tests are built on.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects once.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        // Command lines are tiny; don't let Nagle batch them against
        // the peer's delayed ACKs.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Connects, retrying until `timeout` elapses — for scripts that
    /// race a just-spawned daemon (e.g. the CI smoke test).
    pub fn connect_retry(addr: &str, timeout: Duration) -> Result<Self, ServeError> {
        let deadline = Instant::now() + timeout;
        loop {
            match Self::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }

    /// Bounds how long reads block (`None` restores blocking reads).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ServeError> {
        self.writer
            .set_read_timeout(timeout)
            .map_err(ServeError::from)
    }

    /// Sends one command line (as a single write — two small writes
    /// would invite Nagle to park the tail behind a delayed ACK).
    pub fn send(&mut self, line: &str) -> Result<(), ServeError> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        Ok(())
    }

    /// Reads one line (without the newline); `None` on EOF. A line of
    /// more than `MAX_REPLY_BYTES` is a [`ServeError::Protocol`].
    pub fn read_line(&mut self) -> Result<Option<String>, ServeError> {
        let mut buf = Vec::new();
        let n = (&mut self.reader)
            .take(MAX_REPLY_BYTES as u64)
            .read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Ok(None);
        }
        if n == MAX_REPLY_BYTES && buf.last() != Some(&b'\n') {
            return Err(ServeError::Protocol {
                reason: format!("server line longer than {MAX_REPLY_BYTES} bytes"),
            });
        }
        let line = String::from_utf8(buf)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok(Some(line.trim_end_matches(['\n', '\r']).to_owned()))
    }

    /// Reads one reply block: every line up to and including the next
    /// status line. Event lines that arrive between replies are included
    /// in arrival order (they precede the block they interleaved with).
    pub fn read_response(&mut self) -> Result<Vec<String>, ServeError> {
        let mut lines = Vec::new();
        loop {
            match self.read_line()? {
                None => {
                    return Err(ServeError::Protocol {
                        reason: "connection closed mid-reply".into(),
                    })
                }
                Some(line) => {
                    let done = is_status(&line);
                    lines.push(line);
                    if done {
                        return Ok(lines);
                    }
                }
            }
        }
    }

    /// [`send`](Self::send) + [`read_response`](Self::read_response).
    pub fn request(&mut self, line: &str) -> Result<Vec<String>, ServeError> {
        self.send(line)?;
        self.read_response()
    }

    /// Reads until EOF, returning whatever lines were still in flight
    /// (e.g. trailing events after `quit`).
    pub fn drain(&mut self) -> Result<Vec<String>, ServeError> {
        let mut lines = Vec::new();
        while let Some(line) = self.read_line()? {
            lines.push(line);
        }
        Ok(lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::FdSession;
    use fd_relational::tourist_database;

    #[test]
    fn client_rejects_an_endless_server_line() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.write_all(&vec![b'x'; MAX_REPLY_BYTES + 1]).unwrap();
        });
        let mut client = Client::connect(addr).unwrap();
        assert!(matches!(
            client.read_line(),
            Err(ServeError::Protocol { .. })
        ));
        peer.join().unwrap();
    }

    #[test]
    fn parse_commands_cover_the_grammar() {
        assert_eq!(parse_command(" begin "), Ok(Command::Begin));
        assert_eq!(parse_command("commit"), Ok(Command::Commit));
        assert_eq!(parse_command("abort"), Ok(Command::Abort));
        assert_eq!(parse_command("show"), Ok(Command::Show));
        assert_eq!(parse_command("top"), Ok(Command::Top));
        assert_eq!(parse_command("stats"), Ok(Command::Stats));
        assert_eq!(parse_command("metrics"), Ok(Command::Metrics));
        assert_eq!(parse_command("subscribe"), Ok(Command::Subscribe));
        assert_eq!(parse_command("unsubscribe"), Ok(Command::Unsubscribe));
        assert_eq!(parse_command("quit"), Ok(Command::Quit));
        assert_eq!(parse_command("exit"), Ok(Command::Quit));
        assert_eq!(parse_command("shutdown"), Ok(Command::Shutdown));
        assert_eq!(parse_command("delete t7"), Ok(Command::Delete(TupleId(7))));
        assert_eq!(parse_command("delete 7"), Ok(Command::Delete(TupleId(7))));
        let Ok(Command::Insert { rel, values }) = parse_command("insert Climates | Chile | arid")
        else {
            panic!("insert must parse");
        };
        assert_eq!(rel, "Climates");
        assert_eq!(values, vec![Value::from("Chile"), Value::from("arid")]);
    }

    #[test]
    fn parse_errors_are_structured() {
        assert_eq!(
            parse_command("frobnicate"),
            Err(ParseError::Unknown {
                cmd: "frobnicate".into()
            })
        );
        assert_eq!(
            parse_command("insert NoPipe"),
            Err(ParseError::Usage {
                usage: "insert REL | V1 | V2 ..."
            })
        );
        assert_eq!(
            parse_command("delete xyz"),
            Err(ParseError::BadTupleId {
                token: "xyz".into()
            })
        );
        // Displays match the watch REPL's historical wording.
        assert_eq!(
            parse_command("delete xyz").unwrap_err().to_string(),
            "bad tuple id: xyz"
        );
        assert_eq!(
            parse_command("insert X").unwrap_err().to_string(),
            "usage: insert REL | V1 | V2 ..."
        );
    }

    #[test]
    fn serve_error_sources_chain() {
        use std::error::Error as _;
        let io = ServeError::from(std::io::Error::other("boom"));
        assert!(io.source().is_some());
        assert!(io.to_string().contains("boom"));
        let q = ServeError::from(FdError::InvalidPageSize);
        assert!(q.source().is_some());
        let p = ServeError::Protocol {
            reason: "junk".into(),
        };
        assert!(p.source().is_none());
        assert_eq!(p.to_string(), "protocol: junk");
        assert!(ServeError::SessionPoisoned.source().is_none());
    }

    #[test]
    fn attr_max_ranks_live_values() {
        let db = tourist_database();
        let f = AttrMax::new(&db, "Stars").unwrap();
        let plaza = crate::query::FdQuery::over(&db)
            .run()
            .unwrap()
            .into_sets()
            .into_iter()
            .find(|s| s.label(&db) == "{c1, a1}")
            .unwrap();
        assert_eq!(f.rank(&db, &plaza), 4.0); // the Plaza's Stars
        assert!(AttrMax::new(&db, "Nope").is_err());
    }

    #[test]
    fn session_handle_serializes_commits_and_feeds_subscribers() {
        let handle = SessionHandle::new(FdSession::new(tourist_database()));
        let sub = handle.subscribe().unwrap();
        let mut batch = DeltaBatch::new();
        batch.insert(fd_relational::RelId(0), vec!["Chile".into(), "arid".into()]);
        let commit = handle.commit(batch).unwrap();
        assert_eq!(commit.events.len(), 1);
        let pushed = sub.receiver().recv().unwrap();
        assert_eq!(pushed.labels, vec!["+ {c4}".to_owned()]);
        assert!(handle.unsubscribe(sub.id()).unwrap());
        assert!(!handle.unsubscribe(sub.id()).unwrap());
    }

    #[test]
    fn server_round_trip_over_a_real_socket() {
        let server = Server::start(FdSession::new(tourist_database()), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let greeting = client.read_response().unwrap();
        assert!(greeting
            .last()
            .unwrap()
            .starts_with("ok fd serve (6 results)"));

        let show = client.request("show").unwrap();
        assert_eq!(show.len(), 7);
        assert_eq!(show[0], "  {c1, a1}");
        assert_eq!(show.last().unwrap(), "ok 6 result(s)");

        // Malformed lines earn protocol errors, not disconnects.
        let bad = client.request("frobnicate").unwrap();
        assert!(bad[0].starts_with("error protocol: unknown command: frobnicate"));
        let bad = client.request("delete nope").unwrap();
        assert_eq!(bad, vec!["error protocol: bad tuple id: nope"]);

        // A transaction through the wire.
        assert_eq!(
            client.request("begin").unwrap(),
            vec!["ok begin (mutations now queue until commit)"]
        );
        assert_eq!(
            client.request("insert Climates | Chile | arid").unwrap(),
            vec!["ok queued insert into Climates (1 pending)"]
        );
        let commit = client.request("commit").unwrap();
        assert_eq!(
            commit,
            vec!["ok committed 1 mutation(s) in 1 maintenance pass; 1 event(s)"]
        );
        // `stats` replies with the cumulative work counters as payload
        // lines and the headline counters as the status line.
        let stats = client.request("stats").unwrap();
        assert_eq!(stats.last().unwrap(), "ok results=7 passes=1 subscribers=0");
        assert!(stats.iter().any(|l| l.starts_with("  jcc_checks=")));
        let counters = crate::Stats::new().fields().len();
        assert_eq!(stats.len(), counters + 1, "the counters + 1 status line");

        // `metrics` replies with the Prometheus exposition, indented.
        let metrics = client.request("metrics").unwrap();
        assert_eq!(metrics.last().unwrap(), "ok metrics");
        assert!(metrics
            .iter()
            .any(|l| l.starts_with("  fd_commits_total 1")));
        assert!(metrics
            .iter()
            .any(|l| l.starts_with("  # TYPE fd_commit_maintain_seconds summary")));
        assert!(metrics
            .iter()
            .any(|l| *l == "  fd_serve_protocol_errors_total 2"));

        assert_eq!(client.request("quit").unwrap(), vec!["ok bye"]);
        server.stop().unwrap();
    }

    #[test]
    fn subscriber_feed_and_shutdown_flush() {
        let server = Server::start(FdSession::new(tourist_database()), "127.0.0.1:0").unwrap();
        let mut watcher = Client::connect(server.addr()).unwrap();
        watcher.read_response().unwrap();
        let reply = watcher.request("subscribe").unwrap();
        assert!(reply[0].starts_with("ok subscribed s"));
        assert_eq!(
            watcher.request("subscribe").unwrap(),
            vec!["error already subscribed (s0)"]
        );

        let mut actor = Client::connect(server.addr()).unwrap();
        actor.read_response().unwrap();
        let reply = actor.request("insert Climates | Chile | arid").unwrap();
        assert_eq!(reply, vec!["ok inserted c4 into Climates; 1 event(s)"]);

        // The watcher receives the fan-out without polling commands.
        assert_eq!(watcher.read_line().unwrap().unwrap(), "event + {c4}");

        // Unsubscribe stops the feed.
        assert_eq!(
            watcher.request("unsubscribe").unwrap(),
            vec!["ok unsubscribed s0"]
        );
        actor.request("delete t10").unwrap();
        assert_eq!(actor.request("quit").unwrap(), vec!["ok bye"]);
        let quit = watcher.request("quit").unwrap();
        assert_eq!(quit, vec!["ok bye"], "no event may leak after unsubscribe");
        server.stop().unwrap();
    }

    #[test]
    fn shutdown_command_stops_the_daemon() {
        let server = Server::start(FdSession::new(tourist_database()), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        let mut client = Client::connect(addr).unwrap();
        client.read_response().unwrap();
        assert_eq!(
            client.request("shutdown").unwrap(),
            vec!["ok shutting down"]
        );
        assert_eq!(client.drain().unwrap(), Vec::<String>::new());
        server.wait().unwrap();
        // The listener is gone (allow the OS a moment to tear down).
        std::thread::sleep(Duration::from_millis(50));
        assert!(TcpStream::connect(addr).is_err());
    }
}
