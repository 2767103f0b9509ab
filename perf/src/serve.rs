//! The served path: `fd serve` in process on loopback, one committer
//! connection and one subscriber connection (the `Serve` group). The
//! benchmark's own thread drives both connections, so a commit's round
//! trip hands off between as few threads as the daemon needs.

use crate::data::{rank_attr, RowPool, K};
use crate::record::{us, Counters, Outcome, Recorder};
use fd_core::serve::{Client, ServeError, Server, SessionHandle};
use fd_core::{AttrMax, DeltaBatch, FdSession};
use fd_relational::{textio, Database, TupleId};
use std::time::{Duration, Instant};

/// How long the committer waits for a commit's events before counting
/// the commit as failed.
const EVENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Blocks whose work counters (from the in-process replay) enter the
/// counter digest.
const COUNTED_BLOCKS: usize = 256;

fn session(db: &Database, attr: &str) -> Result<FdSession<'static>, ServeError> {
    Ok(FdSession::ranked(db.clone(), AttrMax::new(db, attr)?, K))
}

pub struct ServeGroup {
    db: Database,
    attr: String,
    server: Option<Server>,
    committer: Client,
    subscriber: Client,
    rows: RowPool,
    /// Tuple id bound of the served database at start: the i-th block's
    /// row gets id `base + i`.
    base: u32,
    /// Blocks committed so far.
    blocks: usize,
    /// The in-process replay: the same blocks committed through a
    /// `SessionHandle` of its own, and how many it has seen.
    twin: Option<(SessionHandle, usize)>,
}

impl ServeGroup {
    /// Starts the daemon over a ranked session of `db` and connects the
    /// committer and a subscribed subscriber. The blocks' rows come from a
    /// pool drawn from `shape`, ordered by `seed`.
    pub fn start(db: Database, shape: u64, seed: u64) -> Result<Self, ServeError> {
        let attr = rank_attr(&db);
        let base = db.tuple_id_bound();
        let rows = RowPool::new(&db, shape, seed, 1);
        let server = Server::start(session(&db, &attr)?, "127.0.0.1:0")?;
        let mut subscriber = Client::connect(server.addr())?;
        subscriber.read_response()?;
        expect_ok(&subscriber.request("subscribe")?, "ok subscribed")?;
        subscriber.set_read_timeout(Some(EVENT_TIMEOUT))?;
        let mut committer = Client::connect(server.addr())?;
        committer.read_response()?;
        Ok(ServeGroup {
            db,
            attr,
            server: Some(server),
            committer,
            subscriber,
            rows,
            base,
            blocks: 0,
            twin: None,
        })
    }

    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// One block (`begin`, `insert`, `delete` of the previous block's
    /// row, `commit`), then a `top` read. Traced, the block is also
    /// committed in process right after, timing the commit without the
    /// wire under the same load.
    pub fn step(&mut self, rec: &mut Recorder, counters: &mut Counters, out: &mut Outcome) {
        let mut ok = self.block(rec);
        if ok.is_ok() && rec.traced() {
            ok = self.replay(Some(rec), counters);
        }
        out.check(ok.is_ok(), || {
            format!("serve block {} failed: {ok:?}", self.blocks)
        });
    }

    fn block(&mut self, rec: &mut Recorder) -> Result<(), ServeError> {
        let i = self.blocks;
        let (rel, row) = &self.rows.batch(i as u64)[0];
        let c = &mut self.committer;
        expect_ok(&c.request("begin")?, "ok begin")?;
        let name = self.db.relation(*rel).name();
        let insert = format!("insert {name} | {}", textio::format_row(row));
        expect_ok(&c.request(&insert)?, "ok queued")?;
        if i > 0 {
            let prev = self.base + i as u32 - 1;
            expect_ok(&c.request(&format!("delete t{prev}"))?, "ok queued")?;
        }
        self.blocks += 1;

        let start = Instant::now();
        c.send("commit")?;
        let reply = c.read_response()?;
        let status = expect_ok(&reply, "ok committed")?;
        let events: usize = status
            .rsplit("; ")
            .next()
            .and_then(|s| s.strip_suffix(" event(s)"))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| protocol(format!("no event count in {status:?}")))?;
        if events == 0 {
            return Err(protocol("a commit without events".into()));
        }
        // The daemon writes a commit's events in one block; the run
        // stamps the last line of the block as it reads it.
        let mut seen = 0;
        while seen < events {
            match self.subscriber.read_line()? {
                Some(line) if line.starts_with("event ") => seen += 1,
                Some(_) => {}
                None => return Err(protocol("the subscriber connection closed".into())),
            }
        }
        let event = start.elapsed();
        rec.sample("event_us", us(event));
        if rec.traced() {
            rec.span("serve.commit_to_event", None, i as u64, start, event);
        }

        let start = Instant::now();
        let top = c.request("top")?;
        let elapsed = start.elapsed();
        rec.sample("read_us", us(elapsed));
        expect_ok(&top, "ok top")?;
        Ok(())
    }

    /// Compares the served state with an in-process replay of the same
    /// blocks through `SessionHandle::commit` (timed: the commit cost
    /// without the wire), then stops the daemon and joins every thread.
    pub fn finish(mut self, counters: &mut Counters, out: &mut Outcome) {
        let shown = self.committer.request("show");
        let replay = self.replay(None, counters).and_then(|()| self.twin_lines());
        match (shown, replay) {
            (Ok(shown), Ok(want)) => {
                let got: Vec<String> = shown
                    .iter()
                    .filter(|l| l.starts_with("  "))
                    .cloned()
                    .collect();
                out.check(got == want, || {
                    format!(
                        "served state ({} results) differs from the in-process replay ({})",
                        got.len(),
                        want.len()
                    )
                });
            }
            (shown, replay) => {
                out.check(false, || {
                    format!("show/replay failed: {:?} / {:?}", shown.err(), replay.err())
                });
            }
        }
        let stopped = self.stop();
        out.check(stopped.is_ok(), || {
            format!("the daemon did not stop cleanly: {stopped:?}")
        });
    }

    /// Closes both connections and stops the daemon, joining its
    /// threads.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = self.committer.request("quit");
        let _ = self.subscriber.request("quit");
        match self.server.take() {
            Some(server) => server.stop().map_err(|e| e.to_string()),
            None => Ok(()),
        }
    }

    /// Commits the blocks the twin has not seen yet through its
    /// `SessionHandle`; with a recorder, the newest one is timed.
    fn replay(
        &mut self,
        rec: Option<&mut Recorder>,
        counters: &mut Counters,
    ) -> Result<(), ServeError> {
        if self.twin.is_none() {
            self.twin = Some((SessionHandle::new(session(&self.db, &self.attr)?), 0));
        }
        let (handle, seen) = self.twin.as_mut().expect("created above");
        let mut rec = rec;
        while *seen < self.blocks {
            let i = *seen;
            let (rel, row) = &self.rows.batch(i as u64)[0];
            let mut batch = DeltaBatch::new();
            batch.insert(*rel, row.clone());
            if i > 0 {
                batch.delete(TupleId(self.base + i as u32 - 1));
            }
            let start = Instant::now();
            let commit = handle.commit(batch)?;
            let elapsed = start.elapsed();
            if i + 1 == self.blocks {
                if let Some(rec) = rec.take() {
                    rec.span("serve.inproc_commit", None, i as u64, start, elapsed);
                }
            }
            if i < COUNTED_BLOCKS {
                counters.add_stats("serve", &commit.stats);
                counters.add("serve.events", commit.events.len() as f64);
                counters.add("serve.runs", 1.0);
            }
            *seen += 1;
        }
        Ok(())
    }

    /// The `show` lines the twin would print.
    fn twin_lines(&self) -> Result<Vec<String>, ServeError> {
        let (handle, _) = self.twin.as_ref().expect("replayed before");
        handle.with(|s| {
            s.canonical_results()
                .iter()
                .map(|set| format!("  {}", set.label(s.db())))
                .collect()
        })
    }
}

fn protocol(reason: String) -> ServeError {
    ServeError::Protocol { reason }
}

/// The status line of a reply, which must start with `prefix`.
fn expect_ok(reply: &[String], prefix: &str) -> Result<String, ServeError> {
    match reply.last() {
        Some(status) if status.starts_with(prefix) => Ok(status.clone()),
        other => Err(protocol(format!("expected {prefix:?}, got {other:?}"))),
    }
}
