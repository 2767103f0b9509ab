//! The write path: a durable, ranked `FdSession` under a sliding window
//! of commits (the `Commit` group).

use crate::data::{rank_attr, RowPool, COMMIT_ROWS, K};
use crate::record::{ms, us, Counters, Outcome, Recorder};
use fd_core::delta::{delta_delete_many, delta_insert_many};
use fd_core::store::Wal;
use fd_core::{
    AttrMax, DeltaBatch, EventSink, FdConfig, FdError, FdEvent, FdSession, FsyncPolicy,
    RankingFunction,
};
use fd_relational::{apply_batch, validate_batch, Change, Database, TupleId};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fsync policy of the durable session (the default policy).
pub const POLICY: FsyncPolicy = FsyncPolicy::OnCommit;

/// Commits whose work counters enter the counter digest. The data
/// directory is also copied after this many commits, and recovery is
/// timed on that copy, so its cost does not depend on run length.
pub const PREFIX_COMMITS: u64 = 256;

/// The one subscriber: counts events, keeps nothing.
struct CountingSink(Arc<AtomicU64>);

impl EventSink for CountingSink {
    fn on_event(&mut self, _event: &FdEvent) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Canonical results and the ranked window, by tuple ids.
type State = (Vec<Vec<TupleId>>, Vec<(Vec<TupleId>, f64)>);

fn state(s: &FdSession<'_>) -> State {
    let results = s
        .canonical_results()
        .iter()
        .map(|set| set.tuples().to_vec())
        .collect();
    let window = s
        .window()
        .unwrap_or_default()
        .iter()
        .map(|(set, rank)| (set.tuples().to_vec(), *rank))
        .collect();
    (results, window)
}

fn ranked_by(db: &Database, attr: &str) -> Result<AttrMax, FdError> {
    AttrMax::new(db, attr).map_err(|e| FdError::Storage {
        reason: e.to_string(),
    })
}

fn reopen(dir: &Path, attr: &str) -> Result<FdSession<'static>, FdError> {
    FdSession::open_ranked_with_config(dir, FdConfig::default(), POLICY, K, |db| {
        Ok(Box::new(ranked_by(db, attr)?) as Box<dyn RankingFunction + Send>)
    })
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Timings of the end-of-run durability steps.
pub struct Finish {
    pub checkpoint: Duration,
    pub recovery: Duration,
}

pub struct CommitGroup {
    session: FdSession<'static>,
    dir: PathBuf,
    attr: String,
    rows: RowPool,
    /// Rows the previous commit inserted; the next commit deletes them.
    prev: Vec<TupleId>,
    commits: u64,
    events: Arc<AtomicU64>,
    /// A second log the traced phase appends each batch to, timing
    /// `Wal::append` apart from the commit.
    shadow_wal: Option<(Wal, u64)>,
    /// The copy of the data directory after [`PREFIX_COMMITS`] commits,
    /// with the state it must recover to.
    prefix: Option<(PathBuf, State)>,
}

impl CommitGroup {
    /// Materializes the ranked session, persists it to `dir` and
    /// subscribes one sink. The commits' rows come from a pool drawn from
    /// `shape`, ordered by `seed`.
    pub fn open(db: Database, dir: PathBuf, shape: u64, seed: u64) -> Result<Self, FdError> {
        let attr = rank_attr(&db);
        let rows = RowPool::new(&db, shape, seed, COMMIT_ROWS);
        let f = ranked_by(&db, &attr)?;
        let mut session = FdSession::ranked(db, f, K);
        session.persist_to(&dir, POLICY)?;
        session.set_wal_compaction_threshold(u64::MAX);
        let events = Arc::new(AtomicU64::new(0));
        session.subscribe(CountingSink(Arc::clone(&events)));
        Ok(CommitGroup {
            session,
            dir,
            attr,
            rows,
            prev: Vec::new(),
            commits: 0,
            events,
            shadow_wal: None,
            prefix: None,
        })
    }

    pub fn tuples(&self) -> usize {
        self.session.db().num_tuples()
    }

    pub fn results(&self) -> usize {
        self.session.len()
    }

    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// One commit: insert the pool's next `COMMIT_ROWS` rows, delete the
    /// rows the previous commit inserted.
    pub fn step(&mut self, rec: &mut Recorder, counters: &mut Counters, out: &mut Outcome) {
        let mut batch = DeltaBatch::new();
        for (rel, row) in self.rows.batch(self.commits) {
            batch.insert(*rel, row.clone());
        }
        for &t in &self.prev {
            batch.delete(t);
        }
        let req = self.commits;
        let shadow = if rec.traced() {
            Some(self.shadow(&batch, req, rec))
        } else {
            None
        };

        let db = self.session.db();
        let (probes, hits) = (db.index_probes(), db.index_hits());
        let wal_before = self.session.wal_bytes().unwrap_or(0);
        let start = Instant::now();
        let committed = self.session.commit(batch);
        let elapsed = start.elapsed();
        rec.sample("commit_us", us(elapsed));
        let commit = match committed {
            Ok(commit) => commit,
            Err(e) => {
                out.check(false, || format!("commit {req} failed: {e}"));
                return;
            }
        };
        out.check(!commit.events.is_empty(), || {
            format!("commit {req} produced no events")
        });
        if let Some(children) = shadow {
            rec.span("session.commit", None, req, start, elapsed);
            // Signed: the copy runs just before the commit, on colder
            // caches, so a step can read below zero.
            rec.sample("session.self_us", us(elapsed) - us(children));
        }
        if self.commits < PREFIX_COMMITS {
            let db = self.session.db();
            counters.add_stats("commit", &commit.stats);
            counters.add("commit.index_probes", (db.index_probes() - probes) as f64);
            counters.add("commit.index_hits", (db.index_hits() - hits) as f64);
            counters.add(
                "commit.wal_bytes",
                (self.session.wal_bytes().unwrap_or(0) - wal_before) as f64,
            );
            counters.add("commit.events", commit.events.len() as f64);
            counters.add("commit.runs", 1.0);
        }
        self.prev = commit.inserted();
        self.commits += 1;
        if self.commits == PREFIX_COMMITS {
            let copy = self.dir.with_extension("prefix");
            match copy_dir(&self.dir, &copy) {
                Ok(()) => self.prefix = Some((copy, state(&self.session))),
                Err(e) => {
                    out.check(false, || format!("copying the data directory failed: {e}"));
                }
            }
        }
    }

    /// Replays the commit's layers on a copy of the database, timing
    /// each public call; returns their total.
    fn shadow(&mut self, batch: &DeltaBatch, req: u64, rec: &mut Recorder) -> Duration {
        let cfg = self.session.config();
        let before = self.session.results().to_vec();
        let mut db = self.session.db().clone();
        let mut total = Duration::ZERO;
        let mut timed = |name: &'static str, rec: &mut Recorder, f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            let d = t.elapsed();
            rec.span(name, Some("session.commit"), req, t, d);
            total += d;
        };

        timed("relational.validate", rec, &mut || {
            validate_batch(&db, batch).expect("the generated batch is valid");
        });
        let mut changes = Vec::new();
        timed("relational.apply", rec, &mut || {
            changes = apply_batch(&mut db, batch.clone()).expect("the generated batch applies");
        });
        let (mut inserted, mut removed) = (Vec::new(), Vec::new());
        for change in changes {
            match change {
                Change::Inserted { tuple, .. } => inserted.push(tuple),
                Change::Removed { tuple, .. } => removed.push(tuple),
            }
        }
        timed("delta.delete", rec, &mut || {
            std::hint::black_box(delta_delete_many(&db, &removed, &before, cfg));
        });
        timed("delta.insert", rec, &mut || {
            std::hint::black_box(delta_insert_many(&db, &inserted, &[], cfg));
        });

        if self.shadow_wal.is_none() {
            let path = self.dir.with_extension("shadow.wal");
            let wal = Wal::open(&path).expect("shadow WAL opens").wal;
            self.shadow_wal = Some((wal, 0));
        }
        let (wal, seq) = self.shadow_wal.as_mut().expect("opened above");
        *seq += 1;
        let seq = *seq;
        timed("store.wal_append", rec, &mut || {
            wal.append(seq, batch, POLICY).expect("shadow WAL append");
        });
        total
    }

    /// Drops the session and removes its files (an extra set-up).
    pub fn discard(self) {
        let dir = self.dir.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Checks the session against a recomputation, times recovery of
    /// the prefix copy and one checkpoint, then reopens the directory
    /// and compares it with the live session. Removes its files.
    pub fn finish(self, out: &mut Outcome) -> Finish {
        let CommitGroup {
            mut session,
            dir,
            attr,
            prefix,
            shadow_wal,
            events,
            ..
        } = self;
        out.check(events.load(Ordering::Relaxed) > 0, || {
            "the sink saw no events".into()
        });
        out.check(session.verify_snapshot(), || {
            "the session differs from a from-scratch recomputation".into()
        });

        let mut recovery = Duration::ZERO;
        if let Some((copy, expect)) = prefix {
            let start = Instant::now();
            let reopened = reopen(&copy, &attr);
            recovery = start.elapsed();
            match reopened {
                Ok(s) => {
                    out.check(s.replayed_batches() == PREFIX_COMMITS, || {
                        format!("recovery replayed {} batches", s.replayed_batches())
                    });
                    out.check(state(&s) == expect, || {
                        "the recovered prefix differs from the live state it copied".into()
                    });
                }
                Err(e) => {
                    out.check(false, || format!("recovery failed: {e}"));
                }
            }
            let _ = std::fs::remove_dir_all(&copy);
        } else {
            out.check(false, || {
                "the run made fewer commits than the prefix".into()
            });
        }

        let start = Instant::now();
        let checkpointed = session.checkpoint();
        let checkpoint = start.elapsed();
        out.check(matches!(checkpointed, Ok(true)), || {
            format!("checkpoint failed: {checkpointed:?}")
        });
        let live = state(&session);
        drop(session);
        match reopen(&dir, &attr) {
            Ok(s) => {
                out.check(state(&s) == live, || {
                    "the reopened session differs from the live one".into()
                });
            }
            Err(e) => {
                out.check(false, || format!("reopen failed: {e}"));
            }
        }
        drop(shadow_wal);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(dir.with_extension("shadow.wal"));
        Finish {
            checkpoint,
            recovery,
        }
    }
}

/// The checkpoint and recovery times in ms.
impl Finish {
    pub fn checkpoint_ms(&self) -> f64 {
        ms(self.checkpoint)
    }

    pub fn recovery_ms(&self) -> f64 {
        ms(self.recovery)
    }
}
