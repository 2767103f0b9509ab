//! Durability: snapshots, a write-ahead log, and crash recovery.
//!
//! The paper's incremental maintenance is exactly what makes a
//! *persistent* full-disjunction service cheap: instead of recomputing
//! `FD(R)` from scratch after a restart, a session reloads the last
//! [snapshot](Store::write_snapshot) and replays the tail of committed
//! [`DeltaBatch`]es through the same one-pass `delta_batch` machinery.
//! This module owns the on-disk primitives; the session integration
//! ([`FdSession::open`](crate::FdSession::open) /
//! [`persist_to`](crate::FdSession::persist_to)) lives in
//! [`session`](crate::session).
//!
//! A data directory holds two files:
//!
//! * `snapshot.fd` — the database (**id-exact**: base rows, dynamic
//!   inserts, tombstones) plus the materialized result sets as member-id
//!   lists, behind a versioned, CRC-checked header. Written atomically
//!   (temp file + rename).
//! * `wal.fd` — an append-only log of committed batches, one
//!   seq-, length- and CRC-framed record per commit. A torn final
//!   record (a crash mid-append) is detected on open and truncated with
//!   a logged warning — never a panic. A damaged record with intact
//!   records *after* it is a different animal — bit rot over
//!   acknowledged commits — and refuses to open rather than silently
//!   dropping them.
//!
//! Each WAL record carries the commit's global sequence number and the
//! snapshot records the sequence it folds in, so recovery replays
//! exactly the records the snapshot does not cover. That makes the
//! checkpoint pair (write snapshot, then truncate the log) crash-safe
//! without being atomic: a crash between the two leaves a fresh
//! snapshot plus a stale log, and every stale record is skipped by its
//! sequence number instead of being double-applied.
//!
//! Everything is plain text built from [`textio`](fd_relational::textio)
//! tokens, so a data directory is inspectable with `cat` and the value
//! round-trip guarantees are inherited from the wire format.

use fd_relational::textio::{format_row, parse_row};
use fd_relational::{Database, DatabaseBuilder, Delta, DeltaBatch, RelId, TupleId, Value};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Snapshot file name inside a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.fd";
/// Write-ahead-log file name inside a data directory.
pub const WAL_FILE: &str = "wal.fd";
/// Snapshot format version this build writes and reads. `v3` files hold
/// values only: strings are written as text and rebuilt by value, with
/// no process-wide catalog of them. Older files (`v1`, `v2`) are
/// rejected with [`StoreError::UnsupportedVersion`] rather than guessed
/// at.
pub const SNAPSHOT_VERSION: &str = "v3";

/// How eagerly WAL appends reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` (data + metadata) after every record — survives power loss.
    Always,
    /// `fdatasync` after every record (one record *is* one commit) —
    /// survives process crashes and, on most filesystems, power loss,
    /// without the metadata flush. The default.
    #[default]
    OnCommit,
    /// Buffered writes only — survives process crashes (the kernel holds
    /// the pages), not power loss. The fast lane for bulk loads.
    Off,
}

impl FromStr for FsyncPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "on-commit" => Ok(FsyncPolicy::OnCommit),
            "off" => Ok(FsyncPolicy::Off),
            other => Err(format!(
                "unknown fsync policy '{other}' (expected always, on-commit or off)"
            )),
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::OnCommit => "on-commit",
            FsyncPolicy::Off => "off",
        })
    }
}

/// Why a storage operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// An OS-level I/O failure.
    Io {
        /// What the store was doing.
        op: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A file failed validation (bad header, checksum, or structure).
    Corrupt {
        /// What was wrong.
        what: String,
    },
    /// The snapshot is intact but carries a format version this build
    /// does not read (e.g. an older `v2` file).
    UnsupportedVersion {
        /// The version token found in the snapshot header.
        found: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, source } => write!(f, "{op}: {source}"),
            StoreError::Corrupt { what } => write!(f, "corrupt store: {what}"),
            StoreError::UnsupportedVersion { found } => write!(
                f,
                "snapshot format {found:?} is not supported (this build reads \
                 {SNAPSHOT_VERSION}); re-materialize the store to upgrade"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Corrupt { .. } | StoreError::UnsupportedVersion { .. } => None,
        }
    }
}

fn io_err(op: impl Into<String>) -> impl FnOnce(std::io::Error) -> StoreError {
    let op = op.into();
    move |source| StoreError::Io { op, source }
}

fn corrupt(what: impl Into<String>) -> StoreError {
    StoreError::Corrupt { what: what.into() }
}

/// Makes a directory-entry change (a rename or file creation) durable.
/// `sync_all` on the file covers its *contents*; the entry pointing at
/// it lives in the directory, which needs its own fsync or a power loss
/// can undo the rename while later writes survive.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        // Directories cannot be opened for syncing here; the rename is
        // as durable as the platform makes it.
        let _ = dir;
        Ok(())
    }
}

/// CRC-32 (IEEE 802.3 polynomial, the zlib/`cksum -o3` variant) over a
/// byte slice. Hand-rolled: the build is offline, no `crc32fast` here.
pub fn crc32(bytes: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    }
    const TABLE: [u32; 256] = table();
    let mut crc = !0u32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// A decoded snapshot: the reconstructed database (ids, tombstones and
/// dynamic inserts exactly as persisted) plus the materialized results
/// as member-id lists and the commit sequence number the snapshot folds
/// in.
#[derive(Debug)]
pub struct Snapshot {
    /// Committed batches folded into this snapshot.
    pub seq: u64,
    /// The database, id-exact.
    pub db: Database,
    /// Each materialized result's member tuple ids, ascending.
    pub results: Vec<Vec<TupleId>>,
}

/// A durable data directory: one snapshot plus one write-ahead log.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Opens (creating the directory if needed) a data directory.
    pub fn create(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(io_err(format!("create {}", dir.display())))?;
        Ok(Store { dir })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the snapshot file.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    /// Path of the write-ahead log.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    /// Does the directory hold a snapshot to recover from?
    pub fn has_snapshot(&self) -> bool {
        self.snapshot_path().is_file()
    }

    /// Writes a snapshot of `db` + `results` atomically: temp file +
    /// `sync_all` + rename, then an fsync of the data directory so the
    /// rename itself survives power loss. Returns the body size in
    /// bytes.
    pub fn write_snapshot(
        &self,
        db: &Database,
        results: &[Vec<TupleId>],
        seq: u64,
    ) -> Result<u64, StoreError> {
        let body = encode_snapshot(db, results, seq);
        let header = format!(
            "fdsnap {SNAPSHOT_VERSION} len={} crc={:08x}\n",
            body.len(),
            crc32(&body)
        );
        let tmp = self.dir.join(".snapshot.fd.tmp");
        let path = self.snapshot_path();
        let mut f = File::create(&tmp).map_err(io_err(format!("create {}", tmp.display())))?;
        f.write_all(header.as_bytes())
            .and_then(|()| f.write_all(&body))
            .and_then(|()| f.sync_all())
            .map_err(io_err(format!("write {}", tmp.display())))?;
        drop(f);
        std::fs::rename(&tmp, &path).map_err(io_err(format!(
            "rename {} -> {}",
            tmp.display(),
            path.display()
        )))?;
        sync_dir(&self.dir).map_err(io_err(format!("sync {}", self.dir.display())))?;
        Ok(body.len() as u64)
    }

    /// Loads and validates the snapshot, reconstructing the database
    /// id-exactly (every [`TupleId`] means what it meant when written).
    pub fn read_snapshot(&self) -> Result<Snapshot, StoreError> {
        let path = self.snapshot_path();
        let raw = std::fs::read(&path).map_err(io_err(format!("read {}", path.display())))?;
        let nl = raw
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| corrupt("snapshot: missing header line"))?;
        let header =
            std::str::from_utf8(&raw[..nl]).map_err(|_| corrupt("snapshot: non-utf8 header"))?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("fdsnap") {
            return Err(corrupt(format!("snapshot: bad magic in header {header:?}")));
        }
        match parts.next() {
            Some(v) if v == SNAPSHOT_VERSION => {}
            Some(v) => {
                return Err(StoreError::UnsupportedVersion {
                    found: v.to_owned(),
                })
            }
            None => return Err(corrupt(format!("snapshot: bad magic in header {header:?}"))),
        }
        let len: usize = parts
            .next()
            .and_then(|p| p.strip_prefix("len="))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| corrupt("snapshot: bad len field"))?;
        let crc: u32 = parts
            .next()
            .and_then(|p| p.strip_prefix("crc="))
            .and_then(|v| u32::from_str_radix(v, 16).ok())
            .ok_or_else(|| corrupt("snapshot: bad crc field"))?;
        let body = &raw[nl + 1..];
        if body.len() != len {
            return Err(corrupt(format!(
                "snapshot: body is {} bytes, header says {len}",
                body.len()
            )));
        }
        if crc32(body) != crc {
            return Err(corrupt("snapshot: checksum mismatch"));
        }
        let body = std::str::from_utf8(body).map_err(|_| corrupt("snapshot: non-utf8 body"))?;
        decode_snapshot(body)
    }
}

fn encode_snapshot(db: &Database, results: &[Vec<TupleId>], seq: u64) -> Vec<u8> {
    let mut out = String::new();
    out.push_str(&format!("seq {seq}\n"));
    out.push_str(&format!("relations {}\n", db.num_relations()));
    for rel in db.relations() {
        let mut header: Vec<Value> = vec![Value::str(rel.name())];
        header.extend(
            rel.schema()
                .attrs()
                .iter()
                .map(|&a| Value::str(db.attr_name(a))),
        );
        out.push_str(&format!("rel {}\n", format_row(&header)));
        let band = db.base_tuples(rel.id());
        out.push_str(&format!("rows {}\n", band.len()));
        for raw in band {
            // Tombstoned rows too: their data is retained and their slot
            // keeps every later id meaningful.
            out.push_str(&format!(
                "row {}\n",
                format_row(db.tuple_values(TupleId(raw)))
            ));
        }
    }
    let base = db.base_tuple_count();
    let bound = db.tuple_id_bound();
    out.push_str(&format!("overflow {}\n", bound - base));
    for raw in base..bound {
        // Ascending id order == original insertion order, so replaying
        // `insert_tuple` re-allocates the identical ids.
        let (rel, _) = db.locate(TupleId(raw));
        let mut line: Vec<Value> = vec![Value::Int(rel.index() as i64)];
        line.extend(db.tuple_values(TupleId(raw)).iter().cloned());
        out.push_str(&format!("add {}\n", format_row(&line)));
    }
    let dead: Vec<u32> = (0..bound)
        .filter(|&raw| !db.is_live(TupleId(raw)))
        .collect();
    out.push_str(&format!("dead {}\n", dead.len()));
    for raw in dead {
        out.push_str(&format!("gone {raw}\n"));
    }
    out.push_str(&format!("results {}\n", results.len()));
    for set in results {
        out.push_str("set");
        for t in set {
            out.push_str(&format!(" {}", t.0));
        }
        out.push('\n');
    }
    out.push_str("end\n");
    out.into_bytes()
}

fn decode_snapshot(body: &str) -> Result<Snapshot, StoreError> {
    let mut lines = body.lines();
    let mut next = |tag: &str| -> Result<String, StoreError> {
        let line = lines
            .next()
            .ok_or_else(|| corrupt(format!("snapshot: unexpected end before '{tag}'")))?;
        line.strip_prefix(tag)
            .map(|rest| rest.trim_start().to_owned())
            .ok_or_else(|| corrupt(format!("snapshot: expected '{tag} …', got {line:?}")))
    };
    let seq: u64 = next("seq")?
        .parse()
        .map_err(|_| corrupt("snapshot: bad seq"))?;
    let num_rels: usize = next("relations")?
        .parse()
        .map_err(|_| corrupt("snapshot: bad relation count"))?;

    let mut builder = DatabaseBuilder::new();
    for _ in 0..num_rels {
        let header = parse_row(&next("rel")?);
        let mut names = Vec::with_capacity(header.len());
        for v in &header {
            match v {
                Value::Str(s) => names.push(s.to_string()),
                other => {
                    return Err(corrupt(format!(
                        "snapshot: non-string name token {other:?}"
                    )))
                }
            }
        }
        let (name, attrs) = names
            .split_first()
            .ok_or_else(|| corrupt("snapshot: empty relation header"))?;
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        let mut rb = builder.relation(name, &attr_refs);
        let rows: usize = next("rows")?
            .parse()
            .map_err(|_| corrupt("snapshot: bad row count"))?;
        for _ in 0..rows {
            rb.row_values(parse_row(&next("row")?));
        }
    }
    let mut db = builder
        .build()
        .map_err(|e| corrupt(format!("snapshot: rebuild rejected: {e}")))?;

    let overflow: usize = next("overflow")?
        .parse()
        .map_err(|_| corrupt("snapshot: bad overflow count"))?;
    for _ in 0..overflow {
        let mut values = parse_row(&next("add")?);
        if values.is_empty() {
            return Err(corrupt("snapshot: empty overflow entry"));
        }
        let rel = match values.remove(0) {
            Value::Int(i) if (0..u64::from(u16::MAX)).contains(&(i as u64)) => RelId(i as u16),
            other => {
                return Err(corrupt(format!(
                    "snapshot: bad overflow relation {other:?}"
                )))
            }
        };
        db.insert_tuple(rel, values)
            .map_err(|e| corrupt(format!("snapshot: overflow replay rejected: {e}")))?;
    }
    let dead: usize = next("dead")?
        .parse()
        .map_err(|_| corrupt("snapshot: bad dead count"))?;
    for _ in 0..dead {
        let raw: u32 = next("gone")?
            .parse()
            .map_err(|_| corrupt("snapshot: bad dead id"))?;
        db.remove_tuple(TupleId(raw))
            .map_err(|e| corrupt(format!("snapshot: tombstone replay rejected: {e}")))?;
    }

    let num_results: usize = next("results")?
        .parse()
        .map_err(|_| corrupt("snapshot: bad result count"))?;
    // The count comes from the file: grow as sets parse, never reserve it.
    let mut results = Vec::new();
    for _ in 0..num_results {
        let ids = next("set")?;
        let mut set = Vec::new();
        for tok in ids.split_whitespace() {
            let raw: u32 = tok
                .parse()
                .map_err(|_| corrupt(format!("snapshot: bad member id {tok:?}")))?;
            if !db.is_live(TupleId(raw)) {
                return Err(corrupt(format!(
                    "snapshot: result member t{raw} is not live"
                )));
            }
            set.push(TupleId(raw));
        }
        if set.is_empty() {
            return Err(corrupt("snapshot: empty result set"));
        }
        results.push(set);
    }
    next("end")?;
    Ok(Snapshot { seq, db, results })
}

/// One intact WAL record: a committed batch and its global commit
/// sequence number (the snapshot stores the sequence it folds in, so
/// recovery replays only records with `seq > snapshot.seq`).
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The commit's position in the session's global history, 1-based.
    pub seq: u64,
    /// The committed batch.
    pub batch: DeltaBatch,
}

/// What [`Wal::open`] found on disk.
#[derive(Debug)]
pub struct WalOpen {
    /// The log, positioned for appending.
    pub wal: Wal,
    /// Every intact record, oldest first, with consecutive sequence
    /// numbers (a gap fails the open as corruption).
    pub records: Vec<WalRecord>,
    /// Bytes cut off the end (a torn final record), if any.
    pub truncated: Option<u64>,
}

/// The append-only write-ahead log: one framed record per committed
/// [`DeltaBatch`].
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    bytes: u64,
    records: u64,
    /// Sequence number of the newest record on disk (0 = empty log);
    /// appends must move strictly forward.
    last_seq: u64,
}

impl Wal {
    /// Opens (creating if missing) the log, scanning every record. A
    /// torn *final* record — short payload or checksum mismatch with
    /// nothing decodable after it, the signature of a crash mid-append —
    /// is truncated away with a logged warning; anything before it is
    /// returned for replay. A damaged record *followed by* intact
    /// records is mid-file corruption over acknowledged commits and
    /// fails the open instead of silently dropping them.
    pub fn open(path: impl AsRef<Path>) -> Result<WalOpen, StoreError> {
        let path = path.as_ref().to_path_buf();
        let created = !path.exists();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(io_err(format!("open {}", path.display())))?;
        if created {
            if let Some(dir) = path.parent() {
                sync_dir(dir).map_err(io_err(format!("sync {}", dir.display())))?;
            }
        }
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)
            .map_err(io_err(format!("read {}", path.display())))?;

        let mut records: Vec<WalRecord> = Vec::new();
        let mut good = 0usize;
        let mut torn: Option<String> = None;
        let mut offset = 0usize;
        while offset < raw.len() {
            match scan_record(&raw[offset..]) {
                Ok((record, consumed)) => {
                    if let Some(last) = records.last() {
                        if record.seq != last.seq + 1 {
                            return Err(corrupt(format!(
                                "{}: record seq jumps from {} to {} — the log lost commits",
                                path.display(),
                                last.seq,
                                record.seq
                            )));
                        }
                    }
                    records.push(record);
                    offset += consumed;
                    good = offset;
                }
                Err(why) => {
                    if intact_record_follows(&raw[offset..]) {
                        return Err(corrupt(format!(
                            "{}: record {} is damaged but intact records follow — refusing to \
                             truncate acknowledged commits (repair or remove the file manually): {why}",
                            path.display(),
                            records.len() + 1,
                        )));
                    }
                    torn = Some(why);
                    break;
                }
            }
        }
        let truncated = if torn.is_some() {
            Some((raw.len() - good) as u64)
        } else {
            None
        };
        // stderr directly: WAL repair happens during recovery, before
        // any event log exists to report through.
        #[allow(clippy::print_stderr)]
        if let (Some(why), Some(cut)) = (&torn, truncated) {
            eprintln!(
                "fd store: warning: truncating torn WAL tail of {} ({cut} bytes after record {}): {why}",
                path.display(),
                records.len(),
            );
            file.set_len(good as u64)
                .map_err(io_err(format!("truncate {}", path.display())))?;
            file.sync_all()
                .map_err(io_err(format!("sync {}", path.display())))?;
        }
        file.seek(SeekFrom::Start(good as u64))
            .map_err(io_err(format!("seek {}", path.display())))?;
        let last_seq = records.last().map_or(0, |r| r.seq);
        let num = records.len() as u64;
        Ok(WalOpen {
            wal: Wal {
                file,
                path,
                bytes: good as u64,
                records: num,
                last_seq,
            },
            records,
            truncated,
        })
    }

    /// Current log size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of records in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Sequence number of the newest record on disk (0 = empty log).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Appends one committed batch as a framed record stamped with its
    /// global commit sequence number, then makes it as durable as
    /// `policy` asks. Returns the bytes written. `seq` must move
    /// strictly forward from the last record on disk.
    pub fn append(
        &mut self,
        seq: u64,
        batch: &DeltaBatch,
        policy: FsyncPolicy,
    ) -> Result<u64, StoreError> {
        if seq <= self.last_seq {
            return Err(corrupt(format!(
                "{}: append seq {seq} does not advance past record {}",
                self.path.display(),
                self.last_seq
            )));
        }
        let payload = encode_batch(batch);
        let header = format!("rec {seq} {} {:08x}\n", payload.len(), crc32(&payload));
        let write = |f: &mut File| -> std::io::Result<()> {
            f.write_all(header.as_bytes())?;
            f.write_all(&payload)?;
            f.flush()?;
            match policy {
                FsyncPolicy::Always => f.sync_all(),
                FsyncPolicy::OnCommit => f.sync_data(),
                FsyncPolicy::Off => Ok(()),
            }
        };
        write(&mut self.file).map_err(io_err(format!("append {}", self.path.display())))?;
        let wrote = (header.len() + payload.len()) as u64;
        self.bytes += wrote;
        self.records += 1;
        self.last_seq = seq;
        Ok(wrote)
    }

    /// Empties the log (after a snapshot folded its records in) and
    /// syncs the truncation.
    pub fn truncate(&mut self) -> Result<(), StoreError> {
        self.file
            .set_len(0)
            .and_then(|()| self.file.seek(SeekFrom::Start(0)).map(|_| ()))
            .and_then(|()| self.file.sync_all())
            .map_err(io_err(format!("truncate {}", self.path.display())))?;
        self.bytes = 0;
        self.records = 0;
        self.last_seq = 0;
        Ok(())
    }
}

/// Parses one record at the head of `raw`, returning the decoded record
/// and the bytes consumed, or a reason the record is torn/invalid.
fn scan_record(raw: &[u8]) -> Result<(WalRecord, usize), String> {
    let nl = raw
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("record header has no newline")?;
    let header =
        std::str::from_utf8(&raw[..nl]).map_err(|_| "record header is not utf8".to_owned())?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("rec") {
        return Err(format!("bad record magic in {header:?}"));
    }
    let seq: u64 = parts
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("bad record seq in {header:?}"))?;
    let len: usize = parts
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("bad record length in {header:?}"))?;
    let crc: u32 = parts
        .next()
        .and_then(|v| u32::from_str_radix(v, 16).ok())
        .ok_or_else(|| format!("bad record crc in {header:?}"))?;
    let start = nl + 1;
    let payload = start
        .checked_add(len)
        .and_then(|end| raw.get(start..end))
        .ok_or_else(|| format!("record payload short: {} of {len} bytes", raw.len() - start))?;
    if crc32(payload) != crc {
        return Err("record checksum mismatch".to_owned());
    }
    let payload =
        std::str::from_utf8(payload).map_err(|_| "record payload is not utf8".to_owned())?;
    let batch = decode_batch(payload)?;
    Ok((WalRecord { seq, batch }, start + len))
}

/// After a scan failure, is there still an intact record further along?
/// A torn final record (crash mid-append) is followed by nothing
/// decodable; mid-file bit rot leaves the later, acknowledged records
/// intact, and truncating those would silently lose commits. Candidate
/// positions are line starts — a record header always follows a
/// newline — and each must pass the full frame check (CRC included), so
/// payload text cannot masquerade as a surviving record.
fn intact_record_follows(raw: &[u8]) -> bool {
    let mut pos = 0usize;
    while let Some(nl) = raw[pos..].iter().position(|&b| b == b'\n') {
        pos += nl + 1;
        if pos >= raw.len() {
            return false;
        }
        if raw[pos..].starts_with(b"rec ") && scan_record(&raw[pos..]).is_ok() {
            return true;
        }
    }
    false
}

fn encode_batch(batch: &DeltaBatch) -> Vec<u8> {
    let mut out = String::new();
    for delta in batch.deltas() {
        match delta {
            Delta::Insert { rel, values } => {
                let mut line: Vec<Value> = vec![Value::Int(rel.index() as i64)];
                line.extend(values.iter().cloned());
                out.push_str(&format!("i {}\n", format_row(&line)));
            }
            Delta::Delete { tuple } => out.push_str(&format!("d {}\n", tuple.0)),
        }
    }
    out.into_bytes()
}

fn decode_batch(payload: &str) -> Result<DeltaBatch, String> {
    let mut batch = DeltaBatch::new();
    for line in payload.lines() {
        if let Some(rest) = line.strip_prefix("i ") {
            let mut values = parse_row(rest);
            if values.is_empty() {
                return Err("empty insert record".to_owned());
            }
            let rel = match values.remove(0) {
                Value::Int(i) if (0..i64::from(u16::MAX)).contains(&i) => RelId(i as u16),
                other => return Err(format!("bad insert relation {other:?}")),
            };
            batch.insert(rel, values);
        } else if let Some(rest) = line.strip_prefix('d') {
            let raw: u32 = rest
                .trim()
                .parse()
                .map_err(|_| format!("bad delete id {rest:?}"))?;
            batch.delete(TupleId(raw));
        } else {
            return Err(format!("unknown delta line {line:?}"));
        }
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_relational::tourist_database;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fd-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard check vector for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fsync_policy_parses_and_displays() {
        for p in [FsyncPolicy::Always, FsyncPolicy::OnCommit, FsyncPolicy::Off] {
            assert_eq!(p.to_string().parse::<FsyncPolicy>().unwrap(), p);
        }
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
    }

    #[test]
    fn snapshot_round_trips_ids_tombstones_and_results() {
        let dir = temp_dir("snap");
        let mut db = tourist_database();
        let rel = RelId(0);
        let t = db
            .insert_tuple(rel, vec![Value::str("Chile"), Value::str("arid")])
            .unwrap();
        db.remove_tuple(TupleId(0)).unwrap();
        let results = vec![vec![TupleId(3)], vec![t, TupleId(6)]];

        let store = Store::create(&dir).unwrap();
        store.write_snapshot(&db, &results, 7).unwrap();
        let snap = store.read_snapshot().unwrap();

        assert_eq!(snap.seq, 7);
        assert_eq!(snap.results, results);
        assert_eq!(snap.db.tuple_id_bound(), db.tuple_id_bound());
        assert_eq!(snap.db.base_tuple_count(), db.base_tuple_count());
        for raw in 0..db.tuple_id_bound() {
            let t = TupleId(raw);
            assert_eq!(snap.db.is_live(t), db.is_live(t), "liveness of t{raw}");
            assert_eq!(
                snap.db.tuple_values(t),
                db.tuple_values(t),
                "values of t{raw}"
            );
            assert_eq!(snap.db.rel_of(t), db.rel_of(t), "relation of t{raw}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_bytes_ignore_strings_built_outside_the_database() {
        let dir = temp_dir("strings");
        let db = tourist_database();
        let store = Store::create(&dir).unwrap();
        store.write_snapshot(&db, &[], 0).unwrap();
        let before = std::fs::read(store.snapshot_path()).unwrap();
        assert!(before.starts_with(b"fdsnap v3 "));
        let unrelated: Vec<Value> = (0..10_000)
            .map(|i| Value::str(format!("outside-the-database-{i}")))
            .collect();
        drop(unrelated);
        store.write_snapshot(&db, &[], 0).unwrap();
        let after = std::fs::read(store.snapshot_path()).unwrap();
        assert_eq!(
            before, after,
            "snapshot depends on strings the db never held"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_catalog_v1_snapshot_is_rejected_with_a_versioned_error() {
        let dir = temp_dir("v1");
        let db = tourist_database();
        let store = Store::create(&dir).unwrap();
        store.write_snapshot(&db, &[], 0).unwrap();
        let raw = String::from_utf8(std::fs::read(store.snapshot_path()).unwrap()).unwrap();
        for old in ["v1", "v2"] {
            // Rewrite the header's version token only; body and CRC intact.
            let downgraded = raw.replacen("fdsnap v3 ", &format!("fdsnap {old} "), 1);
            std::fs::write(store.snapshot_path(), downgraded).unwrap();
            match store.read_snapshot() {
                Err(StoreError::UnsupportedVersion { found }) => assert_eq!(found, old),
                other => panic!("expected a versioned rejection of {old}, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_checksum_mismatch_is_detected() {
        let dir = temp_dir("snapcrc");
        let db = tourist_database();
        let store = Store::create(&dir).unwrap();
        store.write_snapshot(&db, &[], 0).unwrap();
        let path = store.snapshot_path();
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 2;
        raw[last] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            store.read_snapshot(),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_result_count_beyond_the_body_is_corrupt() {
        let dir = temp_dir("snapcount");
        let db = tourist_database();
        let store = Store::create(&dir).unwrap();
        store.write_snapshot(&db, &[], 0).unwrap();
        let raw = String::from_utf8(std::fs::read(store.snapshot_path()).unwrap()).unwrap();
        let (_, body) = raw.split_once('\n').unwrap();
        // A count no vector can reserve (`usize::MAX / 24` and up), under
        // a valid header: only the parse can reject it.
        let body = body.replace("\nresults 0\n", &format!("\nresults {}\n", usize::MAX));
        let header = format!(
            "fdsnap {SNAPSHOT_VERSION} len={} crc={:08x}\n",
            body.len(),
            crc32(body.as_bytes())
        );
        std::fs::write(store.snapshot_path(), header + &body).unwrap();
        assert!(matches!(
            store.read_snapshot(),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_round_trips_batches() {
        let dir = temp_dir("wal");
        let path = dir.join(WAL_FILE);
        let mut batch = DeltaBatch::new();
        batch
            .insert(RelId(0), vec![Value::str("Chile"), Value::Null])
            .insert(
                RelId(2),
                vec![Value::Int(1), Value::float(0.5), Value::Bool(true)],
            )
            .delete(TupleId(4));

        let mut wal = Wal::open(&path).unwrap().wal;
        wal.append(1, &batch, FsyncPolicy::Off).unwrap();
        wal.append(
            2,
            &DeltaBatch::from(Delta::Delete { tuple: TupleId(1) }),
            FsyncPolicy::OnCommit,
        )
        .unwrap();
        assert_eq!(wal.records(), 2);
        assert_eq!(wal.last_seq(), 2);
        drop(wal);

        let opened = Wal::open(&path).unwrap();
        assert!(opened.truncated.is_none());
        assert_eq!(opened.wal.last_seq(), 2);
        assert_eq!(opened.records.len(), 2);
        assert_eq!(opened.records[0], WalRecord { seq: 1, batch });
        assert_eq!(
            opened.records[1],
            WalRecord {
                seq: 2,
                batch: DeltaBatch::from(Delta::Delete { tuple: TupleId(1) })
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_seq_must_advance_and_gaps_fail_the_open() {
        let dir = temp_dir("seq");
        let path = dir.join(WAL_FILE);
        let one = DeltaBatch::from(Delta::Delete { tuple: TupleId(0) });
        let mut wal = Wal::open(&path).unwrap().wal;
        wal.append(1, &one, FsyncPolicy::Off).unwrap();
        // Stale or repeated seqs are rejected before touching the file…
        assert!(matches!(
            wal.append(1, &one, FsyncPolicy::Off),
            Err(StoreError::Corrupt { .. })
        ));
        // …but a forward jump only shows up as corruption on open.
        wal.append(5, &one, FsyncPolicy::Off).unwrap();
        drop(wal);
        assert!(matches!(Wal::open(&path), Err(StoreError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = temp_dir("torn");
        let path = dir.join(WAL_FILE);
        let mut wal = Wal::open(&path).unwrap().wal;
        let good = DeltaBatch::from(Delta::Delete { tuple: TupleId(0) });
        wal.append(1, &good, FsyncPolicy::Off).unwrap();
        wal.append(
            2,
            &DeltaBatch::from(Delta::Delete { tuple: TupleId(1) }),
            FsyncPolicy::Off,
        )
        .unwrap();
        drop(wal);

        // Chop bytes off the final record: a crash mid-append.
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 3]).unwrap();

        let opened = Wal::open(&path).unwrap();
        assert_eq!(
            opened.records,
            vec![WalRecord {
                seq: 1,
                batch: good.clone()
            }]
        );
        assert!(opened.truncated.is_some());
        // The file is now clean: reopening sees one intact record.
        let reopened = Wal::open(&path).unwrap();
        assert!(reopened.truncated.is_none());
        assert_eq!(
            reopened.records,
            vec![WalRecord {
                seq: 1,
                batch: good
            }]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_crc_in_tail_is_truncated() {
        let dir = temp_dir("badcrc");
        let path = dir.join(WAL_FILE);
        let mut wal = Wal::open(&path).unwrap().wal;
        wal.append(
            1,
            &DeltaBatch::from(Delta::Delete { tuple: TupleId(2) }),
            FsyncPolicy::Off,
        )
        .unwrap();
        drop(wal);
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 2;
        raw[last] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();

        let opened = Wal::open(&path).unwrap();
        assert!(opened.records.is_empty());
        assert!(opened.truncated.is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_corruption_with_intact_tail_refuses_to_open() {
        let dir = temp_dir("midrot");
        let path = dir.join(WAL_FILE);
        let mut wal = Wal::open(&path).unwrap().wal;
        wal.append(
            1,
            &DeltaBatch::from(Delta::Delete { tuple: TupleId(0) }),
            FsyncPolicy::Off,
        )
        .unwrap();
        let first_end = wal.bytes() as usize;
        wal.append(
            2,
            &DeltaBatch::from(Delta::Delete { tuple: TupleId(1) }),
            FsyncPolicy::Off,
        )
        .unwrap();
        drop(wal);

        // Bit rot inside the *first* record, second record intact:
        // truncating here would drop an acknowledged commit, so the
        // open must fail instead.
        let mut raw = std::fs::read(&path).unwrap();
        raw[first_end - 2] ^= 0x04;
        std::fs::write(&path, &raw).unwrap();
        match Wal::open(&path) {
            Err(StoreError::Corrupt { what }) => {
                assert!(what.contains("intact records follow"), "got: {what}")
            }
            other => panic!("expected corrupt-store error, got {other:?}"),
        }
        // Nothing was truncated by the refused open.
        assert_eq!(std::fs::read(&path).unwrap(), raw);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_empties_the_log() {
        let dir = temp_dir("trunc");
        let path = dir.join(WAL_FILE);
        let mut wal = Wal::open(&path).unwrap().wal;
        wal.append(
            1,
            &DeltaBatch::from(Delta::Delete { tuple: TupleId(0) }),
            FsyncPolicy::Off,
        )
        .unwrap();
        assert!(wal.bytes() > 0);
        wal.truncate().unwrap();
        assert_eq!(wal.bytes(), 0);
        assert_eq!(wal.last_seq(), 0);
        // A fresh history may restart anywhere forward of zero, e.g. at
        // the seq after the snapshot that emptied the log.
        wal.append(
            2,
            &DeltaBatch::from(Delta::Delete { tuple: TupleId(1) }),
            FsyncPolicy::Off,
        )
        .unwrap();
        drop(wal);
        let opened = Wal::open(&path).unwrap();
        assert_eq!(opened.records.len(), 1);
        assert_eq!(opened.records[0].seq, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
