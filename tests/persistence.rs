//! Crash-recovery coverage of the durability subsystem: a durable
//! [`FdSession`] is dropped at various points (after WAL appends but
//! before a snapshot, mid-record via file truncation, after a clean
//! checkpoint) and reopened; the recovered state must be byte-equal to
//! a live session that committed the same batches, and must satisfy the
//! brute-force oracle invariant (`verify_snapshot`).

use full_disjunction::baselines::brute::oracle_fd;
use full_disjunction::core::store::{Wal, SNAPSHOT_FILE, WAL_FILE};
use full_disjunction::core::{canonicalize, AttrMax, FdConfig, FdError, FdSession, FsyncPolicy};
use full_disjunction::relational::{tourist_database, Database, DeltaBatch, RelId, TupleId, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::Duration;

/// A fresh per-test data directory under the system temp dir.
fn fresh_dir(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("fd-persistence-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clearing stale test dir");
    }
    dir
}

/// Commits `batch` to both the durable session under test and the live
/// in-memory oracle session, asserting both accept it.
fn commit_both(durable: &mut FdSession<'static>, live: &mut FdSession<'static>, batch: DeltaBatch) {
    durable.commit(batch.clone()).expect("durable commit");
    live.commit(batch).expect("live commit");
}

/// A deterministic mutation workload over the tourist example: `steps`
/// singleton-or-small batches of inserts and deletes.
fn tourist_batches(seed: u64, steps: usize) -> Vec<DeltaBatch> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = tourist_database();
    let num_rels = db.num_relations();
    let mut batches = Vec::new();
    for step in 0..steps {
        let mut batch = DeltaBatch::default();
        // Victims come from the batch-start state: a batch may not
        // delete what it inserts, nor delete twice (validate_batch
        // rejects both).
        let mut victims: Vec<TupleId> = db.all_tuples().collect();
        let mut inserts: Vec<(RelId, Vec<Value>)> = Vec::new();
        for _ in 0..rng.gen_range(1..=3usize) {
            if victims.len() > 4 && rng.gen_bool(0.4) {
                let victim = victims.swap_remove(rng.gen_range(0..victims.len()));
                batch.delete(victim);
            } else {
                let rel = RelId(rng.gen_range(0..num_rels) as u16);
                let arity = db.relation(rel).schema().arity();
                let mut values: Vec<Value> = (0..arity - 1)
                    .map(|_| {
                        if rng.gen_bool(0.15) {
                            Value::Null
                        } else {
                            Value::str(format!("k{}", rng.gen_range(0..3)))
                        }
                    })
                    .collect();
                values.push(Value::Int(step as i64));
                batch.insert(rel, values.clone());
                inserts.push((rel, values));
            }
        }
        // Mirror the batch onto the shadow database (deletes are the
        // batch-start ids that left `victims`).
        let survivors: std::collections::BTreeSet<TupleId> = victims.iter().copied().collect();
        let start: Vec<TupleId> = db.all_tuples().collect();
        for t in start {
            if !survivors.contains(&t) {
                db.remove_tuple(t).expect("victim is live");
            }
        }
        for (rel, values) in inserts {
            db.insert_tuple(rel, values).expect("insert is well-formed");
        }
        batches.push(batch);
    }
    batches
}

/// The recovered session must equal the live session in every
/// observable: database contents, canonical results, and the
/// from-scratch oracle.
fn assert_equivalent(recovered: &FdSession<'static>, live: &FdSession<'static>) {
    assert_eq!(
        recovered.canonical_results(),
        live.canonical_results(),
        "recovered results diverge from the live session"
    );
    assert_eq!(
        canonicalize(recovered.results().to_vec()),
        oracle_fd(recovered.db()),
        "recovered results diverge from the brute-force oracle"
    );
    assert!(recovered.verify_snapshot());
    // The id space replayed identically: every live tuple renders the
    // same label and values.
    let ids_live: Vec<TupleId> = live.db().all_tuples().collect();
    let ids_rec: Vec<TupleId> = recovered.db().all_tuples().collect();
    assert_eq!(ids_live, ids_rec, "tuple id spaces diverge");
    for t in ids_live {
        assert_eq!(live.db().tuple_values(t), recovered.db().tuple_values(t));
    }
}

#[test]
fn reopen_after_drop_replays_the_wal_tail() {
    let dir = fresh_dir("replay");
    let batches = tourist_batches(7, 12);
    let mut live = FdSession::new(tourist_database());
    {
        let mut durable = FdSession::new(tourist_database());
        durable
            .persist_to(&dir, FsyncPolicy::OnCommit)
            .expect("persist");
        for batch in &batches {
            commit_both(&mut durable, &mut live, batch.clone());
        }
        // Dropped here without a checkpoint: the snapshot in `dir` is
        // still the initial one; every batch lives only in the WAL.
    }
    let recovered = FdSession::open(&dir).expect("recovery");
    assert_eq!(recovered.replayed_batches(), batches.len() as u64);
    assert!(recovered.is_durable());
    assert_equivalent(&recovered, &live);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_folds_the_wal_into_the_snapshot() {
    let dir = fresh_dir("checkpoint");
    let batches = tourist_batches(11, 8);
    let mut live = FdSession::new(tourist_database());
    {
        let mut durable = FdSession::new(tourist_database());
        durable.persist_to(&dir, FsyncPolicy::Off).expect("persist");
        for batch in &batches {
            commit_both(&mut durable, &mut live, batch.clone());
        }
        assert!(durable.wal_bytes().unwrap() > 0);
        assert!(durable.checkpoint().expect("checkpoint"));
        assert_eq!(durable.wal_bytes(), Some(0));
    }
    let recovered = FdSession::open(&dir).expect("recovery");
    // Everything came from the snapshot; nothing was replayed.
    assert_eq!(recovered.replayed_batches(), 0);
    assert_equivalent(&recovered, &live);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn commit_timings_bill_the_wal_apart_from_validate() {
    let dir = fresh_dir("timings");
    let batches = tourist_batches(17, 4);
    let mut durable = FdSession::new(tourist_database());
    durable
        .persist_to(&dir, FsyncPolicy::Always)
        .expect("persist");
    let mut memory = FdSession::new(tourist_database());
    for batch in &batches {
        let t = durable
            .commit(batch.clone())
            .expect("durable commit")
            .timings;
        assert!(
            t.wal > Duration::ZERO,
            "a durable commit appends to the WAL"
        );
        assert!(t.apply > Duration::ZERO, "every batch is applied: {t:?}");
        assert!(
            t.validate + t.wal + t.apply + t.maintain + t.window + t.fanout <= t.total,
            "phases overlap: {t:?}"
        );
        let t = memory
            .commit(batch.clone())
            .expect("in-memory commit")
            .timings;
        assert_eq!(t.wal, Duration::ZERO, "an in-memory session has no WAL");
        assert!(t.apply > Duration::ZERO, "every batch is applied: {t:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_wal_tail_is_truncated_not_fatal() {
    let dir = fresh_dir("torn");
    let batches = tourist_batches(13, 6);
    let mut live = FdSession::new(tourist_database());
    {
        let mut durable = FdSession::new(tourist_database());
        durable
            .persist_to(&dir, FsyncPolicy::OnCommit)
            .expect("persist");
        for (i, batch) in batches.iter().enumerate() {
            // The live oracle stops before the final batch — the torn
            // tail below destroys exactly that record.
            durable.commit(batch.clone()).expect("durable commit");
            if i + 1 < batches.len() {
                live.commit(batch.clone()).expect("live commit");
            }
        }
    }
    // Chop bytes off the final record, simulating a crash mid-write.
    let wal = dir.join(WAL_FILE);
    let bytes = std::fs::read(&wal).expect("wal readable");
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .expect("wal writable");
    file.set_len(bytes.len() as u64 - 3).expect("truncate");
    drop(file);

    let recovered = FdSession::open(&dir).expect("torn tail must not be fatal");
    assert_eq!(recovered.replayed_batches(), batches.len() as u64 - 1);
    assert_equivalent(&recovered, &live);

    // The truncation is durable: a second open replays the same good
    // prefix without re-truncating.
    drop(recovered);
    let again = FdSession::open(&dir).expect("reopen after truncation");
    assert_eq!(again.replayed_batches(), batches.len() as u64 - 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_wal_record_with_intact_tail_refuses_recovery() {
    let dir = fresh_dir("corrupt");
    let batches = tourist_batches(17, 5);
    {
        let mut durable = FdSession::new(tourist_database());
        durable
            .persist_to(&dir, FsyncPolicy::OnCommit)
            .expect("persist");
        for batch in &batches {
            durable.commit(batch.clone()).expect("durable commit");
        }
    }
    // Flip a byte inside the *first* record's payload. Unlike a torn
    // tail, intact acknowledged records follow the damage, so recovery
    // must refuse to open rather than silently truncate them away.
    let wal = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal).expect("wal readable");
    let second = bytes
        .windows(5)
        .enumerate()
        .skip(1)
        .find(|(_, w)| *w == b"\nrec ")
        .map(|(i, _)| i)
        .expect("at least two records");
    bytes[second - 2] ^= 0x41;
    std::fs::write(&wal, &bytes).expect("wal writable");

    let err = FdSession::open(&dir).expect_err("mid-file corruption must refuse recovery");
    assert!(
        err.to_string().contains("intact records follow"),
        "unexpected error: {err}"
    );
    // The refused open left the log untouched for manual repair.
    assert_eq!(std::fs::read(&wal).expect("wal readable"), bytes);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_between_snapshot_and_truncation_replays_nothing_twice() {
    // A checkpoint is two non-atomic steps: rename the fresh snapshot
    // in, then truncate the WAL. Simulate a crash exactly between them
    // by restoring the pre-checkpoint log next to the new snapshot; the
    // snapshot's seq must make recovery skip every stale record.
    let dir = fresh_dir("midcheckpoint");
    let batches = tourist_batches(23, 9);
    let mut live = FdSession::new(tourist_database());
    {
        let mut durable = FdSession::new(tourist_database());
        durable.persist_to(&dir, FsyncPolicy::Off).expect("persist");
        for batch in &batches {
            commit_both(&mut durable, &mut live, batch.clone());
        }
        let stale_wal = std::fs::read(dir.join(WAL_FILE)).expect("wal readable");
        assert!(durable.checkpoint().expect("checkpoint"));
        std::fs::write(dir.join(WAL_FILE), &stale_wal).expect("wal writable");
    }
    let recovered = FdSession::open(&dir).expect("recovery");
    assert_eq!(
        recovered.replayed_batches(),
        0,
        "stale WAL records were double-applied"
    );
    assert_equivalent(&recovered, &live);

    // And the session keeps going: a new commit appends past the stale
    // records and a further recovery replays exactly that one.
    let mut recovered = recovered;
    let mut batch = DeltaBatch::default();
    batch.insert(RelId(0), vec![Value::str("Chile"), Value::str("arid")]);
    recovered
        .commit(batch.clone())
        .expect("post-recovery commit");
    live.commit(batch).expect("live commit");
    drop(recovered);
    let again = FdSession::open(&dir).expect("second recovery");
    assert_eq!(again.replayed_batches(), 1);
    assert_equivalent(&again, &live);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_append_without_ack_is_recovered() {
    // A crash after the WAL append but before the in-memory apply (the
    // client never saw an ack): the record is in the log, so recovery
    // must surface its effects.
    let dir = fresh_dir("unacked");
    {
        let mut durable = FdSession::new(tourist_database());
        durable
            .persist_to(&dir, FsyncPolicy::OnCommit)
            .expect("persist");
    }
    let mut live = FdSession::new(tourist_database());
    let mut batch = DeltaBatch::default();
    batch.insert(RelId(0), vec![Value::str("Chile"), Value::str("arid")]);
    live.commit(batch.clone()).expect("live commit");
    {
        // Append the batch straight to the log, bypassing the session —
        // exactly the on-disk state of a crash between append and apply.
        // The snapshot written by persist_to folds in seq 0, so the
        // first logged commit is seq 1.
        let mut opened = Wal::open(dir.join(WAL_FILE)).expect("wal opens");
        opened
            .wal
            .append(1, &batch, FsyncPolicy::Always)
            .expect("manual append");
    }
    let recovered = FdSession::open(&dir).expect("recovery");
    assert_eq!(recovered.replayed_batches(), 1);
    assert_equivalent(&recovered, &live);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compaction_threshold_triggers_automatic_checkpoints() {
    let dir = fresh_dir("compaction");
    let mut durable = FdSession::new(tourist_database());
    durable.persist_to(&dir, FsyncPolicy::Off).expect("persist");
    // Every commit overflows a 1-byte threshold, so each one must fold
    // the log into the snapshot and truncate.
    durable.set_wal_compaction_threshold(1);
    for batch in tourist_batches(19, 5) {
        durable.commit(batch).expect("commit");
        assert_eq!(durable.wal_bytes(), Some(0), "auto-compaction missed");
    }
    drop(durable);
    let recovered = FdSession::open(&dir).expect("recovery");
    assert_eq!(recovered.replayed_batches(), 0);
    assert!(recovered.verify_snapshot());
    assert!(dir.join(SNAPSHOT_FILE).exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ranked_session_recovers_its_window() {
    let dir = fresh_dir("ranked");
    let db = tourist_database();
    let f = AttrMax::new(&db, "Stars").expect("Stars exists");
    let window_before;
    {
        let mut durable = FdSession::ranked(db, f, 3);
        durable
            .persist_to(&dir, FsyncPolicy::OnCommit)
            .expect("persist");
        let mut batch = DeltaBatch::default();
        batch.insert(
            RelId(1),
            vec![
                Value::str("Canada"),
                Value::str("Banff"),
                Value::str("Chateau"),
                Value::Int(5),
            ],
        );
        durable.commit(batch).expect("commit");
        window_before = durable
            .window()
            .expect("ranked session has a window")
            .to_vec();
    }
    let recovered = FdSession::open_ranked_with_config(
        &dir,
        FdConfig::default(),
        FsyncPolicy::OnCommit,
        3,
        |db: &Database| {
            AttrMax::new(db, "Stars")
                .map(|f| Box::new(f) as Box<dyn full_disjunction::core::RankingFunction + Send>)
                .map_err(|e| full_disjunction::core::FdError::Storage {
                    reason: e.to_string(),
                })
        },
    )
    .expect("ranked recovery");
    assert_eq!(recovered.replayed_batches(), 1);
    let window_after = recovered.window().expect("recovered window").to_vec();
    assert_eq!(window_before.len(), window_after.len());
    for ((s1, r1), (s2, r2)) in window_before.iter().zip(&window_after) {
        assert_eq!(s1.tuples(), s2.tuples());
        assert_eq!(r1, r2);
    }
    // The new 5-star hotel must lead the recovered window.
    assert_eq!(window_after[0].1, 5.0);
    assert!(recovered.verify_snapshot());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_shutdown_checkpoints_the_durable_session() {
    use full_disjunction::core::Server;
    let dir = fresh_dir("serve");
    let mut session = FdSession::new(tourist_database());
    session
        .persist_to(&dir, FsyncPolicy::OnCommit)
        .expect("persist");
    let server = Server::start(session, "127.0.0.1:0").expect("server starts");
    let mut batch = DeltaBatch::default();
    batch.insert(RelId(0), vec![Value::str("Chile"), Value::str("arid")]);
    server.handle().commit(batch).expect("commit via handle");
    assert!(server
        .handle()
        .with(|s| s.wal_bytes().unwrap() > 0)
        .unwrap());
    // Graceful stop — the same path the wire `shutdown` command and a
    // handled SIGTERM take — must fold the WAL into a fresh snapshot.
    server.stop().expect("graceful stop");

    let recovered = FdSession::open(&dir).expect("recovery");
    assert_eq!(
        recovered.replayed_batches(),
        0,
        "shutdown checkpoint missing: WAL was replayed"
    );
    assert_eq!(recovered.db().num_tuples(), 11, "committed insert lost");
    assert!(recovered.verify_snapshot());
    std::fs::remove_dir_all(&dir).ok();
}

/// One random byte-level mutation of `bytes`: flip, insert, delete or
/// truncate.
fn mutate(bytes: &mut Vec<u8>, rng: &mut StdRng) {
    let pos = rng.gen_range(0..=bytes.len());
    match rng.gen_range(0..4u8) {
        0 if pos < bytes.len() => bytes[pos] ^= rng.gen_range(1..=255u8),
        1 => bytes.insert(pos, rng.gen_range(0..=255u8)),
        2 if pos < bytes.len() => {
            bytes.remove(pos);
        }
        _ => bytes.truncate(pos),
    }
}

/// Byte-mutation regression test of the snapshot and WAL decoders: no
/// damaged data directory may panic recovery. Each case damages either
/// the snapshot or the WAL of a durable tourist session (the other file
/// stays intact) and must open as `Ok` or fail as `FdError::Storage`.
#[test]
fn byte_mutations_of_snapshot_or_wal_never_panic_recovery() {
    let source = fresh_dir("mutate-src");
    {
        let mut durable = FdSession::new(tourist_database());
        durable
            .persist_to(&source, FsyncPolicy::Off)
            .expect("persist");
        let batches = tourist_batches(23, 5);
        for (i, batch) in batches.into_iter().enumerate() {
            durable.commit(batch).expect("durable commit");
            if i == 1 {
                // A v3 snapshot with dynamic inserts and tombstones,
                // then a WAL tail of three records on top of it.
                assert!(durable.checkpoint().expect("checkpoint"));
            }
        }
    }
    let snapshot = std::fs::read(source.join(SNAPSHOT_FILE)).expect("snapshot");
    let wal = std::fs::read(source.join(WAL_FILE)).expect("wal");
    assert!(snapshot.starts_with(b"fdsnap v3 "));
    assert!(!wal.is_empty());

    let dir = fresh_dir("mutate-case");
    std::fs::create_dir_all(&dir).expect("case dir");
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let (mut opened, mut refused) = (0usize, 0usize);
    for case in 0..2_000 {
        let (mut snap, mut log) = (snapshot.clone(), wal.clone());
        let target = if case % 2 == 0 { &mut snap } else { &mut log };
        for _ in 0..rng.gen_range(1..=3usize) {
            mutate(target, &mut rng);
        }
        std::fs::write(dir.join(SNAPSHOT_FILE), &snap).expect("write snapshot");
        std::fs::write(dir.join(WAL_FILE), &log).expect("write wal");
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| FdSession::open(&dir)));
        match outcome {
            Ok(Ok(session)) => {
                assert!(session.verify_snapshot(), "case {case}: inconsistent state");
                opened += 1;
            }
            Ok(Err(FdError::Storage { .. })) => refused += 1,
            Ok(Err(other)) => panic!("case {case}: non-storage error {other:?}"),
            Err(_) => panic!("case {case}: recovery panicked"),
        }
    }
    assert!(
        opened > 0 && refused > 0,
        "opened {opened}, refused {refused}"
    );
    std::fs::remove_dir_all(&source).ok();
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    /// Randomized crash points: `steps` batches are committed durably,
    /// the session is dropped without a checkpoint after `crash_after`
    /// of them (the rest never happen), and recovery must match a live
    /// session that committed the same prefix.
    #[test]
    fn recovery_matches_live_session_on_random_workloads(
        seed in 0u64..50,
        steps in 1usize..8,
    ) {
        let dir = fresh_dir(&format!("prop-{seed}-{steps}"));
        let batches = tourist_batches(seed.wrapping_mul(31).wrapping_add(steps as u64), steps);
        let mut live = FdSession::new(tourist_database());
        {
            let mut durable = FdSession::new(tourist_database());
            durable.persist_to(&dir, FsyncPolicy::Off).expect("persist");
            for batch in &batches {
                commit_both(&mut durable, &mut live, batch.clone());
            }
        }
        let recovered = FdSession::open(&dir).expect("recovery");
        prop_assert_eq!(recovered.replayed_batches(), batches.len() as u64);
        prop_assert_eq!(recovered.canonical_results(), live.canonical_results());
        prop_assert_eq!(
            canonicalize(recovered.results().to_vec()),
            oracle_fd(recovered.db())
        );
        prop_assert!(recovered.verify_snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }
}
