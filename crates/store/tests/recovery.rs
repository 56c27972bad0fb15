//! Recovery scenarios beyond the crash matrix: real files on disk, torn
//! tails, hard corruption, checkpoint compaction, fsync policies,
//! degenerate records, and logs written by earlier versions of the store.

use mera_core::prelude::*;
use mera_lang::Lowerer;
use mera_store::{
    wal, ConcurrentDb, DirStorage, FsyncPolicy, MemStorage, Storage, StoreError, StoreOptions,
    StoreResult, WalRecord, SNAPSHOT_FILE, WAL_FILE,
};
use mera_txn::Program;

fn schema() -> DatabaseSchema {
    DatabaseSchema::new()
        .with(
            "accounts",
            Schema::named(&[("owner", DataType::Str), ("balance", DataType::Int)]),
        )
        .expect("fresh")
}

fn parse<S: Storage>(db: &ConcurrentDb<S>, text: &str) -> Program {
    let parsed = mera_lang::parse_program(text).expect("parses");
    let catalog = db.pin().catalog_schema();
    let mut lowerer = Lowerer::new(&catalog);
    lowerer.lower_program(&parsed).expect("lowers")
}

fn open<S: Storage>(storage: S) -> ConcurrentDb<S> {
    ConcurrentDb::open(storage, schema(), StoreOptions::default()).expect("open")
}

fn recover<S: Storage>(storage: S) -> StoreResult<ConcurrentDb<S>> {
    ConcurrentDb::open(storage, DatabaseSchema::new(), StoreOptions::default())
}

fn insert(owner: &str, balance: i64) -> String {
    format!("insert(accounts, values (str, int) {{('{owner}', {balance})}})")
}

/// A scratch directory under the system temp dir, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("mera-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn real_files_survive_process_restart() {
    let dir = TempDir::new("restart");
    let expected = {
        let db = open(DirStorage::open(&dir.0).expect("open dir"));
        for (owner, amount) in [("ann", 10_i64), ("bob", 20), ("cho", 30)] {
            db.execute(&parse(&db, &insert(owner, amount)))
                .expect("commits");
        }
        db.pin().database().clone()
    }; // ConcurrentDb dropped: "process exit"

    let storage = DirStorage::open(&dir.0).expect("reopen dir");
    let recovered = recover(storage).expect("recovers");
    assert_eq!(recovered.pin().database(), &expected);

    // ... and keeps working: append more history, restart again.
    let db = recovered;
    db.execute(&parse(&db, &insert("dee", 40)))
        .expect("commits after recovery");
    let expected = db.pin().database().clone();
    drop(db);

    let storage = DirStorage::open(&dir.0).expect("reopen dir");
    let recovered = recover(storage).expect("recovers");
    assert_eq!(recovered.pin().database(), &expected);
}

#[test]
fn torn_tail_on_disk_is_truncated_and_the_log_reusable() {
    let dir = TempDir::new("torn");
    let expected = {
        let db = open(DirStorage::open(&dir.0).expect("open dir"));
        db.execute(&parse(&db, &insert("ann", 10)))
            .expect("commits");
        db.pin().database().clone()
    };

    // Simulate a crash mid-append: half a frame of a would-be commit.
    let mut storage = DirStorage::open(&dir.0).expect("reopen");
    storage
        .append(WAL_FILE, &[0x40, 0, 0, 0, 0xde, 0xad])
        .expect("raw append");
    drop(storage);

    let storage = DirStorage::open(&dir.0).expect("reopen");
    let recovered = recover(storage).expect("torn tail is recoverable");
    assert_eq!(recovered.pin().database(), &expected);

    // The tail was truncated, so new commits append at a frame boundary.
    recovered
        .execute(&parse(&recovered, &insert("bob", 20)))
        .expect("commits after truncation");
    let expected = recovered.pin().database().clone();
    drop(recovered);

    let storage = DirStorage::open(&dir.0).expect("reopen");
    let recovered = recover(storage).expect("recovers");
    assert_eq!(recovered.pin().database(), &expected);
}

#[test]
fn crc_valid_garbage_fails_recovery_loudly() {
    let mut storage = MemStorage::new();
    drop(open(storage.clone()));

    // An honest frame around a payload from "the future" (bad version).
    let payload = [42u8, 1, 2, 3];
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&mera_store::crc::crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    storage.append(WAL_FILE, &frame).expect("raw append");

    let err = recover(storage).expect_err("intact-but-unreadable records must not be dropped");
    assert!(matches!(err, StoreError::CorruptWal(_)), "got {err:?}");
}

#[test]
fn checkpoint_compacts_the_log_on_disk() {
    let dir = TempDir::new("compact");
    let db = open(DirStorage::open(&dir.0).expect("open dir"));
    for i in 0..20_i64 {
        db.execute(&parse(&db, &insert("acct", i)))
            .expect("commits");
    }
    let wal_path = dir.0.join(WAL_FILE);
    let before = std::fs::metadata(&wal_path).expect("wal exists").len();
    db.checkpoint().expect("checkpoint");
    let after = std::fs::metadata(&wal_path).expect("wal exists").len();
    assert!(before > 8, "log grew during the workload");
    assert_eq!(after, 8, "checkpoint resets the WAL to its header");
    assert!(dir.0.join(SNAPSHOT_FILE).exists());

    let expected = db.pin().database().clone();
    drop(db);
    let storage = DirStorage::open(&dir.0).expect("reopen");
    let recovered = recover(storage).expect("snapshot restore");
    assert_eq!(recovered.pin().database(), &expected);
}

#[test]
fn fsync_policies_flush_at_the_promised_cadence() {
    // Every policy but `Never` acknowledges a commit only once it is
    // durable: with one committer, `EveryN` leads a one-frame group per
    // commit, so it syncs exactly as often as `Always`.
    let cases: [(FsyncPolicy, u64); 3] = [
        (FsyncPolicy::Always, 4),
        (FsyncPolicy::EveryN(2), 4),
        (FsyncPolicy::Never, 0),
    ];
    for (policy, expected_syncs) in cases {
        let storage = MemStorage::new();
        let options = StoreOptions {
            fsync: policy,
            ..StoreOptions::default()
        };
        let db = ConcurrentDb::open(storage.clone(), schema(), options).expect("open");
        let base = storage.sync_count();
        for i in 0..4_i64 {
            db.execute(&parse(&db, &insert("ann", i))).expect("commits");
        }
        assert_eq!(
            storage.sync_count() - base,
            expected_syncs,
            "policy {policy:?}"
        );
        // Whatever the policy, the bytes are on (simulated) disk.
        let recovered = recover(MemStorage::from_image(storage.image())).expect("recovers");
        assert_eq!(recovered.pin().database(), db.pin().database());
    }
}

#[test]
fn empty_program_commits_and_replays() {
    let storage = MemStorage::new();
    let db = open(storage.clone());
    let units = storage.units_written();
    db.execute(&Program::new()).expect("empty program commits");
    db.execute(&Program::new()).expect("twice");
    let expected = db.pin().database().clone();
    // an empty program changes nothing: no version, no tick, no record
    assert_eq!(expected.time(), 0);
    assert_eq!(storage.units_written(), units);
    drop(db);

    let recovered = recover(MemStorage::from_image(storage.image())).expect("recovers");
    assert_eq!(recovered.pin().database(), &expected);
}

#[test]
fn snapshot_without_wal_restores_and_restarts_the_log() {
    let storage = MemStorage::new();
    let db = open(storage.clone());
    db.execute(&parse(&db, &insert("ann", 10)))
        .expect("commits");
    db.checkpoint().expect("checkpoint");
    let expected = db.pin().database().clone();
    drop(db);

    let mut image = storage.image();
    image.remove(WAL_FILE).expect("wal existed");
    let recovered = recover(MemStorage::from_image(image)).expect("snapshot alone suffices");
    assert_eq!(recovered.pin().database(), &expected);

    // The log restarts cleanly.
    recovered
        .execute(&parse(&recovered, &insert("bob", 20)))
        .expect("commits");
}

#[test]
fn conflicting_redeclaration_in_the_log_is_corruption() {
    let mut storage = MemStorage::new();
    drop(open(storage.clone()));

    // Forge a declare for an existing relation with a different schema.
    let record = WalRecord::Declare {
        name: "accounts".to_string(),
        schema: Schema::anon(&[DataType::Bool]),
    };
    storage
        .append(WAL_FILE, &record.encode_frame())
        .expect("raw append");

    let err = recover(storage).expect_err("schema conflict must fail recovery");
    assert!(matches!(err, StoreError::CorruptWal(_)), "got {err:?}");
}

#[test]
fn logs_with_time_gaps_and_empty_commits_still_recover() {
    // Earlier versions of the store ticked logical time on aborts
    // without logging them, and logged empty programs as commits with
    // empty text. Such a log: a commit at t=1, an unlogged abort at t=2,
    // a commit at t=3 and an empty commit at t=4.
    let mut bytes = wal::empty_wal();
    let records = [
        WalRecord::Declare {
            name: "accounts".to_string(),
            schema: Schema::named(&[("owner", DataType::Str), ("balance", DataType::Int)]),
        },
        WalRecord::Commit {
            time: 1,
            text: insert("ann", 10),
        },
        WalRecord::Commit {
            time: 3,
            text: insert("bob", 20),
        },
        WalRecord::Commit {
            time: 4,
            text: String::new(),
        },
    ];
    for record in &records {
        bytes.extend_from_slice(&record.encode_frame());
    }
    let mut storage = MemStorage::new();
    storage.replace_atomic(WAL_FILE, &bytes).expect("writes");

    let db = recover(storage.clone()).expect("recovers");
    let version = db.pin();
    assert_eq!(
        version.time(),
        4,
        "recovery lands on the last record's time"
    );
    let accounts = version.database().relation("accounts").expect("declared");
    assert_eq!(accounts.len(), 2);
    assert_eq!(accounts.multiplicity(&mera_core::tuple!["ann", 10_i64]), 1);
    assert_eq!(accounts.multiplicity(&mera_core::tuple!["bob", 20_i64]), 1);

    // The next commit lands right after the recovered time...
    db.execute(&parse(&db, &insert("cho", 30)))
        .expect("commits");
    assert_eq!(db.pin().time(), 5);
    drop(db);

    // ...and is logged at that time, so the extended log recovers too.
    let image = storage.image();
    let scanned = wal::scan(&image[WAL_FILE]).expect("scans");
    match scanned.records.last() {
        Some(WalRecord::Commit { time, .. }) => assert_eq!(*time, 5),
        other => panic!("expected a trailing commit, got {other:?}"),
    }
    let recovered = recover(MemStorage::from_image(image)).expect("recovers");
    assert_eq!(recovered.pin().time(), 5);
    assert_eq!(
        recovered
            .pin()
            .database()
            .relation("accounts")
            .expect("declared")
            .len(),
        3
    );
}
