//! Durability report: single-committer commit throughput through
//! `ConcurrentDb` on real files under the three WAL fsync policies, and
//! recovery cost — full-log replay versus snapshot restore. Every policy but
//! `never` acknowledges a commit only once it is durable, so with one
//! committer `every_8` pays one fsync per commit, like `always`. Writes the
//! results as JSON (hand-rendered — the vendored serde crates are empty
//! shells).
//!
//! Usage: `cargo run --release -p mera-bench --bin durability
//! [output.json]` — the default output path is `BENCH_pr5.json`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mera_core::prelude::*;
use mera_expr::RelExpr;
use mera_store::{ConcurrentDb, DirStorage, FsyncPolicy, MemStorage, StoreOptions, WAL_FILE};
use mera_txn::{Program, Statement};

fn schema() -> DatabaseSchema {
    DatabaseSchema::new()
        .with(
            "accounts",
            Schema::named(&[("owner", DataType::Str), ("balance", DataType::Int)]),
        )
        .expect("fresh schema")
}

/// One single-row insert transaction (the classic OLTP commit shape).
fn insert_txn(rel_schema: &SchemaRef, i: i64) -> Program {
    let rel = Relation::from_tuples(
        Arc::clone(rel_schema),
        vec![Tuple::new(vec![
            Value::str(format!("acct-{i}")),
            Value::Int(i),
        ])],
    )
    .expect("well-typed row");
    Program::single(Statement::insert(
        "accounts",
        RelExpr::Values(Arc::new(rel)),
    ))
}

fn accounts_schema<S: mera_store::Storage>(db: &ConcurrentDb<S>) -> SchemaRef {
    Arc::clone(
        db.pin()
            .database()
            .relation("accounts")
            .expect("declared")
            .schema(),
    )
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("mera-bench-{tag}-{}", std::process::id()));
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

struct ThroughputPoint {
    policy: &'static str,
    commits: usize,
    total: Duration,
    wal_bytes: u64,
}

impl ThroughputPoint {
    fn commits_per_sec(&self) -> f64 {
        self.commits as f64 / self.total.as_secs_f64().max(f64::EPSILON)
    }
}

/// Commits `commits` single-row transactions under `policy` on real files.
fn throughput(policy: FsyncPolicy, label: &'static str, commits: usize) -> ThroughputPoint {
    let dir = TempDir::new(label);
    let storage = DirStorage::open(&dir.0).expect("open dir");
    let options = StoreOptions {
        fsync: policy,
        ..StoreOptions::default()
    };
    let db = ConcurrentDb::open(storage, schema(), options).expect("open");
    let rel_schema = accounts_schema(&db);

    let start = Instant::now();
    for i in 0..commits {
        let p = insert_txn(&rel_schema, i as i64);
        db.execute(&p).expect("commits");
    }
    let total = start.elapsed();
    let wal_bytes = std::fs::metadata(dir.0.join(WAL_FILE))
        .expect("wal exists")
        .len();
    ThroughputPoint {
        policy: label,
        commits,
        total,
        wal_bytes,
    }
}

struct RecoveryPoint {
    mode: &'static str,
    history: usize,
    open_time: Duration,
}

/// Builds a `history`-commit database in memory and times recovery from
/// (a) the raw WAL and (b) a checkpoint snapshot of the same state.
fn recovery(history: usize) -> (RecoveryPoint, RecoveryPoint) {
    let storage = MemStorage::new();
    let db = ConcurrentDb::open(storage.clone(), schema(), StoreOptions::default()).expect("open");
    let rel_schema = accounts_schema(&db);
    for i in 0..history {
        let p = insert_txn(&rel_schema, i as i64);
        db.execute(&p).expect("commits");
    }
    let replay_image = storage.image();
    db.checkpoint().expect("checkpoint");
    let snapshot_image = storage.image();
    let expected = db.pin().database().clone();
    drop(db);

    let start = Instant::now();
    let replayed = ConcurrentDb::open(
        MemStorage::from_image(replay_image),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("replay recovery");
    let replay_time = start.elapsed();
    assert_eq!(replayed.pin().database(), &expected);

    let start = Instant::now();
    let restored = ConcurrentDb::open(
        MemStorage::from_image(snapshot_image),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("snapshot recovery");
    let restore_time = start.elapsed();
    assert_eq!(restored.pin().database(), &expected);

    (
        RecoveryPoint {
            mode: "wal_replay",
            history,
            open_time: replay_time,
        },
        RecoveryPoint {
            mode: "snapshot_restore",
            history,
            open_time: restore_time,
        },
    )
}

fn render_json(points: &[ThroughputPoint], recoveries: &[RecoveryPoint]) -> String {
    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"bench\": \"durability\",");
    let _ = writeln!(
        j,
        "  \"note\": \"commit = one single-row insert transaction through ConcurrentDb \
         on real files (std temp dir), one committer, so every_8 acks after its own fsync \
         like always; recovery timings use the deterministic in-memory backend; \
         regenerate with `cargo run --release -p mera-bench --bin durability`\","
    );
    j.push_str("  \"commit_throughput\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"fsync\": \"{}\", \"commits\": {}, \"ns_per_commit\": {}, \
             \"commits_per_sec\": {:.1}, \"wal_bytes\": {}}}",
            p.policy,
            p.commits,
            p.total.as_nanos() / p.commits.max(1) as u128,
            p.commits_per_sec(),
            p.wal_bytes
        );
        j.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ],\n");
    j.push_str("  \"recovery\": [\n");
    for (i, r) in recoveries.iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"mode\": \"{}\", \"committed_transactions\": {}, \"open_ns\": {}}}",
            r.mode,
            r.history,
            r.open_time.as_nanos()
        );
        j.push_str(if i + 1 < recoveries.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    j.push_str("  ]\n}\n");
    j
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pr5.json".to_owned());
    let commits = 300usize;

    let points = vec![
        throughput(FsyncPolicy::Always, "always", commits),
        throughput(FsyncPolicy::EveryN(8), "every_8", commits),
        throughput(FsyncPolicy::Never, "never", commits),
    ];
    let (replay, restore) = recovery(500);
    let recoveries = vec![replay, restore];

    for p in &points {
        eprintln!(
            "fsync={:<8} {:>8.1} commits/s  ({} commits, {} WAL bytes)",
            p.policy,
            p.commits_per_sec(),
            p.commits,
            p.wal_bytes
        );
    }
    for r in &recoveries {
        eprintln!(
            "recovery={:<17} {:>10} ns for {} committed transactions",
            r.mode,
            r.open_time.as_nanos(),
            r.history
        );
    }

    let json = render_json(&points, &recoveries);
    std::fs::write(&out_path, json).expect("write report");
    eprintln!("wrote {out_path}");
}
