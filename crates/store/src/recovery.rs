//! Crash recovery: rebuild the newest durable state from a [`Storage`]
//! root's snapshot and write-ahead log.
//!
//! The files follow classical write-ahead logging specialized to this
//! engine's logical redo records (see [`crate::ConcurrentDb`] for the
//! writing side):
//!
//! * **Commit** — one [`WalRecord::Commit`] frame (logical time + the
//!   program as XRA text) per committed writing transaction, in commit
//!   order. Aborted and read-only transactions leave no trace.
//! * **Checkpoint** — the snapshot is replaced atomically with the full
//!   state, then the WAL is reset to its header plus the view, index and
//!   key definitions. A stale WAL beside a fresh snapshot only holds
//!   commits at or before the snapshot time, which replay skips.
//! * **Recovery** — load the snapshot (if any), scan the WAL, truncate the
//!   torn tail, then replay declarations and commits in order. Replay uses
//!   the same executor as the live path with static analysis disabled —
//!   the log records *committed* work, so re-checking it could only
//!   diverge.

use crate::error::{StoreError, StoreResult};
use crate::snapshot::{self, SNAPSHOT_FILE};
use crate::storage::Storage;
use crate::wal::{self, WalRecord, WAL_FILE};
use mera_core::prelude::*;
use mera_expr::RelExpr;
use mera_lang::Lowerer;
use mera_txn::{
    run_transaction_cataloged, CatalogStats, CommitCatalog, ConstraintSet, CreateViewError,
    ExecConfig, IndexSet, KeySet, Outcome, Program, ViewSet,
};
use std::sync::Arc;

/// Everything recovery rebuilt: the state version 0 of the MVCC chain
/// starts from.
pub(crate) struct Recovered {
    pub db: Database,
    pub views: ViewSet,
    pub stats: Arc<CatalogStats>,
    pub indexes: Arc<IndexSet>,
    pub keys: Arc<KeySet>,
}

/// Keeps a view-creation failure typed: evaluation errors stay the
/// [`CoreError`] they are (a duplicate name stays
/// [`CoreError::DuplicateRelation`]); static rejections carry their
/// rendered diagnostics.
pub(crate) fn view_error(e: CreateViewError) -> StoreError {
    match e {
        CreateViewError::Error(c) => StoreError::Core(c),
        rejected => StoreError::Core(CoreError::TypeError(rejected.to_string())),
    }
}

/// Opens (or creates) the durable state in `storage`.
///
/// With no prior files this initializes a fresh database over
/// `initial_schema` and writes one `Declare` record per relation, so the
/// WAL alone reconstructs the catalog. With prior files it runs recovery:
/// snapshot restore, torn-tail truncation, then replay. `initial_schema`
/// is ignored when durable state exists — the files are the source of
/// truth. On return the WAL ends at a frame boundary.
pub(crate) fn recover<S: Storage>(
    storage: &mut S,
    initial_schema: DatabaseSchema,
    exec: ExecConfig,
) -> StoreResult<Recovered> {
    let snapshot_bytes = storage.read(SNAPSHOT_FILE)?;
    let wal_bytes = match storage.read(WAL_FILE)? {
        // A WAL shorter than its magic can only be a crash during
        // initial creation (every later state starts with the full
        // header): treat it as absent and re-create.
        Some(bytes)
            if bytes.len() < wal::WAL_MAGIC.len() && wal::WAL_MAGIC.starts_with(&bytes[..]) =>
        {
            None
        }
        other => other,
    };

    if snapshot_bytes.is_none() && wal_bytes.is_none() {
        // Fresh open: materialize the initial schema into the WAL,
        // atomically — a crash mid-creation leaves no live WAL file,
        // so the next open starts fresh again.
        let db = Database::new(initial_schema);
        let mut bytes = wal::empty_wal();
        let mut names: Vec<&str> = db.relation_names().collect();
        names.sort_unstable();
        for name in names {
            let record = WalRecord::Declare {
                name: name.to_string(),
                schema: db.relation(name)?.schema().as_ref().clone(),
            };
            bytes.extend_from_slice(&record.encode_frame());
        }
        storage.replace_atomic(WAL_FILE, &bytes)?;
        let stats = Arc::new(CatalogStats::from_database(&db)?);
        return Ok(Recovered {
            db,
            views: ViewSet::new(),
            stats,
            indexes: Arc::new(IndexSet::new()),
            keys: Arc::new(KeySet::new()),
        });
    }

    let db = match snapshot_bytes {
        Some(bytes) => snapshot::decode(&bytes)?,
        None => Database::new(DatabaseSchema::new()),
    };
    let snapshot_time = db.time();
    // the snapshot carries relations only: statistics restart from a
    // full analyze of the restored state, then replay folds each
    // commit's deltas exactly like the live path did
    let mut state = Recovered {
        stats: Arc::new(CatalogStats::from_database(&db)?),
        db,
        views: ViewSet::new(),
        indexes: Arc::new(IndexSet::new()),
        keys: Arc::new(KeySet::new()),
    };

    match wal_bytes {
        None => {
            // A snapshot with no (or torn-at-creation) WAL: start a
            // fresh log. `replace_atomic` also clears any partial
            // header bytes left by the crash.
            storage.replace_atomic(WAL_FILE, &wal::empty_wal())?;
        }
        Some(bytes) => {
            let scanned = wal::scan(&bytes)?;
            if scanned.valid_len < bytes.len() as u64 {
                // Torn tail from a crash mid-append: drop it so the
                // next append starts at a frame boundary.
                storage.truncate(WAL_FILE, scanned.valid_len)?;
                storage.sync(WAL_FILE)?;
            }
            for record in scanned.records {
                replay(&mut state, record, snapshot_time, exec)?;
            }
        }
    }
    Ok(state)
}

/// Applies one recovered WAL record to the rebuilding state.
///
/// Commits replay through the same view-maintaining executor as the live
/// path, so a recovered view's contents are derived exactly the way they
/// were the first time around.
fn replay(
    state: &mut Recovered,
    record: WalRecord,
    snapshot_time: u64,
    exec: ExecConfig,
) -> StoreResult<()> {
    let db = &mut state.db;
    match record {
        WalRecord::Declare { name, schema } => {
            // Declarations covered by the snapshot re-appear in the
            // WAL; identical re-declarations are no-ops, conflicting
            // ones mean the log belongs to a different database.
            if let Ok(schema_ref) = db.schema().get(&name) {
                if schema_ref.as_ref() == &schema {
                    return Ok(());
                }
                return Err(StoreError::CorruptWal(format!(
                    "declaration of '{name}' conflicts with the recovered schema"
                )));
            }
            db.add_relation(RelationSchema::new(name, schema))?;
            Ok(())
        }
        WalRecord::DeclareView { name, text } => {
            let expr = parse_rel_text(db, &state.views, &text)?;
            state
                .views
                .create(&name, expr, db, exec)
                .map_err(view_error)
                .map(|_| ())
        }
        WalRecord::DeclareIndex { relation, keys } => {
            // only the definition is durable: entries are rebuilt from
            // the recovered relation, then delta-maintained by the
            // commits replayed after this record
            Arc::make_mut(&mut state.indexes).create(db, &relation, &keys)?;
            Ok(())
        }
        WalRecord::DeclareKey { relation, attrs } => {
            // only the definition is durable: the multiplicity counts
            // rebuild from the recovered relation. The record was
            // logged after a successful declaration, and every commit
            // after it was enforced, so a violation here means the log
            // belongs to a different history.
            match Arc::make_mut(&mut state.keys).declare(db, &relation, &attrs)? {
                Ok(()) => Ok(()),
                Err(v) => Err(StoreError::CorruptWal(format!(
                    "recovered data violates the logged key declaration: {v}"
                ))),
            }
        }
        WalRecord::Commit { time, text } => {
            if time <= snapshot_time {
                // Already folded into the snapshot.
                return Ok(());
            }
            let replay_err = |reason: String| StoreError::ReplayFailed { time, reason };
            let program =
                parse_text(db, &state.views, &text).map_err(|e| replay_err(e.to_string()))?;
            // Logs written by earlier versions of the store may leave
            // gaps (their aborted attempts ticked logical time without
            // logging); bridge them so the replayed commit lands at
            // exactly the time the record carries.
            db.advance_time_to(time.saturating_sub(1))?;
            let mut config = exec;
            config.analyze = false; // the log holds *committed* work
            let (next, outcome) = run_transaction_cataloged(
                db,
                CommitCatalog {
                    views: Some(&mut state.views),
                    stats: Some(&mut state.stats),
                    indexes: Some(&mut state.indexes),
                    keys: Some(&mut state.keys),
                },
                &program,
                config,
                None,
                &ConstraintSet::new(),
            );
            match outcome {
                Outcome::Committed(_) => {
                    debug_assert_eq!(next.time(), time);
                    *db = next;
                    Ok(())
                }
                Outcome::Aborted(reason) => Err(replay_err(reason.to_string())),
            }
        }
    }
}

/// The schema extended with every view's schema — what logged program
/// text resolves names against.
fn catalog(db: &Database, views: &ViewSet) -> DatabaseSchema {
    let mut schema = db.schema().clone();
    for v in views.iter() {
        let _ = schema.add(RelationSchema::new(
            v.name().to_owned(),
            v.schema().as_ref().clone(),
        ));
    }
    schema
}

/// Parses and lowers a logged program text against the current schema.
/// An empty text is the empty program (older logs hold such commits).
fn parse_text(db: &Database, views: &ViewSet, text: &str) -> StoreResult<Program> {
    if text.is_empty() {
        return Ok(Program::new());
    }
    let parsed = mera_lang::parse_program(text)?;
    let catalog = catalog(db, views);
    let mut lowerer = Lowerer::new(&catalog);
    Ok(lowerer.lower_program(&parsed)?)
}

/// Parses and lowers a logged view-definition text.
fn parse_rel_text(db: &Database, views: &ViewSet, text: &str) -> StoreResult<RelExpr> {
    let parsed = mera_lang::parse_rel(text)?;
    let catalog = catalog(db, views);
    let lowerer = Lowerer::new(&catalog);
    Ok(lowerer.lower_rel(&parsed)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use crate::{ConcurrentDb, StoreOptions};

    fn schema() -> DatabaseSchema {
        DatabaseSchema::new()
            .with(
                "accounts",
                Schema::named(&[("owner", DataType::Str), ("balance", DataType::Int)]),
            )
            .expect("fresh schema")
    }

    fn open_mem(storage: MemStorage) -> ConcurrentDb<MemStorage> {
        ConcurrentDb::open(storage, schema(), StoreOptions::default()).expect("open")
    }

    fn reopen(storage: &MemStorage) -> ConcurrentDb<MemStorage> {
        open_mem(MemStorage::from_image(storage.image()))
    }

    fn program(db: &ConcurrentDb<MemStorage>, text: &str) -> Program {
        let v = db.pin();
        parse_text(v.database(), v.views(), text).expect("valid program")
    }

    fn insert_program(db: &ConcurrentDb<MemStorage>, owner: &str, balance: i64) -> Program {
        program(
            db,
            &format!("insert(accounts, values (str, int) {{('{owner}', {balance})}})"),
        )
    }

    fn view(db: &ConcurrentDb<MemStorage>, name: &str) -> Relation {
        db.pin()
            .views()
            .get(name)
            .map(|v| v.data().clone())
            .expect("view exists")
    }

    #[test]
    fn commit_then_reopen_recovers_state() {
        let storage = MemStorage::new();
        let durable = open_mem(storage.clone());
        durable
            .execute(&insert_program(&durable, "ann", 10))
            .expect("commits");
        let expected = durable.pin().database().clone();
        drop(durable);

        assert_eq!(reopen(&storage).pin().database(), &expected);
    }

    #[test]
    fn abort_writes_nothing_and_does_not_tick_time() {
        let storage = MemStorage::new();
        let durable = open_mem(storage.clone());
        durable
            .execute(&insert_program(&durable, "ann", 10))
            .expect("insert commits");
        let t0 = durable.pin().time();
        let before_units = storage.units_written();

        // Division by zero over a non-empty relation aborts the
        // transaction (statically or at runtime — either way, Aborted).
        let bad = program(&durable, "?project[(%2 / 0)](accounts)");
        let err = durable.execute(&bad).expect_err("aborts");
        assert!(matches!(err, StoreError::TransactionAborted(_)));
        assert_eq!(durable.pin().time(), t0, "aborts publish no version");
        assert_eq!(
            storage.units_written(),
            before_units,
            "aborts leave no durable trace"
        );

        // Recovery lands on the last committed time.
        assert_eq!(reopen(&storage).pin().time(), t0);
    }

    #[test]
    fn duplicate_declaration_fails_before_logging() {
        let storage = MemStorage::new();
        let durable = open_mem(storage.clone());
        let before_units = storage.units_written();
        let err = durable
            .add_relation(RelationSchema::new(
                "accounts",
                Schema::anon(&[DataType::Int]),
            ))
            .expect_err("duplicate relation");
        assert!(matches!(err, StoreError::Core(_)));
        assert_eq!(storage.units_written(), before_units);
    }

    #[test]
    fn checkpoint_resets_wal_and_recovery_uses_snapshot() {
        let storage = MemStorage::new();
        let durable = open_mem(storage.clone());
        for (owner, amount) in [("ann", 10_i64), ("bob", 20), ("cho", 30)] {
            durable
                .execute(&insert_program(&durable, owner, amount))
                .expect("commits");
        }
        durable.checkpoint().expect("checkpoint");
        let expected = durable.pin().database().clone();
        drop(durable);

        let image = storage.image();
        let wal = image.get(WAL_FILE).expect("wal exists");
        assert_eq!(wal.as_slice(), wal::empty_wal().as_slice(), "wal reset");
        assert!(image.contains_key(SNAPSHOT_FILE));

        let recovered = open_mem(MemStorage::from_image(image));
        assert_eq!(recovered.pin().database(), &expected);
    }

    #[test]
    fn declares_after_checkpoint_survive() {
        let storage = MemStorage::new();
        let durable = open_mem(storage.clone());
        durable.checkpoint().expect("checkpoint");
        durable
            .add_relation(RelationSchema::new(
                "audit",
                Schema::named(&[("note", DataType::Str)]),
            ))
            .expect("declare");
        let p = program(&durable, "insert(audit, values (str) {('hello')})");
        durable.execute(&p).expect("commits");
        let expected = durable.pin().database().clone();
        drop(durable);

        assert_eq!(reopen(&storage).pin().database(), &expected);
    }

    fn totals_expr(db: &ConcurrentDb<MemStorage>) -> RelExpr {
        let v = db.pin();
        parse_rel_text(v.database(), v.views(), "groupby[(%1), SUM, %2](accounts)").expect("lowers")
    }

    #[test]
    fn views_survive_reopen_and_keep_refreshing() {
        let storage = MemStorage::new();
        let durable = open_mem(storage.clone());
        durable
            .execute(&insert_program(&durable, "ann", 10))
            .expect("commits");
        durable
            .create_view("totals", totals_expr(&durable))
            .expect("creates view");
        durable
            .execute(&insert_program(&durable, "ann", 5))
            .expect("commits");
        let expected = view(&durable, "totals");
        assert_eq!(expected.multiplicity(&mera_core::tuple!["ann", 15_i64]), 1);
        drop(durable);

        let recovered = reopen(&storage);
        assert_eq!(view(&recovered, "totals"), expected);
        // and the recovered view keeps refreshing on new commits
        recovered
            .execute(&insert_program(&recovered, "bob", 7))
            .expect("commits");
        let after = view(&recovered, "totals");
        assert_eq!(after.multiplicity(&mera_core::tuple!["bob", 7_i64]), 1);
    }

    #[test]
    fn checkpoint_reseeds_view_declarations() {
        let storage = MemStorage::new();
        let durable = open_mem(storage.clone());
        durable
            .execute(&insert_program(&durable, "ann", 10))
            .expect("commits");
        durable
            .create_view("totals", totals_expr(&durable))
            .expect("creates view");
        durable.checkpoint().expect("checkpoint");
        durable
            .execute(&insert_program(&durable, "cho", 3))
            .expect("commits");
        let expected = view(&durable, "totals");
        drop(durable);

        assert_eq!(view(&reopen(&storage), "totals"), expected);
    }

    #[test]
    fn rejected_view_definitions_leave_no_durable_trace() {
        let storage = MemStorage::new();
        let durable = open_mem(storage.clone());
        let before_units = storage.units_written();
        let v = durable.pin();
        let avg = parse_rel_text(v.database(), v.views(), "groupby[(), AVG, %2](accounts)")
            .expect("lowers");
        let err = durable.create_view("avg", avg).expect_err("partial view");
        assert!(err.to_string().contains("E0303"), "{err}");
        assert_eq!(storage.units_written(), before_units);
        assert!(durable.pin().views().is_empty());
    }

    #[test]
    fn indexes_survive_reopen_and_keep_maintaining() {
        let storage = MemStorage::new();
        let durable = open_mem(storage.clone());
        durable
            .execute(&insert_program(&durable, "ann", 10))
            .expect("commits");
        durable.create_index("accounts", &[1]).expect("creates");
        durable
            .execute(&insert_program(&durable, "bob", 20))
            .expect("commits");
        drop(durable);

        let recovered = reopen(&storage);
        assert_eq!(
            recovered.pin().indexes().definitions(),
            vec![("accounts".to_string(), vec![1])]
        );
        let v = recovered.pin();
        let index = v.indexes().find("accounts", &[1]).expect("recovered index");
        assert_eq!(index.len(), 2);
        // and the recovered index keeps maintaining on new commits
        recovered
            .execute(&insert_program(&recovered, "cho", 30))
            .expect("commits");
        let v = recovered.pin();
        let index = v.indexes().find("accounts", &[1]).expect("index");
        assert_eq!(index.len(), 3);
        let fresh = mera_txn::HashIndex::build(v.database().relation("accounts").unwrap(), &[1])
            .expect("builds");
        let key = mera_core::tuple!["cho"];
        assert_eq!(index.lookup(&key).unwrap(), fresh.lookup(&key).unwrap());
    }

    #[test]
    fn checkpoint_reseeds_index_declarations() {
        let storage = MemStorage::new();
        let durable = open_mem(storage.clone());
        durable
            .execute(&insert_program(&durable, "ann", 10))
            .expect("commits");
        durable.create_index("accounts", &[1]).expect("creates");
        durable.checkpoint().expect("checkpoint");
        durable
            .execute(&insert_program(&durable, "bob", 20))
            .expect("commits");
        drop(durable);

        let v = reopen(&storage).pin();
        assert_eq!(
            v.indexes().definitions(),
            vec![("accounts".to_string(), vec![1])]
        );
        let index = v.indexes().find("accounts", &[1]).expect("recovered index");
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn keys_survive_reopen_and_keep_enforcing() {
        let storage = MemStorage::new();
        let durable = open_mem(storage.clone());
        durable
            .execute(&insert_program(&durable, "ann", 10))
            .expect("commits");
        durable.declare_key("accounts", &[1]).expect("declares");
        drop(durable);

        let recovered = reopen(&storage);
        assert_eq!(
            recovered.pin().keys().definitions(),
            vec![("accounts".to_string(), vec![1])]
        );
        // the recovered constraint keeps enforcing: a duplicate owner
        // aborts, a fresh owner commits
        let err = recovered
            .execute(&insert_program(&recovered, "ann", 99))
            .expect_err("key violation aborts");
        assert!(err.to_string().contains("accounts"), "{err}");
        recovered
            .execute(&insert_program(&recovered, "bob", 20))
            .expect("commits");
    }

    #[test]
    fn checkpoint_reseeds_key_declarations() {
        let storage = MemStorage::new();
        let durable = open_mem(storage.clone());
        durable
            .execute(&insert_program(&durable, "ann", 10))
            .expect("commits");
        durable.declare_key("accounts", &[1]).expect("declares");
        durable.checkpoint().expect("checkpoint");
        durable
            .execute(&insert_program(&durable, "bob", 20))
            .expect("commits");
        drop(durable);

        let recovered = reopen(&storage);
        assert_eq!(
            recovered.pin().keys().definitions(),
            vec![("accounts".to_string(), vec![1])]
        );
        let p = insert_program(&recovered, "bob", 5);
        assert!(recovered.execute(&p).is_err(), "key still enforced");
    }

    #[test]
    fn violating_key_declaration_leaves_no_durable_trace() {
        let storage = MemStorage::new();
        let durable = open_mem(storage.clone());
        for (owner, amount) in [("ann", 10_i64), ("ann", 20)] {
            durable
                .execute(&insert_program(&durable, owner, amount))
                .expect("commits");
        }
        let before_units = storage.units_written();
        let err = durable
            .declare_key("accounts", &[1])
            .expect_err("existing data violates the key");
        assert!(err.to_string().contains("ann"), "{err}");
        assert_eq!(storage.units_written(), before_units);
        assert!(durable.pin().keys().definitions().is_empty());
        // the wider key over both columns installs fine
        durable.declare_key("accounts", &[1, 2]).expect("declares");
    }

    #[test]
    fn recovered_stats_match_live_stats() {
        let storage = MemStorage::new();
        let durable = open_mem(storage.clone());
        for (owner, amount) in [("ann", 10_i64), ("bob", 20), ("cho", 30)] {
            durable
                .execute(&insert_program(&durable, owner, amount))
                .expect("commits");
        }
        let live = Arc::clone(durable.pin().stats());
        drop(durable);

        let v = reopen(&storage).pin();
        let stats = v.stats();
        assert!(stats.is_current(v.database()));
        let live_t = live.get("accounts").expect("live entry");
        let rec_t = stats.get("accounts").expect("recovered entry");
        assert_eq!(rec_t.rows, live_t.rows);
        assert_eq!(rec_t.distinct_rows, live_t.distinct_rows);
        assert_eq!(rec_t.column_distinct(1), live_t.column_distinct(1));
    }

    #[test]
    fn io_failure_on_commit_leaves_memory_unchanged() {
        let storage = MemStorage::new();
        let durable = open_mem(storage.clone());
        let before = durable.pin().database().clone();
        storage.set_budget(0);
        let p = insert_program(&durable, "ann", 10);
        let err = durable.execute(&p).expect_err("storage is dead");
        assert_eq!(err, StoreError::Crashed);
        assert_eq!(durable.pin().database(), &before);
    }
}
