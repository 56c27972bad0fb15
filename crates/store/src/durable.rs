//! [`DurableDb`]: the transaction engine wired to a write-ahead log.
//!
//! The wrapper owns a [`Database`] plus a [`Storage`] backend holding two
//! files: the WAL (`mera.wal`) and the latest checkpoint snapshot
//! (`mera.snapshot`). The protocol is classical write-ahead logging
//! specialized to this engine's logical redo records:
//!
//! * **Commit** — run the transaction in memory against the current state;
//!   if it commits, append one [`WalRecord::Commit`] frame (logical time +
//!   the program as XRA text) and fsync *before* publishing the new state.
//!   A crash between append and publish re-applies the record at recovery;
//!   a crash before the append loses only an unacknowledged transaction.
//! * **Abort** — nothing is written. Aborts tick logical time in memory
//!   (the paper's transition semantics) but leave no durable trace;
//!   recovery re-derives the intervening ticks from the gap between
//!   consecutive commit times.
//! * **Checkpoint** — atomically replace the snapshot with the full
//!   current state, then reset the WAL to an empty header. Crashing
//!   between the two steps is safe: recovery skips WAL commits at or
//!   before the snapshot time.
//! * **Recovery** — load the snapshot (if any), scan the WAL, truncate the
//!   torn tail, then replay declarations and commits in order. Replay uses
//!   the same executor as the live path with static analysis disabled —
//!   the log records *committed* work, so re-checking it could only
//!   diverge.

use crate::error::{StoreError, StoreResult};
use crate::snapshot;
use crate::storage::Storage;
use crate::wal::{self, WalRecord};
use mera_core::prelude::*;
use mera_expr::RelExpr;
use mera_lang::{program_to_xra, rel_to_xra, Lowerer};
use mera_txn::{
    run_transaction_cataloged, CatalogStats, CommitCatalog, ConstraintSet, CreateViewError,
    ExecConfig, IndexSet, KeySet, Outcome, Outputs, Program, ViewSet,
};
use std::sync::Arc;

/// Name of the write-ahead log file inside a [`Storage`] root.
pub const WAL_FILE: &str = "mera.wal";

fn view_error(e: CreateViewError) -> StoreError {
    match e {
        CreateViewError::Error(c) => StoreError::Core(c),
        rejected => StoreError::Core(CoreError::TypeError(rejected.to_string())),
    }
}

/// Name of the checkpoint snapshot file inside a [`Storage`] root.
pub const SNAPSHOT_FILE: &str = "mera.snapshot";

/// When the WAL file is flushed to stable storage.
///
/// The policy trades commit latency against the window of acknowledged
/// transactions a crash can lose. It only affects real-file backends; the
/// in-memory fault-injecting backend treats every written byte as durable
/// so crash tests stay deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every commit record. No acknowledged commit is ever
    /// lost; slowest.
    Always,
    /// Fsync after every `n` commit records (group commit). A crash loses
    /// at most the last `n - 1` acknowledged commits.
    EveryN(u32),
    /// Never fsync the WAL from the commit path (the OS flushes when it
    /// pleases). Fastest; a crash may lose any commit since the last
    /// checkpoint.
    Never,
}

/// Configuration for a [`DurableDb`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// WAL flush policy.
    pub fsync: FsyncPolicy,
    /// Execution configuration for the live transaction path. Replay
    /// always runs with `analyze` off regardless of this setting.
    pub exec: ExecConfig,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            fsync: FsyncPolicy::Always,
            exec: ExecConfig::default(),
        }
    }
}

/// A database whose committed history survives process death.
///
/// All mutation goes through [`execute`](DurableDb::execute) (transactions)
/// and [`add_relation`](DurableDb::add_relation) (DDL); both follow the
/// log-then-publish protocol described in the module docs.
pub struct DurableDb<S: Storage> {
    storage: S,
    db: Database,
    views: ViewSet,
    stats: Arc<CatalogStats>,
    indexes: Arc<IndexSet>,
    keys: Arc<KeySet>,
    options: StoreOptions,
    unsynced_appends: u32,
}

impl<S: Storage> std::fmt::Debug for DurableDb<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableDb")
            .field("time", &self.db.time())
            .field("relations", &self.db.schema().len())
            .field("fsync", &self.options.fsync)
            .finish_non_exhaustive()
    }
}

impl<S: Storage> DurableDb<S> {
    /// Opens (or creates) a durable database in `storage`.
    ///
    /// With no prior files this initializes a fresh database over
    /// `initial_schema` and writes one `Declare` record per relation, so
    /// the WAL alone reconstructs the catalog. With prior files it runs
    /// recovery: snapshot restore, torn-tail truncation, then replay.
    /// `initial_schema` is ignored when durable state exists — the files
    /// are the source of truth.
    pub fn open(
        mut storage: S,
        initial_schema: DatabaseSchema,
        options: StoreOptions,
    ) -> StoreResult<Self> {
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
            return Ok(DurableDb {
                storage,
                db,
                views: ViewSet::new(),
                stats,
                indexes: Arc::new(IndexSet::new()),
                keys: Arc::new(KeySet::new()),
                options,
                unsynced_appends: 0,
            });
        }

        let mut db = match snapshot_bytes {
            Some(bytes) => snapshot::decode(&bytes)?,
            None => Database::new(DatabaseSchema::new()),
        };
        let snapshot_time = db.time();
        let mut views = ViewSet::new();
        // the snapshot carries relations only: statistics restart from a
        // full analyze of the restored state, then replay folds each
        // commit's deltas exactly like the live path did
        let mut stats = Arc::new(CatalogStats::from_database(&db)?);
        let mut indexes = Arc::new(IndexSet::new());
        let mut keys = Arc::new(KeySet::new());

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
                    Self::replay(
                        &mut db,
                        &mut views,
                        &mut stats,
                        &mut indexes,
                        &mut keys,
                        record,
                        snapshot_time,
                        options.exec,
                    )?;
                }
            }
        }

        Ok(DurableDb {
            storage,
            db,
            views,
            stats,
            indexes,
            keys,
            options,
            unsynced_appends: 0,
        })
    }

    /// Applies one recovered WAL record to the rebuilding state.
    ///
    /// Commits replay through the same view-maintaining executor as the
    /// live path, so a recovered view's contents are derived exactly the
    /// way they were the first time around.
    #[allow(clippy::too_many_arguments)]
    fn replay(
        db: &mut Database,
        views: &mut ViewSet,
        stats: &mut Arc<CatalogStats>,
        indexes: &mut Arc<IndexSet>,
        keys: &mut Arc<KeySet>,
        record: WalRecord,
        snapshot_time: u64,
        exec: ExecConfig,
    ) -> StoreResult<()> {
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
                let expr = Self::parse_rel_text(db, views, &text)?;
                views
                    .create(&name, expr, db, exec)
                    .map_err(view_error)
                    .map(|_| ())
            }
            WalRecord::DeclareIndex { relation, keys } => {
                // only the definition is durable: entries are rebuilt from
                // the recovered relation, then delta-maintained by the
                // commits replayed after this record
                Arc::make_mut(indexes).create(db, &relation, &keys)?;
                Ok(())
            }
            WalRecord::DeclareKey { relation, attrs } => {
                // only the definition is durable: the multiplicity counts
                // rebuild from the recovered relation. The record was
                // logged after a successful declaration, and every commit
                // after it was enforced, so a violation here means the log
                // belongs to a different history.
                match Arc::make_mut(keys).declare(db, &relation, &attrs)? {
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
                    Self::parse_text(db, views, &text).map_err(|e| replay_err(e.to_string()))?;
                // Aborted attempts tick logical time but are never
                // logged; bridge the gap so the replayed commit lands at
                // exactly the time the record carries.
                db.advance_time_to(time.saturating_sub(1))?;
                let mut config = exec;
                config.analyze = false; // the log holds *committed* work
                let (next, outcome) = run_transaction_cataloged(
                    db,
                    CommitCatalog {
                        views: Some(views),
                        stats: Some(stats),
                        indexes: Some(indexes),
                        keys: Some(keys),
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
    fn parse_text(db: &Database, views: &ViewSet, text: &str) -> StoreResult<Program> {
        if text.is_empty() {
            return Ok(Program::new());
        }
        let parsed = mera_lang::parse_program(text)?;
        let catalog = Self::catalog(db, views);
        let mut lowerer = Lowerer::new(&catalog);
        Ok(lowerer.lower_program(&parsed)?)
    }

    /// Parses and lowers a logged view-definition text.
    fn parse_rel_text(db: &Database, views: &ViewSet, text: &str) -> StoreResult<RelExpr> {
        let parsed = mera_lang::parse_rel(text)?;
        let catalog = Self::catalog(db, views);
        let lowerer = Lowerer::new(&catalog);
        Ok(lowerer.lower_rel(&parsed)?)
    }

    /// Runs one transaction with durable commit, without integrity
    /// constraints.
    pub fn execute(&mut self, program: &Program) -> StoreResult<Outputs> {
        self.execute_checked(program, &ConstraintSet::new())
    }

    /// Runs one transaction with durable commit and commit-time integrity
    /// enforcement.
    ///
    /// On commit, the redo record is appended (and flushed, per the fsync
    /// policy) *before* the new state is published; an I/O failure leaves
    /// the in-memory state unchanged. On abort nothing is written and the
    /// error carries the abort reason.
    pub fn execute_checked(
        &mut self,
        program: &Program,
        constraints: &ConstraintSet,
    ) -> StoreResult<Outputs> {
        let (next, outcome) = run_transaction_cataloged(
            &self.db,
            CommitCatalog {
                views: Some(&mut self.views),
                stats: Some(&mut self.stats),
                indexes: Some(&mut self.indexes),
                keys: Some(&mut self.keys),
            },
            program,
            self.options.exec,
            None,
            constraints,
        );
        match outcome {
            Outcome::Committed(outputs) => {
                let record = WalRecord::Commit {
                    time: next.time(),
                    text: program_to_xra(program),
                };
                let logged = self
                    .storage
                    .append(WAL_FILE, &record.encode_frame())
                    .and_then(|()| self.maybe_sync());
                if let Err(e) = logged {
                    // The catalog was refreshed for a commit that never
                    // became durable: restore it to the published state.
                    let _ = self.views.rebuild(&self.db, self.options.exec);
                    if let Ok(fresh) = CatalogStats::from_database(&self.db) {
                        self.stats = Arc::new(fresh);
                    }
                    let _ = Arc::make_mut(&mut self.indexes).rebuild(&self.db);
                    let _ = Arc::make_mut(&mut self.keys).rebuild(&self.db);
                    return Err(e);
                }
                self.db = next;
                Ok(outputs)
            }
            Outcome::Aborted(reason) => {
                // The aborted attempt is a transition (time ticks) but it
                // is not durable history; recovery re-derives the tick.
                Arc::make_mut(&mut self.stats).set_as_of(next.time());
                self.db = next;
                Err(StoreError::TransactionAborted(reason.to_string()))
            }
        }
    }

    /// Declares a new relation, durably.
    ///
    /// The `Declare` record is logged (and flushed) before the schema
    /// change is published, mirroring the commit path.
    pub fn add_relation(&mut self, rs: RelationSchema) -> StoreResult<()> {
        let mut probe = self.db.clone();
        probe.add_relation(RelationSchema::new(
            rs.name.clone(),
            rs.schema.as_ref().clone(),
        ))?;
        let record = WalRecord::Declare {
            name: rs.name,
            schema: rs.schema.as_ref().clone(),
        };
        self.storage.append(WAL_FILE, &record.encode_frame())?;
        self.storage.sync(WAL_FILE)?;
        self.db = probe;
        Ok(())
    }

    /// Creates a materialized view, durably.
    ///
    /// The definition is validated and evaluated first (rejections leave
    /// no trace); the `DeclareView` record is logged (and flushed) before
    /// the view is published. Recovery rebuilds the view's contents by
    /// replaying the log through the same view-maintaining executor.
    pub fn create_view(&mut self, name: &str, expr: RelExpr) -> StoreResult<SchemaRef> {
        let text = rel_to_xra(&expr);
        let mut probe = self.views.clone();
        let schema = probe
            .create(name, expr, &self.db, self.options.exec)
            .map_err(view_error)?;
        let record = WalRecord::DeclareView {
            name: name.to_owned(),
            text,
        };
        self.storage.append(WAL_FILE, &record.encode_frame())?;
        self.storage.sync(WAL_FILE)?;
        self.views = probe;
        Ok(schema)
    }

    /// Creates a secondary index, durably.
    ///
    /// The index is built first (failures leave no trace); the
    /// `DeclareIndex` record is logged (and flushed) before the index is
    /// published. Only the definition is durable — recovery rebuilds the
    /// entries from the recovered relation and then maintains them from
    /// each replayed commit's deltas, exactly like the live path.
    pub fn create_index(&mut self, relation: &str, keys: &[usize]) -> StoreResult<()> {
        let mut probe = Arc::clone(&self.indexes);
        Arc::make_mut(&mut probe).create(&self.db, relation, keys)?;
        let record = WalRecord::DeclareIndex {
            relation: relation.to_owned(),
            keys: keys.to_vec(),
        };
        self.storage.append(WAL_FILE, &record.encode_frame())?;
        self.storage.sync(WAL_FILE)?;
        self.indexes = probe;
        Ok(())
    }

    /// Declares a key constraint, durably.
    ///
    /// The existing data is validated first (a violating relation refuses
    /// the declaration and leaves no trace); the `DeclareKey` record is
    /// logged (and flushed) before the constraint is published. Only the
    /// definition is durable — recovery rebuilds the per-key-point counts
    /// from the recovered relation.
    pub fn declare_key(&mut self, relation: &str, attrs: &[usize]) -> StoreResult<()> {
        let mut probe = Arc::clone(&self.keys);
        match Arc::make_mut(&mut probe).declare(&self.db, relation, attrs)? {
            Ok(()) => {}
            Err(v) => return Err(StoreError::Core(CoreError::TypeError(v.to_string()))),
        }
        let record = WalRecord::DeclareKey {
            relation: relation.to_owned(),
            attrs: attrs.to_vec(),
        };
        self.storage.append(WAL_FILE, &record.encode_frame())?;
        self.storage.sync(WAL_FILE)?;
        self.keys = probe;
        Ok(())
    }

    /// The materialized views, incrementally maintained by every commit.
    pub fn views(&self) -> &ViewSet {
        &self.views
    }

    /// The catalog statistics, incrementally maintained by every commit.
    pub fn stats(&self) -> Arc<CatalogStats> {
        Arc::clone(&self.stats)
    }

    /// The secondary indexes, incrementally maintained by every commit.
    pub fn indexes(&self) -> Arc<IndexSet> {
        Arc::clone(&self.indexes)
    }

    /// The definitions of every declared index, `(relation, keys)` pairs.
    pub fn index_definitions(&self) -> Vec<(String, Vec<usize>)> {
        self.indexes.definitions()
    }

    /// The key constraints, incrementally maintained by every commit.
    pub fn keys(&self) -> Arc<KeySet> {
        Arc::clone(&self.keys)
    }

    /// The definitions of every declared key, `(relation, attrs)` pairs.
    pub fn key_definitions(&self) -> Vec<(String, Vec<usize>)> {
        self.keys.definitions()
    }

    /// A snapshot of one materialized view's current contents.
    pub fn view(&self, name: &str) -> CoreResult<Relation> {
        self.views
            .get(name)
            .map(|v| v.data().clone())
            .ok_or_else(|| CoreError::UnknownRelation(name.to_owned()))
    }

    /// Writes a checkpoint: snapshot the full state atomically, then reset
    /// the WAL to an empty header.
    ///
    /// After a checkpoint, recovery restores the snapshot directly instead
    /// of replaying history, and the log stops growing. A crash anywhere
    /// inside this method is safe — the snapshot swap is atomic, and a
    /// stale WAL alongside a fresh snapshot only contains records the
    /// snapshot time filter skips.
    pub fn checkpoint(&mut self) -> StoreResult<()> {
        let bytes = snapshot::encode(&self.db);
        self.storage.replace_atomic(SNAPSHOT_FILE, &bytes)?;
        // The snapshot holds relations, not views: re-seed the fresh WAL
        // with one DeclareView record per view (in creation order, so
        // views over views rebuild in dependency order) to keep the pair
        // of files self-contained.
        let mut wal_bytes = wal::empty_wal();
        for v in self.views.iter() {
            let record = WalRecord::DeclareView {
                name: v.name().to_owned(),
                text: rel_to_xra(v.expr()),
            };
            wal_bytes.extend_from_slice(&record.encode_frame());
        }
        // Indexes likewise live only as definitions: one DeclareIndex
        // record each, rebuilt from the snapshot's relations at recovery.
        for (relation, keys) in self.indexes.definitions() {
            let record = WalRecord::DeclareIndex { relation, keys };
            wal_bytes.extend_from_slice(&record.encode_frame());
        }
        // Key constraints too: one DeclareKey record each, their counts
        // rebuilt from the snapshot's relations at recovery.
        for (relation, attrs) in self.keys.definitions() {
            let record = WalRecord::DeclareKey { relation, attrs };
            wal_bytes.extend_from_slice(&record.encode_frame());
        }
        self.storage.replace_atomic(WAL_FILE, &wal_bytes)?;
        self.unsynced_appends = 0;
        Ok(())
    }

    fn maybe_sync(&mut self) -> StoreResult<()> {
        match self.options.fsync {
            FsyncPolicy::Always => self.storage.sync(WAL_FILE),
            FsyncPolicy::EveryN(n) => {
                self.unsynced_appends += 1;
                if self.unsynced_appends >= n.max(1) {
                    self.unsynced_appends = 0;
                    self.storage.sync(WAL_FILE)
                } else {
                    Ok(())
                }
            }
            FsyncPolicy::Never => Ok(()),
        }
    }

    /// The current in-memory state (committed plus aborted-tick history).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The store options this database was opened with.
    pub fn options(&self) -> &StoreOptions {
        &self.options
    }

    /// Borrows the storage backend (tests inspect fault counters through
    /// this).
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// Consumes the wrapper, returning the storage backend.
    pub fn into_storage(self) -> S {
        self.storage
    }

    /// Decomposes the wrapper into its recovered state — the entry point
    /// for the concurrent front ([`crate::ConcurrentDb`]), which seeds an
    /// MVCC version chain from exactly what serial recovery produced.
    pub fn into_parts(self) -> DurableParts<S> {
        DurableParts {
            storage: self.storage,
            db: self.db,
            views: self.views,
            stats: self.stats,
            indexes: self.indexes,
            keys: self.keys,
            options: self.options,
        }
    }
}

/// The decomposed state of a [`DurableDb`]: everything recovery rebuilt,
/// plus the storage backend whose WAL tail is already truncated to a
/// frame boundary.
pub struct DurableParts<S> {
    /// The storage backend (WAL positioned at a clean frame boundary).
    pub storage: S,
    /// The recovered base relations.
    pub db: Database,
    /// The recovered materialized views.
    pub views: ViewSet,
    /// The recovered table statistics.
    pub stats: Arc<CatalogStats>,
    /// The recovered secondary indexes.
    pub indexes: Arc<IndexSet>,
    /// The recovered key constraints.
    pub keys: Arc<KeySet>,
    /// The options the database was opened with.
    pub options: StoreOptions,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn schema() -> DatabaseSchema {
        DatabaseSchema::new()
            .with(
                "accounts",
                Schema::named(&[("owner", DataType::Str), ("balance", DataType::Int)]),
            )
            .expect("fresh schema")
    }

    fn open_mem(storage: MemStorage) -> DurableDb<MemStorage> {
        DurableDb::open(storage, schema(), StoreOptions::default()).expect("open")
    }

    fn insert_program(db: &Database, owner: &str, balance: i64) -> Program {
        let text = format!("insert(accounts, values (str, int) {{('{owner}', {balance})}})");
        DurableDb::<MemStorage>::parse_text(db, &ViewSet::new(), &text).expect("valid program")
    }

    #[test]
    fn commit_then_reopen_recovers_state() {
        let storage = MemStorage::new();
        let mut durable = open_mem(storage.clone());
        let p = insert_program(durable.database(), "ann", 10);
        durable.execute(&p).expect("commits");
        let expected = durable.database().clone();
        drop(durable);

        let recovered = open_mem(MemStorage::from_image(storage.image()));
        assert_eq!(recovered.database(), &expected);
    }

    #[test]
    fn abort_writes_nothing_and_still_ticks_time() {
        let storage = MemStorage::new();
        let mut durable = open_mem(storage.clone());
        let p = insert_program(durable.database(), "ann", 10);
        durable.execute(&p).expect("insert commits");
        let t0 = durable.database().time();
        let before_units = storage.units_written();

        // Division by zero over a non-empty relation aborts the
        // transaction (statically or at runtime — either way, Aborted).
        let bad = DurableDb::<MemStorage>::parse_text(
            durable.database(),
            &ViewSet::new(),
            "?project[(%2 / 0)](accounts)",
        )
        .expect("parses and lowers");
        let err = durable.execute(&bad).expect_err("aborts");
        assert!(matches!(err, StoreError::TransactionAborted(_)));
        assert_eq!(durable.database().time(), t0 + 1, "aborts tick time");
        assert_eq!(
            storage.units_written(),
            before_units,
            "aborts leave no durable trace"
        );

        // The aborted tick is not durable history: recovery lands on the
        // last committed time.
        let recovered = open_mem(MemStorage::from_image(storage.image()));
        assert_eq!(recovered.database().time(), t0);
    }

    #[test]
    fn duplicate_declaration_fails_before_logging() {
        let storage = MemStorage::new();
        let mut durable = open_mem(storage.clone());
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
        let mut durable = open_mem(storage.clone());
        for (owner, amount) in [("ann", 10_i64), ("bob", 20), ("cho", 30)] {
            let p = insert_program(durable.database(), owner, amount);
            durable.execute(&p).expect("commits");
        }
        durable.checkpoint().expect("checkpoint");
        let expected = durable.database().clone();
        drop(durable);

        let image = storage.image();
        let wal = image.get(WAL_FILE).expect("wal exists");
        assert_eq!(wal.as_slice(), wal::empty_wal().as_slice(), "wal reset");
        assert!(image.contains_key(SNAPSHOT_FILE));

        let recovered = open_mem(MemStorage::from_image(image));
        assert_eq!(recovered.database(), &expected);
    }

    #[test]
    fn declares_after_checkpoint_survive() {
        let storage = MemStorage::new();
        let mut durable = open_mem(storage.clone());
        durable.checkpoint().expect("checkpoint");
        durable
            .add_relation(RelationSchema::new(
                "audit",
                Schema::named(&[("note", DataType::Str)]),
            ))
            .expect("declare");
        let p = DurableDb::<MemStorage>::parse_text(
            durable.database(),
            &ViewSet::new(),
            "insert(audit, values (str) {('hello')})",
        )
        .unwrap();
        durable.execute(&p).expect("commits");
        let expected = durable.database().clone();
        drop(durable);

        let recovered = open_mem(MemStorage::from_image(storage.image()));
        assert_eq!(recovered.database(), &expected);
    }

    fn totals_expr(db: &Database) -> mera_expr::RelExpr {
        DurableDb::<MemStorage>::parse_rel_text(
            db,
            &ViewSet::new(),
            "groupby[(%1), SUM, %2](accounts)",
        )
        .expect("lowers")
    }

    #[test]
    fn views_survive_reopen_and_keep_refreshing() {
        let storage = MemStorage::new();
        let mut durable = open_mem(storage.clone());
        let p = insert_program(durable.database(), "ann", 10);
        durable.execute(&p).expect("commits");
        let expr = totals_expr(durable.database());
        durable.create_view("totals", expr).expect("creates view");
        let p = insert_program(durable.database(), "ann", 5);
        durable.execute(&p).expect("commits");
        let expected = durable.view("totals").expect("view exists");
        assert_eq!(expected.multiplicity(&mera_core::tuple!["ann", 15_i64]), 1);
        drop(durable);

        let mut recovered = open_mem(MemStorage::from_image(storage.image()));
        assert_eq!(recovered.view("totals").expect("recovered"), expected);
        // and the recovered view keeps refreshing on new commits
        let p = insert_program(recovered.database(), "bob", 7);
        recovered.execute(&p).expect("commits");
        let after = recovered.view("totals").expect("view");
        assert_eq!(after.multiplicity(&mera_core::tuple!["bob", 7_i64]), 1);
    }

    #[test]
    fn checkpoint_reseeds_view_declarations() {
        let storage = MemStorage::new();
        let mut durable = open_mem(storage.clone());
        let p = insert_program(durable.database(), "ann", 10);
        durable.execute(&p).expect("commits");
        let expr = totals_expr(durable.database());
        durable.create_view("totals", expr).expect("creates view");
        durable.checkpoint().expect("checkpoint");
        let p = insert_program(durable.database(), "cho", 3);
        durable.execute(&p).expect("commits");
        let expected = durable.view("totals").expect("view");
        drop(durable);

        let recovered = open_mem(MemStorage::from_image(storage.image()));
        assert_eq!(recovered.view("totals").expect("recovered"), expected);
    }

    #[test]
    fn rejected_view_definitions_leave_no_durable_trace() {
        let storage = MemStorage::new();
        let mut durable = open_mem(storage.clone());
        let before_units = storage.units_written();
        let avg = DurableDb::<MemStorage>::parse_rel_text(
            durable.database(),
            &ViewSet::new(),
            "groupby[(), AVG, %2](accounts)",
        )
        .expect("lowers");
        let err = durable.create_view("avg", avg).expect_err("partial view");
        assert!(err.to_string().contains("E0303"), "{err}");
        assert_eq!(storage.units_written(), before_units);
        assert!(durable.views().is_empty());
    }

    #[test]
    fn indexes_survive_reopen_and_keep_maintaining() {
        let storage = MemStorage::new();
        let mut durable = open_mem(storage.clone());
        let p = insert_program(durable.database(), "ann", 10);
        durable.execute(&p).expect("commits");
        durable.create_index("accounts", &[1]).expect("creates");
        let p = insert_program(durable.database(), "bob", 20);
        durable.execute(&p).expect("commits");
        drop(durable);

        let mut recovered = open_mem(MemStorage::from_image(storage.image()));
        assert_eq!(
            recovered.index_definitions(),
            vec![("accounts".to_string(), vec![1])]
        );
        let ix = recovered.indexes();
        let index = ix.find("accounts", &[1]).expect("recovered index");
        assert_eq!(index.len(), 2);
        // and the recovered index keeps maintaining on new commits
        let p = insert_program(recovered.database(), "cho", 30);
        recovered.execute(&p).expect("commits");
        let ix = recovered.indexes();
        let index = ix.find("accounts", &[1]).expect("index");
        assert_eq!(index.len(), 3);
        let fresh =
            mera_txn::HashIndex::build(recovered.database().relation("accounts").unwrap(), &[1])
                .expect("builds");
        let key = mera_core::tuple!["cho"];
        assert_eq!(index.lookup(&key).unwrap(), fresh.lookup(&key).unwrap());
    }

    #[test]
    fn checkpoint_reseeds_index_declarations() {
        let storage = MemStorage::new();
        let mut durable = open_mem(storage.clone());
        let p = insert_program(durable.database(), "ann", 10);
        durable.execute(&p).expect("commits");
        durable.create_index("accounts", &[1]).expect("creates");
        durable.checkpoint().expect("checkpoint");
        let p = insert_program(durable.database(), "bob", 20);
        durable.execute(&p).expect("commits");
        drop(durable);

        let recovered = open_mem(MemStorage::from_image(storage.image()));
        assert_eq!(
            recovered.index_definitions(),
            vec![("accounts".to_string(), vec![1])]
        );
        let ix = recovered.indexes();
        let index = ix.find("accounts", &[1]).expect("recovered index");
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn keys_survive_reopen_and_keep_enforcing() {
        let storage = MemStorage::new();
        let mut durable = open_mem(storage.clone());
        let p = insert_program(durable.database(), "ann", 10);
        durable.execute(&p).expect("commits");
        durable.declare_key("accounts", &[1]).expect("declares");
        drop(durable);

        let mut recovered = open_mem(MemStorage::from_image(storage.image()));
        assert_eq!(
            recovered.key_definitions(),
            vec![("accounts".to_string(), vec![1])]
        );
        // the recovered constraint keeps enforcing: a duplicate owner
        // aborts, a fresh owner commits
        let p = insert_program(recovered.database(), "ann", 99);
        let err = recovered.execute(&p).expect_err("key violation aborts");
        assert!(err.to_string().contains("accounts"), "{err}");
        let p = insert_program(recovered.database(), "bob", 20);
        recovered.execute(&p).expect("commits");
    }

    #[test]
    fn checkpoint_reseeds_key_declarations() {
        let storage = MemStorage::new();
        let mut durable = open_mem(storage.clone());
        let p = insert_program(durable.database(), "ann", 10);
        durable.execute(&p).expect("commits");
        durable.declare_key("accounts", &[1]).expect("declares");
        durable.checkpoint().expect("checkpoint");
        let p = insert_program(durable.database(), "bob", 20);
        durable.execute(&p).expect("commits");
        drop(durable);

        let mut recovered = open_mem(MemStorage::from_image(storage.image()));
        assert_eq!(
            recovered.key_definitions(),
            vec![("accounts".to_string(), vec![1])]
        );
        let p = insert_program(recovered.database(), "bob", 5);
        assert!(recovered.execute(&p).is_err(), "key still enforced");
    }

    #[test]
    fn violating_key_declaration_leaves_no_durable_trace() {
        let storage = MemStorage::new();
        let mut durable = open_mem(storage.clone());
        for (owner, amount) in [("ann", 10_i64), ("ann", 20)] {
            let p = insert_program(durable.database(), owner, amount);
            durable.execute(&p).expect("commits");
        }
        let before_units = storage.units_written();
        let err = durable
            .declare_key("accounts", &[1])
            .expect_err("existing data violates the key");
        assert!(err.to_string().contains("ann"), "{err}");
        assert_eq!(storage.units_written(), before_units);
        assert!(durable.key_definitions().is_empty());
        // the wider key over both columns installs fine
        durable.declare_key("accounts", &[1, 2]).expect("declares");
    }

    #[test]
    fn recovered_stats_match_live_stats() {
        let storage = MemStorage::new();
        let mut durable = open_mem(storage.clone());
        for (owner, amount) in [("ann", 10_i64), ("bob", 20), ("cho", 30)] {
            let p = insert_program(durable.database(), owner, amount);
            durable.execute(&p).expect("commits");
        }
        let live = durable.stats();
        drop(durable);

        let recovered = open_mem(MemStorage::from_image(storage.image()));
        let stats = recovered.stats();
        assert!(stats.is_current(recovered.database()));
        let live_t = live.get("accounts").expect("live entry");
        let rec_t = stats.get("accounts").expect("recovered entry");
        assert_eq!(rec_t.rows, live_t.rows);
        assert_eq!(rec_t.distinct_rows, live_t.distinct_rows);
        assert_eq!(rec_t.column_distinct(1), live_t.column_distinct(1));
    }

    #[test]
    fn io_failure_on_commit_leaves_memory_unchanged() {
        let storage = MemStorage::new();
        let mut durable = open_mem(storage.clone());
        let before = durable.database().clone();
        storage.set_budget(0);
        let p = insert_program(durable.database(), "ann", 10);
        let err = durable.execute(&p).expect_err("storage is dead");
        assert_eq!(err, StoreError::Crashed);
        assert_eq!(durable.database(), &before);
    }
}
