//! [`ConcurrentDb`]: the durable database — the MVCC transaction engine
//! wired to a shared write-ahead log with cross-client group commit.
//!
//! The paper's §4 database is a sequence of states `D_0 → D_1 → …`, one
//! transition per committed transaction; this front makes that sequence
//! survive process death. Every method takes `&self`: any number of
//! threads (one per client connection, in `mera-server`) execute
//! transactions concurrently against the [`MvccManager`]'s version chain,
//! and the WAL is a shared resource coordinated by a small group-commit
//! protocol:
//!
//! * **Log, then publish, in commit order.** Each committed transaction's
//!   redo frame is produced inside the MVCC commit section (the
//!   `durability` hook of [`MvccManager::try_commit`] runs under the
//!   commit lock, after validation, before publication), so frames are
//!   generated in strictly increasing logical-time order and recovery
//!   replays interleaved histories single-threaded. DDL follows the same
//!   order: validate, log and fsync, then publish.
//! * **Aborts and reads write nothing.** An aborted or read-only
//!   transaction publishes no version: it neither ticks logical time nor
//!   touches the WAL, so the log holds exactly the state transitions.
//! * **[`FsyncPolicy::Always`]** appends and fsyncs the frame right in
//!   the hook — one fsync per commit, fully serialized. This is the
//!   latency-honest baseline.
//! * **[`FsyncPolicy::EveryN`]** is *group commit with
//!   ack-after-durability*: the hook only stages the frame into an
//!   in-memory buffer (so the commit section never waits on the disk),
//!   and the committer then waits on the group. Batching is *natural*:
//!   whenever no flush is in flight the first waiter becomes the
//!   **leader**, writes the whole staged batch with one append and one
//!   fsync, and wakes everyone whose frame it covered. Commits that
//!   arrive while a flush is in flight pile up behind it and ride the
//!   next batch, so group size adapts to concurrency — a lone committer
//!   pays exactly one fsync (no worse than `Always`), while under load
//!   one fsync amortizes across many commits. The `n` is not read; no
//!   transaction is acknowledged until its frame is durable.
//! * **[`FsyncPolicy::Never`]** appends in the hook without syncing —
//!   the OS flushes when it pleases.
//! * **Recovery** ([`ConcurrentDb::open`]) loads the checkpoint snapshot,
//!   truncates the WAL's torn tail and replays the rest; the result seeds
//!   version 0 of the chain. **Checkpoints** run under quiescence, so the
//!   snapshot and the reset WAL describe exactly one version.
//!
//! A storage failure while flushing staged frames is fail-stop: versions
//! for those frames are already published to readers, so the front
//! *poisons* — every later commit and flush fails with the original
//! error — rather than let the in-memory history silently diverge from
//! the durable one. (A failure on the `Always` path aborts just that
//! commit before publication.)

use std::sync::Arc;

use crate::error::{StoreError, StoreResult};
use crate::recovery::{self, view_error, Recovered};
use crate::snapshot::{self, SNAPSHOT_FILE};
use crate::storage::Storage;
use crate::wal::{self, WalRecord, WAL_FILE};
use mera_core::prelude::*;
use mera_expr::RelExpr;
use mera_lang::{lower_script, parse_script, program_to_xra, rel_to_xra, RunResult};
use mera_txn::mvcc::{MvccManager, Version};
use mera_txn::{
    AbortReason, ConstraintSet, DeclareKeyError, ExecConfig, Outcome, Outputs, Program,
};
use parking_lot::{Condvar, Mutex};

/// When the WAL file is flushed to stable storage.
///
/// The policy trades commit latency against the window of acknowledged
/// transactions a crash can lose. It only affects real-file backends; the
/// in-memory fault-injecting backend treats every written byte as durable
/// so crash tests stay deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Append and fsync every commit record inside the commit section.
    /// No acknowledged commit is ever lost; one fsync per commit.
    Always,
    /// Group commit with acknowledgement after durability: a commit is
    /// acknowledged only once its record is fsynced, and one fsync covers
    /// every commit staged while the previous flush ran. No acknowledged
    /// commit is ever lost. The group size adapts to concurrency; `n` is
    /// not read.
    EveryN(u32),
    /// Never fsync the WAL from the commit path (the OS flushes when it
    /// pleases). Fastest; a crash may lose any commit since the last
    /// checkpoint.
    Never,
}

/// Configuration for a [`ConcurrentDb`].
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

/// Group-commit bookkeeping: frames staged but not yet written, and the
/// durable horizon acks wait on. Tickets are per-frame sequence numbers
/// issued in commit order.
#[derive(Default)]
struct Group {
    /// Encoded frames staged in commit order, awaiting the next leader.
    staged: Vec<u8>,
    /// Tickets issued (frames staged or directly appended).
    appended: u64,
    /// Tickets durable on disk.
    durable: u64,
    /// A leader is currently writing a batch.
    flushing: bool,
    /// First storage error seen while flushing published commits; once
    /// set, the front is fail-stop.
    poisoned: Option<StoreError>,
}

/// A durable database: MVCC snapshots over the version chain, shared-WAL
/// group commit underneath. All methods take `&self`; the intended use is
/// one `Arc<ConcurrentDb>` shared by every client session.
pub struct ConcurrentDb<S: Storage> {
    mvcc: MvccManager,
    storage: Mutex<S>,
    group: Mutex<Group>,
    group_cv: Condvar,
    options: StoreOptions,
}

impl<S: Storage> std::fmt::Debug for ConcurrentDb<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentDb")
            .field("time", &self.mvcc.time())
            .field("fsync", &self.options.fsync)
            .finish_non_exhaustive()
    }
}

impl<S: Storage> ConcurrentDb<S> {
    /// Opens (or creates) a durable database in `storage`.
    ///
    /// With no prior files this initializes a fresh database over
    /// `initial_schema` and logs one `Declare` record per relation. With
    /// prior files it runs recovery — snapshot restore, torn-tail
    /// truncation, then single-threaded replay of the WAL (interleaved
    /// histories were logged in commit order) — and `initial_schema` is
    /// ignored: the files are the source of truth. Either way the result
    /// seeds version 0 of the MVCC chain.
    pub fn open(
        mut storage: S,
        initial_schema: DatabaseSchema,
        options: StoreOptions,
    ) -> StoreResult<Self> {
        let Recovered {
            db,
            views,
            stats,
            indexes,
            keys,
        } = recovery::recover(&mut storage, initial_schema, options.exec)?;
        let mvcc = MvccManager::from_parts(
            db,
            views,
            stats,
            indexes,
            keys,
            options.exec,
            ConstraintSet::new(),
        );
        Ok(ConcurrentDb {
            mvcc,
            storage: Mutex::new(storage),
            group: Mutex::new(Group::default()),
            group_cv: Condvar::new(),
            options,
        })
    }

    /// The MVCC manager — for direct `prepare`/`try_commit` use and for
    /// tests that need version-level access.
    pub fn mvcc(&self) -> &MvccManager {
        &self.mvcc
    }

    /// Pins the newest published version for lock-free reading.
    pub fn pin(&self) -> Arc<Version> {
        self.mvcc.pin()
    }

    /// The store options this database was opened with.
    pub fn options(&self) -> &StoreOptions {
        &self.options
    }

    /// Runs one transaction to its typed outcome: committed outputs, or
    /// an abort reason ([`AbortReason::Conflict`] tells a caller the
    /// retry is worthwhile). Storage failures are errors; an
    /// acknowledged commit is durable per the fsync policy.
    pub fn try_execute(&self, program: &Program) -> StoreResult<Outcome> {
        let start = self.mvcc.pin();
        let prepared = match self.mvcc.prepare(start, program) {
            Ok(p) => p,
            Err(reason) => return Ok(Outcome::Aborted(reason)),
        };
        if prepared.is_read_only() {
            let (outcome, _) = self.mvcc.try_commit::<StoreError>(prepared, |_| Ok(()))?;
            return Ok(outcome);
        }
        let text = program_to_xra(program);
        match self.options.fsync {
            FsyncPolicy::Always => {
                let (outcome, _) = self.mvcc.try_commit(prepared, |time| {
                    self.append_direct(&commit_frame(time, &text), true)
                })?;
                Ok(outcome)
            }
            FsyncPolicy::Never => {
                let (outcome, _) = self.mvcc.try_commit(prepared, |time| {
                    self.append_direct(&commit_frame(time, &text), false)
                })?;
                Ok(outcome)
            }
            FsyncPolicy::EveryN(_) => {
                let mut ticket = None;
                let (outcome, _) = self.mvcc.try_commit(prepared, |time| {
                    ticket = Some(self.stage(&commit_frame(time, &text))?);
                    Ok::<(), StoreError>(())
                })?;
                if let Some(ticket) = ticket {
                    self.await_durable(ticket)?;
                }
                Ok(outcome)
            }
        }
    }

    /// Runs one transaction with durable commit; aborts (including
    /// conflicts) surface as [`StoreError::TransactionAborted`].
    pub fn execute(&self, program: &Program) -> StoreResult<Outputs> {
        match self.try_execute(program)? {
            Outcome::Committed(outputs) => Ok(outputs),
            Outcome::Aborted(reason) => Err(StoreError::TransactionAborted(reason.to_string())),
        }
    }

    /// Appends one frame under the storage lock, optionally fsyncing —
    /// the `Always`/`Never` commit hook and runs inside the MVCC commit
    /// section, so tickets stay in commit order.
    fn append_direct(&self, frame: &[u8], sync: bool) -> StoreResult<()> {
        let mut group = self.group.lock();
        if let Some(e) = &group.poisoned {
            return Err(e.clone());
        }
        // staged frames (left over from a policy that staged, or a
        // future mixed mode) must precede this one
        debug_assert!(group.staged.is_empty());
        let mut storage = self.storage.lock();
        storage.append(WAL_FILE, frame)?;
        if sync {
            storage.sync(WAL_FILE)?;
        }
        drop(storage);
        group.appended += 1;
        group.durable = group.appended;
        Ok(())
    }

    /// Stages one frame for the next group flush; returns the ticket the
    /// committer must wait on. Runs inside the MVCC commit section —
    /// memory-only, so commits never wait on the disk here.
    fn stage(&self, frame: &[u8]) -> StoreResult<u64> {
        let mut group = self.group.lock();
        if let Some(e) = &group.poisoned {
            return Err(e.clone());
        }
        group.staged.extend_from_slice(frame);
        group.appended += 1;
        let ticket = group.appended;
        drop(group);
        // wake waiters: a parked committer can now lead a bigger batch
        self.group_cv.notify_all();
        Ok(ticket)
    }

    /// Blocks until `ticket` is durable (or the front is poisoned).
    /// Natural batching: whenever no flush is in flight, the first
    /// waiter becomes the leader and writes the whole staged batch.
    /// A lone committer therefore flushes immediately (no added
    /// latency over `Always`), while under load commits pile up behind
    /// the in-flight fsync and the next leader writes them as one
    /// batch — group size adapts to concurrency by itself.
    fn await_durable(&self, ticket: u64) -> StoreResult<()> {
        let mut group = self.group.lock();
        loop {
            if let Some(e) = &group.poisoned {
                return Err(e.clone());
            }
            if group.durable >= ticket {
                return Ok(());
            }
            if !group.flushing {
                // become the leader: take the batch, write it outside
                // the group lock so staging continues meanwhile
                group.flushing = true;
                let batch = std::mem::take(&mut group.staged);
                let target = group.appended;
                drop(group);
                let result = {
                    let mut storage = self.storage.lock();
                    storage
                        .append(WAL_FILE, &batch)
                        .and_then(|()| storage.sync(WAL_FILE))
                };
                group = self.group.lock();
                group.flushing = false;
                match result {
                    Ok(()) => group.durable = group.durable.max(target),
                    Err(e) => {
                        // published-but-not-durable commits exist now:
                        // fail-stop
                        group.poisoned = Some(e);
                    }
                }
                self.group_cv.notify_all();
                continue;
            }
            self.group_cv.wait(&mut group);
        }
    }

    /// Flushes (and fsyncs) any staged frames, then optionally appends
    /// `record` in the same durable step. Used by DDL hooks (which run
    /// under the MVCC commit lock, so no new frames can be staged while
    /// this runs) and by [`ConcurrentDb::sync`].
    fn drain_and_append(&self, record: Option<&WalRecord>) -> StoreResult<()> {
        let mut group = self.group.lock();
        while group.flushing {
            self.group_cv.wait(&mut group);
        }
        if let Some(e) = &group.poisoned {
            return Err(e.clone());
        }
        let batch = std::mem::take(&mut group.staged);
        let target = group.appended;
        let mut storage = self.storage.lock();
        let result = (|| {
            if !batch.is_empty() {
                storage.append(WAL_FILE, &batch)?;
            }
            if let Some(record) = record {
                storage.append(WAL_FILE, &record.encode_frame())?;
            }
            storage.sync(WAL_FILE)
        })();
        drop(storage);
        match result {
            Ok(()) => {
                group.durable = group.durable.max(target);
                drop(group);
                self.group_cv.notify_all();
                Ok(())
            }
            Err(e) => {
                if batch.is_empty() {
                    // only the new record was at risk; the caller's DDL
                    // simply fails before publication
                    Err(e)
                } else {
                    // staged frames belong to published commits
                    group.poisoned = Some(e.clone());
                    drop(group);
                    self.group_cv.notify_all();
                    Err(e)
                }
            }
        }
    }

    /// Forces every staged frame to disk (an explicit group flush) —
    /// called on graceful shutdown and before checkpoints.
    pub fn sync(&self) -> StoreResult<()> {
        self.drain_and_append(None)
    }

    /// Declares a new relation, durably: validated against the newest
    /// version, logged and fsynced, then published as a DDL version.
    pub fn add_relation(&self, rs: RelationSchema) -> StoreResult<()> {
        let record = WalRecord::Declare {
            name: rs.name.clone(),
            schema: rs.schema.as_ref().clone(),
        };
        self.mvcc
            .add_relation_with(rs, || self.drain_and_append(Some(&record)))?
            .map_err(StoreError::from)
    }

    /// Creates a materialized view, durably.
    pub fn create_view(&self, name: &str, expr: RelExpr) -> StoreResult<SchemaRef> {
        let record = WalRecord::DeclareView {
            name: name.to_owned(),
            text: rel_to_xra(&expr),
        };
        self.mvcc
            .create_view_with(name, expr, || self.drain_and_append(Some(&record)))?
            .map_err(view_error)
    }

    /// Creates a secondary index, durably.
    pub fn create_index(&self, relation: &str, keys: &[usize]) -> StoreResult<()> {
        let record = WalRecord::DeclareIndex {
            relation: relation.to_owned(),
            keys: keys.to_vec(),
        };
        self.mvcc
            .create_index_with(relation, keys, || self.drain_and_append(Some(&record)))?
            .map_err(StoreError::from)
    }

    /// Declares a key constraint, durably.
    pub fn declare_key(&self, relation: &str, attrs: &[usize]) -> StoreResult<()> {
        let record = WalRecord::DeclareKey {
            relation: relation.to_owned(),
            attrs: attrs.to_vec(),
        };
        self.mvcc
            .declare_key_with(relation, attrs, || self.drain_and_append(Some(&record)))?
            .map_err(|e| match e {
                DeclareKeyError::Rejected(d) => {
                    StoreError::Core(CoreError::TypeError(d.to_string()))
                }
                DeclareKeyError::Error(c) => StoreError::Core(c),
            })
    }

    /// Writes a checkpoint under quiescence: no commit can publish (or
    /// stage a frame) while the snapshot is taken, so the snapshot and
    /// the reset WAL describe exactly one version.
    pub fn checkpoint(&self) -> StoreResult<()> {
        self.mvcc.quiesce(|version| {
            self.drain_and_append(None)?;
            let bytes = snapshot::encode(version.database());
            let mut storage = self.storage.lock();
            storage.replace_atomic(SNAPSHOT_FILE, &bytes)?;
            let mut wal_bytes = wal::empty_wal();
            for v in version.views().iter() {
                let record = WalRecord::DeclareView {
                    name: v.name().to_owned(),
                    text: rel_to_xra(v.expr()),
                };
                wal_bytes.extend_from_slice(&record.encode_frame());
            }
            for (relation, keys) in version.indexes().definitions() {
                let record = WalRecord::DeclareIndex { relation, keys };
                wal_bytes.extend_from_slice(&record.encode_frame());
            }
            for (relation, attrs) in version.keys().definitions() {
                let record = WalRecord::DeclareKey { relation, attrs };
                wal_bytes.extend_from_slice(&record.encode_frame());
            }
            storage.replace_atomic(WAL_FILE, &wal_bytes)?;
            Ok(())
        })
    }

    /// Runs a whole XRA script durably: declarations, views and keys are
    /// logged and published in order, then each transaction commits
    /// through the WAL. Returns one [`RunResult`] per transaction — a
    /// failing transaction aborts itself, not the script. Storage
    /// failures *do* abort the script: whatever committed before the
    /// failure is durable, the rest never ran.
    pub fn run_script(&self, src: &str) -> StoreResult<Vec<RunResult>> {
        let script = parse_script(src).map_err(StoreError::from)?;
        let lowered =
            lower_script(&script, &self.pin().catalog_schema()).map_err(StoreError::from)?;
        for decl in lowered.declarations {
            self.add_relation(decl)?;
        }
        for view in lowered.views {
            self.create_view(&view.name, view.expr)?;
        }
        for key in lowered.keys {
            self.declare_key(&key.relation, &key.attrs)?;
        }
        let mut results = Vec::with_capacity(lowered.transactions.len());
        for program in &lowered.transactions {
            results.push(match self.try_execute(program)? {
                Outcome::Committed(outputs) => RunResult::Committed(outputs.queries),
                Outcome::Aborted(reason) => RunResult::Aborted(reason.to_string()),
            });
        }
        Ok(results)
    }

    /// Parses, translates and durably runs one SQL statement. Returns the
    /// result relation for queries, `None` for DML and DDL. A committed
    /// statement is in the WAL (durable per the fsync policy) before this
    /// returns.
    pub fn run_sql(&self, sql: &str) -> StoreResult<Option<Relation>> {
        let stmt = mera_sql::parse_sql(sql).map_err(StoreError::from)?;
        let catalog = self.pin().catalog_schema();
        let translated = mera_sql::translate(&stmt, &catalog).map_err(StoreError::from)?;
        match translated {
            mera_sql::Translated::CreateView { name, expr } => {
                self.create_view(&name, expr)?;
                Ok(None)
            }
            mera_sql::Translated::CreateTable { schema, keys } => {
                let name = schema.name.clone();
                self.add_relation(schema)?;
                for attrs in keys {
                    self.declare_key(&name, &attrs)?;
                }
                Ok(None)
            }
            other => {
                let is_query = matches!(other, mera_sql::Translated::Query(_));
                let program = Program::single(other.into_statement());
                let mut outputs = self.execute(&program)?;
                if is_query {
                    Ok(Some(outputs.queries.remove(0)))
                } else {
                    Ok(None)
                }
            }
        }
    }
}

/// Encodes one commit frame (logical time + program text).
fn commit_frame(time: LogicalTime, text: &str) -> Vec<u8> {
    WalRecord::Commit {
        time,
        text: text.to_owned(),
    }
    .encode_frame()
}

/// Returns true when the abort reason is a write-write conflict worth
/// retrying against a newer snapshot.
pub fn is_conflict(outcome: &Outcome) -> bool {
    matches!(outcome, Outcome::Aborted(AbortReason::Conflict { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use mera_lang::{parse_program, Lowerer};

    fn schema() -> DatabaseSchema {
        DatabaseSchema::new()
            .with(
                "accounts",
                Schema::named(&[("owner", DataType::Str), ("balance", DataType::Int)]),
            )
            .expect("fresh schema")
    }

    fn open(storage: MemStorage, fsync: FsyncPolicy) -> ConcurrentDb<MemStorage> {
        let options = StoreOptions {
            fsync,
            ..StoreOptions::default()
        };
        ConcurrentDb::open(storage, schema(), options).expect("open")
    }

    fn insert_program(db: &ConcurrentDb<MemStorage>, owner: &str, balance: i64) -> Program {
        let text = format!("insert(accounts, values (str, int) {{('{owner}', {balance})}})");
        let parsed = parse_program(&text).expect("parses");
        let catalog = db.pin().catalog_schema();
        let mut lowerer = Lowerer::new(&catalog);
        lowerer.lower_program(&parsed).expect("lowers")
    }

    #[test]
    fn commits_recover_on_reopen() {
        let storage = MemStorage::new();
        let db = open(storage.clone(), FsyncPolicy::Always);
        db.execute(&insert_program(&db, "ann", 10))
            .expect("commits");
        db.execute(&insert_program(&db, "bob", 20))
            .expect("commits");
        let expected = db.pin().database().clone();
        drop(db);

        let recovered = open(MemStorage::from_image(storage.image()), FsyncPolicy::Always);
        assert_eq!(recovered.pin().database(), &expected);
    }

    #[test]
    fn group_commit_is_durable_when_acknowledged() {
        let storage = MemStorage::new();
        let db = open(storage.clone(), FsyncPolicy::EveryN(8));
        // single-threaded: each commit waits out the group window and
        // leads its own flush — slower, but every ack means durable
        db.execute(&insert_program(&db, "ann", 10))
            .expect("commits");
        let expected = db.pin().database().clone();
        drop(db);

        let recovered = open(MemStorage::from_image(storage.image()), FsyncPolicy::Always);
        assert_eq!(recovered.pin().database(), &expected);
    }

    #[test]
    fn group_commit_batches_fsyncs_across_threads() {
        let storage = MemStorage::new();
        let db = Arc::new(open(storage.clone(), FsyncPolicy::EveryN(4)));
        let syncs_before = storage.sync_count();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    // all writers touch the same unkeyed relation, so
                    // first-committer-wins aborts the laggards: retry
                    let p = insert_program(&db, &format!("owner{i}"), i);
                    loop {
                        match db.try_execute(&p).expect("io ok") {
                            Outcome::Committed(_) => break,
                            o if is_conflict(&o) => continue,
                            o => panic!("unexpected abort: {o:?}"),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("joins");
        }
        let syncs = storage.sync_count() - syncs_before;
        assert!(syncs <= 8, "8 commits should not need more than 8 fsyncs");
        assert_eq!(db.pin().database().relation("accounts").unwrap().len(), 8);
        drop(db);

        let recovered = open(MemStorage::from_image(storage.image()), FsyncPolicy::Always);
        assert_eq!(
            recovered
                .pin()
                .database()
                .relation("accounts")
                .unwrap()
                .len(),
            8
        );
    }

    #[test]
    fn conflicting_writers_get_typed_aborts_and_recovery_matches() {
        let storage = MemStorage::new();
        let db = open(storage.clone(), FsyncPolicy::Always);
        db.execute(&insert_program(&db, "ann", 10))
            .expect("commits");
        // two prepared writers on the same (unkeyed) relation: first
        // committer wins, the second gets a typed conflict
        let start = db.mvcc().pin();
        let p1 = db
            .mvcc()
            .prepare(Arc::clone(&start), &insert_program(&db, "bob", 20))
            .expect("prepares");
        let p2 = db
            .mvcc()
            .prepare(start, &insert_program(&db, "cho", 30))
            .expect("prepares");
        let (o1, _) = db
            .mvcc()
            .try_commit(p1, |time| {
                db.append_direct(
                    &commit_frame(time, "insert(accounts, values (str, int) {('bob', 20)})"),
                    true,
                )
            })
            .expect("io ok");
        assert!(o1.is_committed());
        let (o2, _) = db
            .mvcc()
            .try_commit::<StoreError>(p2, |_| unreachable!("validation fails first"))
            .expect("io ok");
        assert!(is_conflict(&o2), "{o2:?}");
        let expected = db.pin().database().clone();
        drop(db);

        let recovered = open(MemStorage::from_image(storage.image()), FsyncPolicy::Always);
        assert_eq!(recovered.pin().database(), &expected);
    }

    #[test]
    fn ddl_and_checkpoint_survive_reopen() {
        let storage = MemStorage::new();
        let db = open(storage.clone(), FsyncPolicy::EveryN(4));
        db.execute(&insert_program(&db, "ann", 10))
            .expect("commits");
        db.declare_key("accounts", &[1]).expect("declares");
        db.create_index("accounts", &[1]).expect("indexes");
        db.run_sql(
            "CREATE MATERIALIZED VIEW totals AS \
             SELECT owner, SUM(balance) FROM accounts GROUP BY owner",
        )
        .expect("view");
        db.checkpoint().expect("checkpoint");
        db.execute(&insert_program(&db, "bob", 20))
            .expect("commits");
        db.sync().expect("flushes");
        let version = db.pin();
        let expected_db = version.database().clone();
        let expected_view = version.views().get("totals").expect("view").data().clone();
        drop(version);
        drop(db);

        let recovered = open(MemStorage::from_image(storage.image()), FsyncPolicy::Always);
        let v = recovered.pin();
        assert_eq!(v.database(), &expected_db);
        assert_eq!(
            v.views().get("totals").expect("view").data(),
            &expected_view
        );
        assert_eq!(
            v.keys().definitions(),
            vec![("accounts".to_string(), vec![1])]
        );
        assert_eq!(
            v.indexes().definitions(),
            vec![("accounts".to_string(), vec![1])]
        );
        // the recovered key still enforces
        let err = recovered
            .execute(&insert_program(&recovered, "ann", 99))
            .expect_err("key violation");
        assert!(err.to_string().contains("accounts"), "{err}");
    }

    #[test]
    fn poisoned_front_fails_stop_after_flush_failure() {
        let storage = MemStorage::new();
        let db = open(storage.clone(), FsyncPolicy::EveryN(2));
        db.execute(&insert_program(&db, "ann", 10))
            .expect("commits");
        storage.set_budget(0);
        let err = db
            .execute(&insert_program(&db, "bob", 20))
            .expect_err("storage dead");
        assert_eq!(err, StoreError::Crashed);
        // fail-stop: later commits see the original poison
        let err = db
            .execute(&insert_program(&db, "cho", 30))
            .expect_err("poisoned");
        assert_eq!(err, StoreError::Crashed);
    }

    #[test]
    fn sql_and_script_front_doors_run_concurrently_safe() {
        let db = open(MemStorage::new(), FsyncPolicy::Never);
        db.run_sql("INSERT INTO accounts VALUES ('ann', 10)")
            .expect("dml");
        let out = db
            .run_sql("SELECT owner FROM accounts WHERE balance >= 5")
            .expect("query")
            .expect("relation");
        assert_eq!(out.len(), 1);
        let results = db
            .run_script("begin insert(accounts, values (str, int) {('bob', 7)}); end")
            .expect("script");
        assert!(matches!(results[0], RunResult::Committed(_)));
        assert_eq!(db.pin().database().relation("accounts").unwrap().len(), 2);
    }

    #[test]
    fn duplicate_view_name_keeps_its_typed_error() {
        let storage = MemStorage::new();
        let db = open(storage.clone(), FsyncPolicy::Always);
        let before_units = storage.units_written();
        let err = db
            .create_view("accounts", RelExpr::scan("accounts"))
            .expect_err("the name belongs to a base relation");
        assert!(
            matches!(err, StoreError::Core(CoreError::DuplicateRelation(_))),
            "{err:?}"
        );
        assert_eq!(storage.units_written(), before_units);
        assert!(db.pin().views().is_empty());
    }

    fn open_empty(storage: MemStorage) -> ConcurrentDb<MemStorage> {
        ConcurrentDb::open(storage, DatabaseSchema::new(), StoreOptions::default()).expect("open")
    }

    fn reopen(storage: &MemStorage) -> ConcurrentDb<MemStorage> {
        open_empty(MemStorage::from_image(storage.image()))
    }

    fn view(db: &ConcurrentDb<MemStorage>, name: &str) -> Relation {
        db.pin()
            .views()
            .get(name)
            .map(|v| v.data().clone())
            .expect("view exists")
    }

    #[test]
    fn script_declarations_and_commits_survive_reopen() {
        let storage = MemStorage::new();
        let db = open_empty(storage.clone());
        let results = db
            .run_script(
                "relation beer (name: str, alcperc: int);\n\
                 begin insert(beer, values (str, int) {('Grolsch', 5)}); end\n\
                 begin ?project[%1](beer); end",
            )
            .expect("script runs");
        assert_eq!(results.len(), 2);
        assert!(matches!(results[0], RunResult::Committed(_)));
        let expected = db.pin().database().clone();
        drop(db);

        let recovered = reopen(&storage);
        assert_eq!(recovered.pin().database(), &expected);
        assert_eq!(
            recovered
                .pin()
                .database()
                .relation("beer")
                .expect("declared")
                .len(),
            1
        );
    }

    #[test]
    fn script_views_are_durable() {
        let storage = MemStorage::new();
        let db = open_empty(storage.clone());
        db.run_script(
            "relation sales (region: str, amount: int);\n\
             view totals = groupby[(region), SUM, amount](sales);\n\
             insert(sales, values (str, int) {('north', 10), ('south', 7)});\n\
             ?totals;",
        )
        .expect("script runs");
        let expected = view(&db, "totals");
        assert_eq!(
            expected.multiplicity(&mera_core::tuple!["north", 10_i64]),
            1
        );
        drop(db);

        assert_eq!(view(&reopen(&storage), "totals"), expected);
    }

    #[test]
    fn sql_views_are_durable() {
        let storage = MemStorage::new();
        let schema = DatabaseSchema::new()
            .with(
                "beer",
                Schema::named(&[("name", DataType::Str), ("alcperc", DataType::Int)]),
            )
            .expect("fresh");
        let db =
            ConcurrentDb::open(storage.clone(), schema, StoreOptions::default()).expect("open");
        db.run_sql("INSERT INTO beer VALUES ('Grolsch', 5), ('Bock', 7)")
            .expect("dml");
        db.run_sql("CREATE MATERIALIZED VIEW strong AS SELECT name FROM beer WHERE alcperc > 6")
            .expect("creates view");
        db.run_sql("INSERT INTO beer VALUES ('Tripel', 8)")
            .expect("dml");
        let out = db
            .run_sql("SELECT * FROM strong")
            .expect("query")
            .expect("relation");
        assert_eq!(out.len(), 2);
        drop(db);

        assert_eq!(view(&reopen(&storage), "strong").len(), 2);
    }

    #[test]
    fn stacked_views_are_durable_and_cascade_after_reopen() {
        let storage = MemStorage::new();
        let db = open_empty(storage.clone());
        // `strong` scans a base relation; `count_strong` scans `strong`
        db.run_script(
            "relation beer (name: str, alcperc: int);\n\
             view strong = select[%2 > 5](beer);\n\
             view count_strong = groupby[(), CNT, %1](strong);\n\
             insert(beer, values (str, int) {('Grolsch', 5), ('Bock', 7)});",
        )
        .expect("script runs");
        assert_eq!(
            view(&db, "count_strong").multiplicity(&mera_core::tuple![1_i64]),
            1
        );
        drop(db);

        // recovery rebuilds both layers in declaration order…
        let recovered = reopen(&storage);
        assert_eq!(
            view(&recovered, "count_strong").multiplicity(&mera_core::tuple![1_i64]),
            1
        );
        // …and post-recovery writes still cascade through the stack
        recovered
            .run_script("insert(beer, values (str, int) {('Tripel', 8)});")
            .expect("script runs");
        assert_eq!(
            view(&recovered, "count_strong").multiplicity(&mera_core::tuple![2_i64]),
            1
        );
    }

    #[test]
    fn sql_views_on_views_are_durable() {
        let storage = MemStorage::new();
        let db = open_empty(storage.clone());
        db.run_sql("CREATE TABLE beer (name TEXT, alcperc INT)")
            .expect("ddl");
        db.run_sql("INSERT INTO beer VALUES ('Grolsch', 5), ('Bock', 7), ('Tripel', 8)")
            .expect("dml");
        db.run_sql(
            "CREATE MATERIALIZED VIEW strong AS SELECT name, alcperc FROM beer WHERE alcperc > 6",
        )
        .expect("first view");
        db.run_sql(
            "CREATE MATERIALIZED VIEW strongest AS SELECT name FROM strong WHERE alcperc > 7",
        )
        .expect("view on view");
        assert_eq!(view(&db, "strongest").len(), 1);
        drop(db);

        let recovered = reopen(&storage);
        assert_eq!(view(&recovered, "strongest").len(), 1);
        recovered
            .run_sql("INSERT INTO beer VALUES ('Quad', 10)")
            .expect("dml");
        assert_eq!(view(&recovered, "strongest").len(), 2);
    }

    #[test]
    fn script_keys_are_durable_and_enforced() {
        let storage = MemStorage::new();
        let db = open_empty(storage.clone());
        let results = db
            .run_script(
                "relation acct (id: int, owner: str);\n\
                 key acct (%1);\n\
                 begin insert(acct, values (int, str) {(1, 'ann')}); end\n\
                 begin insert(acct, values (int, str) {(1, 'bob')}); end",
            )
            .expect("script runs");
        assert!(matches!(results[0], RunResult::Committed(_)));
        assert!(
            matches!(results[1], RunResult::Aborted(_)),
            "duplicate key must abort: {:?}",
            results[1]
        );
        drop(db);

        let results = reopen(&storage)
            .run_script("begin insert(acct, values (int, str) {(1, 'eve')}); end")
            .expect("script runs");
        assert!(
            matches!(results[0], RunResult::Aborted(_)),
            "key declaration must survive reopen: {:?}",
            results[0]
        );
    }

    #[test]
    fn sql_unique_keys_are_durable_and_enforced() {
        let storage = MemStorage::new();
        let db = open_empty(storage.clone());
        db.run_sql("CREATE TABLE member (id INT PRIMARY KEY, email TEXT UNIQUE)")
            .expect("creates table");
        db.run_sql("INSERT INTO member VALUES (1, 'ann@x')")
            .expect("dml");
        let err = db
            .run_sql("INSERT INTO member VALUES (2, 'ann@x')")
            .unwrap_err();
        assert!(
            matches!(err, StoreError::TransactionAborted(_)),
            "UNIQUE violation must abort: {err}"
        );
        drop(db);

        let recovered = reopen(&storage);
        assert_eq!(
            recovered
                .pin()
                .database()
                .relation("member")
                .expect("t")
                .len(),
            1
        );
        let err = recovered
            .run_sql("INSERT INTO member VALUES (3, 'ann@x')")
            .unwrap_err();
        assert!(
            matches!(err, StoreError::TransactionAborted(_)),
            "UNIQUE key must survive reopen: {err}"
        );
        recovered
            .run_sql("INSERT INTO member VALUES (3, 'bob@x')")
            .expect("distinct ok");
    }

    #[test]
    fn sql_dml_is_durable_and_queries_read_it() {
        let storage = MemStorage::new();
        let schema = DatabaseSchema::new()
            .with(
                "beer",
                Schema::named(&[("name", DataType::Str), ("alcperc", DataType::Int)]),
            )
            .expect("fresh");
        let db =
            ConcurrentDb::open(storage.clone(), schema, StoreOptions::default()).expect("open");
        assert!(db
            .run_sql("INSERT INTO beer VALUES ('Grolsch', 5)")
            .expect("dml")
            .is_none());
        let out = db
            .run_sql("SELECT name FROM beer WHERE alcperc >= 5")
            .expect("query")
            .expect("relation");
        assert_eq!(out.len(), 1);
        let expected = db.pin().database().clone();
        drop(db);

        assert_eq!(reopen(&storage).pin().database(), &expected);
    }
}
