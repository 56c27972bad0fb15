//! Multi-version concurrency control over the paper's logical-time axis.
//!
//! The paper (§2.3) already orders database states along a logical time
//! axis: a transaction maps `D_t` to `D_{t+1}`. This module makes that
//! axis concrete as a **version chain**: every committed state is
//! published as an immutable [`Version`] (base relations, materialized
//! views, statistics, indexes and key constraints — the full catalog a
//! reader needs), and any number of readers evaluate against a pinned
//! version without taking any lock beyond the `Arc` clone that pins it.
//!
//! Writers run **optimistically** (OCC, snapshot isolation):
//!
//! 1. [`MvccManager::prepare`] executes the program against a pinned
//!    snapshot, accumulating the same signed ℤ-multiplicity deltas
//!    (PR 7's [`SignedBag`] machinery) that drive view/statistics/index
//!    maintenance. No shared state is touched.
//! 2. [`MvccManager::try_commit`] takes the (short) commit lock and
//!    validates **first-committer-wins**: if any transaction committed
//!    since the snapshot wrote an overlapping relation — or, on keyed
//!    relations, an overlapping *key point* — the writer aborts with the
//!    typed [`AbortReason::Conflict`] and can simply retry. A validated
//!    writer's deltas are folded into the newest version (the algebraic
//!    footing: a transaction *is* its signed delta, and disjoint deltas
//!    commute in the ℤ-semiring), the catalog objects fold the same
//!    deltas exactly like the serial path, and the result is published
//!    as the next version.
//!
//! Read-only programs never enter the commit section at all: their
//! outputs are complete once evaluated against the snapshot, so they
//! neither tick logical time nor create versions — this is what lets
//! read throughput scale with reader count while writers proceed.
//!
//! A `durability` hook runs inside the commit section after validation
//! and before publication; the store layer uses it to append the WAL
//! record so that log order equals commit order (see
//! `mera-store`'s `ConcurrentDb`).

use std::collections::{BTreeMap, VecDeque};
use std::convert::Infallible;
use std::sync::Arc;

use mera_core::prelude::*;
use mera_eval::{IndexSet, KeySet};
use mera_expr::rel::RelExpr;
use mera_opt::CatalogStats;
use parking_lot::{Mutex, RwLock};
use rustc_hash::FxHashSet;

use crate::constraints::ConstraintSet;
use crate::exec::{
    analyze_program_with_views, execute_statement, ExecConfig, Outputs, WorkingState,
};
use crate::statement::Program;
use crate::transaction::{key_violation_diagnostic, AbortReason, DeclareKeyError, Outcome};
use crate::views::{CreateViewError, DeltaMap, TupleDelta, ViewSet};

/// One immutable committed state: the paper's `D_t` plus the derived
/// catalog objects that describe it. Readers pin a version with an `Arc`
/// clone and evaluate against it for as long as they like — published
/// versions are never mutated.
pub struct Version {
    /// Monotone publication counter. Distinct from logical time because
    /// DDL (new relations, views, indexes, keys) publishes a new version
    /// without ticking the transaction clock.
    seq: u64,
    db: Database,
    views: ViewSet,
    stats: Arc<CatalogStats>,
    indexes: Arc<IndexSet>,
    keys: Arc<KeySet>,
}

impl Version {
    /// The logical time of this committed state.
    pub fn time(&self) -> LogicalTime {
        self.db.time()
    }

    /// The publication sequence number (DDL publishes without ticking
    /// logical time, so this is the strictly-increasing version key).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The base relations.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The materialized views as of this version.
    pub fn views(&self) -> &ViewSet {
        &self.views
    }

    /// The table statistics as of this version.
    pub fn stats(&self) -> &Arc<CatalogStats> {
        &self.stats
    }

    /// The secondary indexes as of this version.
    pub fn indexes(&self) -> &Arc<IndexSet> {
        &self.indexes
    }

    /// The key constraints as of this version.
    pub fn keys(&self) -> &Arc<KeySet> {
        &self.keys
    }

    /// The database schema extended with every view's schema — what user
    /// text (SQL, XRA) resolves names against at this version.
    pub fn catalog_schema(&self) -> DatabaseSchema {
        let mut schema = self.db.schema().clone();
        for v in self.views.iter() {
            let _ = schema.add(RelationSchema::new(
                v.name().to_owned(),
                v.schema().as_ref().clone(),
            ));
        }
        schema
    }

    /// The transaction's starting state `D_t.0`. Every relation and
    /// catalog object is shared with this version; a statement copies a
    /// relation's bag on its first write to it, so a transaction costs
    /// what it touches, not the size of the database.
    fn working_state(&self) -> WorkingState {
        WorkingState::with_catalog(
            self.db.clone(),
            &self.views,
            Some(Arc::clone(&self.stats)),
            Some(Arc::clone(&self.indexes)),
            Some(Arc::clone(&self.keys)),
        )
    }
}

impl std::fmt::Debug for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Version")
            .field("seq", &self.seq)
            .field("time", &self.db.time())
            .field("relations", &self.db.schema().len())
            .finish_non_exhaustive()
    }
}

/// What one commit wrote, at the granularity conflict detection uses:
/// whole relations for unkeyed targets, per-key-point sets (the key
/// projection of every delta tuple) for keyed ones.
#[derive(Debug)]
enum RelWrites {
    /// The relation has no declared key: any concurrent writer to the
    /// same relation conflicts.
    Whole,
    /// Per declared key (sorted 1-based attrs), the touched key points.
    /// Two writers to the same relation commute iff their points are
    /// disjoint under every shared key.
    KeyPoints(BTreeMap<Vec<usize>, FxHashSet<Tuple>>),
}

#[derive(Debug, Default)]
struct WriteSet {
    relations: BTreeMap<String, RelWrites>,
}

impl WriteSet {
    /// Projects a transaction's deltas through the declared keys of each
    /// touched relation. Any structural surprise degrades to
    /// whole-relation granularity — conservative, never unsound.
    fn of(deltas: &DeltaMap, keys: &KeySet) -> WriteSet {
        let defs = keys.definitions();
        let mut relations = BTreeMap::new();
        for (name, delta) in deltas {
            if delta.is_empty() {
                continue;
            }
            let key_attrs: Vec<&Vec<usize>> = defs
                .iter()
                .filter(|(r, _)| r == name)
                .map(|(_, a)| a)
                .collect();
            let writes = if key_attrs.is_empty() {
                RelWrites::Whole
            } else {
                match Self::project_points(delta, &key_attrs) {
                    Some(points) => RelWrites::KeyPoints(points),
                    None => RelWrites::Whole,
                }
            };
            relations.insert(name.clone(), writes);
        }
        WriteSet { relations }
    }

    fn project_points(
        delta: &TupleDelta,
        key_attrs: &[&Vec<usize>],
    ) -> Option<BTreeMap<Vec<usize>, FxHashSet<Tuple>>> {
        let mut out = BTreeMap::new();
        for attrs in key_attrs {
            let list = AttrList::new_unique((*attrs).clone()).ok()?;
            let mut points = FxHashSet::default();
            let mut resolved: Option<ResolvedAttrs> = None;
            for (t, _) in delta.iter() {
                let r = match &resolved {
                    Some(r) => r,
                    None => {
                        resolved = Some(ResolvedAttrs::from_attr_list(&list, t.arity()).ok()?);
                        resolved.as_ref().expect("just set")
                    }
                };
                points.insert(r.project(t));
            }
            out.insert((*attrs).clone(), points);
        }
        Some(out)
    }

    /// The relations on which two write sets collide.
    fn conflicts_with(&self, other: &WriteSet) -> Vec<String> {
        let mut out = Vec::new();
        for (name, mine) in &self.relations {
            if let Some(theirs) = other.relations.get(name) {
                if Self::overlaps(mine, theirs) {
                    out.push(name.clone());
                }
            }
        }
        out
    }

    fn overlaps(a: &RelWrites, b: &RelWrites) -> bool {
        match (a, b) {
            (RelWrites::Whole, _) | (_, RelWrites::Whole) => true,
            (RelWrites::KeyPoints(x), RelWrites::KeyPoints(y)) => {
                let mut shared_key = false;
                for (attrs, pts) in x {
                    if let Some(q) = y.get(attrs) {
                        shared_key = true;
                        if pts.iter().any(|p| q.contains(p)) {
                            return true;
                        }
                    }
                }
                // no shared key basis (key DDL moved underneath us):
                // conservative conflict
                !shared_key
            }
        }
    }

    fn touched(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }
}

/// The write footprint of one published version, kept for
/// first-committer-wins validation of in-flight snapshots.
struct CommitSummary {
    seq: u64,
    time: LogicalTime,
    writes: WriteSet,
    /// DDL versions (new relation/view/index/key) conflict with every
    /// in-flight writer — coarse, and rare.
    ddl: bool,
}

struct Chain {
    latest: Arc<Version>,
    /// Recently superseded versions, newest last — `as_of` reads.
    history: VecDeque<Arc<Version>>,
    /// Write footprints of recent publications, oldest first.
    summaries: VecDeque<CommitSummary>,
    next_seq: u64,
}

/// An executed-but-uncommitted transaction: the snapshot it ran against,
/// the candidate post-state, its signed deltas and its query outputs.
/// Produced by [`MvccManager::prepare`], consumed by
/// [`MvccManager::try_commit`].
pub struct PreparedTxn {
    start: Arc<Version>,
    db: Database,
    deltas: DeltaMap,
    outputs: Outputs,
}

impl PreparedTxn {
    /// The snapshot this transaction executed against.
    pub fn start(&self) -> &Arc<Version> {
        &self.start
    }

    /// True when the program wrote nothing: its outputs are complete and
    /// no commit section is needed.
    pub fn is_read_only(&self) -> bool {
        self.deltas.values().all(TupleDelta::is_empty)
    }

    /// The relations this transaction wrote.
    pub fn written_relations(&self) -> Vec<String> {
        self.deltas
            .iter()
            .filter(|(_, d)| !d.is_empty())
            .map(|(n, _)| n.clone())
            .collect()
    }
}

/// How many superseded versions and commit summaries the chain retains.
#[derive(Debug, Clone, Copy)]
pub struct MvccOptions {
    /// Superseded full versions kept for [`MvccManager::version_at`]
    /// (`as_of` reads). Pinned readers keep their own versions alive
    /// regardless.
    pub retained_versions: usize,
    /// Commit summaries kept for validation. A writer whose snapshot
    /// predates the oldest retained summary aborts with a conservative
    /// conflict (snapshot too old).
    pub retained_summaries: usize,
}

impl Default for MvccOptions {
    fn default() -> Self {
        MvccOptions {
            retained_versions: 16,
            retained_summaries: 4096,
        }
    }
}

/// The multi-version transaction manager: a chain of immutable versions,
/// lock-free pinned readers, optimistic writers validated
/// first-committer-wins at a short commit section.
pub struct MvccManager {
    chain: RwLock<Chain>,
    /// Serializes the validate-fold-publish commit section (and DDL).
    commit: Mutex<()>,
    config: ExecConfig,
    constraints: ConstraintSet,
    options: MvccOptions,
}

impl MvccManager {
    /// A manager over the initial state of a schema.
    pub fn new(schema: DatabaseSchema) -> Self {
        Self::with_config(schema, ExecConfig::default())
    }

    /// A manager with an explicit execution configuration.
    pub fn with_config(schema: DatabaseSchema, config: ExecConfig) -> Self {
        let db = Database::new(schema);
        let stats = CatalogStats::from_database(&db).expect("catalog relations resolve");
        Self::from_parts(
            db,
            ViewSet::new(),
            Arc::new(stats),
            Arc::new(IndexSet::new()),
            Arc::new(KeySet::new()),
            config,
            ConstraintSet::new(),
        )
    }

    /// A manager seeded from recovered state — the store layer's entry
    /// point after WAL replay.
    pub fn from_parts(
        db: Database,
        views: ViewSet,
        stats: Arc<CatalogStats>,
        indexes: Arc<IndexSet>,
        keys: Arc<KeySet>,
        config: ExecConfig,
        constraints: ConstraintSet,
    ) -> Self {
        let version = Arc::new(Version {
            seq: 0,
            db,
            views,
            stats,
            indexes,
            keys,
        });
        MvccManager {
            chain: RwLock::new(Chain {
                latest: version,
                history: VecDeque::new(),
                summaries: VecDeque::new(),
                next_seq: 1,
            }),
            commit: Mutex::new(()),
            config,
            constraints,
            options: MvccOptions::default(),
        }
    }

    /// Overrides the retention options.
    pub fn with_options(mut self, options: MvccOptions) -> Self {
        self.options = options;
        self
    }

    /// The execution configuration transactions run with.
    pub fn config(&self) -> ExecConfig {
        self.config
    }

    /// Pins the newest published version. O(1); the returned version is
    /// immutable and stays valid for as long as the `Arc` is held.
    pub fn pin(&self) -> Arc<Version> {
        Arc::clone(&self.chain.read().latest)
    }

    /// Pins the newest version with `time() <= time`, if still retained —
    /// the `as_of` read path.
    pub fn version_at(&self, time: LogicalTime) -> Option<Arc<Version>> {
        let chain = self.chain.read();
        if chain.latest.time() <= time {
            return Some(Arc::clone(&chain.latest));
        }
        chain
            .history
            .iter()
            .rev()
            .find(|v| v.time() <= time)
            .map(Arc::clone)
    }

    /// Current logical time (of the newest version).
    pub fn time(&self) -> LogicalTime {
        self.chain.read().latest.time()
    }

    /// Executes a program against a pinned snapshot without committing:
    /// static analysis, statement execution, constraint check and an
    /// early key check all run against the snapshot. No locks are taken
    /// and no shared state is touched.
    pub fn prepare(
        &self,
        start: Arc<Version>,
        program: &Program,
    ) -> Result<PreparedTxn, AbortReason> {
        if self.config.analyze {
            let diags = analyze_program_with_views(&start.db, &start.views, program);
            if mera_analyze::has_errors(&diags) {
                return Err(AbortReason::StaticallyRejected(diags));
            }
        }
        let mut state = start.working_state();
        let mut outputs = Outputs::default();
        for stmt in &program.statements {
            if let Err(e) = execute_statement(&mut state, stmt, self.config, &mut outputs) {
                return Err(AbortReason::Error(e));
            }
        }
        match self.constraints.validate(&state.db) {
            Ok(Ok(())) => {}
            Ok(Err(violation)) => {
                return Err(AbortReason::ConstraintViolation(violation.to_string()));
            }
            Err(e) => return Err(AbortReason::Error(e)),
        }
        // fail fast against the snapshot's keys; the commit section
        // re-checks against the newest version's counts
        for (name, delta) in &state.deltas {
            if delta.is_empty() {
                continue;
            }
            if let Err(v) = start.keys.check(name, delta) {
                return Err(AbortReason::KeyViolation(key_violation_diagnostic(&v)));
            }
        }
        let WorkingState { db, deltas, .. } = state;
        Ok(PreparedTxn {
            start,
            db,
            deltas,
            outputs,
        })
    }

    /// Runs a read-only program against a pinned version. Errors if the
    /// program writes anything — use [`MvccManager::execute`] for that.
    pub fn read(&self, version: &Arc<Version>, program: &Program) -> Result<Outputs, AbortReason> {
        let prepared = self.prepare(Arc::clone(version), program)?;
        if !prepared.is_read_only() {
            return Err(AbortReason::Error(CoreError::TypeError(
                "read path refuses a writing program; commit it as a transaction".to_string(),
            )));
        }
        Ok(prepared.outputs)
    }

    /// Validates and publishes a prepared transaction,
    /// first-committer-wins. The `durability` hook runs inside the commit
    /// section *after* validation and *before* publication, with the
    /// logical time the commit will carry; its error aborts the commit
    /// with nothing published (and nothing to undo).
    ///
    /// Returns the outcome together with the version the caller should
    /// consider newest (the published one on commit, the pre-existing
    /// newest on abort).
    pub fn try_commit<E>(
        &self,
        prepared: PreparedTxn,
        durability: impl FnOnce(LogicalTime) -> Result<(), E>,
    ) -> Result<(Outcome, Arc<Version>), E> {
        let PreparedTxn {
            start,
            db: candidate,
            deltas,
            outputs,
        } = prepared;
        if deltas.values().all(TupleDelta::is_empty) {
            // reads are complete at prepare time: no version, no time tick
            let latest = self.pin();
            return Ok((Outcome::Committed(outputs), latest));
        }
        let guard = self.commit.lock();
        let (latest, next_seq) = {
            let chain = self.chain.read();
            (Arc::clone(&chain.latest), chain.next_seq)
        };
        let writes = WriteSet::of(&deltas, &latest.keys);
        if latest.seq != start.seq {
            if let Some(conflict) = self.validate(&start, &latest, &writes) {
                drop(guard);
                return Ok((Outcome::Aborted(conflict), latest));
            }
        }
        // key re-check against the *newest* counts (other commits may
        // have taken key points since the snapshot)
        for (name, delta) in &deltas {
            if delta.is_empty() {
                continue;
            }
            if let Err(v) = latest.keys.check(name, delta) {
                drop(guard);
                return Ok((
                    Outcome::Aborted(AbortReason::KeyViolation(key_violation_diagnostic(&v))),
                    latest,
                ));
            }
        }
        // fold the deltas into the newest state. When nothing intervened
        // the candidate state *is* the next state; otherwise the deltas
        // commute with the disjoint intervening ones and re-apply.
        let mut next_db = if latest.seq == start.seq {
            candidate
        } else {
            let mut db = latest.db.clone();
            let mut failed = Vec::new();
            for (name, delta) in &deltas {
                if delta.is_empty() {
                    continue;
                }
                if apply_delta(&mut db, name, delta).is_err() {
                    failed.push(name.clone());
                }
            }
            if !failed.is_empty() {
                // a retraction outran the merged base — only possible if
                // granularity was degraded; surface as a conflict
                drop(guard);
                return Ok((
                    Outcome::Aborted(AbortReason::Conflict {
                        relations: failed,
                        committed_at: latest.time(),
                    }),
                    latest,
                ));
            }
            db
        };
        next_db.tick();
        let time = next_db.time();
        // catalog maintenance: the same O(|Δ|) folds as the serial path,
        // but into *clones* — published versions are never mutated. Every
        // catalog object is shared per relation (per table, key, index and
        // view), so a clone copies only what the deltas touch
        let mut stats = Arc::clone(&latest.stats);
        {
            let s = Arc::make_mut(&mut stats);
            for (name, delta) in &deltas {
                if delta.is_empty() {
                    continue;
                }
                if let Ok(post) = next_db.relation(name) {
                    s.apply_commit(name, delta, post);
                }
            }
            s.set_as_of(time);
        }
        let mut indexes = Arc::clone(&latest.indexes);
        {
            let ix = Arc::make_mut(&mut indexes);
            for (name, delta) in &deltas {
                if delta.is_empty() {
                    continue;
                }
                if ix.apply_commit(name, delta).is_err() {
                    let _ = ix.rebuild(&next_db);
                    break;
                }
            }
        }
        let mut keys = Arc::clone(&latest.keys);
        {
            let ks = Arc::make_mut(&mut keys);
            for (name, delta) in &deltas {
                if !delta.is_empty() {
                    ks.apply_commit(name, delta);
                }
            }
        }
        let mut views = latest.views.clone();
        if let Err(e) = views.refresh_after_commit(deltas, &next_db, self.config) {
            // even the full-recompute fallback failed; nothing shared was
            // mutated, so aborting is just dropping the clones
            drop(guard);
            return Ok((Outcome::Aborted(AbortReason::Error(e)), latest));
        }
        durability(time)?;
        let version = Arc::new(Version {
            seq: next_seq,
            db: next_db,
            views,
            stats,
            indexes,
            keys,
        });
        self.publish(
            Arc::clone(&version),
            CommitSummary {
                seq: next_seq,
                time,
                writes,
                ddl: false,
            },
        );
        drop(guard);
        Ok((Outcome::Committed(outputs), version))
    }

    /// First-committer-wins validation of `writes` against everything
    /// published since `start`. `None` means no conflict.
    fn validate(
        &self,
        start: &Arc<Version>,
        latest: &Arc<Version>,
        writes: &WriteSet,
    ) -> Option<AbortReason> {
        let chain = self.chain.read();
        let covered = chain
            .summaries
            .front()
            .is_some_and(|s| s.seq <= start.seq + 1);
        if !covered {
            // intervening commits fell out of the retained window:
            // conservative abort (snapshot too old)
            return Some(AbortReason::Conflict {
                relations: writes.touched(),
                committed_at: latest.time(),
            });
        }
        let mut conflicts = Vec::new();
        let mut committed_at = latest.time();
        for s in chain.summaries.iter().filter(|s| s.seq > start.seq) {
            if s.ddl {
                return Some(AbortReason::Conflict {
                    relations: writes.touched(),
                    committed_at: s.time,
                });
            }
            let overlapping = writes.conflicts_with(&s.writes);
            if !overlapping.is_empty() {
                committed_at = s.time;
                conflicts.extend(overlapping);
            }
        }
        if conflicts.is_empty() {
            None
        } else {
            conflicts.sort_unstable();
            conflicts.dedup();
            Some(AbortReason::Conflict {
                relations: conflicts,
                committed_at,
            })
        }
    }

    /// Installs a new latest version (commit lock must be held).
    fn publish(&self, version: Arc<Version>, summary: CommitSummary) {
        let mut chain = self.chain.write();
        let old = std::mem::replace(&mut chain.latest, version);
        chain.history.push_back(old);
        while chain.history.len() > self.options.retained_versions {
            chain.history.pop_front();
        }
        chain.summaries.push_back(summary);
        while chain.summaries.len() > self.options.retained_summaries {
            chain.summaries.pop_front();
        }
        chain.next_seq += 1;
    }

    /// Pin-prepare-commit in one call (no durability hook): the volatile
    /// front door. Conflicts surface as [`Outcome::Aborted`] with
    /// [`AbortReason::Conflict`]; callers retry at their own cadence.
    pub fn execute(&self, program: &Program) -> (Outcome, Arc<Version>) {
        let start = self.pin();
        match self.prepare(start, program) {
            Err(reason) => (Outcome::Aborted(reason), self.pin()),
            Ok(prepared) => match self.try_commit::<Infallible>(prepared, |_| Ok(())) {
                Ok(result) => result,
                Err(e) => match e {},
            },
        }
    }

    /// Holds the commit section while `f` runs against the newest
    /// version — the store layer's checkpoint barrier: no commit can
    /// publish (or append to the WAL) while the closure runs.
    pub fn quiesce<R>(&self, f: impl FnOnce(&Version) -> R) -> R {
        let _guard = self.commit.lock();
        let latest = Arc::clone(&self.chain.read().latest);
        f(&latest)
    }

    /// Adds a fresh empty relation, publishing a DDL version.
    pub fn add_relation(&self, rs: RelationSchema) -> CoreResult<()> {
        match self.add_relation_with::<Infallible>(rs, || Ok(())) {
            Ok(r) => r,
            Err(e) => match e {},
        }
    }

    /// [`MvccManager::add_relation`] with a durability hook that runs
    /// after validation, before publication.
    pub fn add_relation_with<E>(
        &self,
        rs: RelationSchema,
        durability: impl FnOnce() -> Result<(), E>,
    ) -> Result<CoreResult<()>, E> {
        let _guard = self.commit.lock();
        let (latest, next_seq) = {
            let chain = self.chain.read();
            (Arc::clone(&chain.latest), chain.next_seq)
        };
        let mut db = latest.db.clone();
        if let Err(e) = db.add_relation(rs) {
            return Ok(Err(e));
        }
        // re-anchor statistics so they describe the new (empty) relation
        let stats = match CatalogStats::from_database(&db) {
            Ok(mut fresh) => {
                fresh.set_as_of(db.time());
                Arc::new(fresh)
            }
            Err(_) => Arc::clone(&latest.stats),
        };
        durability()?;
        let time = db.time();
        self.publish(
            Arc::new(Version {
                seq: next_seq,
                db,
                views: latest.views.clone(),
                stats,
                indexes: Arc::clone(&latest.indexes),
                keys: Arc::clone(&latest.keys),
            }),
            CommitSummary {
                seq: next_seq,
                time,
                writes: WriteSet::default(),
                ddl: true,
            },
        );
        Ok(Ok(()))
    }

    /// Creates a materialized view, publishing a DDL version.
    pub fn create_view(&self, name: &str, expr: RelExpr) -> Result<SchemaRef, CreateViewError> {
        match self.create_view_with::<Infallible>(name, expr, || Ok(())) {
            Ok(r) => r,
            Err(e) => match e {},
        }
    }

    /// [`MvccManager::create_view`] with a durability hook.
    pub fn create_view_with<E>(
        &self,
        name: &str,
        expr: RelExpr,
        durability: impl FnOnce() -> Result<(), E>,
    ) -> Result<Result<SchemaRef, CreateViewError>, E> {
        let _guard = self.commit.lock();
        let (latest, next_seq) = {
            let chain = self.chain.read();
            (Arc::clone(&chain.latest), chain.next_seq)
        };
        let mut views = latest.views.clone();
        let schema = match views.create(name, expr, &latest.db, self.config) {
            Ok(s) => s,
            Err(e) => return Ok(Err(e)),
        };
        durability()?;
        let time = latest.time();
        self.publish(
            Arc::new(Version {
                seq: next_seq,
                db: latest.db.clone(),
                views,
                stats: Arc::clone(&latest.stats),
                indexes: Arc::clone(&latest.indexes),
                keys: Arc::clone(&latest.keys),
            }),
            CommitSummary {
                seq: next_seq,
                time,
                writes: WriteSet::default(),
                ddl: true,
            },
        );
        Ok(Ok(schema))
    }

    /// Creates a secondary index, publishing a DDL version.
    pub fn create_index(&self, relation: &str, keys: &[usize]) -> CoreResult<()> {
        match self.create_index_with::<Infallible>(relation, keys, || Ok(())) {
            Ok(r) => r,
            Err(e) => match e {},
        }
    }

    /// [`MvccManager::create_index`] with a durability hook.
    pub fn create_index_with<E>(
        &self,
        relation: &str,
        keys: &[usize],
        durability: impl FnOnce() -> Result<(), E>,
    ) -> Result<CoreResult<()>, E> {
        let _guard = self.commit.lock();
        let (latest, next_seq) = {
            let chain = self.chain.read();
            (Arc::clone(&chain.latest), chain.next_seq)
        };
        let mut indexes = Arc::clone(&latest.indexes);
        if let Err(e) = Arc::make_mut(&mut indexes).create(&latest.db, relation, keys) {
            return Ok(Err(e));
        }
        durability()?;
        let time = latest.time();
        self.publish(
            Arc::new(Version {
                seq: next_seq,
                db: latest.db.clone(),
                views: latest.views.clone(),
                stats: Arc::clone(&latest.stats),
                indexes,
                keys: Arc::clone(&latest.keys),
            }),
            CommitSummary {
                seq: next_seq,
                time,
                writes: WriteSet::default(),
                ddl: true,
            },
        );
        Ok(Ok(()))
    }

    /// Declares a key constraint, publishing a DDL version. Rejections
    /// mirror [`crate::TransactionManager::declare_key`] (`E0401`–`E0403`).
    pub fn declare_key(&self, relation: &str, attrs: &[usize]) -> Result<(), DeclareKeyError> {
        match self.declare_key_with::<Infallible>(relation, attrs, || Ok(())) {
            Ok(r) => r,
            Err(e) => match e {},
        }
    }

    /// [`MvccManager::declare_key`] with a durability hook.
    pub fn declare_key_with<E>(
        &self,
        relation: &str,
        attrs: &[usize],
        durability: impl FnOnce() -> Result<(), E>,
    ) -> Result<Result<(), DeclareKeyError>, E> {
        let _guard = self.commit.lock();
        let (latest, next_seq) = {
            let chain = self.chain.read();
            (Arc::clone(&chain.latest), chain.next_seq)
        };
        if latest.views.get(relation).is_some() {
            return Ok(Err(DeclareKeyError::Rejected(
                mera_analyze::Diagnostic::new(
                    mera_analyze::Code::KeyOnView,
                    mera_analyze::Span::root("key"),
                    format!("cannot declare a key on materialized view `{relation}`"),
                )
                .with_note(
                    "a view's multiplicities are determined by its definition; \
                     declare the key on the base relations instead",
                ),
            )));
        }
        if latest.keys.is_declared(relation, attrs) {
            return Ok(Err(DeclareKeyError::Rejected(
                mera_analyze::Diagnostic::new(
                    mera_analyze::Code::DuplicateKeyDeclaration,
                    mera_analyze::Span::root("key"),
                    format!(
                        "key {relation}({}) is already declared",
                        attrs
                            .iter()
                            .map(|a| format!("%{a}"))
                            .collect::<Vec<_>>()
                            .join(",")
                    ),
                ),
            )));
        }
        let mut keys = Arc::clone(&latest.keys);
        match Arc::make_mut(&mut keys).declare(&latest.db, relation, attrs) {
            Ok(Ok(())) => {}
            Ok(Err(v)) => return Ok(Err(DeclareKeyError::Rejected(key_violation_diagnostic(&v)))),
            Err(e) => return Ok(Err(DeclareKeyError::Error(e))),
        }
        durability()?;
        let time = latest.time();
        self.publish(
            Arc::new(Version {
                seq: next_seq,
                db: latest.db.clone(),
                views: latest.views.clone(),
                stats: Arc::clone(&latest.stats),
                indexes: Arc::clone(&latest.indexes),
                keys,
            }),
            CommitSummary {
                seq: next_seq,
                time,
                writes: WriteSet::default(),
                ddl: true,
            },
        );
        Ok(Ok(()))
    }
}

/// Applies a signed delta to one relation of `db` in place. Fails with
/// [`CoreError::NegativeMultiplicity`] when a retraction outruns the base
/// — which first-committer-wins validation rules out for admitted
/// commits.
fn apply_delta(db: &mut Database, name: &str, delta: &TupleDelta) -> CoreResult<()> {
    let rel = db.relation_mut(name)?;
    for (t, m) in delta.iter() {
        if m > 0 {
            rel.insert(t.clone(), m as u64)?;
        } else {
            let want = m.unsigned_abs();
            if rel.remove(t, want) != want {
                return Err(CoreError::NegativeMultiplicity("mvcc delta merge"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statement::Statement;
    use mera_core::tuple;
    use mera_expr::ScalarExpr;

    fn schema() -> DatabaseSchema {
        DatabaseSchema::new()
            .with(
                "acct",
                Schema::named(&[("owner", DataType::Str), ("amount", DataType::Int)]),
            )
            .expect("fresh")
    }

    fn deposit(owner: &str, amount: i64) -> Program {
        let row = relation_of(
            Schema::named(&[("owner", DataType::Str), ("amount", DataType::Int)]),
            vec![tuple![owner, amount]],
        )
        .expect("typed");
        Program::single(Statement::insert("acct", RelExpr::values(row)))
    }

    fn scan_all() -> Program {
        Program::single(Statement::query(RelExpr::scan("acct")))
    }

    #[test]
    fn commit_publishes_next_version() {
        let mgr = MvccManager::new(schema());
        let (outcome, v) = mgr.execute(&deposit("ann", 10));
        assert!(outcome.is_committed());
        assert_eq!(v.time(), 1);
        assert_eq!(v.database().relation("acct").expect("present").len(), 1);
        assert_eq!(mgr.time(), 1);
    }

    #[test]
    fn pinned_reader_never_sees_later_commits() {
        let mgr = MvccManager::new(schema());
        mgr.execute(&deposit("ann", 10));
        let pin = mgr.pin();
        mgr.execute(&deposit("bob", 20));
        // the pinned version still shows exactly one row
        let outputs = mgr.read(&pin, &scan_all()).expect("reads");
        assert_eq!(outputs.queries[0].len(), 1);
        // a fresh pin shows both
        let outputs = mgr.read(&mgr.pin(), &scan_all()).expect("reads");
        assert_eq!(outputs.queries[0].len(), 2);
    }

    #[test]
    fn read_only_programs_do_not_tick_time() {
        let mgr = MvccManager::new(schema());
        mgr.execute(&deposit("ann", 10));
        let t = mgr.time();
        let (outcome, _) = mgr.execute(&scan_all());
        assert!(outcome.is_committed());
        assert_eq!(mgr.time(), t, "reads publish no version");
    }

    #[test]
    fn disjoint_writers_both_commit() {
        let mgr = MvccManager::new(schema());
        let pin = mgr.pin();
        let p1 = mgr.prepare(Arc::clone(&pin), &deposit("ann", 10)).unwrap();
        let p2 = mgr.prepare(pin, &deposit("bob", 20)).unwrap();
        // both touched `acct`, which has no key: relation-level conflict
        let (o1, _) = mgr.try_commit::<Infallible>(p1, |_| Ok(())).unwrap();
        assert!(o1.is_committed());
        let (o2, _) = mgr.try_commit::<Infallible>(p2, |_| Ok(())).unwrap();
        match o2 {
            Outcome::Aborted(AbortReason::Conflict { relations, .. }) => {
                assert_eq!(relations, vec!["acct".to_string()]);
            }
            other => panic!("expected a conflict, got {other:?}"),
        }
    }

    #[test]
    fn keyed_relations_conflict_at_key_point_granularity() {
        let mgr = MvccManager::new(schema());
        mgr.declare_key("acct", &[1]).expect("declares");
        let pin = mgr.pin();
        let p1 = mgr.prepare(Arc::clone(&pin), &deposit("ann", 10)).unwrap();
        let p2 = mgr.prepare(Arc::clone(&pin), &deposit("bob", 20)).unwrap();
        let p3 = mgr.prepare(pin, &deposit("ann", 99)).unwrap();
        let (o1, _) = mgr.try_commit::<Infallible>(p1, |_| Ok(())).unwrap();
        assert!(o1.is_committed());
        // different key point: merges cleanly even though the snapshot is stale
        let (o2, v2) = mgr.try_commit::<Infallible>(p2, |_| Ok(())).unwrap();
        assert!(o2.is_committed(), "{o2:?}");
        assert_eq!(v2.database().relation("acct").expect("rel").len(), 2);
        // same key point as the first committer: typed abort
        let (o3, _) = mgr.try_commit::<Infallible>(p3, |_| Ok(())).unwrap();
        match o3 {
            Outcome::Aborted(AbortReason::Conflict { relations, .. }) => {
                assert_eq!(relations, vec!["acct".to_string()]);
            }
            Outcome::Aborted(AbortReason::KeyViolation(_)) => {
                panic!("conflict must be detected before the key check")
            }
            other => panic!("expected a conflict, got {other:?}"),
        }
    }

    #[test]
    fn merged_commits_keep_catalog_consistent() {
        let mgr = MvccManager::new(schema());
        mgr.declare_key("acct", &[1]).expect("declares");
        mgr.create_index("acct", &[1]).expect("indexes");
        mgr.create_view(
            "totals",
            RelExpr::scan("acct").group_by(&[1], mera_expr::Aggregate::Sum, 2),
        )
        .expect("view");
        let pin = mgr.pin();
        let p1 = mgr.prepare(Arc::clone(&pin), &deposit("ann", 10)).unwrap();
        let p2 = mgr.prepare(pin, &deposit("bob", 20)).unwrap();
        mgr.try_commit::<Infallible>(p1, |_| Ok(())).unwrap();
        let (o2, v) = mgr.try_commit::<Infallible>(p2, |_| Ok(())).unwrap();
        assert!(o2.is_committed(), "{o2:?}");
        // stats, index, keys and view all describe the merged state
        assert_eq!(v.stats().get("acct").expect("stats").rows, 2);
        let ix = v.indexes().find("acct", &[1]).expect("index");
        assert_eq!(ix.len(), 2);
        let totals = v.views().get("totals").expect("view").data();
        assert_eq!(totals.multiplicity(&tuple!["ann", 10_i64]), 1);
        assert_eq!(totals.multiplicity(&tuple!["bob", 20_i64]), 1);
        // and the keys still enforce on the merged counts
        let (o3, _) = mgr.execute(&deposit("ann", 5));
        assert!(
            matches!(o3, Outcome::Aborted(AbortReason::KeyViolation(_))),
            "{o3:?}"
        );
    }

    #[test]
    fn ddl_conflicts_inflight_writers() {
        let mgr = MvccManager::new(schema());
        let pin = mgr.pin();
        let p = mgr.prepare(pin, &deposit("ann", 10)).unwrap();
        mgr.create_index("acct", &[1]).expect("indexes");
        let (o, _) = mgr.try_commit::<Infallible>(p, |_| Ok(())).unwrap();
        assert!(
            matches!(o, Outcome::Aborted(AbortReason::Conflict { .. })),
            "{o:?}"
        );
    }

    #[test]
    fn durability_failure_publishes_nothing() {
        let mgr = MvccManager::new(schema());
        let pin = mgr.pin();
        let p = mgr.prepare(pin, &deposit("ann", 10)).unwrap();
        let err = mgr
            .try_commit::<&str>(p, |_| Err("disk on fire"))
            .expect_err("hook fails");
        assert_eq!(err, "disk on fire");
        assert_eq!(mgr.time(), 0);
        let pin = mgr.pin();
        assert!(pin.database().relation("acct").expect("rel").is_empty());
        // the manager remains usable
        let (o, _) = mgr.execute(&deposit("ann", 10));
        assert!(o.is_committed());
    }

    #[test]
    fn version_at_serves_as_of_reads() {
        let mgr = MvccManager::new(schema());
        mgr.execute(&deposit("ann", 10));
        mgr.execute(&deposit("bob", 20));
        mgr.execute(&deposit("cho", 30));
        let v1 = mgr.version_at(1).expect("retained");
        assert_eq!(v1.time(), 1);
        assert_eq!(v1.database().relation("acct").expect("rel").len(), 1);
        let v2 = mgr.version_at(2).expect("retained");
        assert_eq!(v2.database().relation("acct").expect("rel").len(), 2);
        assert!(mgr.version_at(99).expect("latest").time() <= 99);
    }

    #[test]
    fn update_conflicts_with_update_of_same_key_point() {
        let mgr = MvccManager::new(schema());
        mgr.execute(&deposit("ann", 10));
        mgr.declare_key("acct", &[1]).expect("declares");
        let bump = |who: &str| {
            Program::single(Statement::update(
                "acct",
                RelExpr::scan("acct").select(ScalarExpr::attr(1).eq(ScalarExpr::str(who))),
                vec![
                    ScalarExpr::attr(1),
                    ScalarExpr::attr(2).mul(ScalarExpr::int(2)),
                ],
            ))
        };
        let pin = mgr.pin();
        let p1 = mgr.prepare(Arc::clone(&pin), &bump("ann")).unwrap();
        let p2 = mgr.prepare(pin, &bump("ann")).unwrap();
        let (o1, _) = mgr.try_commit::<Infallible>(p1, |_| Ok(())).unwrap();
        assert!(o1.is_committed());
        let (o2, _) = mgr.try_commit::<Infallible>(p2, |_| Ok(())).unwrap();
        assert!(
            matches!(o2, Outcome::Aborted(AbortReason::Conflict { .. })),
            "lost update must be impossible: {o2:?}"
        );
        // the surviving update doubled once, not twice
        let v = mgr.pin();
        assert_eq!(
            v.database()
                .relation("acct")
                .expect("rel")
                .multiplicity(&tuple!["ann", 20_i64]),
            1
        );
    }
}
