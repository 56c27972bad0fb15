//! Transactions (Definition 4.3) and the serial transaction manager.
//!
//! A transaction is a program in *transaction brackets* executed against a
//! database state `D_t`. The end bracket either **commits** — temporaries
//! are removed and the final intermediate state is installed as `D_{t+1}` —
//! or **aborts** — `D_t` is (re-)installed as `D_{t+1}`. Either way the
//! atomicity property holds: `T(D) = D_{t.n}` or `T(D) = D`.
//!
//! Isolation is by serial execution: the [`TransactionManager`] runs one
//! transaction at a time under a lock, so only pre- and post-transaction
//! states are ever visible — precisely the paper's visibility rule.

use std::fmt;
use std::sync::Arc;

use mera_core::prelude::*;
use mera_eval::{IndexSet, KeySet, KeyViolation};
use mera_opt::CatalogStats;
use parking_lot::Mutex;

use crate::constraints::ConstraintSet;
use crate::exec::{
    analyze_program_with_views, execute_statement, ExecConfig, Outputs, WorkingState,
};
use crate::log::{LogRecord, RedoLog};
use crate::statement::Program;
use crate::views::{CreateViewError, ViewSet};
use mera_expr::rel::RelExpr;

/// Why a transaction aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbortReason {
    /// A statement failed with an error (the common case: partial
    /// aggregates, division by zero, schema violations).
    Error(CoreError),
    /// The pre-execution static analyzer found error-severity diagnostics;
    /// no statement was executed. Carries *every* diagnostic of the run
    /// (warnings included), in analysis order.
    StaticallyRejected(Vec<mera_analyze::Diagnostic>),
    /// An injected fault (testing hook) fired before the given statement
    /// index.
    InjectedFault(usize),
    /// The commit-time integrity check found a violation (the enforcement
    /// model of the paper's reference \[11\]).
    ConstraintViolation(String),
    /// A declared key constraint would be violated by the transaction's
    /// net deltas — detected in O(|delta|) at the commit point, before
    /// anything is installed. Carries the `E0401` diagnostic.
    KeyViolation(mera_analyze::Diagnostic),
    /// First-committer-wins validation failed: between this transaction's
    /// snapshot and its commit point, another transaction committed writes
    /// to the same relations (or, on keyed relations, the same key
    /// points). The transaction saw a consistent snapshot throughout and
    /// can simply be retried against a newer one.
    Conflict {
        /// The relations whose concurrent writes overlap.
        relations: Vec<String>,
        /// The logical time of the newest conflicting committed version.
        committed_at: LogicalTime,
    },
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::Error(e) => write!(f, "statement error: {e}"),
            AbortReason::StaticallyRejected(diags) => {
                let first = mera_analyze::first_error(diags)
                    .expect("a static rejection carries at least one error");
                write!(f, "static analysis rejected the program: {first}")
            }
            AbortReason::InjectedFault(i) => write!(f, "injected fault before statement {i}"),
            AbortReason::ConstraintViolation(v) => write!(f, "{v}"),
            AbortReason::KeyViolation(d) => write!(f, "{d}"),
            AbortReason::Conflict {
                relations,
                committed_at,
            } => write!(
                f,
                "write-write conflict on {} with the transaction committed at t={committed_at} \
                 (first committer wins; retry against a newer snapshot)",
                relations.join(", ")
            ),
        }
    }
}

/// The `E0401` diagnostic for one detected key violation.
pub(crate) fn key_violation_diagnostic(v: &KeyViolation) -> mera_analyze::Diagnostic {
    mera_analyze::Diagnostic::new(
        mera_analyze::Code::KeyViolation,
        mera_analyze::Span::root("commit"),
        v.to_string(),
    )
    .with_note(
        "a key bounds the summed multiplicity per key point by 1; \
         the transaction's net deltas would exceed it",
    )
}

/// The outcome of one transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The transaction committed; query outputs are delivered.
    Committed(Outputs),
    /// The transaction aborted; the database is unchanged.
    Aborted(AbortReason),
}

impl Outcome {
    /// True when committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, Outcome::Committed(_))
    }

    /// The outputs of a committed transaction.
    pub fn outputs(&self) -> Option<&Outputs> {
        match self {
            Outcome::Committed(o) => Some(o),
            Outcome::Aborted(_) => None,
        }
    }
}

/// Runs one transaction against a database state, returning the outcome
/// and the resulting state (`D_{t+1}` in both branches — logical time
/// advances even for aborts, marking the attempt as a transition).
///
/// `fault_before` injects an abort before the statement with that index
/// (0-based), exercising the atomicity property under mid-program failure.
pub fn run_transaction(
    db: &Database,
    program: &Program,
    config: ExecConfig,
    fault_before: Option<usize>,
) -> (Database, Outcome) {
    run_transaction_checked(db, program, config, fault_before, &ConstraintSet::new())
}

/// [`run_transaction`] with commit-time integrity enforcement: after the
/// last statement, the candidate state is validated against `constraints`;
/// a violation aborts exactly like a statement error.
pub fn run_transaction_checked(
    db: &Database,
    program: &Program,
    config: ExecConfig,
    fault_before: Option<usize>,
    constraints: &ConstraintSet,
) -> (Database, Outcome) {
    run_transaction_with_views(db, None, program, config, fault_before, constraints)
}

/// [`run_transaction_checked`] with materialized-view maintenance: view
/// contents are readable during the transaction (as of `D_t` — a view
/// never shows the transaction's own uncommitted writes), and at commit
/// time the signed deltas of every mutated base relation are pushed
/// through the views' maintenance plans. On abort the views are
/// untouched.
///
/// If even the full-recompute fallback of some view fails, the whole
/// transaction aborts and the views are rebuilt against the pre-state —
/// views and base state never diverge.
pub fn run_transaction_with_views(
    db: &Database,
    views: Option<&mut ViewSet>,
    program: &Program,
    config: ExecConfig,
    fault_before: Option<usize>,
    constraints: &ConstraintSet,
) -> (Database, Outcome) {
    run_transaction_cataloged(
        db,
        CommitCatalog {
            views,
            ..CommitCatalog::default()
        },
        program,
        config,
        fault_before,
        constraints,
    )
}

/// The maintained catalog objects a committing transaction keeps
/// consistent with the base state. All three consume the *same* signed
/// deltas at commit time, so maintenance work is O(|delta|) across the
/// board, never O(|relation|).
#[derive(Default)]
pub struct CommitCatalog<'a> {
    /// Materialized views, refreshed through their maintenance plans.
    pub views: Option<&'a mut ViewSet>,
    /// Table statistics (row counts, column bounds, distinct sketches),
    /// folded incrementally and stamped with the post-commit time. Also
    /// read *during* the transaction: statements plan cost-based.
    pub stats: Option<&'a mut Arc<CatalogStats>>,
    /// Secondary indexes, folded incrementally. Also read during the
    /// transaction: statements take index access paths while the indexed
    /// relations are untouched by the transaction itself.
    pub indexes: Option<&'a mut Arc<IndexSet>>,
    /// Declared key constraints, checked against the net deltas at the
    /// commit point (a violation aborts) and folded incrementally on
    /// success. Also read during the transaction: the optimizer grounds
    /// its property inference in keys of relations the transaction has
    /// not dirtied.
    pub keys: Option<&'a mut Arc<KeySet>>,
}

/// [`run_transaction_with_views`] generalised to the full maintained
/// catalog: views, table statistics and secondary indexes all stay
/// consistent with the committed state, and statements inside the
/// transaction plan against the statistics and indexes of `D_t`.
pub fn run_transaction_cataloged(
    db: &Database,
    catalog: CommitCatalog<'_>,
    program: &Program,
    config: ExecConfig,
    fault_before: Option<usize>,
    constraints: &ConstraintSet,
) -> (Database, Outcome) {
    let CommitCatalog {
        views,
        mut stats,
        mut indexes,
        mut keys,
    } = catalog;
    let abort = |reason: AbortReason| {
        let mut next = db.clone();
        next.tick();
        (next, Outcome::Aborted(reason))
    };
    // static pre-check: a program with error-severity diagnostics aborts
    // before any statement runs (warnings pass through — they describe
    // plans that *may* fail, and execution is the arbiter)
    let empty = ViewSet::new();
    if config.analyze {
        let vs = views.as_deref().unwrap_or(&empty);
        let diags = analyze_program_with_views(db, vs, program);
        if mera_analyze::has_errors(&diags) {
            return abort(AbortReason::StaticallyRejected(diags));
        }
    }
    let mut state = WorkingState::with_catalog(
        db.clone(),
        views.as_deref().unwrap_or(&empty),
        stats.as_deref().map(Arc::clone),
        indexes.as_deref().map(Arc::clone),
        keys.as_deref().map(Arc::clone),
    );
    let mut outputs = Outputs::default();
    for (i, stmt) in program.statements.iter().enumerate() {
        if fault_before == Some(i) {
            // abort: D_t is installed as D_{t+1}
            return abort(AbortReason::InjectedFault(i));
        }
        if let Err(e) = execute_statement(&mut state, stmt, config, &mut outputs) {
            return abort(AbortReason::Error(e));
        }
    }
    // commit-time integrity check (the [11] enforcement point)
    match constraints.validate(&state.db) {
        Ok(Ok(())) => {}
        Ok(Err(violation)) => {
            return abort(AbortReason::ConstraintViolation(violation.to_string()));
        }
        Err(e) => return abort(AbortReason::Error(e)),
    }
    // key-constraint check: every key is verified against the *net* deltas
    // (O(|delta|) per key) before anything is installed — all-or-nothing
    if let Some(ks) = keys.as_deref() {
        for (name, delta) in &state.deltas {
            if delta.is_empty() {
                continue;
            }
            if let Err(v) = ks.check(name, delta) {
                return abort(AbortReason::KeyViolation(key_violation_diagnostic(&v)));
            }
        }
    }
    // commit: temporaries vanish with the working state; D_{t.n} → D_{t+1}.
    // Destructuring drops the working state's snapshots (views, stats,
    // indexes), so the maintenance below mutates sole owners in place.
    let WorkingState {
        db: mut next,
        deltas,
        ..
    } = state;
    next.tick();
    // statistics and indexes fold the deltas by reference (views consume
    // them by value below): O(|delta|) per catalog object
    if let Some(s) = stats.as_deref_mut() {
        let s = Arc::make_mut(s);
        for (name, delta) in &deltas {
            if delta.is_empty() {
                continue;
            }
            if let Ok(post) = next.relation(name) {
                s.apply_commit(name, delta, post);
            }
        }
        s.set_as_of(next.time());
    }
    if let Some(ix) = indexes.as_deref_mut() {
        let ix = Arc::make_mut(ix);
        for (name, delta) in &deltas {
            if delta.is_empty() {
                continue;
            }
            if ix.apply_commit(name, delta).is_err() {
                // incremental maintenance failed; the definitions still
                // hold and the base commit is fine — rebuild from post
                let _ = ix.rebuild(&next);
                break;
            }
        }
    }
    if let Some(ks) = keys.as_deref_mut() {
        // the check above passed, so folding the deltas in cannot violate
        let ks = Arc::make_mut(ks);
        for (name, delta) in &deltas {
            if !delta.is_empty() {
                ks.apply_commit(name, delta);
            }
        }
    }
    if let Some(vs) = views {
        if let Err(e) = vs.refresh_after_commit(deltas, &next, config) {
            // even full recompute failed: abort and re-anchor the whole
            // catalog to the pre-transaction state (which it described
            // before, so these rebuilds are expected to succeed)
            let (aborted, outcome) = abort(AbortReason::Error(e));
            let _ = vs.rebuild(db, config);
            if let Some(s) = stats {
                if let Ok(mut fresh) = CatalogStats::from_database(db) {
                    fresh.set_as_of(aborted.time());
                    *s = Arc::new(fresh);
                }
            }
            if let Some(ix) = indexes {
                let _ = Arc::make_mut(ix).rebuild(db);
            }
            if let Some(ks) = keys {
                let _ = Arc::make_mut(ks).rebuild(db);
            }
            return (aborted, outcome);
        }
    }
    (next, Outcome::Committed(outputs))
}

/// A serial transaction manager: owns the database state, executes
/// transactions one at a time, and maintains a redo log of committed
/// programs for recovery.
pub struct TransactionManager {
    inner: Mutex<ManagerInner>,
    config: ExecConfig,
    constraints: ConstraintSet,
}

struct ManagerInner {
    db: Database,
    log: RedoLog,
    views: ViewSet,
    stats: Arc<CatalogStats>,
    indexes: Arc<IndexSet>,
    keys: Arc<KeySet>,
}

impl ManagerInner {
    fn catalog(&mut self) -> CommitCatalog<'_> {
        CommitCatalog {
            views: Some(&mut self.views),
            stats: Some(&mut self.stats),
            indexes: Some(&mut self.indexes),
            keys: Some(&mut self.keys),
        }
    }
}

/// Why [`TransactionManager::declare_key`] refused a declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum DeclareKeyError {
    /// The declaration was rejected with a diagnostic: existing data
    /// violates the key (`E0401`), the target is a view (`E0402`), or the
    /// key is already declared (`E0403`).
    Rejected(mera_analyze::Diagnostic),
    /// The declaration is structurally invalid (unknown relation,
    /// out-of-range or duplicate attributes).
    Error(CoreError),
}

impl fmt::Display for DeclareKeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeclareKeyError::Rejected(d) => write!(f, "key declaration rejected: {d}"),
            DeclareKeyError::Error(e) => write!(f, "key declaration failed: {e}"),
        }
    }
}

impl std::error::Error for DeclareKeyError {}

impl From<CoreError> for DeclareKeyError {
    fn from(e: CoreError) -> Self {
        DeclareKeyError::Error(e)
    }
}

impl TransactionManager {
    /// Creates a manager over the initial state of a database schema.
    pub fn new(schema: DatabaseSchema) -> Self {
        Self::with_config(schema, ExecConfig::default())
    }

    /// Creates a manager with an explicit execution configuration.
    pub fn with_config(schema: DatabaseSchema, config: ExecConfig) -> Self {
        Self::with_constraints(schema, config, ConstraintSet::new())
    }

    /// Creates a manager enforcing an integrity constraint set at every
    /// commit point.
    pub fn with_constraints(
        schema: DatabaseSchema,
        config: ExecConfig,
        constraints: ConstraintSet,
    ) -> Self {
        let db = Database::new(schema);
        let stats = CatalogStats::from_database(&db).expect("catalog relations resolve");
        TransactionManager {
            inner: Mutex::new(ManagerInner {
                db,
                log: RedoLog::new(),
                views: ViewSet::new(),
                stats: Arc::new(stats),
                indexes: Arc::new(IndexSet::new()),
                keys: Arc::new(KeySet::new()),
            }),
            config,
            constraints,
        }
    }

    /// The constraint set enforced at commit time.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// Restores a manager from a redo log by replaying every committed
    /// program against the initial state (the durability property: a
    /// committed transaction's effects survive a restart).
    pub fn recover(schema: DatabaseSchema, log: &RedoLog) -> CoreResult<Self> {
        let manager = Self::new(schema);
        {
            let inner = &mut *manager.inner.lock();
            for record in log.records() {
                let before = inner.db.clone();
                let (next, outcome) = run_transaction_cataloged(
                    &before,
                    inner.catalog(),
                    &record.program,
                    manager.config,
                    None,
                    &manager.constraints,
                );
                match outcome {
                    Outcome::Committed(_) => {
                        let time = next.time();
                        inner.db = next;
                        inner.log.append(LogRecord {
                            time,
                            program: record.program.clone(),
                        })?;
                    }
                    Outcome::Aborted(reason) => {
                        return Err(CoreError::TypeError(format!(
                            "redo log replay aborted at t={}: {reason}",
                            record.time
                        )))
                    }
                }
            }
        }
        Ok(manager)
    }

    /// Executes one transaction; on commit the effects are installed and
    /// logged, on abort the database is untouched (other than logical
    /// time). Returns the outcome together with the observed transition.
    pub fn execute(&self, program: &Program) -> CoreResult<(Outcome, Transition)> {
        let inner = &mut *self.inner.lock();
        let before = inner.db.clone();
        let (next, outcome) = run_transaction_cataloged(
            &before,
            inner.catalog(),
            program,
            self.config,
            None,
            &self.constraints,
        );
        if outcome.is_committed() {
            inner.log.append(LogRecord {
                time: next.time(),
                program: program.clone(),
            })?;
        } else {
            // contents unchanged by the abort, only logical time moved:
            // re-stamp so the statistics stay a cache hit for `next`
            Arc::make_mut(&mut inner.stats).set_as_of(next.time());
        }
        inner.db = next.clone();
        let transition = Transition::new(before, next)?;
        Ok((outcome, transition))
    }

    /// Executes with an injected fault (testing hook, never logged).
    pub fn execute_with_fault(
        &self,
        program: &Program,
        fault_before: usize,
    ) -> CoreResult<(Outcome, Transition)> {
        let inner = &mut *self.inner.lock();
        let before = inner.db.clone();
        let (next, outcome) = run_transaction_cataloged(
            &before,
            inner.catalog(),
            program,
            self.config,
            Some(fault_before),
            &self.constraints,
        );
        if !outcome.is_committed() {
            Arc::make_mut(&mut inner.stats).set_as_of(next.time());
        }
        inner.db = next.clone();
        let transition = Transition::new(before, next)?;
        Ok((outcome, transition))
    }

    /// Creates a materialized view over the current state: the definition
    /// is validated (`E0301`/`E0303` and ordinary schema errors reject
    /// it), evaluated once, and incrementally maintained by every
    /// subsequent commit.
    pub fn create_view(&self, name: &str, expr: RelExpr) -> Result<SchemaRef, CreateViewError> {
        let inner = &mut *self.inner.lock();
        inner.views.create(name, expr, &inner.db, self.config)
    }

    /// Creates a secondary index on the 1-based `keys` of `relation` over
    /// the current state. The index is a catalog object from then on:
    /// every commit folds its signed deltas in (O(|delta|)), the cost
    /// model weighs it as an access path, and the physical engine executes
    /// point lookups and hinted equi-joins through it.
    pub fn create_index(&self, relation: &str, keys: &[usize]) -> CoreResult<()> {
        let inner = &mut *self.inner.lock();
        let (db, indexes) = (&inner.db, &mut inner.indexes);
        Arc::make_mut(indexes).create(db, relation, keys)
    }

    /// The registered index definitions as `(relation, sorted keys)`,
    /// sorted.
    pub fn index_definitions(&self) -> Vec<(String, Vec<usize>)> {
        self.inner.lock().indexes.definitions()
    }

    /// Declares the 1-based `attrs` as a candidate key of `relation` over
    /// the current state. Rejections carry a diagnostic: existing data
    /// violating the key (`E0401`), a key on a view (`E0402` — views are
    /// derived, their multiplicities follow from the definition), or a
    /// duplicate declaration (`E0403`). From then on every commit checks
    /// the key against its net deltas in O(|delta|) and aborts violators,
    /// and the optimizer grounds property inference in it.
    pub fn declare_key(&self, relation: &str, attrs: &[usize]) -> Result<(), DeclareKeyError> {
        let inner = &mut *self.inner.lock();
        if inner.views.get(relation).is_some() {
            return Err(DeclareKeyError::Rejected(
                mera_analyze::Diagnostic::new(
                    mera_analyze::Code::KeyOnView,
                    mera_analyze::Span::root("key"),
                    format!("cannot declare a key on materialized view `{relation}`"),
                )
                .with_note(
                    "a view's multiplicities are determined by its definition; \
                     declare the key on the base relations instead",
                ),
            ));
        }
        if inner.keys.is_declared(relation, attrs) {
            return Err(DeclareKeyError::Rejected(mera_analyze::Diagnostic::new(
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
            )));
        }
        let (db, keys) = (&inner.db, &mut inner.keys);
        match Arc::make_mut(keys).declare(db, relation, attrs)? {
            Ok(()) => Ok(()),
            Err(v) => Err(DeclareKeyError::Rejected(key_violation_diagnostic(&v))),
        }
    }

    /// The declared key constraints as `(relation, sorted attrs)`, sorted.
    pub fn key_definitions(&self) -> Vec<(String, Vec<usize>)> {
        self.inner.lock().keys.definitions()
    }

    /// A shared snapshot of the maintained key constraints.
    pub fn keys(&self) -> Arc<KeySet> {
        Arc::clone(&self.inner.lock().keys)
    }

    /// Adds a fresh empty relation to the current state (the SQL `CREATE
    /// TABLE` path). Fails if the name is taken.
    pub fn add_relation(&self, schema: RelationSchema) -> CoreResult<()> {
        let inner = &mut *self.inner.lock();
        inner.db.add_relation(schema)?;
        // re-anchor the derived catalog objects so they describe the new
        // state (an empty relation: cheap)
        if let Ok(mut fresh) = CatalogStats::from_database(&inner.db) {
            fresh.set_as_of(inner.db.time());
            inner.stats = Arc::new(fresh);
        }
        Ok(())
    }

    /// A shared snapshot of the maintained secondary indexes.
    pub fn indexes(&self) -> Arc<IndexSet> {
        Arc::clone(&self.inner.lock().indexes)
    }

    /// A shared snapshot of the maintained table statistics (stamped with
    /// the logical time they describe).
    pub fn stats(&self) -> Arc<CatalogStats> {
        Arc::clone(&self.inner.lock().stats)
    }

    /// Renders the plan a read-only expression gets against the current
    /// committed state — join order, access paths, estimated-vs-actual
    /// cardinalities (see [`crate::explain_expr`]). Evaluates the
    /// expression (on the instrumented physical engine) but commits
    /// nothing.
    pub fn explain(&self, expr: &RelExpr) -> CoreResult<String> {
        let inner = self.inner.lock();
        let state = crate::exec::WorkingState::with_catalog(
            inner.db.clone(),
            &inner.views,
            Some(Arc::clone(&inner.stats)),
            Some(Arc::clone(&inner.indexes)),
            Some(Arc::clone(&inner.keys)),
        );
        crate::explain::explain_expr(&state, expr, self.config)
    }

    /// Runs the static-analysis passes over a program against the current
    /// state (views included) without executing it.
    pub fn check_program(&self, program: &Program) -> Vec<mera_analyze::Diagnostic> {
        let inner = self.inner.lock();
        crate::exec::analyze_program_with_views(&inner.db, &inner.views, program)
    }

    /// A snapshot of one materialized view's current contents.
    pub fn view(&self, name: &str) -> CoreResult<Relation> {
        let inner = self.inner.lock();
        inner
            .views
            .get(name)
            .map(|v| v.data().clone())
            .ok_or_else(|| CoreError::UnknownRelation(name.to_owned()))
    }

    /// Snapshots of every materialized view, by name.
    pub fn view_snapshots(&self) -> std::collections::BTreeMap<String, Relation> {
        self.inner.lock().views.snapshots()
    }

    /// `(refreshes, full-recompute fallbacks)` per view — observability
    /// for the incremental path (a healthy workload shows zero fallbacks).
    pub fn view_stats(&self) -> Vec<(String, u64, u64)> {
        self.inner
            .lock()
            .views
            .iter()
            .map(|v| {
                let (r, f) = v.refresh_stats();
                (v.name().to_owned(), r, f)
            })
            .collect()
    }

    /// A snapshot of the current database state.
    pub fn snapshot(&self) -> Database {
        self.inner.lock().db.clone()
    }

    /// A copy of the redo log.
    pub fn log(&self) -> RedoLog {
        self.inner.lock().log.clone()
    }

    /// Current logical time.
    pub fn time(&self) -> LogicalTime {
        self.inner.lock().db.time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statement::Statement;
    use mera_core::tuple;
    use mera_expr::{RelExpr, ScalarExpr};
    use std::sync::Arc;

    fn schema() -> DatabaseSchema {
        DatabaseSchema::new()
            .with(
                "acct",
                Schema::named(&[("owner", DataType::Str), ("amount", DataType::Int)]),
            )
            .expect("fresh")
    }

    fn deposit(owner: &str, amount: i64) -> Statement {
        let row = relation_of(
            Schema::named(&[("owner", DataType::Str), ("amount", DataType::Int)]),
            vec![tuple![owner, amount]],
        )
        .expect("typed");
        Statement::insert("acct", RelExpr::values(row))
    }

    #[test]
    fn commit_installs_next_state_and_advances_time() {
        let mgr = TransactionManager::new(schema());
        assert_eq!(mgr.time(), 0);
        let (outcome, transition) = mgr
            .execute(&Program::single(deposit("a", 100)))
            .expect("executes");
        assert!(outcome.is_committed());
        assert!(transition.is_single_step());
        assert!(!transition.is_identity());
        assert_eq!(mgr.time(), 1);
        assert_eq!(mgr.snapshot().relation("acct").expect("present").len(), 1);
    }

    #[test]
    fn statement_error_aborts_whole_transaction() {
        // analysis off: the failure surfaces at runtime, mid-program
        let mgr = TransactionManager::with_config(
            schema(),
            ExecConfig {
                analyze: false,
                ..ExecConfig::default()
            },
        );
        mgr.execute(&Program::single(deposit("a", 100)))
            .expect("setup");
        // deposit then a failing statement (AVG over empty bag)
        let failing = Program::new().then(deposit("b", 50)).then(Statement::query(
            RelExpr::scan("acct")
                .select(ScalarExpr::bool(false))
                .group_by(&[], mera_expr::Aggregate::Avg, 2),
        ));
        let (outcome, transition) = mgr.execute(&failing).expect("runs");
        assert!(matches!(
            outcome,
            Outcome::Aborted(AbortReason::Error(CoreError::AggregateOnEmpty("AVG")))
        ));
        // atomicity: the deposit of 50 is rolled back
        assert!(transition.is_identity());
        let snap = mgr.snapshot();
        assert_eq!(snap.relation("acct").expect("present").len(), 1);
        // but time advanced: the attempt is a transition
        assert_eq!(snap.time(), 2);
    }

    #[test]
    fn statically_rejected_program_aborts_before_execution() {
        // the same doomed program, with analysis on (the default): the
        // E0102 partiality error is caught before the deposit ever runs
        let mgr = TransactionManager::new(schema());
        let failing = Program::new().then(deposit("b", 50)).then(Statement::query(
            RelExpr::scan("acct")
                .select(ScalarExpr::bool(false))
                .group_by(&[], mera_expr::Aggregate::Avg, 2),
        ));
        let (outcome, transition) = mgr.execute(&failing).expect("runs");
        let Outcome::Aborted(reason @ AbortReason::StaticallyRejected(diags)) = &outcome else {
            panic!("expected a static rejection, got {outcome:?}");
        };
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, mera_analyze::Code::PartialAggregateOnEmpty);
        assert_eq!(diags[0].span.stmt, Some(1));
        // the rendered reason names the offending aggregate
        assert!(reason.to_string().contains("AVG"), "{reason}");
        assert!(transition.is_identity());
    }

    #[test]
    fn injected_fault_mid_program_restores_pre_state() {
        let mgr = TransactionManager::new(schema());
        let program = Program::new()
            .then(deposit("a", 1))
            .then(deposit("b", 2))
            .then(deposit("c", 3));
        let (outcome, transition) = mgr.execute_with_fault(&program, 2).expect("runs");
        assert!(matches!(
            outcome,
            Outcome::Aborted(AbortReason::InjectedFault(2))
        ));
        assert!(transition.is_identity());
        assert!(mgr.snapshot().relation("acct").expect("present").is_empty());
    }

    #[test]
    fn temporaries_never_leak_into_committed_state() {
        let mgr = TransactionManager::new(schema());
        let program = Program::new()
            .then(Statement::assign("scratch", RelExpr::scan("acct")))
            .then(deposit("a", 10))
            .then(Statement::query(RelExpr::scan("scratch")));
        let (outcome, _) = mgr.execute(&program).expect("runs");
        assert!(outcome.is_committed());
        // the post-transaction state has no relation called "scratch"
        let snap = mgr.snapshot();
        assert!(snap.relation("scratch").is_err());
        // and a later transaction cannot see it either: the analyzer
        // rejects the scan of `scratch` as an unknown relation (E0002)
        let later = Program::single(Statement::query(RelExpr::scan("scratch")));
        let (outcome, _) = mgr.execute(&later).expect("runs");
        match outcome {
            Outcome::Aborted(AbortReason::StaticallyRejected(diags)) => {
                assert_eq!(diags[0].code, mera_analyze::Code::UnknownRelation);
            }
            other => panic!("expected static rejection, got {other:?}"),
        }
        // with analysis off, the runtime agrees
        let unchecked = TransactionManager::with_config(
            schema(),
            ExecConfig {
                analyze: false,
                ..ExecConfig::default()
            },
        );
        let (outcome, _) = unchecked.execute(&later).expect("runs");
        assert!(matches!(
            outcome,
            Outcome::Aborted(AbortReason::Error(CoreError::UnknownRelation(_)))
        ));
    }

    #[test]
    fn committed_outputs_are_delivered() {
        let mgr = TransactionManager::new(schema());
        let program = Program::new()
            .then(deposit("a", 100))
            .then(deposit("a", 100))
            .then(Statement::query(RelExpr::scan("acct").group_by(
                &[1],
                mera_expr::Aggregate::Sum,
                2,
            )));
        let (outcome, _) = mgr.execute(&program).expect("runs");
        let outputs = outcome.outputs().expect("committed");
        assert_eq!(outputs.queries.len(), 1);
        assert_eq!(outputs.queries[0].multiplicity(&tuple!["a", 200_i64]), 1);
    }

    #[test]
    fn recovery_replays_committed_transactions_only() {
        let mgr = TransactionManager::new(schema());
        mgr.execute(&Program::single(deposit("a", 100)))
            .expect("t1");
        // an aborted transaction must not be logged
        let bad = Program::new()
            .then(deposit("b", 1))
            .then(Statement::query(RelExpr::scan("nosuch")));
        let (outcome, _) = mgr.execute(&bad).expect("t2");
        assert!(!outcome.is_committed());
        mgr.execute(&Program::single(deposit("c", 7))).expect("t3");

        let log = mgr.log();
        assert_eq!(log.records().len(), 2);
        let recovered = TransactionManager::recover(schema(), &log).expect("recovers");
        let original = mgr.snapshot();
        let replayed = recovered.snapshot();
        assert_eq!(
            original.relation("acct").expect("present"),
            replayed.relation("acct").expect("present")
        );
    }

    #[test]
    fn commits_maintain_stats_incrementally() {
        let mgr = TransactionManager::new(schema());
        let initial_scans = mgr.stats().full_scans();
        for i in 0..5 {
            mgr.execute(&Program::single(deposit("a", i)))
                .expect("commits");
        }
        let stats = mgr.stats();
        let acct = stats.get("acct").expect("analyzed");
        assert_eq!(acct.rows, 5);
        assert_eq!(acct.column_distinct(2), 5, "amounts all distinct");
        assert_eq!(stats.as_of(), Some(mgr.time()), "stamped current");
        assert_eq!(
            stats.full_scans(),
            initial_scans,
            "five commits folded deltas without a single rescan"
        );
        assert_eq!(stats.touched_rows(), 5, "O(delta) work witness");
    }

    #[test]
    fn aborts_leave_stats_and_indexes_untouched() {
        let mgr = TransactionManager::new(schema());
        mgr.execute(&Program::single(deposit("a", 100)))
            .expect("setup");
        mgr.create_index("acct", &[1]).expect("indexes");
        let bad = Program::new()
            .then(deposit("b", 1))
            .then(Statement::query(RelExpr::scan("nosuch")));
        let (outcome, _) = mgr.execute(&bad).expect("runs");
        assert!(!outcome.is_committed());
        let stats = mgr.stats();
        assert_eq!(stats.get("acct").expect("present").rows, 1);
        assert_eq!(stats.as_of(), Some(mgr.time()), "re-stamped after abort");
        let indexes = mgr.indexes();
        let idx = indexes.find("acct", &[1]).expect("registered");
        assert_eq!(idx.len(), 1, "aborted insert never reached the index");
    }

    #[test]
    fn commits_maintain_indexes_as_catalog_objects() {
        let mgr = TransactionManager::new(schema());
        mgr.execute(&Program::single(deposit("a", 100)))
            .expect("t1");
        mgr.create_index("acct", &[1]).expect("indexes");
        assert_eq!(mgr.index_definitions(), vec![("acct".to_owned(), vec![1])]);
        // commits after creation keep the index consistent
        mgr.execute(&Program::single(deposit("a", 50))).expect("t2");
        mgr.execute(&Program::single(deposit("b", 7))).expect("t3");
        let indexes = mgr.indexes();
        let idx = indexes.find("acct", &[1]).expect("registered");
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.lookup(&tuple!["a"]).expect("lookup").len(), 2);
        // and point queries through the manager agree with the base state
        let q = Program::single(Statement::query(
            RelExpr::scan("acct").select(ScalarExpr::attr(1).eq(ScalarExpr::str("a"))),
        ));
        let (outcome, _) = mgr.execute(&q).expect("queries");
        assert_eq!(outcome.outputs().expect("committed").queries[0].len(), 2);
    }

    #[test]
    fn same_transaction_write_then_read_sees_own_writes() {
        // the index describes D_t; once the transaction writes the indexed
        // relation, reads must come from the live state, not the index
        let mgr = TransactionManager::new(schema());
        mgr.execute(&Program::single(deposit("a", 100)))
            .expect("setup");
        mgr.create_index("acct", &[1]).expect("indexes");
        let program = Program::new().then(deposit("a", 50)).then(Statement::query(
            RelExpr::scan("acct").select(ScalarExpr::attr(1).eq(ScalarExpr::str("a"))),
        ));
        let (outcome, _) = mgr.execute(&program).expect("runs");
        let out = &outcome.outputs().expect("committed").queries[0];
        assert_eq!(out.len(), 2, "query must see the uncommitted deposit");
    }

    #[test]
    fn recovery_replays_statistics() {
        let mgr = TransactionManager::new(schema());
        for i in 0..3 {
            mgr.execute(&Program::single(deposit("x", i))).expect("t");
        }
        let recovered = TransactionManager::recover(schema(), &mgr.log()).expect("recovers");
        let (orig, repl) = (mgr.stats(), recovered.stats());
        let (o, r) = (
            orig.get("acct").expect("present"),
            repl.get("acct").expect("present"),
        );
        assert_eq!(o.rows, r.rows);
        assert_eq!(o.distinct_rows, r.distinct_rows);
        assert_eq!(repl.as_of(), Some(recovered.time()));
    }

    #[test]
    fn serial_execution_from_many_threads() {
        let mgr = Arc::new(TransactionManager::new(schema()));
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let mgr = Arc::clone(&mgr);
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        mgr.execute(&Program::single(deposit("x", i)))
                            .expect("commits");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no panics");
        }
        let snap = mgr.snapshot();
        assert_eq!(snap.relation("acct").expect("present").len(), 80);
        assert_eq!(snap.time(), 80);
    }
}
