//! Crash-at-every-point recovery matrix for statistics and indexes.
//!
//! The same discipline as `view_crash_matrix.rs`, aimed at the planner's
//! catalog: a workload that declares base relations, creates secondary
//! indexes mid-stream, churns the bases with insert/update/delete commits
//! (including one that crosses index keys and min/max boundaries), aborts
//! once, and checkpoints, runs against the fault-injecting [`MemStorage`]
//! at **every** write budget from 0 to the fault-free total. After each
//! simulated crash the surviving bytes are rebooted and the recovered
//! catalog must agree with a shadow *volatile* run (database + stats +
//! indexes maintained incrementally through `run_transaction_cataloged`)
//! at the matching durable prefix:
//!
//! * exact counters (`rows`, `distinct_rows`) equal the shadow's exactly,
//! * per-column distinct estimates and min/max bounds *cover* the actual
//!   column contents (the sketch's conservative direction — recovery
//!   re-analyzes from the snapshot, so its sketch state legitimately
//!   differs from a shadow that never forgot a deletion),
//! * the statistics are stamped current for the recovered state, and
//! * every recovered index has exactly the entries a fresh build over the
//!   recovered relation produces.

use std::collections::BTreeSet;
use std::sync::Arc;

use mera_core::prelude::*;
use mera_lang::Lowerer;
use mera_store::{ConcurrentDb, MemStorage, StoreError, StoreOptions};
use mera_txn::{
    run_transaction_cataloged, CatalogStats, CommitCatalog, ConstraintSet, HashIndex, IndexSet,
    Outcome, Program,
};

/// One step of the workload.
enum Op {
    Declare(&'static str, fn() -> Schema),
    /// A durable secondary-index definition.
    CreateIndex(&'static str, &'static [usize]),
    /// XRA program text expected to commit.
    Commit(&'static str),
    /// XRA program text expected to abort (division by zero).
    Abort(&'static str),
    Checkpoint,
}

fn orders_schema() -> Schema {
    Schema::named(&[("cust", DataType::Int), ("amount", DataType::Int)])
}

fn customers_schema() -> Schema {
    Schema::named(&[("id", DataType::Int), ("region", DataType::Str)])
}

/// Churn against two indexed base relations: index creation *between*
/// commits, deletes that hit index keys and min/max boundaries, an abort
/// (publishes nothing, writes nothing), and a checkpoint followed by more churn —
/// so recovery exercises snapshot + re-seeded `DeclareIndex` records + a
/// live log tail together.
fn workload() -> Vec<Op> {
    vec![
        Op::Declare("orders", orders_schema),
        Op::Declare("customers", customers_schema),
        Op::Commit("insert(customers, values (int, str) {(1, 'north'), (2, 'south')})"),
        Op::Commit("insert(orders, values (int, int) {(1, 10), (1, 5), (2, 7)})"),
        Op::CreateIndex("orders", &[1]),
        Op::CreateIndex("customers", &[1]),
        Op::Commit("insert(orders, values (int, int) {(2, 9), (1, 1), (3, 40)})"),
        Op::Abort("?project[(%2 / 0)](orders)"),
        // deletes the current max (40) — bounds drift, index key dies
        Op::Commit("delete(orders, select[(%1 = 3)](orders))"),
        Op::Checkpoint,
        Op::Commit("insert(orders, values (int, int) {(2, 20)})"),
        Op::Commit("update(orders, select[(%2 = 10)](orders), (%1, %2 + 1))"),
        Op::Commit("delete(orders, select[(%1 = 1)](orders))"),
    ]
}

fn parse(db: &Database, text: &str) -> Program {
    let parsed = mera_lang::parse_program(text).expect("workload text parses");
    let mut lowerer = Lowerer::new(db.schema());
    lowerer
        .lower_program(&parsed)
        .expect("workload text lowers")
}

/// The shadow volatile engine: the same catalog triple the durable store
/// maintains, minus the storage.
struct Shadow {
    db: Database,
    stats: Arc<CatalogStats>,
    indexes: Arc<IndexSet>,
}

impl Shadow {
    fn new() -> Shadow {
        let db = Database::new(DatabaseSchema::new());
        let stats = CatalogStats::from_database(&db).expect("empty analyze");
        Shadow {
            db,
            stats: Arc::new(stats),
            indexes: Arc::new(IndexSet::new()),
        }
    }

    /// Applies a committed program at the exact logical time the durable
    /// run committed it, maintaining stats and indexes incrementally.
    fn commit(&mut self, program: &Program, committed_at: u64) {
        self.db
            .advance_time_to(committed_at.saturating_sub(1))
            .expect("commit times increase");
        let config = mera_txn::ExecConfig {
            analyze: false,
            ..Default::default()
        };
        let (next, outcome) = run_transaction_cataloged(
            &self.db,
            CommitCatalog {
                views: None,
                stats: Some(&mut self.stats),
                indexes: Some(&mut self.indexes),
                keys: None,
            },
            program,
            config,
            None,
            &ConstraintSet::new(),
        );
        assert!(
            matches!(outcome, Outcome::Committed(_)),
            "shadow replay of a committed program must commit"
        );
        self.db = next;
    }
}

/// Runs the workload against `storage`, stopping at the first storage
/// failure. Returns the oracle: `(units-at-event, shadow-catalog)` for
/// every durable event that completed.
fn drive(storage: MemStorage) -> Vec<(u64, Shadow)> {
    let mut states = vec![(0, Shadow::new())];
    let mut shadow = Shadow::new();

    let durable = match ConcurrentDb::open(
        storage.clone(),
        DatabaseSchema::new(),
        StoreOptions::default(),
    ) {
        Ok(d) => d,
        Err(_) => return states, // crashed during creation
    };
    states.push((storage.units_written(), snapshot_of(&shadow)));

    for op in workload() {
        let is_abort = matches!(op, Op::Abort(_));
        let result: Result<(), StoreError> = match op {
            Op::Declare(name, schema) => durable
                .add_relation(RelationSchema::new(name, schema()))
                .map(|()| {
                    shadow
                        .db
                        .add_relation(RelationSchema::new(name, schema()))
                        .expect("shadow declare");
                }),
            Op::CreateIndex(relation, keys) => durable.create_index(relation, keys).map(|()| {
                Arc::make_mut(&mut shadow.indexes)
                    .create(&shadow.db, relation, keys)
                    .expect("shadow index creation");
            }),
            Op::Commit(text) => {
                let program = parse(durable.pin().database(), text);
                let (before, units) = (durable.pin().time(), storage.units_written());
                durable.execute(&program).map(|_| {
                    let after = durable.pin().time();
                    if after > before {
                        shadow.commit(&program, after);
                    } else {
                        // a read-only commit is not a durable event
                        assert_eq!(storage.units_written(), units, "read-only commit logged");
                    }
                })
            }
            Op::Abort(text) => {
                let program = parse(durable.pin().database(), text);
                match durable.execute(&program) {
                    Err(StoreError::TransactionAborted(_)) => Ok(()), // not a durable event
                    Err(other) => Err(other),
                    Ok(_) => panic!("workload abort op committed"),
                }
            }
            Op::Checkpoint => durable.checkpoint(),
        };
        match result {
            Ok(()) => {
                if !is_abort {
                    states.push((storage.units_written(), snapshot_of(&shadow)));
                }
            }
            Err(_) => break, // crashed: everything after this fails too
        }
    }
    states
}

fn snapshot_of(shadow: &Shadow) -> Shadow {
    Shadow {
        db: shadow.db.clone(),
        stats: Arc::clone(&shadow.stats),
        indexes: Arc::clone(&shadow.indexes),
    }
}

/// Asserts the recovered catalog agrees with the shadow at one durable
/// prefix (see the module docs for the exact/conservative split).
fn assert_catalog_matches(recovered: &ConcurrentDb<MemStorage>, expected: &Shadow, label: &str) {
    let version = recovered.pin();
    assert_eq!(version.database(), &expected.db, "{label}: base state");

    // Statistics: exact counters match the shadow exactly; sketch-backed
    // estimates and bounds must cover the actual column contents.
    let stats = version.stats();
    assert!(
        stats.is_current(version.database()),
        "{label}: recovered stats must be stamped for the recovered state"
    );
    for (name, shadow_t) in expected.stats.tables() {
        let rec_t = stats
            .get(name)
            .unwrap_or_else(|| panic!("{label}: no recovered stats for '{name}'"));
        assert_eq!(rec_t.rows, shadow_t.rows, "{label}: rows of '{name}'");
        assert_eq!(
            rec_t.distinct_rows, shadow_t.distinct_rows,
            "{label}: distinct rows of '{name}'"
        );
    }
    for name in version.database().relation_names() {
        let rel = version.database().relation(name).expect("relation");
        let Some(rec_t) = stats.get(name) else {
            continue;
        };
        assert_eq!(rec_t.rows, rel.len(), "{label}: rows of '{name}'");
        for attr in 1..=rel.schema().arity() {
            let actual: BTreeSet<&Value> = rel.support().map(|t| &t.values()[attr - 1]).collect();
            assert!(
                rec_t.column_distinct(attr) >= actual.len() as u64,
                "{label}: column {attr} of '{name}' under-estimates distincts"
            );
            if let Some((min, max)) = rec_t.column_bounds(attr) {
                for v in &actual {
                    assert!(
                        min <= *v && *v <= max,
                        "{label}: column {attr} of '{name}' bounds do not cover {v:?}"
                    );
                }
            } else {
                assert!(
                    actual.is_empty(),
                    "{label}: column {attr} of '{name}' lost its bounds"
                );
            }
        }
    }

    // Indexes: same definitions as the shadow, and every recovered index
    // holds exactly what a fresh build over the recovered relation holds.
    let indexes = version.indexes();
    assert_eq!(
        indexes.definitions(),
        expected.indexes.definitions(),
        "{label}: index definitions"
    );
    for (relation, keys) in indexes.definitions() {
        let index = indexes.find(&relation, &keys).expect("defined index");
        let rel = version.database().relation(&relation).expect("relation");
        let fresh = HashIndex::build(rel, &keys).expect("fresh build");
        assert_eq!(
            index.len(),
            fresh.len(),
            "{label}: entry count of index on '{relation}'"
        );
        assert_eq!(
            index.distinct_keys(),
            fresh.distinct_keys(),
            "{label}: key count of index on '{relation}'"
        );
        for t in rel.support() {
            let key = Tuple::new(keys.iter().map(|&k| t.values()[k - 1].clone()).collect());
            assert_eq!(
                index.lookup(&key).expect("lookup"),
                fresh.lookup(&key).expect("lookup"),
                "{label}: index on '{relation}' diverges at key {key:?}"
            );
        }
    }
}

#[test]
fn recovered_catalog_equals_shadow_catalog_at_every_crash_point() {
    // Fault-free pass: build the oracle and find the total write volume.
    let clean = MemStorage::new();
    let oracle = drive(clean.clone());
    let total = clean.units_written();
    assert_eq!(
        oracle.len(),
        14, // pre-open + open + 2 declares + 2 indexes + 7 commits + 1 checkpoint
        "fault-free run must complete every durable event"
    );
    let (_, final_shadow) = oracle.last().expect("events ran");
    // sanity: churn landed where the workload says it should
    let orders = final_shadow.db.relation("orders").expect("orders");
    assert_eq!(orders.len(), 3); // (1,10)→(1,11) deleted with cust 1's rest; (2,7),(2,9),(2,20)
    let t = final_shadow.stats.get("orders").expect("stats entry");
    assert_eq!(t.rows, 3);

    // Fault-free reboot recovers the full catalog.
    let recovered = ConcurrentDb::open(
        MemStorage::from_image(clean.image()),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("clean recovery");
    assert_catalog_matches(&recovered, final_shadow, "fault-free reboot");

    // The matrix: crash after every single write unit.
    for budget in 0..=total {
        let storage = MemStorage::with_budget(budget);
        let _ = drive(storage.clone());

        let recovered = ConcurrentDb::open(
            MemStorage::from_image(storage.image()),
            DatabaseSchema::new(),
            StoreOptions::default(),
        )
        .unwrap_or_else(|e| panic!("recovery after crash at unit {budget} failed: {e}"));

        let (_, expected) = oracle
            .iter()
            .rev()
            .find(|(mark, _)| *mark <= budget)
            .expect("oracle is seeded with the zero-mark state");
        assert_catalog_matches(
            &recovered,
            expected,
            &format!("crash at write unit {budget}/{total}"),
        );
    }
}
