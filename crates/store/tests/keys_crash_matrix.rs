//! Crash-at-every-point recovery matrix for key constraints.
//!
//! The same discipline as `stats_crash_matrix.rs`, aimed at the declared
//! keys: a workload that declares base relations, declares keys
//! mid-stream (one before any data, one over existing data), churns the
//! bases with insert/update/delete commits, runs one commit that *violates*
//! a key (aborts, writes nothing), and checkpoints, runs against the
//! fault-injecting [`MemStorage`] at **every** write budget from 0 to the
//! fault-free total. After each simulated crash the surviving bytes are
//! rebooted and the recovered state must agree with a shadow volatile run
//! at the matching durable prefix:
//!
//! * the database contents equal the shadow's exactly,
//! * the recovered key definitions equal the shadow's exactly, and
//! * the recovered constraint still *enforces*: a commit that would break
//!   a recovered key aborts, and a conforming commit goes through — i.e.
//!   the per-key-point counts rebuilt at recovery match the data.

use std::sync::Arc;

use mera_core::prelude::*;
use mera_lang::Lowerer;
use mera_store::{ConcurrentDb, MemStorage, StoreError, StoreOptions};
use mera_txn::{
    run_transaction_cataloged, CatalogStats, CommitCatalog, ConstraintSet, KeySet, Outcome, Program,
};

/// One step of the workload.
enum Op {
    Declare(&'static str, fn() -> Schema),
    /// A durable key-constraint declaration.
    DeclareKey(&'static str, &'static [usize]),
    /// XRA program text expected to commit.
    Commit(&'static str),
    /// XRA program text expected to abort on a key violation.
    ViolatingCommit(&'static str),
    Checkpoint,
}

fn members_schema() -> Schema {
    Schema::named(&[("name", DataType::Str), ("town", DataType::Str)])
}

fn towns_schema() -> Schema {
    Schema::named(&[("town", DataType::Str), ("country", DataType::Str)])
}

/// Key declarations between commits, a violating commit (aborts, leaves no
/// durable trace), a key declared over *existing* data, and a checkpoint
/// followed by more churn — so recovery exercises snapshot + re-seeded
/// `DeclareKey` records + a live log tail together.
fn workload() -> Vec<Op> {
    vec![
        Op::Declare("member", members_schema),
        Op::Declare("towns", towns_schema),
        // key on an empty relation, enforced from the first insert
        Op::DeclareKey("member", &[1]),
        Op::Commit(
            "insert(member, values (str, str) {('dick', 'enschede'), ('peter', 'hengelo')})",
        ),
        Op::ViolatingCommit("insert(member, values (str, str) {('dick', 'losser')})"),
        Op::Commit("insert(towns, values (str, str) {('enschede', 'NL'), ('hengelo', 'NL')})"),
        // key declared over existing (conforming) data
        Op::DeclareKey("towns", &[1]),
        // delete + insert at the same key point in one transaction: the
        // net delta conforms, so this commits under the key
        Op::Commit(
            "delete(member, select[(%1 = 'dick')](member)); \
             insert(member, values (str, str) {('dick', 'losser')})",
        ),
        Op::Checkpoint,
        Op::Commit("insert(member, values (str, str) {('maurice', 'enschede')})"),
        Op::ViolatingCommit("insert(towns, values (str, str) {('enschede', 'DE')})"),
        Op::Commit("delete(member, select[(%1 = 'peter')](member))"),
    ]
}

fn parse(db: &Database, text: &str) -> Program {
    let parsed = mera_lang::parse_program(text).expect("workload text parses");
    let mut lowerer = Lowerer::new(db.schema());
    lowerer
        .lower_program(&parsed)
        .expect("workload text lowers")
}

/// The shadow volatile engine: database + keys maintained incrementally.
struct Shadow {
    db: Database,
    stats: Arc<CatalogStats>,
    keys: Arc<KeySet>,
}

impl Shadow {
    fn new() -> Shadow {
        let db = Database::new(DatabaseSchema::new());
        let stats = CatalogStats::from_database(&db).expect("empty analyze");
        Shadow {
            db,
            stats: Arc::new(stats),
            keys: Arc::new(KeySet::new()),
        }
    }

    /// Applies a committed program at the exact logical time the durable
    /// run committed it, maintaining the key counts incrementally.
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
                indexes: None,
                keys: Some(&mut self.keys),
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
/// failure. Returns the oracle: `(units-at-event, shadow)` for every
/// durable event that completed.
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
        let is_violation = matches!(op, Op::ViolatingCommit(_));
        let result: Result<(), StoreError> = match op {
            Op::Declare(name, schema) => durable
                .add_relation(RelationSchema::new(name, schema()))
                .map(|()| {
                    shadow
                        .db
                        .add_relation(RelationSchema::new(name, schema()))
                        .expect("shadow declare");
                }),
            Op::DeclareKey(relation, attrs) => durable.declare_key(relation, attrs).map(|()| {
                Arc::make_mut(&mut shadow.keys)
                    .declare(&shadow.db, relation, attrs)
                    .expect("shadow key declaration")
                    .expect("workload keys hold on declaration");
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
            Op::ViolatingCommit(text) => {
                let program = parse(durable.pin().database(), text);
                match durable.execute(&program) {
                    Err(StoreError::TransactionAborted(reason)) => {
                        assert!(
                            reason.contains("E0401"),
                            "violating commit must abort on the key, got: {reason}"
                        );
                        Ok(()) // not a durable event
                    }
                    Err(other) => Err(other),
                    Ok(_) => panic!("workload violation op committed"),
                }
            }
            Op::Checkpoint => durable.checkpoint(),
        };
        match result {
            Ok(()) => {
                if !is_violation {
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
        keys: Arc::clone(&shadow.keys),
    }
}

/// Asserts the recovered keys agree with the shadow at one durable prefix
/// — definitionally and behaviourally.
fn assert_keys_match(recovered: &ConcurrentDb<MemStorage>, expected: &Shadow, label: &str) {
    assert_eq!(
        recovered.pin().database(),
        &expected.db,
        "{label}: base state"
    );
    assert_eq!(
        recovered.pin().keys().definitions(),
        expected.keys.definitions(),
        "{label}: key definitions"
    );

    // Behavioural check: the rebuilt counts enforce exactly. For every
    // declared key with data, re-inserting an existing tuple must abort
    // (its key point is occupied), and the abort must leave the state
    // unchanged.
    for (relation, _) in recovered.pin().keys().definitions() {
        let rel = expected.db.relation(&relation).expect("keyed relation");
        let Some(t) = rel.support().next() else {
            continue;
        };
        let values = t
            .values()
            .iter()
            .map(|v| match v {
                Value::Str(s) => format!("'{s}'"),
                other => other.to_string(),
            })
            .collect::<Vec<_>>()
            .join(", ");
        let types = rel
            .schema()
            .attributes()
            .iter()
            .map(|a| a.dtype.to_string().to_lowercase())
            .collect::<Vec<_>>()
            .join(", ");
        let text = format!("insert({relation}, values ({types}) {{({values})}})");
        let program = parse(recovered.pin().database(), &text);
        let before = recovered.pin().database().clone();
        match recovered.execute(&program) {
            Err(StoreError::TransactionAborted(reason)) => {
                assert!(
                    reason.contains("E0401"),
                    "{label}: expected a key-violation abort on '{relation}', got: {reason}"
                );
            }
            other => {
                panic!("{label}: duplicate insert into '{relation}' must abort, got {other:?}")
            }
        }
        // the abort publishes no version: schema and contents are
        // unchanged
        assert_eq!(
            recovered.pin().database().schema(),
            before.schema(),
            "{label}: abort must not change the schema"
        );
        for name in before.relation_names() {
            assert_eq!(
                recovered.pin().database().relation(name).expect("relation"),
                before.relation(name).expect("relation"),
                "{label}: abort must not change '{name}'"
            );
        }
    }
}

#[test]
fn recovered_keys_enforce_at_every_crash_point() {
    // Fault-free pass: build the oracle and find the total write volume.
    let clean = MemStorage::new();
    let oracle = drive(clean.clone());
    let total = clean.units_written();
    assert_eq!(
        oracle.len(),
        12, // pre-open + open + 2 declares + 2 keys + 5 commits + 1 checkpoint
        "fault-free run must complete every durable event"
    );
    let (_, final_shadow) = oracle.last().expect("events ran");
    let member = final_shadow.db.relation("member").expect("member");
    assert_eq!(member.len(), 2); // dick@losser, maurice@enschede

    // Fault-free reboot recovers definitions and enforcement.
    let recovered = ConcurrentDb::open(
        MemStorage::from_image(clean.image()),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("clean recovery");
    assert_keys_match(&recovered, final_shadow, "fault-free reboot");

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
        assert_keys_match(
            &recovered,
            expected,
            &format!("crash at write unit {budget}/{total}"),
        );
    }
}
