//! Crash-at-every-point recovery matrix for materialized views.
//!
//! The same discipline as `crash_matrix.rs`, aimed at the view subsystem:
//! a workload that declares base relations, creates two materialized
//! views (one of them a join + group-by), churns the bases with insert
//! and delete commits, and checkpoints mid-stream, runs against the
//! fault-injecting [`MemStorage`] at **every** write budget from 0 to the
//! fault-free total. After each simulated crash the surviving bytes are
//! rebooted, and the recovered views must equal — tuple for tuple — the
//! views a shadow *volatile* engine (database + in-memory `ViewSet`,
//! incrementally maintained) holds at the matching durable prefix.
//!
//! This pins down two properties at once: the WAL's `DeclareView` records
//! survive torn tails and checkpoints, and recovery's replay-with-views
//! reconstructs exactly what incremental maintenance built the first time.

use std::collections::BTreeMap;

use mera_core::prelude::*;
use mera_expr::RelExpr;
use mera_lang::Lowerer;
use mera_store::{ConcurrentDb, MemStorage, StoreError, StoreOptions};
use mera_txn::{run_transaction_with_views, ConstraintSet, Outcome, Program, ViewSet};

/// One step of the workload.
enum Op {
    Declare(&'static str, fn() -> Schema),
    /// `view name = text` — a durable view definition.
    CreateView(&'static str, &'static str),
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

/// Churn against two base relations feeding a join + group-by view and a
/// selection view, with view creation *between* commits, deletes that
/// retract view rows (group deaths included), and a checkpoint followed
/// by more churn — so recovery exercises snapshot + re-seeded
/// `DeclareView` records + a live log tail together.
fn workload() -> Vec<Op> {
    vec![
        Op::Declare("orders", orders_schema),
        Op::Declare("customers", customers_schema),
        Op::Commit("insert(customers, values (int, str) {(1, 'north'), (2, 'south')})"),
        Op::Commit("insert(orders, values (int, int) {(1, 10), (1, 5), (2, 7)})"),
        Op::CreateView(
            "region_totals",
            "groupby[(%4), SUM, %2](join[(%1 = %3)](orders, customers))",
        ),
        Op::CreateView("big_orders", "select[(%2 > 6)](orders)"),
        Op::Commit("insert(orders, values (int, int) {(2, 9), (1, 1)})"),
        Op::Abort("?project[(%2 / 0)](orders)"),
        Op::Commit("delete(orders, select[(%1 = 2)](orders))"),
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

fn parse_rel(db: &Database, text: &str) -> RelExpr {
    let parsed = mera_lang::parse_rel(text).expect("view text parses");
    let lowerer = Lowerer::new(db.schema());
    lowerer.lower_rel(&parsed).expect("view text lowers")
}

/// The expected contents of every view at one durable event boundary.
type ViewImage = BTreeMap<String, Relation>;

fn view_image(views: &ViewSet) -> ViewImage {
    views
        .iter()
        .map(|v| (v.name().to_owned(), v.data().clone()))
        .collect()
}

/// Applies a committed program to the shadow volatile engine — database
/// *and* incrementally maintained views — at the exact logical time the
/// durable run committed it.
fn shadow_commit(
    shadow: &mut Database,
    shadow_views: &mut ViewSet,
    program: &Program,
    committed_at: u64,
) {
    shadow
        .advance_time_to(committed_at.saturating_sub(1))
        .expect("commit times increase");
    let config = mera_txn::ExecConfig {
        analyze: false,
        ..Default::default()
    };
    let (next, outcome) = run_transaction_with_views(
        shadow,
        Some(shadow_views),
        program,
        config,
        None,
        &ConstraintSet::new(),
    );
    assert!(
        matches!(outcome, Outcome::Committed(_)),
        "shadow replay of a committed program must commit"
    );
    *shadow = next;
}

/// Runs the workload against `storage`, stopping at the first storage
/// failure. Returns the oracle: `(units-at-event, db, views)` for every
/// durable event that completed.
fn drive(storage: MemStorage) -> Vec<(u64, Database, ViewImage)> {
    let mut states = vec![(0, Database::new(DatabaseSchema::new()), ViewImage::new())];
    let mut shadow = Database::new(DatabaseSchema::new());
    let mut shadow_views = ViewSet::new();

    let durable = match ConcurrentDb::open(
        storage.clone(),
        DatabaseSchema::new(),
        StoreOptions::default(),
    ) {
        Ok(d) => d,
        Err(_) => return states, // crashed during creation
    };
    states.push((
        storage.units_written(),
        shadow.clone(),
        view_image(&shadow_views),
    ));

    for op in workload() {
        let is_abort = matches!(op, Op::Abort(_));
        let result: Result<(), StoreError> = match op {
            Op::Declare(name, schema) => durable
                .add_relation(RelationSchema::new(name, schema()))
                .map(|()| {
                    shadow
                        .add_relation(RelationSchema::new(name, schema()))
                        .expect("shadow declare");
                }),
            Op::CreateView(name, text) => {
                let expr = parse_rel(durable.pin().database(), text);
                durable.create_view(name, expr.clone()).map(|_| {
                    let config = mera_txn::ExecConfig {
                        analyze: false,
                        ..Default::default()
                    };
                    shadow_views
                        .create(name, expr, &shadow, config)
                        .expect("shadow view creation");
                })
            }
            Op::Commit(text) => {
                let program = parse(durable.pin().database(), text);
                let (before, units) = (durable.pin().time(), storage.units_written());
                durable.execute(&program).map(|_| {
                    let after = durable.pin().time();
                    if after > before {
                        shadow_commit(&mut shadow, &mut shadow_views, &program, after);
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
                    states.push((
                        storage.units_written(),
                        shadow.clone(),
                        view_image(&shadow_views),
                    ));
                }
            }
            Err(_) => break, // crashed: everything after this fails too
        }
    }
    states
}

#[test]
fn recovered_views_equal_shadow_views_at_every_crash_point() {
    // Fault-free pass: build the oracle and find the total write volume.
    let clean = MemStorage::new();
    let oracle = drive(clean.clone());
    let total = clean.units_written();
    assert_eq!(
        oracle.len(),
        14, // pre-open + open + 2 declares + 2 views + 7 commits + 1 checkpoint
        "fault-free run must complete every durable event"
    );
    let (_, final_db, final_views) = oracle.last().expect("events ran");
    assert_eq!(final_views.len(), 2);
    // sanity: the final delete kills the whole 'north' group, leaving
    // only customer 2's post-checkpoint order
    let totals = &final_views["region_totals"];
    assert_eq!(totals.multiplicity(&mera_core::tuple!["south", 20_i64]), 1);
    assert_eq!(totals.len(), 1);

    // Fault-free reboot: full image recovers state and views exactly.
    let recovered = ConcurrentDb::open(
        MemStorage::from_image(clean.image()),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("clean recovery");
    assert_eq!(recovered.pin().database(), final_db);
    assert_eq!(view_image(recovered.pin().views()), *final_views);

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

        let (_, expected_db, expected_views) = oracle
            .iter()
            .rev()
            .find(|(mark, _, _)| *mark <= budget)
            .expect("oracle is seeded with the zero-mark state");
        let version = recovered.pin();
        assert_eq!(
            version.database(),
            expected_db,
            "crash at write unit {budget}/{total}: base state diverged"
        );
        assert_eq!(
            view_image(version.views()),
            *expected_views,
            "crash at write unit {budget}/{total}: recovered views are not \
             the incrementally-maintained views at that durable prefix"
        );
    }
}
