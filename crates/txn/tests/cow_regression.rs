//! Copy-on-write regression tests: a transaction costs what it touches,
//! not the size of the database.
//!
//! A version's relations and catalog objects (statistics, keys, indexes,
//! views) are shared with every transaction that starts from it and with
//! the version each commit publishes; only what a delta touches is
//! copied, once per transaction. These tests make that observable through
//! the bytes the allocator hands out, which — unlike wall-clock time — are
//! deterministic:
//!
//! * a key-point read and a one-row keyed commit (with the version it
//!   publishes) allocate exactly the same bytes whether an *unrelated*
//!   table holds 1k or 100k rows. An O(|database|) copy anywhere on the
//!   path adds megabytes at 100k;
//! * the second write to a relation inside one transaction allocates the
//!   same bytes whatever the relation's size: the relation is copied on
//!   the transaction's first write to it, not on every statement.
//!
//! The counter is a process-global [`CountingAlloc`], so the measuring
//! sections are serialised behind a mutex (the test harness runs tests on
//! concurrent threads).

use std::sync::{Mutex, OnceLock};

use mera_core::counting_alloc::{allocated_bytes_during, CountingAlloc};
use mera_core::prelude::*;
use mera_core::relation::relation_of;
use mera_core::tuple;
use mera_expr::{CmpOp, RelExpr, ScalarExpr};
use mera_txn::{MvccManager, Outcome, Program, Statement};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn pair_schema() -> Schema {
    Schema::anon(&[DataType::Int, DataType::Int])
}

fn rows(range: std::ops::Range<i64>) -> RelExpr {
    let rel =
        relation_of(pair_schema(), range.map(|i| tuple![i, 100_i64]).collect()).expect("typed");
    RelExpr::values(rel)
}

fn commit(mgr: &MvccManager, program: &Program) {
    let (outcome, _) = mgr.execute(program);
    assert!(
        matches!(outcome, Outcome::Committed(_)),
        "setup commit aborted: {outcome:?}"
    );
}

fn point(relation: &str, id: i64) -> RelExpr {
    RelExpr::scan(relation).select(ScalarExpr::attr(1).eq(ScalarExpr::int(id)))
}

/// `small` (1k rows) and an unrelated `big` (`big_rows` rows), both
/// keyed on `%1` and indexed on it, each under a materialized view — so
/// every kind of catalog object exists for the unrelated table too.
fn keyed_pair(big_rows: i64) -> MvccManager {
    let schema = DatabaseSchema::new()
        .with("small", pair_schema())
        .expect("fresh")
        .with("big", pair_schema())
        .expect("fresh");
    let mgr = MvccManager::new(schema);
    commit(
        &mgr,
        &Program::new()
            .then(Statement::insert("small", rows(0..1_000)))
            .then(Statement::insert("big", rows(0..big_rows))),
    );
    for relation in ["small", "big"] {
        mgr.declare_key(relation, &[1]).expect("key holds");
        mgr.create_index(relation, &[1]).expect("index builds");
        let filter =
            RelExpr::scan(relation).select(ScalarExpr::attr(2).cmp(CmpOp::Ge, ScalarExpr::int(0)));
        mgr.create_view(&format!("{relation}_view"), filter)
            .expect("view builds");
    }
    mgr
}

/// Bytes allocated by a key-point read and by a one-row keyed update of
/// `small` (each pin → prepare → commit, the update publishing a
/// version), after one warm-up round.
fn read_and_commit_bytes(mgr: &MvccManager) -> (u64, u64) {
    let read = Program::single(Statement::query(point("small", 7)));
    let update = Program::single(Statement::update(
        "small",
        point("small", 7),
        vec![
            ScalarExpr::attr(1),
            ScalarExpr::attr(2).add(ScalarExpr::int(1)),
        ],
    ));
    commit(mgr, &read);
    commit(mgr, &update);
    let (read_bytes, _) = allocated_bytes_during(|| mgr.execute(&read));
    let (commit_bytes, (outcome, version)) = allocated_bytes_during(|| mgr.execute(&update));
    assert!(matches!(outcome, Outcome::Committed(_)), "{outcome:?}");
    assert_eq!(
        version
            .database()
            .relation("small")
            .expect("declared")
            .multiplicity(&tuple![7_i64, 102_i64]),
        1
    );
    (read_bytes, commit_bytes)
}

#[test]
fn point_read_and_keyed_commit_ignore_unrelated_table_size() {
    let _guard = lock();
    let (small_read, small_commit) = read_and_commit_bytes(&keyed_pair(1_000));
    let (big_read, big_commit) = read_and_commit_bytes(&keyed_pair(100_000));
    assert_eq!(
        small_read, big_read,
        "a point read allocated {small_read} B beside a 1k-row table \
         but {big_read} B beside a 100k-row one"
    );
    assert_eq!(
        small_commit, big_commit,
        "a one-row commit allocated {small_commit} B beside a 1k-row table \
         but {big_commit} B beside a 100k-row one"
    );
}

/// Bytes of a one-insert transaction into `r` (`r_rows` rows) and of a
/// two-insert one, after one warm-up round.
fn one_and_two_write_bytes(r_rows: i64) -> (u64, u64) {
    let schema = DatabaseSchema::new()
        .with("r", pair_schema())
        .expect("fresh");
    let mgr = MvccManager::new(schema);
    commit(
        &mgr,
        &Program::single(Statement::insert("r", rows(0..r_rows))),
    );
    let one = |at: i64| Program::single(Statement::insert("r", rows(-at - 1..-at)));
    let two = |at: i64| {
        Program::new()
            .then(Statement::insert("r", rows(-at - 1..-at)))
            .then(Statement::insert("r", rows(-at - 2..-at - 1)))
    };
    commit(&mgr, &one(0));
    commit(&mgr, &two(1));
    let (one_bytes, _) = allocated_bytes_during(|| commit(&mgr, &one(3)));
    let (two_bytes, _) = allocated_bytes_during(|| commit(&mgr, &two(4)));
    (one_bytes, two_bytes)
}

#[test]
fn second_write_in_a_transaction_does_not_copy_the_relation_again() {
    let _guard = lock();
    let (small_one, small_two) = one_and_two_write_bytes(1_000);
    let (big_one, big_two) = one_and_two_write_bytes(50_000);
    // the first write copies `r` once, so the one-write cost grows with
    // |r|; the second write must not
    assert!(big_one > small_one, "{small_one} B vs {big_one} B");
    assert_eq!(
        small_two - small_one,
        big_two - big_one,
        "the second write allocated {} B into a 1k-row relation but {} B \
         into a 50k-row one",
        small_two - small_one,
        big_two - big_one
    );
}
