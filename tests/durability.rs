//! Repo-level differential test: the durable engine against the volatile
//! [`TransactionManager`] — same programs, same outcomes, same final
//! state, and the durable one still has it after a "reboot".
//!
//! The two differ in one documented way: the paper's manager ticks
//! logical time on every transaction, while the durable front publishes
//! a version (and so ticks time) only for transactions that write. The
//! comparison adds those read-only ticks back before comparing states.

use mera::core::prelude::*;
use mera::lang::Lowerer;
use mera::store::{ConcurrentDb, MemStorage, StoreOptions};
use mera::txn::{Program, TransactionManager};

fn parse(db: &Database, text: &str) -> Program {
    let parsed = mera::lang::parse_program(text).expect("parses");
    let mut lowerer = Lowerer::new(db.schema());
    lowerer.lower_program(&parsed).expect("lowers")
}

/// `durable` with `read_only_ticks` added to its clock: the state the
/// paper's manager reaches over the same history.
fn with_ticks(durable: &Database, read_only_ticks: u64) -> Database {
    let mut db = durable.clone();
    db.advance_time_to(durable.time() + read_only_ticks)
        .expect("time moves forward");
    db
}

#[test]
fn durable_engine_matches_transaction_manager() {
    let schema = mera::beer_schema();
    let programs = [
        "insert(beer, values (str, str, real) {('Grolsch', 'Grolsche', 5.0)})",
        "insert(beer, values (str, str, real) {('Bock', 'Grolsche', 6.5), ('Bock', 'Heineken', 6.3)})",
        "insert(brewery, values (str, str, str) {('Grolsche', 'Enschede', 'NL')})",
        "delete(beer, select[(%3 > 6.4)](beer))",
        "?project[%1](beer)",
    ];

    let mgr = TransactionManager::new(schema.clone());
    let storage = MemStorage::new();
    let durable =
        ConcurrentDb::open(storage.clone(), schema, StoreOptions::default()).expect("open");

    let mut read_only_ticks = 0;
    for text in programs {
        let program = parse(durable.pin().database(), text);
        let (outcome, _) = mgr.execute(&program).expect("volatile path");
        let before = durable.pin().time();
        let durable_outputs = durable.execute(&program).expect("durable path");
        if durable.pin().time() == before {
            read_only_ticks += 1;
        }
        let volatile_outputs = outcome.outputs().expect("workload commits");
        assert_eq!(&durable_outputs, volatile_outputs, "outputs for {text}");
    }
    assert_eq!(read_only_ticks, 1, "only the final query is read-only");
    assert_eq!(
        with_ticks(durable.pin().database(), read_only_ticks),
        mgr.snapshot()
    );

    // Reboot: only the durable engine survives, and it equals both.
    let expected = durable.pin().database().clone();
    drop(durable);
    let recovered = ConcurrentDb::open(
        MemStorage::from_image(storage.image()),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("recovers");
    assert_eq!(recovered.pin().database(), &expected);
    assert_eq!(
        with_ticks(recovered.pin().database(), read_only_ticks),
        mgr.snapshot()
    );
}

#[test]
fn durable_session_runs_the_readme_script() {
    let storage = MemStorage::new();
    let db = ConcurrentDb::open(
        storage.clone(),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("open");
    db.run_script(
        "relation beer (name: str, brewery: str, alcperc: real);\n\
         begin insert(beer, values (str, str, real) {\n\
           ('Grolsch','Grolsche',5.0), ('Bock','Grolsche',6.5), ('Bock','Heineken',6.3)\n\
         }); end",
    )
    .expect("script commits");
    let expected = db.pin().database().clone();
    drop(db);

    let recovered = ConcurrentDb::open(
        MemStorage::from_image(storage.image()),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("recovers");
    assert_eq!(recovered.pin().database(), &expected);
    assert_eq!(
        recovered
            .pin()
            .database()
            .relation("beer")
            .expect("declared")
            .len(),
        3
    );
}
