//! # mera-store — durability for the transaction log
//!
//! The paper's transaction model (§4.3) treats a database as a sequence
//! of states `D_0 → D_1 → …` where each committed transaction is a
//! transition. `mera-txn` realizes the transitions and keeps a *logical*
//! redo log of committed programs; this crate makes that log — and
//! therefore the whole state sequence — survive process death:
//!
//! * [`wal`] — a write-ahead log of length-prefixed, CRC-32-checked,
//!   versioned records: one `Commit` per committed writing transaction
//!   (logical time + the program as XRA text) and one `Declare` per
//!   relation added to the schema. Recovery truncates torn tails;
//!   CRC-valid garbage is a hard error.
//! * [`snapshot`] — checkpoint images of a full [`Database`] at one
//!   logical time, swapped in atomically so a crash never exposes a
//!   half-written snapshot.
//! * [`ConcurrentDb`] — the durable database: MVCC snapshots over a
//!   version chain, with log-then-publish commits through a shared WAL and
//!   cross-client group commit. A commit is acknowledged only once its
//!   record is written and, unless [`FsyncPolicy::Never`], fsynced;
//!   aborts and read-only transactions write nothing. [`ConcurrentDb::open`] runs recovery,
//!   and [`ConcurrentDb::run_sql`] / [`ConcurrentDb::run_script`] are its
//!   SQL and XRA-script front doors.
//! * [`Storage`] — the five-operation backend trait, with [`DirStorage`]
//!   (real files) and [`MemStorage`] (deterministic fault injection:
//!   crash after N write units, inspect the surviving bytes, reboot).
//!
//! The crash-recovery contract, tested by the crash matrices in
//! `tests/*crash_matrix.rs`: after a crash at *any* write boundary,
//! recovery yields exactly the state produced by some prefix of the
//! durable history — never a torn state, never reordered effects.
//!
//! ```
//! use mera_core::prelude::*;
//! use mera_store::{ConcurrentDb, MemStorage, StoreOptions};
//!
//! let schema = DatabaseSchema::new()
//!     .with("beer", Schema::named(&[("name", DataType::Str)]))?;
//! let disk = MemStorage::new();
//! let db = ConcurrentDb::open(disk.clone(), schema, StoreOptions::default())?;
//! db.run_sql("INSERT INTO beer VALUES ('Grolsch')")?;
//! drop(db); // "power loss"
//!
//! let rebooted = MemStorage::from_image(disk.image());
//! let db = ConcurrentDb::open(rebooted, DatabaseSchema::new(), StoreOptions::default())?;
//! assert_eq!(db.pin().database().relation("beer")?.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod concurrent;
pub mod crc;
pub mod error;
mod recovery;
pub mod snapshot;
pub mod storage;
pub mod wal;

pub use concurrent::{is_conflict, ConcurrentDb, FsyncPolicy, StoreOptions};
pub use error::{StoreError, StoreResult};
pub use snapshot::SNAPSHOT_FILE;
pub use storage::{DirStorage, MemStorage, Storage};
pub use wal::{ScanResult, WalRecord, WAL_FILE};

#[cfg(doc)]
use mera_core::prelude::Database;
