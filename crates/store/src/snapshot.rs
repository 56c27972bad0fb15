//! Checkpoint snapshots: a full [`Database`] image at one logical time.
//!
//! # File layout
//!
//! ```text
//! +-----------------+  8 bytes  magic "MERASNP1"
//! | header          |
//! +-----------------+
//! | u32le body_len  |
//! | u32le crc32     |  over the body bytes
//! +-----------------+
//! | body            |  version, logical time, relations
//! +-----------------+
//! ```
//!
//! Body: `u8` version, `u64le` logical time, `u32le` relation count, then
//! per relation (in name order, so equal databases produce identical
//! bytes): name, schema, `u64le` distinct-tuple count, and per distinct
//! tuple its multiplicity (`u64le`) followed by the attribute values in
//! schema order. Interned strings are resolved to their text — a snapshot
//! must not depend on any process-local interner state.
//!
//! Snapshots are written via [`Storage::replace_atomic`], so a crash
//! during checkpointing leaves the previous snapshot (or none) intact;
//! there is never a half-written snapshot under the live name. Because a
//! snapshot captures the database *at* its logical time, the WAL can be
//! truncated to empty immediately after the rename commits.
//!
//! [`Storage::replace_atomic`]: crate::storage::Storage::replace_atomic

use crate::codec::{self, Reader};
use crate::crc::crc32;
use crate::error::{StoreError, StoreResult};
use mera_core::prelude::*;

/// Name of the checkpoint snapshot file inside a [`Storage`] root.
///
/// [`Storage`]: crate::storage::Storage
pub const SNAPSHOT_FILE: &str = "mera.snapshot";

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"MERASNP1";

/// Format version written into the snapshot body.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Serializes a database into snapshot bytes.
pub fn encode(db: &Database) -> Vec<u8> {
    let mut body = vec![SNAPSHOT_VERSION];
    body.extend_from_slice(&db.time().to_le_bytes());

    let mut names: Vec<&str> = db.relation_names().collect();
    names.sort_unstable();
    body.extend_from_slice(&(names.len() as u32).to_le_bytes());
    for name in names {
        let rel = db.relation(name).expect("name came from the database");
        codec::put_str(&mut body, name);
        codec::put_schema(&mut body, rel.schema());
        let pairs = rel.sorted_pairs();
        body.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
        for (tuple, count) in pairs {
            body.extend_from_slice(&count.to_le_bytes());
            for v in tuple.values() {
                codec::put_value(&mut body, v);
            }
        }
    }

    let mut out = SNAPSHOT_MAGIC.to_vec();
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Reconstructs a database from snapshot bytes.
pub fn decode(bytes: &[u8]) -> StoreResult<Database> {
    let corrupt = |msg: String| StoreError::CorruptSnapshot(msg);
    let bad = |e: codec::DecodeError| StoreError::CorruptSnapshot(e.0);

    if bytes.len() < SNAPSHOT_MAGIC.len() || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(corrupt("missing MERASNP1 header".to_string()));
    }
    let rest = &bytes[SNAPSHOT_MAGIC.len()..];
    if rest.len() < 8 {
        return Err(corrupt("truncated snapshot header".to_string()));
    }
    let body_len = u32::from_le_bytes(rest[..4].try_into().expect("len 4")) as usize;
    let stored_crc = u32::from_le_bytes(rest[4..8].try_into().expect("len 4"));
    if rest.len() < 8 + body_len {
        return Err(corrupt(format!(
            "snapshot body truncated: header promises {body_len} bytes, file has {}",
            rest.len() - 8
        )));
    }
    let body = &rest[8..8 + body_len];
    if crc32(body) != stored_crc {
        return Err(corrupt("snapshot checksum mismatch".to_string()));
    }

    let mut r = Reader::new(body);
    let version = r.u8().map_err(bad)?;
    if version != SNAPSHOT_VERSION {
        return Err(corrupt(format!(
            "unknown snapshot version {version} (this build reads v{SNAPSHOT_VERSION})"
        )));
    }
    let time = r.u64().map_err(bad)?;
    let rel_count = r.u32().map_err(bad)? as usize;

    let mut schema = DatabaseSchema::new();
    let mut relations = Vec::with_capacity(rel_count);
    for _ in 0..rel_count {
        let name = r.str().map_err(bad)?;
        let rel_schema = codec::read_schema(&mut r).map_err(bad)?;
        let rs = RelationSchema::new(name.clone(), rel_schema);
        let schema_ref = rs.schema.clone();
        schema.add(rs)?;

        let distinct = r.u64().map_err(bad)? as usize;
        let mut pairs = Vec::with_capacity(distinct);
        for _ in 0..distinct {
            let count = r.u64().map_err(bad)?;
            let mut values = Vec::with_capacity(schema_ref.arity());
            for attr in schema_ref.attributes() {
                values.push(codec::read_value(&mut r, attr.dtype).map_err(bad)?);
            }
            pairs.push((Tuple::new(values), count));
        }
        relations.push((name, Relation::from_counted(schema_ref, pairs)?));
    }
    if !r.is_exhausted() {
        return Err(corrupt(format!(
            "{} trailing bytes after snapshot body",
            r.remaining()
        )));
    }

    Ok(Database::from_parts(schema, relations, time)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mera_core::tuple;

    fn sample_db() -> Database {
        let schema = DatabaseSchema::new()
            .with(
                "accounts",
                Schema::named(&[("owner", DataType::Str), ("balance", DataType::Int)]),
            )
            .unwrap()
            .with("flags", Schema::anon(&[DataType::Bool]))
            .unwrap();
        let mut db = Database::new(schema);
        let accounts = db.relation_mut("accounts").unwrap();
        accounts.insert(tuple!["ann", 10_i64], 2).unwrap();
        accounts.insert(tuple!["bob", -3_i64], 1).unwrap();
        db.tick();
        db.tick();
        db
    }

    #[test]
    fn snapshot_roundtrips_database() {
        let db = sample_db();
        let bytes = encode(&db);
        let back = decode(&bytes).expect("intact snapshot");
        assert_eq!(back, db);
        assert_eq!(back.time(), db.time());
    }

    #[test]
    fn encoding_is_deterministic() {
        let db = sample_db();
        assert_eq!(encode(&db), encode(&db));
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let bytes = encode(&sample_db());
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode(&bytes[..cut]), Err(StoreError::CorruptSnapshot(_))),
                "cut at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn bit_flip_is_detected() {
        let base = encode(&sample_db());
        for i in 0..base.len() {
            let mut bytes = base.clone();
            bytes[i] ^= 0x01;
            assert!(
                decode(&bytes).is_err(),
                "flip at byte {i} must not decode cleanly"
            );
        }
    }

    #[test]
    fn empty_database_snapshots_fine() {
        let db = Database::new(DatabaseSchema::new());
        let back = decode(&encode(&db)).unwrap();
        assert_eq!(back, db);
    }
}
