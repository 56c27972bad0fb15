//! Table statistics for cardinality estimation — live-maintained.
//!
//! Under multiset semantics cardinality is *two* numbers: total
//! multiplicity (`rows`) and distinct support (`distinct_rows`). Both are
//! O(1) counters on [`Relation`], so after a commit they are read off the
//! post-state exactly; only the per-column statistics (min/max bounds and
//! KMV distinct sketches) need updating, and those are updated from the
//! same signed deltas that drive view maintenance — O(|delta|), not
//! O(|relation|).
//!
//! KMV sketches cannot process deletions, and a deleted boundary value
//! cannot shrink a min/max interval. Both effects are counted as *drift*;
//! once drift crosses [`TableStats::DRIFT_LIMIT`] relative to the table
//! size the statistics fall back to a full [`TableStats::analyze`] — the
//! same `Recompute` escape hatch the view-maintenance plans use. Until
//! then the sketch over-estimates distincts and the bounds over-cover,
//! which is the conservative direction for selectivity estimation.

use std::sync::Arc;

use mera_core::prelude::*;
use mera_core::sketch::KmvSketch;
use rustc_hash::{FxHashMap, FxHashSet};

/// Sketch resolution for per-column distinct counts (RSE ≈ 6.4%).
const SKETCH_K: usize = 256;

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Estimated distinct values in the column (exact after a full
    /// analyze while below the sketch resolution).
    pub distinct: u64,
    /// Smallest value observed (None for an empty column).
    pub min: Option<Value>,
    /// Largest value observed (None for an empty column).
    pub max: Option<Value>,
    /// The distinct-count sketch backing `distinct`.
    sketch: KmvSketch,
}

impl ColumnStats {
    /// Synthetic column statistics with a given distinct count and no
    /// value bounds (tests and hand-built catalogs).
    pub fn with_distinct(distinct: u64) -> ColumnStats {
        ColumnStats {
            distinct,
            min: None,
            max: None,
            sketch: KmvSketch::new(SKETCH_K),
        }
    }

    /// Folds one inserted value into the column statistics. `distinct`
    /// only grows here — the sketch tracks everything ever inserted, so
    /// its estimate can lag a `distinct` that was seeded exactly.
    fn observe(&mut self, v: &Value) {
        self.sketch.insert(v);
        self.distinct = self.distinct.max(self.sketch.estimate());
        self.observe_bounds(v);
    }

    /// Whether `v` sits on the min/max boundary (deleting it invalidates
    /// the bound, which counts extra drift).
    fn on_boundary(&self, v: &Value) -> bool {
        self.min.as_ref() == Some(v) || self.max.as_ref() == Some(v)
    }
}

/// Statistics for one relation.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Total tuples, counted with multiplicity.
    pub rows: u64,
    /// Distinct tuples.
    pub distinct_rows: u64,
    /// Per-column statistics, in attribute order.
    pub columns: Vec<ColumnStats>,
    /// Distinct tuples deleted (or boundary-touching) since the last full
    /// analyze — the sketch/bounds error budget.
    pub drift: u64,
    /// Distinct delta tuples folded in since construction (the O(delta)
    /// witness: this, not `rows`, bounds incremental maintenance work).
    pub touched_rows: u64,
    /// Full `analyze` passes taken (1 at construction + drift fallbacks).
    pub full_scans: u64,
}

impl TableStats {
    /// Drift fallback: re-analyze once drifted tuples exceed
    /// `max(64, distinct_rows / 4)`.
    pub const DRIFT_LIMIT: u64 = 64;

    /// Computes exact statistics by scanning a relation once.
    pub fn analyze(rel: &Relation) -> TableStats {
        let arity = rel.schema().arity();
        let mut seen: Vec<FxHashSet<&Value>> = (0..arity).map(|_| FxHashSet::default()).collect();
        let mut columns: Vec<ColumnStats> =
            (0..arity).map(|_| ColumnStats::with_distinct(0)).collect();
        for t in rel.support() {
            for (i, v) in t.values().iter().enumerate() {
                if seen[i].insert(v) {
                    columns[i].sketch.insert(v);
                }
                columns[i].observe_bounds(v);
            }
        }
        for (c, s) in columns.iter_mut().zip(&seen) {
            // exact when the sketch is unsaturated; estimator otherwise
            c.distinct = if c.sketch.is_exact() {
                s.len() as u64
            } else {
                c.sketch.estimate()
            };
        }
        TableStats {
            rows: rel.len(),
            distinct_rows: rel.distinct_len() as u64,
            columns,
            drift: 0,
            touched_rows: 0,
            full_scans: 1,
        }
    }

    /// Synthetic statistics from per-column distinct counts (tests and
    /// hand-built catalogs).
    pub fn synthetic(rows: u64, distinct_rows: u64, column_distincts: &[u64]) -> TableStats {
        TableStats {
            rows,
            distinct_rows,
            columns: column_distincts
                .iter()
                .map(|&d| ColumnStats::with_distinct(d))
                .collect(),
            drift: 0,
            touched_rows: 0,
            full_scans: 0,
        }
    }

    /// Folds one commit's signed delta for this relation into the
    /// statistics. `post` is the relation *after* the commit; only its
    /// O(1) row/distinct counters are read unless drift forces a full
    /// re-analyze.
    pub fn apply_delta(&mut self, delta: &SignedBag<Tuple>, post: &Relation) {
        self.rows = post.len();
        self.distinct_rows = post.distinct_len() as u64;
        for (t, m) in delta.iter() {
            self.touched_rows += 1;
            if m > 0 {
                for (i, v) in t.values().iter().enumerate() {
                    if let Some(c) = self.columns.get_mut(i) {
                        c.observe(v);
                    }
                }
            } else {
                // deletions: the sketch cannot forget, bounds cannot
                // shrink — count drift (double when a bound is hit).
                let mut d = 1;
                for (i, v) in t.values().iter().enumerate() {
                    if self.columns.get(i).is_some_and(|c| c.on_boundary(v)) {
                        d = 2;
                        break;
                    }
                }
                self.drift += d;
            }
        }
        if self.drift > Self::DRIFT_LIMIT.max(self.distinct_rows / 4) {
            let touched = self.touched_rows;
            let scans = self.full_scans;
            *self = TableStats::analyze(post);
            self.touched_rows = touched;
            self.full_scans = scans + 1;
        }
    }

    /// Distinct count of a 1-based column, defaulting to the distinct row
    /// count when out of range (conservative). Clamped to
    /// `[1, distinct_rows]` — a column can never exceed the table's own
    /// distinct support.
    pub fn column_distinct(&self, attr: usize) -> u64 {
        self.columns
            .get(attr.wrapping_sub(1))
            .map(|c| c.distinct.clamp(1, self.distinct_rows.max(1)))
            .unwrap_or_else(|| self.distinct_rows.max(1))
    }

    /// The `[min, max]` bounds of a 1-based column, when known.
    pub fn column_bounds(&self, attr: usize) -> Option<(&Value, &Value)> {
        let c = self.columns.get(attr.wrapping_sub(1))?;
        Some((c.min.as_ref()?, c.max.as_ref()?))
    }
}

impl ColumnStats {
    /// Widens min/max only (used by `analyze`, which feeds the sketch
    /// from the deduplicated value set separately).
    fn observe_bounds(&mut self, v: &Value) {
        match &self.min {
            Some(m) if v >= m => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if v <= m => {}
            _ => self.max = Some(v.clone()),
        }
    }
}

/// Statistics for every relation in a database, stamped with the logical
/// time they describe. Per-table statistics are shared copy-on-write:
/// cloning the catalog copies one `Arc` per table, and
/// [`Self::apply_commit`] copies only the table it folds.
#[derive(Debug, Clone, Default)]
pub struct CatalogStats {
    tables: FxHashMap<String, Arc<TableStats>>,
    /// Logical time of the database state these statistics describe.
    as_of: Option<LogicalTime>,
}

impl CatalogStats {
    /// Empty statistics (every lookup falls back to defaults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Analyzes every relation of a database (one full scan each).
    pub fn from_database(db: &Database) -> CoreResult<CatalogStats> {
        let mut tables = FxHashMap::default();
        for name in db.relation_names() {
            tables.insert(
                name.to_owned(),
                Arc::new(TableStats::analyze(db.relation(name)?)),
            );
        }
        Ok(CatalogStats {
            tables,
            as_of: Some(db.time()),
        })
    }

    /// The logical time these statistics describe, if stamped.
    pub fn as_of(&self) -> Option<LogicalTime> {
        self.as_of
    }

    /// Whether the statistics already describe `db`'s current state — the
    /// logical-time cache key that lets repeated plan calls within one
    /// transaction skip rescanning.
    pub fn is_current(&self, db: &Database) -> bool {
        self.as_of == Some(db.time())
    }

    /// Brings the statistics up to date with `db`, re-analyzing only when
    /// the logical time moved (cache hit = no scan at all).
    pub fn refresh_from(&mut self, db: &Database) -> CoreResult<()> {
        if self.is_current(db) {
            return Ok(());
        }
        *self = CatalogStats::from_database(db)?;
        Ok(())
    }

    /// Folds one committed relation delta into the catalog. `post` is the
    /// relation after the commit; relations never analyzed before get a
    /// one-time full scan.
    pub fn apply_commit(&mut self, name: &str, delta: &SignedBag<Tuple>, post: &Relation) {
        match self.tables.get_mut(name) {
            Some(t) => Arc::make_mut(t).apply_delta(delta, post),
            None => {
                self.tables
                    .insert(name.to_owned(), Arc::new(TableStats::analyze(post)));
            }
        }
    }

    /// Stamps the catalog as describing the state at logical time `t`
    /// (call once per commit, after all deltas are applied).
    pub fn set_as_of(&mut self, t: LogicalTime) {
        self.as_of = Some(t);
    }

    /// Registers statistics for a named relation.
    pub fn insert(&mut self, name: impl Into<String>, stats: TableStats) {
        self.tables.insert(name.into(), Arc::new(stats));
    }

    /// Statistics for a relation, if known.
    pub fn get(&self, name: &str) -> Option<&TableStats> {
        self.tables.get(name).map(AsRef::as_ref)
    }

    /// Iterates over every `(relation, stats)` pair.
    pub fn tables(&self) -> impl Iterator<Item = (&String, &TableStats)> {
        self.tables.iter().map(|(name, t)| (name, t.as_ref()))
    }

    /// Total delta tuples folded in across all relations (the O(delta)
    /// maintenance-work witness).
    pub fn touched_rows(&self) -> u64 {
        self.tables.values().map(|t| t.touched_rows).sum()
    }

    /// Total full-analyze passes across all relations (1 per relation at
    /// construction; more only on drift fallbacks).
    pub fn full_scans(&self) -> u64 {
        self.tables.values().map(|t| t.full_scans).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mera_core::tuple;
    use std::sync::Arc;

    #[test]
    fn analyze_counts_rows_and_distincts() {
        let rel = Relation::from_counted(
            Arc::new(Schema::anon(&[DataType::Int, DataType::Str])),
            vec![
                (tuple![1_i64, "a"], 3),
                (tuple![2_i64, "a"], 1),
                (tuple![2_i64, "b"], 2),
            ],
        )
        .expect("well-typed");
        let s = TableStats::analyze(&rel);
        assert_eq!(s.rows, 6);
        assert_eq!(s.distinct_rows, 3);
        assert_eq!(s.columns[0].distinct, 2);
        assert_eq!(s.columns[1].distinct, 2);
        assert_eq!(s.column_distinct(1), 2);
        // out-of-range column falls back to distinct rows
        assert_eq!(s.column_distinct(9), 3);
        // bounds
        let (lo, hi) = s.column_bounds(1).expect("bounds");
        assert_eq!(lo, &Value::Int(1));
        assert_eq!(hi, &Value::Int(2));
    }

    #[test]
    fn empty_relation_stats() {
        let rel = Relation::empty(Arc::new(Schema::anon(&[DataType::Int])));
        let s = TableStats::analyze(&rel);
        assert_eq!(s.rows, 0);
        assert_eq!(s.column_distinct(1), 1); // clamped to ≥ 1
        assert!(s.column_bounds(1).is_none());
    }

    #[test]
    fn catalog_stats_from_database() {
        let schema = DatabaseSchema::new()
            .with("r", Schema::anon(&[DataType::Int]))
            .expect("fresh");
        let mut db = Database::new(schema);
        db.relation_mut("r")
            .and_then(|r| r.insert(tuple![7_i64], 4))
            .expect("update");
        let cs = CatalogStats::from_database(&db).expect("analyze");
        assert_eq!(cs.get("r").expect("present").rows, 4);
        assert!(cs.get("zzz").is_none());
        assert!(cs.is_current(&db));
    }

    #[test]
    fn apply_delta_tracks_inserts_incrementally() {
        let schema = Arc::new(Schema::anon(&[DataType::Int]));
        let mut rel = Relation::empty(Arc::clone(&schema));
        for i in 0..10_i64 {
            rel.insert(tuple![i], 1).expect("typed");
        }
        let mut s = TableStats::analyze(&rel);
        assert_eq!(s.column_distinct(1), 10);

        // commit: insert 5 new values
        let mut delta = SignedBag::new();
        let mut post = rel.clone();
        for i in 10..15_i64 {
            delta.insert(tuple![i], 1).expect("delta");
            post.insert(tuple![i], 1).expect("typed");
        }
        s.apply_delta(&delta, &post);
        assert_eq!(s.rows, 15);
        assert_eq!(s.distinct_rows, 15);
        assert_eq!(s.column_distinct(1), 15);
        assert_eq!(s.touched_rows, 5);
        assert_eq!(s.full_scans, 1); // no drift fallback
        let (lo, hi) = s.column_bounds(1).expect("bounds");
        assert_eq!(lo, &Value::Int(0));
        assert_eq!(hi, &Value::Int(14));
    }

    #[test]
    fn deletions_drift_and_trigger_recompute() {
        let schema = Arc::new(Schema::anon(&[DataType::Int]));
        let mut rel = Relation::empty(Arc::clone(&schema));
        for i in 0..400_i64 {
            rel.insert(tuple![i], 1).expect("typed");
        }
        let mut s = TableStats::analyze(&rel);

        // delete 300 of the 400 values in one commit: drift blows past
        // max(64, 100/4) and forces a full re-analyze of the post state
        let mut delta = SignedBag::new();
        let mut post = rel.clone();
        for i in 100..400_i64 {
            delta.insert(tuple![i], -1).expect("delta");
            post.remove(&tuple![i], 1);
        }
        s.apply_delta(&delta, &post);
        assert_eq!(s.rows, 100);
        assert_eq!(s.full_scans, 2, "drift fallback re-analyzed");
        assert_eq!(s.drift, 0, "fallback resets drift");
        assert_eq!(s.column_distinct(1), 100, "post-fallback stats exact");
        let (_, hi) = s.column_bounds(1).expect("bounds");
        assert_eq!(hi, &Value::Int(99), "bound shrank after re-analyze");
    }

    #[test]
    fn small_deletions_stay_incremental() {
        let schema = Arc::new(Schema::anon(&[DataType::Int]));
        let mut rel = Relation::empty(Arc::clone(&schema));
        for i in 0..1000_i64 {
            rel.insert(tuple![i], 1).expect("typed");
        }
        let mut s = TableStats::analyze(&rel);
        let mut delta = SignedBag::new();
        let mut post = rel.clone();
        delta.insert(tuple![5_i64], -1).expect("delta");
        post.remove(&tuple![5_i64], 1);
        s.apply_delta(&delta, &post);
        assert_eq!(s.full_scans, 1, "one deletion must not rescan");
        assert_eq!(s.rows, 999);
        // distinct stays within the sketch's error envelope (≈6% RSE)
        let d = s.column_distinct(1) as f64;
        assert!((d - 999.0).abs() / 999.0 < 0.25, "distinct {d}");
    }

    #[test]
    fn catalog_cache_keyed_by_logical_time() {
        let schema = DatabaseSchema::new()
            .with("r", Schema::anon(&[DataType::Int]))
            .expect("fresh");
        let mut db = Database::new(schema);
        db.relation_mut("r")
            .and_then(|r| r.insert(tuple![1_i64], 1))
            .expect("update");
        let mut cs = CatalogStats::from_database(&db).expect("analyze");
        let scans = cs.full_scans();
        // same logical time: refresh is a no-op
        cs.refresh_from(&db).expect("refresh");
        assert_eq!(cs.full_scans(), scans, "cache hit must not rescan");
        // time moves: refresh rescans
        db.tick();
        assert!(!cs.is_current(&db));
        cs.refresh_from(&db).expect("refresh");
        assert!(cs.is_current(&db));
    }
}
