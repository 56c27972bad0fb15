//! Multi-set relations (Definitions 2.2–2.4) and the schema-checked
//! operator kernels of Definitions 3.1–3.2.
//!
//! A [`Relation`] is a [`Bag`] of [`Tuple`]s paired with the schema the bag
//! is defined on. Every operator validates schema compatibility before
//! delegating the multiplicity arithmetic to the bag layer, so this module
//! is the *semantics kernel* the reference evaluator is built from.
//!
//! The bag is shared copy-on-write: cloning a relation is an `Arc` clone,
//! and the first mutation of a shared instance copies its bag once. A
//! database state, every transaction's working copy of it and every
//! retained version therefore share the relations none of them changed.

use std::fmt;
use std::sync::Arc;

use crate::error::CoreResult;
use crate::multiset::Bag;
use crate::schema::{Schema, SchemaRef};
use crate::tuple::{AttrList, Tuple};

/// A relation instance: a multi-set of tuples over a schema.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: SchemaRef,
    tuples: Arc<Bag<Tuple>>,
}

impl Relation {
    /// The empty relation over `schema`.
    pub fn empty(schema: SchemaRef) -> Self {
        Relation::from_bag(schema, Bag::new())
    }

    /// Builds a relation from duplicated tuples, validating each against the
    /// schema.
    pub fn from_tuples<I>(schema: SchemaRef, tuples: I) -> CoreResult<Self>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let mut rel = Relation::empty(schema);
        for t in tuples {
            rel.insert(t, 1)?;
        }
        Ok(rel)
    }

    /// Builds a relation from `(tuple, multiplicity)` pairs.
    pub fn from_counted<I>(schema: SchemaRef, pairs: I) -> CoreResult<Self>
    where
        I: IntoIterator<Item = (Tuple, u64)>,
    {
        let mut rel = Relation::empty(schema);
        for (t, m) in pairs {
            rel.insert(t, m)?;
        }
        Ok(rel)
    }

    /// Rebuilds a relation from an already-validated bag (crate-internal
    /// fast path for operators that cannot produce ill-typed tuples).
    pub(crate) fn from_bag(schema: SchemaRef, tuples: Bag<Tuple>) -> Self {
        Relation {
            schema,
            tuples: Arc::new(tuples),
        }
    }

    /// The schema this relation is defined on.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Cardinality: number of tuples counted with multiplicity.
    pub fn len(&self) -> u64 {
        self.tuples.len()
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Number of distinct tuples.
    pub fn distinct_len(&self) -> usize {
        self.tuples.distinct_len()
    }

    /// The multiplicity `R(x)` of a tuple.
    pub fn multiplicity(&self, t: &Tuple) -> u64 {
        self.tuples.multiplicity(t)
    }

    /// Membership `r ∈ R ⟺ R(r) > 0` (Definition 2.4).
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains(t)
    }

    /// Adds `m` occurrences of a tuple after validating it against the
    /// schema.
    pub fn insert(&mut self, t: Tuple, m: u64) -> CoreResult<()> {
        self.schema.check_tuple(&t)?;
        if m == 0 {
            return Ok(());
        }
        Arc::make_mut(&mut self.tuples).insert(t, m)
    }

    /// Removes up to `m` occurrences of a tuple, returning how many were
    /// removed. A removal that finds nothing leaves a shared bag shared.
    pub fn remove(&mut self, t: &Tuple, m: u64) -> u64 {
        if m == 0 || !self.tuples.contains(t) {
            return 0;
        }
        Arc::make_mut(&mut self.tuples).remove(t, m)
    }

    /// In-place union `R ← R ⊎ E`: O(|E|), and all-or-nothing on
    /// multiplicity overflow. An empty `E` leaves a shared bag shared.
    pub fn union_in_place(&mut self, other: &Relation) -> CoreResult<()> {
        self.schema.check_same_types(&other.schema)?;
        if other.is_empty() {
            return Ok(());
        }
        Arc::make_mut(&mut self.tuples).union_in_place(&other.tuples)
    }

    /// In-place difference `R ← R − E` (`max(0, m₁ − m₂)` pointwise):
    /// O(|E|), and only a removal that finds something unshares the bag.
    pub fn difference_in_place(&mut self, other: &Relation) -> CoreResult<()> {
        self.schema.check_same_types(&other.schema)?;
        for (t, m) in other.iter() {
            self.remove(t, m);
        }
        Ok(())
    }

    /// Iterates `(tuple, multiplicity)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, u64)> {
        self.tuples.iter()
    }

    /// Iterates distinct tuples.
    pub fn support(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.support()
    }

    /// Iterates tuples with duplicates expanded.
    pub fn iter_expanded(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.iter_expanded()
    }

    /// `(tuple, multiplicity)` pairs sorted by tuple — a deterministic view
    /// for golden tests and display.
    pub fn sorted_pairs(&self) -> Vec<(Tuple, u64)> {
        let mut v: Vec<(Tuple, u64)> = self.iter().map(|(t, m)| (t.clone(), m)).collect();
        v.sort();
        v
    }

    /// The underlying bag (read-only).
    pub fn bag(&self) -> &Bag<Tuple> {
        &self.tuples
    }

    /// Consumes the relation, returning its bag (copied only if another
    /// relation still shares it).
    pub fn into_bag(self) -> Bag<Tuple> {
        Arc::unwrap_or_clone(self.tuples)
    }

    // ------------------------------------------------------------------
    // Definition 2.3: comparison operators
    // ------------------------------------------------------------------

    /// Multi-subset `R₁ ⊑ R₂`; requires type-compatible schemas.
    pub fn is_submultiset(&self, other: &Relation) -> CoreResult<bool> {
        self.schema.check_same_types(&other.schema)?;
        Ok(self.tuples.is_submultiset(&other.tuples))
    }

    // ------------------------------------------------------------------
    // Definition 3.1/3.2: operator kernels
    // ------------------------------------------------------------------

    /// Union `R₁ ⊎ R₂`: multiplicities add. Result keeps the left schema
    /// (the two must be type-compatible).
    pub fn union(&self, other: &Relation) -> CoreResult<Relation> {
        self.schema.check_same_types(&other.schema)?;
        Ok(Relation::from_bag(
            Arc::clone(&self.schema),
            self.tuples.union(&other.tuples)?,
        ))
    }

    /// Difference `R₁ − R₂`: `max(0, m₁ − m₂)` pointwise.
    pub fn difference(&self, other: &Relation) -> CoreResult<Relation> {
        self.schema.check_same_types(&other.schema)?;
        Ok(Relation::from_bag(
            Arc::clone(&self.schema),
            self.tuples.difference(&other.tuples),
        ))
    }

    /// Intersection `R₁ ∩ R₂`: `min(m₁, m₂)` pointwise.
    pub fn intersection(&self, other: &Relation) -> CoreResult<Relation> {
        self.schema.check_same_types(&other.schema)?;
        Ok(Relation::from_bag(
            Arc::clone(&self.schema),
            self.tuples.intersection(&other.tuples),
        ))
    }

    /// Product `R₁ × R₂`: tuples concatenate, multiplicities multiply.
    pub fn product(&self, other: &Relation) -> CoreResult<Relation> {
        let schema = Arc::new(self.schema.concat(&other.schema));
        let bag = self.tuples.product(&other.tuples, |x, y| x.concat(y))?;
        Ok(Relation::from_bag(schema, bag))
    }

    /// Selection `σ_φ(R)` for an arbitrary predicate closure; multiplicities
    /// are preserved. The closure is the paper's "function from dom(E) into
    /// the boolean domain".
    pub fn select<F>(&self, predicate: F) -> CoreResult<Relation>
    where
        F: FnMut(&Tuple) -> CoreResult<bool>,
    {
        Ok(Relation::from_bag(
            Arc::clone(&self.schema),
            self.tuples.filter(predicate)?,
        ))
    }

    /// Projection `π_a(R)`: tuples project, multiplicities of collapsing
    /// tuples *sum* — the heart of bag semantics.
    pub fn project(&self, a: &AttrList) -> CoreResult<Relation> {
        a.check_arity(self.schema.arity())?;
        let schema = Arc::new(self.schema.project(a)?);
        let bag = self.tuples.map(|t| t.project(a))?;
        Ok(Relation::from_bag(schema, bag))
    }

    /// Generalised projection through an arbitrary tuple function producing
    /// tuples of `out_schema` (used by the extended projection of
    /// Definition 3.4); multiplicities of collapsing images sum.
    pub fn map_tuples<F>(&self, out_schema: SchemaRef, f: F) -> CoreResult<Relation>
    where
        F: FnMut(&Tuple) -> CoreResult<Tuple>,
    {
        let bag = self.tuples.map(f)?;
        for t in bag.support() {
            out_schema.check_tuple(t)?;
        }
        Ok(Relation::from_bag(out_schema, bag))
    }

    /// Duplicate elimination `δR` (Definition 3.4).
    pub fn distinct(&self) -> Relation {
        Relation::from_bag(Arc::clone(&self.schema), self.tuples.distinct())
    }
}

/// Relation equality (Definition 2.3): type-compatible schemas and pointwise
/// equal multiplicities.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema.same_types(&other.schema) && self.tuples == other.tuples
    }
}

impl Eq for Relation {}

/// Borrowing a relation as itself lets code written against `&Relation`,
/// `Arc<Relation>` or any other `AsRef<Relation>` holder take a plain
/// relation too (relations are cheap to share, so a plain one is common).
impl AsRef<Relation> for Relation {
    fn as_ref(&self) -> &Relation {
        self
    }
}

impl fmt::Display for Relation {
    /// Renders the relation as a fixed-width table with a multiplicity
    /// column, rows sorted for determinism.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self
            .schema
            .attributes()
            .iter()
            .enumerate()
            .map(|(i, a)| match &a.name {
                Some(n) => n.clone(),
                None => format!("%{}", i + 1),
            })
            .collect();
        let rows = self.sorted_pairs();
        let cells: Vec<Vec<String>> = rows
            .iter()
            .map(|(t, m)| {
                let mut row: Vec<String> = t.values().iter().map(|v| v.to_string()).collect();
                row.push(m.to_string());
                row
            })
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        widths.push(1); // the "#" multiplicity column
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                if c.len() > widths[i] {
                    widths[i] = c.len();
                }
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cols: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cols.iter().enumerate() {
                write!(f, " {c:<w$} |", w = widths[i])?;
            }
            writeln!(f)
        };
        let mut header_cols = headers;
        header_cols.push("#".to_owned());
        write_row(f, &header_cols)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<w$}|", "", w = w + 2)?;
        }
        writeln!(f)?;
        for row in &cells {
            write_row(f, row)?;
        }
        write!(
            f,
            "({} tuples, {} distinct)",
            self.len(),
            self.distinct_len()
        )
    }
}

/// Builds a [`Relation`] together with its schema in one expression; see
/// crate-level docs for an example.
pub fn relation_of(schema: Schema, rows: Vec<Tuple>) -> CoreResult<Relation> {
    Relation::from_tuples(Arc::new(schema), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::tuple;
    use crate::types::DataType;

    fn ints(rows: &[i64]) -> Relation {
        let schema = Arc::new(Schema::anon(&[DataType::Int]));
        Relation::from_tuples(schema, rows.iter().map(|&i| tuple![i])).unwrap()
    }

    fn beer() -> Relation {
        relation_of(
            Schema::named(&[
                ("name", DataType::Str),
                ("brewery", DataType::Str),
                ("alcperc", DataType::Real),
            ]),
            vec![
                tuple!["Grolsch", "Grolsche", 5.0_f64],
                tuple!["Heineken", "Heineken", 5.0_f64],
                tuple!["Heineken", "Heineken", 5.0_f64], // duplicate
                tuple!["Guinness", "StJames", 4.2_f64],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_tuples() {
        let schema = Arc::new(Schema::anon(&[DataType::Int]));
        let ok = Relation::from_tuples(Arc::clone(&schema), vec![tuple![1_i64]]);
        assert!(ok.is_ok());
        let bad = Relation::from_tuples(schema, vec![tuple!["x"]]);
        assert!(matches!(bad, Err(CoreError::TupleSchemaMismatch { .. })));
    }

    #[test]
    fn duplicates_are_counted() {
        let r = beer();
        assert_eq!(r.len(), 4);
        assert_eq!(r.distinct_len(), 3);
        assert_eq!(r.multiplicity(&tuple!["Heineken", "Heineken", 5.0_f64]), 2);
    }

    #[test]
    fn union_requires_compatible_schema() {
        let a = ints(&[1, 2]);
        let b = beer();
        assert!(matches!(a.union(&b), Err(CoreError::SchemaMismatch { .. })));
    }

    #[test]
    fn union_difference_intersection() {
        let a = ints(&[1, 1, 2]);
        let b = ints(&[1, 3]);
        let u = a.union(&b).unwrap();
        assert_eq!(u.multiplicity(&tuple![1_i64]), 3);
        assert_eq!(u.len(), 5);
        let d = a.difference(&b).unwrap();
        assert_eq!(d.multiplicity(&tuple![1_i64]), 1);
        assert_eq!(d.multiplicity(&tuple![2_i64]), 1);
        assert_eq!(d.multiplicity(&tuple![3_i64]), 0);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.multiplicity(&tuple![1_i64]), 1);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn product_concatenates_and_multiplies() {
        let a = ints(&[1, 1]);
        let b = beer();
        let p = a.product(&b).unwrap();
        assert_eq!(p.schema().arity(), 4);
        assert_eq!(p.len(), a.len() * b.len());
        assert_eq!(
            p.multiplicity(&tuple![1_i64, "Heineken", "Heineken", 5.0_f64]),
            4 // 2 copies of <1> × 2 copies of the Heineken row
        );
    }

    #[test]
    fn select_preserves_multiplicity() {
        let r = beer();
        let s = r
            .select(|t| Ok(t.attr(3).unwrap().as_f64().unwrap() >= 5.0))
            .unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.multiplicity(&tuple!["Heineken", "Heineken", 5.0_f64]), 2);
    }

    #[test]
    fn project_sums_collapsing_multiplicities() {
        let r = beer();
        let p = r.project(&AttrList::new(vec![3]).unwrap()).unwrap();
        // 5.0 appears for Grolsch (×1) and Heineken (×2)
        assert_eq!(p.multiplicity(&tuple![5.0_f64]), 3);
        assert_eq!(p.multiplicity(&tuple![4.2_f64]), 1);
        assert_eq!(p.len(), r.len()); // projection never loses tuples under bags
    }

    #[test]
    fn distinct_removes_duplicates() {
        let r = beer();
        let d = r.distinct();
        assert_eq!(d.len(), 3);
        assert_eq!(d.multiplicity(&tuple!["Heineken", "Heineken", 5.0_f64]), 1);
    }

    #[test]
    fn equality_ignores_attribute_names() {
        let a = ints(&[1, 2]);
        let named = Relation::from_tuples(
            Arc::new(Schema::named(&[("n", DataType::Int)])),
            vec![tuple![2_i64], tuple![1_i64]],
        )
        .unwrap();
        assert_eq!(a, named);
    }

    #[test]
    fn submultiset_checks_schema_then_counts() {
        let a = ints(&[1]);
        let b = ints(&[1, 1, 2]);
        assert!(a.is_submultiset(&b).unwrap());
        assert!(!b.is_submultiset(&a).unwrap());
        assert!(a.is_submultiset(&beer()).is_err());
    }

    #[test]
    fn display_renders_sorted_table() {
        let r = ints(&[2, 1, 1]);
        let s = r.to_string();
        assert!(s.contains("%1"), "{s}");
        let one = s.find("| 1").unwrap();
        let two = s.find("| 2").unwrap();
        assert!(one < two);
        assert!(s.contains("(3 tuples, 2 distinct)"));
    }

    #[test]
    fn remove_decrements() {
        let mut r = ints(&[1, 1, 2]);
        assert_eq!(r.remove(&tuple![1_i64], 1), 1);
        assert_eq!(r.len(), 2);
        assert_eq!(r.remove(&tuple![9_i64], 1), 0);
    }

    #[test]
    fn clones_share_until_written() {
        let a = ints(&[1, 1, 2]);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.tuples, &b.tuples));
        // misses and no-op writes keep the bag shared
        assert_eq!(b.remove(&tuple![9_i64], 1), 0);
        b.insert(tuple![1_i64], 0).unwrap();
        b.union_in_place(&ints(&[])).unwrap();
        b.difference_in_place(&ints(&[7])).unwrap();
        assert!(Arc::ptr_eq(&a.tuples, &b.tuples));
        // the first real write copies once; the original is untouched
        b.insert(tuple![3_i64], 1).unwrap();
        assert!(!Arc::ptr_eq(&a.tuples, &b.tuples));
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn in_place_union_and_difference_match_the_operators() {
        let a = ints(&[1, 1, 2, 3]);
        let e = ints(&[1, 2, 2, 4]);
        let mut u = a.clone();
        u.union_in_place(&e).unwrap();
        assert_eq!(u, a.union(&e).unwrap());
        let mut d = a.clone();
        d.difference_in_place(&e).unwrap();
        assert_eq!(d, a.difference(&e).unwrap());
        assert!(matches!(
            d.union_in_place(&beer()),
            Err(CoreError::SchemaMismatch { .. })
        ));
        assert!(d.difference_in_place(&beer()).is_err());
    }

    #[test]
    fn in_place_union_overflow_changes_nothing() {
        let mut a = ints(&[1]);
        let mut huge = Relation::empty(Arc::clone(a.schema()));
        huge.insert(tuple![2_i64], u64::MAX).unwrap();
        assert!(matches!(
            a.union_in_place(&huge),
            Err(CoreError::Overflow(_))
        ));
        assert_eq!(a, ints(&[1]));
    }

    #[test]
    fn map_tuples_validates_output_schema() {
        let r = ints(&[1, 2]);
        let out = Arc::new(Schema::anon(&[DataType::Int]));
        let doubled = r
            .map_tuples(Arc::clone(&out), |t| Ok(tuple![t.attr(1)?.as_int()? * 2]))
            .unwrap();
        assert!(doubled.contains(&tuple![4_i64]));
        let bad = r.map_tuples(out, |_| Ok(tuple!["oops"]));
        assert!(bad.is_err());
    }
}
