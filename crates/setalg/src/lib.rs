//! # mera-setalg — the classical *set*-semantics relational algebra
//! baseline
//!
//! The paper motivates multi-set semantics with two claims about the
//! set-based model (§1 and Example 3.2):
//!
//! 1. "the high costs of duplicate removal in database operations is often
//!    prohibitive" — a set-based engine must eliminate duplicates after
//!    every duplicate-producing operator;
//! 2. under set semantics, inserting a projection before an aggregation
//!    "produces a different (and incorrect) result", because the projection
//!    collapses duplicates that the aggregate should have seen.
//!
//! This crate is the comparator that makes both claims measurable: a
//! faithful set-semantics evaluator over the same expression trees,
//! relations and workloads as the multi-set engine. Every operator's output
//! is a set (all multiplicities 1), enforced the way a set-based system
//! would — by deduplicating after each duplicate-producing step.
//!
//! Used by experiments E6 (Example 3.2 correctness divergence) and E7
//! (duplicate-removal cost sweep), see `EXPERIMENTS.md`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use mera_core::prelude::*;
use mera_eval::provider::{RelationProvider, Schemas};
use mera_expr::rel::RelExpr;
use mera_expr::Aggregate;
use rustc_hash::FxHashMap;

/// Evaluates an expression under classical *set* semantics: stored
/// relations are read as sets (duplicates discarded) and every operator
/// yields a set.
///
/// The operator implementations follow the standard set-based relational
/// algebra: union/difference/intersection are the set versions; selection
/// filters; projection deduplicates its output (the step that loses the
/// multiplicities bag semantics preserves); aggregates see the
/// *deduplicated* input.
pub fn eval_set(
    expr: &RelExpr,
    provider: &(impl RelationProvider + ?Sized),
) -> CoreResult<Relation> {
    expr.schema(&Schemas(provider))?;
    eval_inner(expr, provider)
}

fn eval_inner(expr: &RelExpr, provider: &(impl RelationProvider + ?Sized)) -> CoreResult<Relation> {
    match expr {
        // a set-based system stores sets: duplicates vanish at the base
        RelExpr::Scan(name) => Ok(provider.relation(name)?.distinct()),
        RelExpr::Values(rel) => Ok(rel.distinct()),
        RelExpr::Union(l, r) => {
            // set union: membership-or — dedup after the merge
            Ok(eval_inner(l, provider)?
                .union(&eval_inner(r, provider)?)?
                .distinct())
        }
        RelExpr::Difference(l, r) => {
            // set difference on sets of multiplicity 1 coincides with the
            // bag kernel
            eval_inner(l, provider)?.difference(&eval_inner(r, provider)?)
        }
        RelExpr::Intersect(l, r) => {
            eval_inner(l, provider)?.intersection(&eval_inner(r, provider)?)
        }
        RelExpr::Product(l, r) => {
            // inputs are sets, so the product is duplicate-free already
            eval_inner(l, provider)?.product(&eval_inner(r, provider)?)
        }
        RelExpr::Select { input, predicate } => {
            eval_inner(input, provider)?.select(|t| predicate.eval_predicate(t))
        }
        RelExpr::Project { input, attrs } => {
            // the step the paper highlights: set projection removes the
            // duplicates that arise from dropping attributes
            Ok(eval_inner(input, provider)?.project(attrs)?.distinct())
        }
        RelExpr::Join {
            left,
            right,
            predicate,
        } => {
            let prod = eval_inner(left, provider)?.product(&eval_inner(right, provider)?)?;
            prod.select(|t| predicate.eval_predicate(t))
        }
        RelExpr::ExtProject { input, exprs } => {
            let rel = eval_inner(input, provider)?;
            let out_schema = ext_project_schema(&rel, exprs)?;
            Ok(rel
                .map_tuples(out_schema, |t| {
                    let vals: CoreResult<Vec<Value>> = exprs.iter().map(|e| e.eval(t)).collect();
                    Ok(Tuple::new(vals?))
                })?
                .distinct())
        }
        RelExpr::Distinct(input) => Ok(eval_inner(input, provider)?.distinct()),
        RelExpr::GroupBy {
            input,
            keys,
            agg,
            attr,
        } => {
            let rel = eval_inner(input, provider)?;
            group_by_set(&rel, keys, *agg, *attr)
        }
        RelExpr::Closure(input) => {
            // closure is set-valued under both semantics
            mera_eval::reference::transitive_closure(&eval_inner(input, provider)?)
        }
    }
}

fn ext_project_schema(rel: &Relation, exprs: &[mera_expr::ScalarExpr]) -> CoreResult<SchemaRef> {
    use mera_expr::ScalarExpr;
    let s = rel.schema();
    let mut attrs = Vec::with_capacity(exprs.len());
    for e in exprs {
        let t = e.infer_type(s)?;
        let name = match e {
            ScalarExpr::Attr(i) => s.attr(*i)?.name.clone(),
            _ => None,
        };
        attrs.push(Attribute { name, dtype: t });
    }
    Ok(Arc::new(Schema::new(attrs)))
}

/// Set-semantics group-by: aggregates run over the *set* of input tuples
/// (each distinct tuple counted once) — the behaviour whose interaction
/// with projection Example 3.2 calls incorrect.
fn group_by_set(
    rel: &Relation,
    keys: &[usize],
    agg: Aggregate,
    attr: usize,
) -> CoreResult<Relation> {
    let key_list = if keys.is_empty() {
        None
    } else {
        let list = AttrList::new_unique(keys.to_vec())?;
        list.check_arity(rel.schema().arity())?;
        Some(list)
    };
    let in_type = rel.schema().dtype(attr)?;
    let out_type = agg.result_type(in_type)?;
    let key_schema = match &key_list {
        Some(list) => rel.schema().project(list)?,
        None => Schema::new(vec![]),
    };
    let out_schema = Arc::new(key_schema.with_attr(Attribute::anon(out_type)));

    let mut groups: FxHashMap<Tuple, Vec<Value>> = FxHashMap::default();
    // the set evaluator walks the support only: one occurrence per tuple
    for t in rel.support() {
        let key = match &key_list {
            Some(list) => t.project(list)?,
            None => Tuple::empty(),
        };
        groups.entry(key).or_default().push(t.attr(attr)?.clone());
    }
    let mut out = Relation::empty(out_schema);
    if key_list.is_none() {
        let vals = groups.remove(&Tuple::empty()).unwrap_or_default();
        let v = agg.compute(in_type, vals.iter().map(|v| (v, 1)))?;
        out.insert(Tuple::new(vec![v]), 1)?;
        return Ok(out);
    }
    for (key, vals) in groups {
        let v = agg.compute(in_type, vals.iter().map(|v| (v, 1)))?;
        let mut kv = key.into_values();
        kv.push(v);
        out.insert(Tuple::new(kv), 1)?;
    }
    Ok(out)
}

/// Counts how many tuples each operator of a set-semantics evaluation has
/// to *deduplicate* — the work the paper's cost claim is about. Returns
/// `(result, tuples_deduplicated)` where the second component sums, over
/// every distinct-enforcing step, the number of input tuples the step
/// scanned.
pub fn eval_set_counting(
    expr: &RelExpr,
    provider: &(impl RelationProvider + ?Sized),
) -> CoreResult<(Relation, u64)> {
    expr.schema(&Schemas(provider))?;
    let mut work = 0u64;
    let rel = counting_inner(expr, provider, &mut work)?;
    Ok((rel, work))
}

fn counting_inner(
    expr: &RelExpr,
    provider: &(impl RelationProvider + ?Sized),
    work: &mut u64,
) -> CoreResult<Relation> {
    fn dedup(r: Relation, work: &mut u64) -> Relation {
        *work += r.len();
        r.distinct()
    }
    match expr {
        RelExpr::Scan(name) => Ok(dedup(provider.relation(name)?.clone(), work)),
        RelExpr::Values(rel) => Ok(dedup(rel.as_ref().clone(), work)),
        RelExpr::Union(l, r) => {
            let u =
                counting_inner(l, provider, work)?.union(&counting_inner(r, provider, work)?)?;
            Ok(dedup(u, work))
        }
        RelExpr::Project { input, attrs } => {
            let p = counting_inner(input, provider, work)?.project(attrs)?;
            Ok(dedup(p, work))
        }
        RelExpr::ExtProject { .. } | RelExpr::Distinct(_) | RelExpr::GroupBy { .. } => {
            // fall back to the plain evaluator for the remaining shapes,
            // charging the dedups they perform internally
            match expr {
                RelExpr::ExtProject { input, exprs } => {
                    let rel = counting_inner(input, provider, work)?;
                    let out_schema = ext_project_schema(&rel, exprs)?;
                    let mapped = rel.map_tuples(out_schema, |t| {
                        let vals: CoreResult<Vec<Value>> =
                            exprs.iter().map(|e| e.eval(t)).collect();
                        Ok(Tuple::new(vals?))
                    })?;
                    Ok(dedup(mapped, work))
                }
                RelExpr::Distinct(input) => {
                    let rel = counting_inner(input, provider, work)?;
                    Ok(dedup(rel, work))
                }
                RelExpr::GroupBy {
                    input,
                    keys,
                    agg,
                    attr,
                } => {
                    let rel = counting_inner(input, provider, work)?;
                    group_by_set(&rel, keys, *agg, *attr)
                }
                _ => unreachable!("outer match covers these variants"),
            }
        }
        RelExpr::Difference(l, r) => {
            counting_inner(l, provider, work)?.difference(&counting_inner(r, provider, work)?)
        }
        RelExpr::Intersect(l, r) => {
            counting_inner(l, provider, work)?.intersection(&counting_inner(r, provider, work)?)
        }
        RelExpr::Product(l, r) => {
            counting_inner(l, provider, work)?.product(&counting_inner(r, provider, work)?)
        }
        RelExpr::Select { input, predicate } => {
            counting_inner(input, provider, work)?.select(|t| predicate.eval_predicate(t))
        }
        RelExpr::Join {
            left,
            right,
            predicate,
        } => {
            let prod = counting_inner(left, provider, work)?
                .product(&counting_inner(right, provider, work)?)?;
            prod.select(|t| predicate.eval_predicate(t))
        }
        RelExpr::Closure(input) => {
            let rel = counting_inner(input, provider, work)?;
            mera_eval::reference::transitive_closure(&rel)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mera_core::tuple;
    use mera_eval::eval;
    use mera_expr::ScalarExpr;

    /// The paper's beer database with a duplicate-heavy beer relation.
    fn beer_db() -> Database {
        let schema = DatabaseSchema::new()
            .with(
                "beer",
                Schema::named(&[
                    ("name", DataType::Str),
                    ("brewery", DataType::Str),
                    ("alcperc", DataType::Real),
                ]),
            )
            .expect("fresh")
            .with(
                "brewery",
                Schema::named(&[
                    ("name", DataType::Str),
                    ("city", DataType::Str),
                    ("country", DataType::Str),
                ]),
            )
            .expect("fresh");
        let mut db = Database::new(schema);
        let bs = Arc::clone(db.schema().get("beer").expect("declared"));
        db.replace(
            "beer",
            Relation::from_tuples(
                bs,
                vec![
                    tuple!["Grolsch", "Grolsche", 5.0_f64],
                    tuple!["Heineken", "Heineken", 5.0_f64],
                    tuple!["Amstel", "Heineken", 5.1_f64],
                    tuple!["Bock", "Grolsche", 6.5_f64],
                ],
            )
            .expect("typed"),
        )
        .expect("replace");
        let ws = Arc::clone(db.schema().get("brewery").expect("declared"));
        db.replace(
            "brewery",
            Relation::from_tuples(
                ws,
                vec![
                    tuple!["Grolsche", "Enschede", "NL"],
                    tuple!["Heineken", "Amsterdam", "NL"],
                ],
            )
            .expect("typed"),
        )
        .expect("replace");
        db
    }

    #[test]
    fn set_scan_discards_duplicates() {
        let schema = DatabaseSchema::new()
            .with("r", Schema::anon(&[DataType::Int]))
            .expect("fresh");
        let mut db = Database::new(schema);
        db.relation_mut("r")
            .and_then(|r| r.insert(tuple![1_i64], 5))
            .expect("update");
        let out = eval_set(&RelExpr::scan("r"), &db).expect("evaluates");
        assert_eq!(out.len(), 1);
    }

    /// Example 3.2's incorrectness claim, reproduced exactly: under set
    /// semantics the direct aggregation and the projection-reduced
    /// aggregation disagree; under bag semantics they agree.
    #[test]
    fn example_3_2_set_semantics_is_wrong() {
        use mera_expr::Aggregate;
        let db = beer_db();
        let join = RelExpr::scan("beer").join(
            RelExpr::scan("brewery"),
            ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
        );
        let direct = join.clone().group_by(&[6], Aggregate::Avg, 3);
        let reduced = join.project(&[3, 6]).group_by(&[2], Aggregate::Avg, 1);

        // bag semantics: identical
        assert_eq!(
            eval(&direct, &db).expect("bag direct"),
            eval(&reduced, &db).expect("bag reduced")
        );

        // set semantics: the projection collapses the two distinct 5.0%
        // beers into one tuple, skewing the NL average
        let set_direct = eval_set(&direct, &db).expect("set direct");
        let set_reduced = eval_set(&reduced, &db).expect("set reduced");
        assert_ne!(set_direct, set_reduced);
        let nl_direct = (5.0 + 5.0 + 5.1 + 6.5) / 4.0;
        let nl_reduced = (5.0 + 5.1 + 6.5) / 3.0; // 5.0 counted once!
        assert_eq!(set_direct.multiplicity(&tuple!["NL", nl_direct]), 1);
        assert_eq!(set_reduced.multiplicity(&tuple!["NL", nl_reduced]), 1);
    }

    #[test]
    fn set_and_bag_agree_on_duplicate_free_data() {
        // when the data and query produce no duplicates, both semantics
        // coincide — a sanity check on the baseline
        let db = beer_db();
        let e = RelExpr::scan("brewery").select(ScalarExpr::attr(3).eq(ScalarExpr::str("NL")));
        assert_eq!(eval_set(&e, &db).expect("set"), eval(&e, &db).expect("bag"));
    }

    #[test]
    fn set_projection_loses_cardinality() {
        let db = beer_db();
        let e = RelExpr::scan("beer").project(&[3]);
        let bag = eval(&e, &db).expect("bag");
        let set = eval_set(&e, &db).expect("set");
        assert_eq!(bag.len(), 4); // bag projection keeps all 4 tuples
        assert_eq!(set.len(), 3); // 5.0 appears once in the set result
    }

    #[test]
    fn counting_evaluator_charges_dedup_work() {
        let db = beer_db();
        let e = RelExpr::scan("beer").project(&[3]);
        let (set, work) = eval_set_counting(&e, &db).expect("evaluates");
        assert_eq!(set.len(), 3);
        // scan dedups 4 tuples, projection dedups 4 more
        assert_eq!(work, 8);
        let (_, bag_work) = eval_set_counting(&RelExpr::scan("brewery"), &db).expect("ok");
        assert_eq!(bag_work, 2);
    }

    #[test]
    fn results_always_duplicate_free() {
        let db = beer_db();
        let exprs = vec![
            RelExpr::scan("beer").project(&[2]),
            RelExpr::scan("beer").union(RelExpr::scan("beer")),
            RelExpr::scan("beer")
                .product(RelExpr::scan("brewery"))
                .project(&[2]),
            RelExpr::scan("beer").ext_project(vec![ScalarExpr::attr(2)]),
        ];
        for e in exprs {
            let out = eval_set(&e, &db).expect("evaluates");
            assert!(
                out.iter().all(|(_, m)| m == 1),
                "set result with duplicates for {e}: {out}"
            );
        }
    }
}
