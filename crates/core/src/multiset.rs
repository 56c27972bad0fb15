//! A generic counted multi-set (bag).
//!
//! Definition 2.2 models a relation instance as a *function* `R : dom(R) → ℕ`
//! mapping each element to its multiplicity. [`Bag`] is exactly that
//! function, restricted to its finite support: elements with multiplicity 0
//! are never stored, so `support().count()` is the number of *distinct*
//! elements and [`Bag::len`] the total number of elements counted with
//! multiplicity.
//!
//! All multiplicity arithmetic of Definitions 3.1–3.2 lives here, element
//! type-agnostic, so it can be property-tested in isolation and reused by
//! both [`Relation`](crate::relation::Relation) and test harnesses:
//!
//! | paper | here | multiplicity law |
//! |---|---|---|
//! | `E₁ ⊎ E₂` | [`Bag::union`] | `m₁ + m₂` |
//! | `E₁ − E₂` | [`Bag::difference`] | `max(0, m₁ − m₂)` |
//! | `E₁ ∩ E₂` | [`Bag::intersection`] | `min(m₁, m₂)` |
//! | `E₁ ⊑ E₂` | [`Bag::is_submultiset`] | `∀x: m₁(x) ≤ m₂(x)` |
//! | `δE` | [`Bag::distinct`] | `min(1, m)` |

use std::hash::Hash;

use rustc_hash::FxHashMap;

use crate::error::{CoreError, CoreResult};

/// A finite multi-set over `T`, stored as `element → multiplicity`.
#[derive(Debug, Clone)]
pub struct Bag<T: Eq + Hash> {
    counts: FxHashMap<T, u64>,
    /// Cached total multiplicity (Σ multiplicities).
    len: u64,
}

impl<T: Eq + Hash> Default for Bag<T> {
    fn default() -> Self {
        Bag {
            counts: FxHashMap::default(),
            len: 0,
        }
    }
}

impl<T: Eq + Hash + Clone> Bag<T> {
    /// The empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty bag pre-sized for `n` distinct elements.
    pub fn with_capacity(n: usize) -> Self {
        Bag {
            counts: FxHashMap::with_capacity_and_hasher(n, Default::default()),
            len: 0,
        }
    }

    /// Total number of elements, counted with multiplicity (`Σ_x B(x)`).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the bag contains no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of *distinct* elements (the support size).
    pub fn distinct_len(&self) -> usize {
        self.counts.len()
    }

    /// The multiplicity `B(x)` of an element; 0 when absent.
    pub fn multiplicity(&self, x: &T) -> u64 {
        self.counts.get(x).copied().unwrap_or(0)
    }

    /// Element membership: `x ∈ B ⟺ B(x) > 0` (Definition 2.4).
    pub fn contains(&self, x: &T) -> bool {
        self.counts.contains_key(x)
    }

    /// Adds `m` occurrences of `x`. Adding zero occurrences is a no-op
    /// (multiplicity-0 pairs are never materialised).
    pub fn insert(&mut self, x: T, m: u64) -> CoreResult<()> {
        if m == 0 {
            return Ok(());
        }
        self.len = self
            .len
            .checked_add(m)
            .ok_or(CoreError::Overflow("bag cardinality"))?;
        let slot = self.counts.entry(x).or_insert(0);
        *slot = slot
            .checked_add(m)
            .ok_or(CoreError::Overflow("element multiplicity"))?;
        Ok(())
    }

    /// Adds one occurrence of `x`.
    pub fn insert_one(&mut self, x: T) -> CoreResult<()> {
        self.insert(x, 1)
    }

    /// Removes up to `m` occurrences of `x`, returning how many were
    /// actually removed (`min(m, B(x))` — the pointwise difference law).
    pub fn remove(&mut self, x: &T, m: u64) -> u64 {
        if m == 0 {
            return 0;
        }
        match self.counts.get_mut(x) {
            None => 0,
            Some(cur) => {
                let removed = m.min(*cur);
                *cur -= removed;
                if *cur == 0 {
                    self.counts.remove(x);
                }
                self.len -= removed;
                removed
            }
        }
    }

    /// Iterates over `(element, multiplicity)` pairs — the paper's
    /// "set of pairs `(r, R(r))` without duplicates" notation.
    pub fn iter(&self) -> impl Iterator<Item = (&T, u64)> {
        self.counts.iter().map(|(x, &m)| (x, m))
    }

    /// Iterates over the distinct elements (the support).
    pub fn support(&self) -> impl Iterator<Item = &T> {
        self.counts.keys()
    }

    /// Iterates over elements *with* duplicates — the paper's "collection of
    /// individual tuples possibly containing duplicates" notation.
    pub fn iter_expanded(&self) -> impl Iterator<Item = &T> + '_ {
        self.counts
            .iter()
            .flat_map(|(x, &m)| std::iter::repeat_n(x, m as usize))
    }

    /// Multi-set union `B₁ ⊎ B₂`: multiplicities add.
    pub fn union(&self, other: &Self) -> CoreResult<Self> {
        let mut out = self.clone();
        out.union_in_place(other)?;
        Ok(out)
    }

    /// In-place union `B₁ ← B₁ ⊎ B₂`, O(|B₂|). Every multiplicity is
    /// bounded by the total, so checking the total up front makes the
    /// fold all-or-nothing: on overflow `self` is unchanged.
    pub fn union_in_place(&mut self, other: &Self) -> CoreResult<()> {
        self.len
            .checked_add(other.len)
            .ok_or(CoreError::Overflow("bag cardinality"))?;
        for (x, m) in other.iter() {
            self.insert(x.clone(), m)?;
        }
        Ok(())
    }

    /// In-place union absorbing `other` (multiplicities add) without
    /// cloning its elements — the merge step of parallel two-phase
    /// evaluation, where each worker's thread-local bag is moved into one
    /// result.
    pub fn absorb(&mut self, other: Bag<T>) -> CoreResult<()> {
        for (x, m) in other {
            self.insert(x, m)?;
        }
        Ok(())
    }

    /// Multi-set difference `B₁ − B₂`: `max(0, m₁ − m₂)` pointwise.
    pub fn difference(&self, other: &Self) -> Self {
        let mut out = Self::with_capacity(self.distinct_len());
        for (x, m1) in self.iter() {
            let m2 = other.multiplicity(x);
            if m1 > m2 {
                // cannot overflow: m1 - m2 ≤ m1 ≤ self.len
                out.counts.insert(x.clone(), m1 - m2);
                out.len += m1 - m2;
            }
        }
        out
    }

    /// Multi-set intersection `B₁ ∩ B₂`: `min(m₁, m₂)` pointwise.
    pub fn intersection(&self, other: &Self) -> Self {
        // iterate over the smaller support
        let (small, big) = if self.distinct_len() <= other.distinct_len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = Self::with_capacity(small.distinct_len());
        for (x, m1) in small.iter() {
            let m = m1.min(big.multiplicity(x));
            if m > 0 {
                out.counts.insert(x.clone(), m);
                out.len += m;
            }
        }
        out
    }

    /// Duplicate elimination `δB`: every present element at multiplicity 1.
    pub fn distinct(&self) -> Self {
        let mut counts =
            FxHashMap::with_capacity_and_hasher(self.distinct_len(), Default::default());
        for x in self.support() {
            counts.insert(x.clone(), 1);
        }
        Bag {
            len: counts.len() as u64,
            counts,
        }
    }

    /// Multi-subset test `B₁ ⊑ B₂` (Definition 2.3).
    pub fn is_submultiset(&self, other: &Self) -> bool {
        self.len <= other.len && self.iter().all(|(x, m)| m <= other.multiplicity(x))
    }

    /// Maps every element through `f`, summing multiplicities of collapsing
    /// images — the multiplicity law of projection (Definition 3.1):
    /// `π(E)(y) = Σ_{f(x)=y} E(x)`.
    pub fn map<U, F>(&self, mut f: F) -> CoreResult<Bag<U>>
    where
        U: Eq + Hash + Clone,
        F: FnMut(&T) -> CoreResult<U>,
    {
        let mut out = Bag::with_capacity(self.distinct_len());
        for (x, m) in self.iter() {
            out.insert(f(x)?, m)?;
        }
        Ok(out)
    }

    /// Keeps elements satisfying `p`, multiplicities unchanged — the
    /// multiplicity law of selection (Definition 3.1).
    pub fn filter<F>(&self, mut p: F) -> CoreResult<Self>
    where
        F: FnMut(&T) -> CoreResult<bool>,
    {
        let mut out = Self::with_capacity(self.distinct_len());
        for (x, m) in self.iter() {
            if p(x)? {
                out.counts.insert(x.clone(), m);
                out.len += m;
            }
        }
        Ok(out)
    }

    /// Cartesian product with combiner: multiplicities multiply
    /// (`(E₁×E₂)(x⊕y) = E₁(x)·E₂(y)`, Definition 3.1).
    pub fn product<U, V, F>(&self, other: &Bag<U>, mut f: F) -> CoreResult<Bag<V>>
    where
        U: Eq + Hash + Clone,
        V: Eq + Hash + Clone,
        F: FnMut(&T, &U) -> V,
    {
        let mut out = Bag::with_capacity(self.distinct_len() * other.distinct_len());
        for (x, m1) in self.iter() {
            for (y, m2) in other.iter() {
                let m = m1
                    .checked_mul(m2)
                    .ok_or(CoreError::Overflow("product multiplicity"))?;
                out.insert(f(x, y), m)?;
            }
        }
        Ok(out)
    }
}

/// Bag equality is the pointwise multiplicity equality of Definition 2.3.
impl<T: Eq + Hash> PartialEq for Bag<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.counts == other.counts
    }
}

impl<T: Eq + Hash> Eq for Bag<T> {}

impl<T: Eq + Hash + Clone> FromIterator<T> for Bag<T> {
    /// Collects duplicated elements into counted form. Panics only on
    /// u64 overflow, which `FromIterator` cannot report.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut bag = Bag::new();
        for x in iter {
            bag.insert_one(x).expect("bag cardinality overflow");
        }
        bag
    }
}

impl<T: Eq + Hash> IntoIterator for Bag<T> {
    type Item = (T, u64);
    type IntoIter = std::collections::hash_map::IntoIter<T, u64>;

    /// Consumes the bag, yielding owned `(element, multiplicity)` pairs.
    fn into_iter(self) -> Self::IntoIter {
        self.counts.into_iter()
    }
}

impl<T: Eq + Hash + Clone> FromIterator<(T, u64)> for Bag<T> {
    fn from_iter<I: IntoIterator<Item = (T, u64)>>(iter: I) -> Self {
        let mut bag = Bag::new();
        for (x, m) in iter {
            bag.insert(x, m).expect("bag cardinality overflow");
        }
        bag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bag(xs: &[(i32, u64)]) -> Bag<i32> {
        xs.iter().copied().collect()
    }

    #[test]
    fn empty_bag() {
        let b: Bag<i32> = Bag::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.distinct_len(), 0);
        assert_eq!(b.multiplicity(&1), 0);
        assert!(!b.contains(&1));
    }

    #[test]
    fn insert_and_multiplicity() {
        let mut b = Bag::new();
        b.insert(7, 3).unwrap();
        b.insert(7, 2).unwrap();
        b.insert(9, 1).unwrap();
        b.insert(5, 0).unwrap(); // no-op
        assert_eq!(b.multiplicity(&7), 5);
        assert_eq!(b.multiplicity(&9), 1);
        assert_eq!(b.len(), 6);
        assert_eq!(b.distinct_len(), 2);
        assert!(!b.contains(&5));
    }

    #[test]
    fn remove_caps_at_present_multiplicity() {
        let mut b = bag(&[(1, 3)]);
        assert_eq!(b.remove(&1, 2), 2);
        assert_eq!(b.multiplicity(&1), 1);
        assert_eq!(b.remove(&1, 5), 1);
        assert!(!b.contains(&1));
        assert_eq!(b.remove(&1, 1), 0);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn union_adds_multiplicities() {
        let a = bag(&[(1, 2), (2, 1)]);
        let b = bag(&[(1, 3), (3, 4)]);
        let u = a.union(&b).unwrap();
        assert_eq!(u.multiplicity(&1), 5);
        assert_eq!(u.multiplicity(&2), 1);
        assert_eq!(u.multiplicity(&3), 4);
        assert_eq!(u.len(), 10);
    }

    #[test]
    fn difference_saturates_at_zero() {
        let a = bag(&[(1, 2), (2, 5)]);
        let b = bag(&[(1, 7), (2, 2)]);
        let d = a.difference(&b);
        assert_eq!(d.multiplicity(&1), 0);
        assert_eq!(d.multiplicity(&2), 3);
        assert_eq!(d.len(), 3);
        assert!(!d.contains(&1)); // zero-multiplicity pairs never stored
    }

    #[test]
    fn intersection_takes_minimum() {
        let a = bag(&[(1, 2), (2, 5), (3, 1)]);
        let b = bag(&[(1, 7), (2, 2)]);
        let i = a.intersection(&b);
        assert_eq!(i.multiplicity(&1), 2);
        assert_eq!(i.multiplicity(&2), 2);
        assert_eq!(i.multiplicity(&3), 0);
        // symmetric regardless of which support is iterated
        assert_eq!(i, b.intersection(&a));
    }

    #[test]
    fn distinct_caps_at_one() {
        let a = bag(&[(1, 5), (2, 1)]);
        let d = a.distinct();
        assert_eq!(d.multiplicity(&1), 1);
        assert_eq!(d.multiplicity(&2), 1);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn submultiset_is_pointwise_leq() {
        let a = bag(&[(1, 2)]);
        let b = bag(&[(1, 3), (2, 1)]);
        assert!(a.is_submultiset(&b));
        assert!(!b.is_submultiset(&a));
        assert!(Bag::<i32>::new().is_submultiset(&a));
        assert!(a.is_submultiset(&a));
    }

    #[test]
    fn equality_is_pointwise() {
        assert_eq!(bag(&[(1, 2), (2, 1)]), bag(&[(2, 1), (1, 2)]));
        assert_ne!(bag(&[(1, 2)]), bag(&[(1, 3)]));
        assert_ne!(bag(&[(1, 1)]), bag(&[(2, 1)]));
    }

    #[test]
    fn map_sums_collapsing_multiplicities() {
        // project 1 and 2 onto the same image
        let a = bag(&[(1, 2), (2, 3), (10, 1)]);
        let p = a.map(|&x| Ok(x % 2)).unwrap();
        assert_eq!(p.multiplicity(&1), 2); // from 1
        assert_eq!(p.multiplicity(&0), 4); // from 2 and 10
        assert_eq!(p.len(), a.len());
    }

    #[test]
    fn filter_preserves_multiplicities() {
        let a = bag(&[(1, 2), (2, 3)]);
        let f = a.filter(|&x| Ok(x > 1)).unwrap();
        assert_eq!(f.multiplicity(&2), 3);
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn filter_propagates_errors() {
        let a = bag(&[(1, 1)]);
        let r = a.filter(|_| Err(CoreError::DivisionByZero));
        assert_eq!(r.unwrap_err(), CoreError::DivisionByZero);
    }

    #[test]
    fn product_multiplies_multiplicities() {
        let a = bag(&[(1, 2), (2, 1)]);
        let b = bag(&[(10, 3)]);
        let p = a.product(&b, |&x, &y| (x, y)).unwrap();
        assert_eq!(p.multiplicity(&(1, 10)), 6);
        assert_eq!(p.multiplicity(&(2, 10)), 3);
        assert_eq!(p.len(), a.len() * b.len());
    }

    #[test]
    fn product_with_empty_is_empty() {
        let a = bag(&[(1, 2)]);
        let e: Bag<i32> = Bag::new();
        assert!(a.product(&e, |&x, &y| (x, y)).unwrap().is_empty());
        assert!(e.product(&a, |&x, &y| (x, y)).unwrap().is_empty());
    }

    #[test]
    fn iter_expanded_repeats_elements() {
        let a = bag(&[(1, 3), (2, 1)]);
        let mut v: Vec<i32> = a.iter_expanded().copied().collect();
        v.sort_unstable();
        assert_eq!(v, [1, 1, 1, 2]);
    }

    #[test]
    fn from_iter_of_duplicates() {
        let b: Bag<i32> = [1, 1, 2, 1].into_iter().collect();
        assert_eq!(b.multiplicity(&1), 3);
        assert_eq!(b.multiplicity(&2), 1);
    }

    #[test]
    fn multiplicity_overflow_detected() {
        let mut b = Bag::new();
        b.insert(1u8, u64::MAX).unwrap();
        assert!(matches!(b.insert(1u8, 1), Err(CoreError::Overflow(_))));
    }
}
