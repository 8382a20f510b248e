//! Decision values and sets of values.
//!
//! In `k`-set consensus each process starts with an initial value from
//! `{0, 1, …, k}` (or more generally `{0, …, d}` with `d ≥ k`; see Footnote 4
//! of the paper).  Values smaller than `k` are called *low*, and `k` and above
//! are *high*.

use std::collections::BTreeSet;
use std::fmt;

/// An initial or decision value.
///
/// ```
/// use synchrony::Value;
///
/// let v = Value::new(2);
/// assert!(v.is_low(3));
/// assert!(!v.is_low(2));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Value(u64);

impl Value {
    /// Creates a value.
    pub const fn new(value: u64) -> Self {
        Value(value)
    }

    /// Returns the numeric value.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns `true` if this value is *low* for `k`-set consensus, i.e. it is
    /// strictly smaller than `k`.
    pub fn is_low(self, k: usize) -> bool {
        self.0 < k as u64
    }

    /// Returns `true` if this value is *high* for `k`-set consensus, i.e. it is
    /// at least `k`.
    pub fn is_high(self, k: usize) -> bool {
        !self.is_low(k)
    }
}

impl From<u64> for Value {
    fn from(value: u64) -> Self {
        Value(value)
    }
}

impl From<u32> for Value {
    fn from(value: u32) -> Self {
        Value(value as u64)
    }
}

impl From<usize> for Value {
    fn from(value: usize) -> Self {
        Value(value as u64)
    }
}

impl From<i32> for Value {
    fn from(value: i32) -> Self {
        assert!(value >= 0, "values are non-negative");
        Value(value as u64)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An ordered set of [`Value`]s.
///
/// Used for `Vals⟨i,m⟩` (the set of values a process knows to exist) and for
/// the sets of values decided in a run.
///
/// ```
/// use synchrony::{Value, ValueSet};
///
/// let mut vals = ValueSet::new();
/// vals.insert(3);
/// vals.insert(1);
/// assert_eq!(vals.min(), Some(Value::new(1)));
/// assert_eq!(vals.lows(2).len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ValueSet {
    values: BTreeSet<Value>,
}

impl ValueSet {
    /// Creates an empty value set.
    pub fn new() -> Self {
        ValueSet { values: BTreeSet::new() }
    }

    /// Creates the singleton set `{value}`.
    pub fn singleton(value: impl Into<Value>) -> Self {
        let mut s = ValueSet::new();
        s.insert(value);
        s
    }

    /// Inserts a value; returns `true` if it was not already present.
    pub fn insert(&mut self, value: impl Into<Value>) -> bool {
        self.values.insert(value.into())
    }

    /// Removes every value from the set.
    pub fn clear(&mut self) {
        self.values.clear();
    }

    /// Returns `true` if the value belongs to the set.
    pub fn contains(&self, value: impl Into<Value>) -> bool {
        self.values.contains(&value.into())
    }

    /// Returns the number of values in the set.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Returns the minimum value in the set, if any.
    pub fn min(&self) -> Option<Value> {
        self.values.first().copied()
    }

    /// Returns the maximum value in the set, if any.
    pub fn max(&self) -> Option<Value> {
        self.values.last().copied()
    }

    /// Iterates over the values in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        self.values.iter().copied()
    }

    /// Returns the subset of *low* values (those `< k`).
    pub fn lows(&self, k: usize) -> ValueSet {
        ValueSet { values: self.values.iter().copied().filter(|v| v.is_low(k)).collect() }
    }

    /// Adds every value of `other` to this set.
    pub fn union_with(&mut self, other: &ValueSet) {
        self.values.extend(other.values.iter().copied());
    }

    /// Returns the union of the two sets.
    pub fn union(&self, other: &ValueSet) -> ValueSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Returns `true` if every value of `self` belongs to `other`.
    pub fn is_subset(&self, other: &ValueSet) -> bool {
        self.values.is_subset(&other.values)
    }
}

impl<V: Into<Value>> FromIterator<V> for ValueSet {
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        ValueSet { values: iter.into_iter().map(Into::into).collect() }
    }
}

impl<V: Into<Value>> Extend<V> for ValueSet {
    fn extend<I: IntoIterator<Item = V>>(&mut self, iter: I) {
        self.values.extend(iter.into_iter().map(Into::into));
    }
}

impl<'a> IntoIterator for &'a ValueSet {
    type Item = Value;
    type IntoIter = std::iter::Copied<std::collections::btree_set::Iter<'a, Value>>;

    fn into_iter(self) -> Self::IntoIter {
        self.values.iter().copied()
    }
}

impl fmt::Display for ValueSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_high_split() {
        assert!(Value::new(0).is_low(1));
        assert!(Value::new(0).is_low(3));
        assert!(Value::new(2).is_low(3));
        assert!(Value::new(3).is_high(3));
        assert!(!Value::new(3).is_low(3));
    }

    #[test]
    fn value_set_min_max_and_lows() {
        let s: ValueSet = [4u64, 0, 2].into_iter().collect();
        assert_eq!(s.min(), Some(Value::new(0)));
        assert_eq!(s.max(), Some(Value::new(4)));
        let lows = s.lows(3);
        assert_eq!(lows.len(), 2);
        assert!(lows.contains(0u64) && lows.contains(2u64));
        assert!(lows.is_subset(&s));
    }

    #[test]
    fn union_and_membership() {
        let a: ValueSet = [1u64, 2].into_iter().collect();
        let b: ValueSet = [2u64, 3].into_iter().collect();
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        assert!(u.contains(1u64) && u.contains(2u64) && u.contains(3u64));
    }

    #[test]
    fn empty_set_has_no_min() {
        let s = ValueSet::new();
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn display_is_sorted() {
        let s: ValueSet = [3u64, 1].into_iter().collect();
        assert_eq!(s.to_string(), "{1, 3}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_values_are_rejected() {
        let _ = Value::from(-1);
    }
}
