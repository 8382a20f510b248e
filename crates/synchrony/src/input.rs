//! Input vectors: the initial values handed to the processes at time 0.

use std::fmt;

use crate::{ModelError, ProcessId, Value, ValueSet};

/// The vector `v⃗ = (v_1, …, v_n)` of initial values, one per process.
///
/// Together with a [`crate::FailurePattern`], an input vector forms an
/// [`crate::Adversary`].
///
/// ```
/// use synchrony::{InputVector, Value};
///
/// let inputs = InputVector::from_values([2, 0, 1]);
/// assert_eq!(inputs.len(), 3);
/// assert_eq!(inputs.value_of(1), Value::new(0));
/// assert!(inputs.present_values().contains(2u64));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InputVector {
    values: Vec<Value>,
}

impl InputVector {
    /// Creates an input vector from an iterator of per-process values, in
    /// process order.
    pub fn from_values<V: Into<Value>>(values: impl IntoIterator<Item = V>) -> Self {
        InputVector { values: values.into_iter().map(Into::into).collect() }
    }

    /// Creates an input vector in which every one of the `n` processes starts
    /// with the same value.
    pub fn uniform(n: usize, value: impl Into<Value>) -> Self {
        let value = value.into();
        InputVector { values: vec![value; n] }
    }

    /// Returns the number of processes covered by the vector.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the vector covers no process (an invalid adversary).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Returns the initial value of `process`.
    ///
    /// # Panics
    ///
    /// Panics if `process` is out of range; use [`InputVector::get`] for a
    /// checked variant.
    pub fn value_of(&self, process: impl Into<ProcessId>) -> Value {
        self.values[process.into().index()]
    }

    /// Returns the initial value of `process`, or `None` if out of range.
    pub fn get(&self, process: impl Into<ProcessId>) -> Option<Value> {
        self.values.get(process.into().index()).copied()
    }

    /// Returns the set of distinct values present in the vector (`∃v` holds
    /// exactly for these values).
    pub fn present_values(&self) -> ValueSet {
        self.values.iter().copied().collect()
    }

    /// Returns `true` if some process starts with `value` (the paper's `∃v`).
    pub fn exists(&self, value: impl Into<Value>) -> bool {
        let value = value.into();
        self.values.contains(&value)
    }

    /// Iterates over `(process, value)` pairs in process order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, Value)> + '_ {
        self.values.iter().enumerate().map(|(i, &v)| (ProcessId::new(i), v))
    }

    /// Validates that every value is at most `max`, as required by a task whose
    /// value domain is `{0, …, max}`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ValueOutOfRange`] if some value exceeds `max`.
    pub fn check_max_value(&self, max: u64) -> Result<(), ModelError> {
        for &v in &self.values {
            if v.get() > max {
                return Err(ModelError::ValueOutOfRange { value: v.get(), max });
            }
        }
        Ok(())
    }

    /// Returns a copy of the vector with the value of `process` replaced.
    pub fn with_value(&self, process: impl Into<ProcessId>, value: impl Into<Value>) -> Self {
        let mut out = self.clone();
        out.values[process.into().index()] = value.into();
        out
    }

    /// Overwrites the value of `process` in place, without reallocating.
    ///
    /// This is the mutation primitive behind the block-cursor enumeration
    /// (`adversary::enumerate::AdversaryCursor`), which steps one mixed-radix
    /// digit of an input code per scenario instead of building a fresh
    /// vector.  The vector's length — and therefore every [`crate::Adversary`]
    /// invariant — is unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `process` is out of range.
    pub fn set_value(&mut self, process: impl Into<ProcessId>, value: impl Into<Value>) {
        self.values[process.into().index()] = value.into();
    }
}

impl fmt::Display for InputVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_values_preserves_order() {
        let v = InputVector::from_values([3, 1, 2]);
        assert_eq!(v.value_of(0), Value::new(3));
        assert_eq!(v.value_of(2), Value::new(2));
        assert_eq!(v.get(3), None);
    }

    #[test]
    fn uniform_vector_has_single_present_value() {
        let v = InputVector::uniform(5, 7u64);
        assert_eq!(v.len(), 5);
        assert_eq!(v.present_values().len(), 1);
        assert!(v.exists(7u64));
        assert!(!v.exists(0u64));
    }

    #[test]
    fn check_max_value_detects_out_of_range() {
        let v = InputVector::from_values([0, 4, 1]);
        assert!(v.check_max_value(4).is_ok());
        assert_eq!(v.check_max_value(3), Err(ModelError::ValueOutOfRange { value: 4, max: 3 }));
    }

    #[test]
    fn set_value_mutates_in_place() {
        let mut v = InputVector::from_values([0, 0, 0]);
        v.set_value(2, 5u64);
        assert_eq!(v.value_of(2), Value::new(5));
        assert_eq!(v.len(), 3);
        assert_eq!(v.value_of(0), Value::new(0));
    }

    #[test]
    fn with_value_replaces_exactly_one_entry() {
        let v = InputVector::from_values([0, 0, 0]);
        let w = v.with_value(1, 9u64);
        assert_eq!(w.value_of(1), Value::new(9));
        assert_eq!(w.value_of(0), Value::new(0));
        assert_eq!(v.value_of(1), Value::new(0), "original is untouched");
    }

    #[test]
    fn iter_yields_pairs_in_order() {
        let v = InputVector::from_values([5, 6]);
        let pairs: Vec<(usize, u64)> = v.iter().map(|(p, val)| (p.index(), val.get())).collect();
        assert_eq!(pairs, vec![(0, 5), (1, 6)]);
    }

    #[test]
    fn display_is_tuple_like() {
        assert_eq!(InputVector::from_values([1, 2]).to_string(), "(1, 2)");
    }
}
