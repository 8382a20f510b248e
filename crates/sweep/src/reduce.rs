//! Reusable reducers satisfying the concatenation-compatibility law of
//! [`Reducer`].

use std::collections::BTreeMap;
use std::marker::PhantomData;

use crate::engine::Reducer;

/// Sums per-scenario counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Count;

impl Reducer for Count {
    type Item = u64;
    type Acc = u64;

    fn empty(&self) -> u64 {
        0
    }

    fn fold(&self, acc: &mut u64, item: u64) {
        *acc += item;
    }

    fn merge(&self, left: u64, right: u64) -> u64 {
        left + right
    }
}

/// Histograms per-scenario decision times (or any `u32` measure).
#[derive(Debug, Clone, Copy, Default)]
pub struct DecisionTimeHistogram;

impl Reducer for DecisionTimeHistogram {
    type Item = u32;
    type Acc = BTreeMap<u32, u64>;

    fn empty(&self) -> Self::Acc {
        BTreeMap::new()
    }

    fn fold(&self, acc: &mut Self::Acc, time: u32) {
        *acc.entry(time).or_insert(0) += 1;
    }

    fn merge(&self, mut left: Self::Acc, right: Self::Acc) -> Self::Acc {
        for (time, count) in right {
            *left.entry(time).or_insert(0) += count;
        }
        left
    }
}

/// Folds `(key, value)` outcomes into an ordered map, combining collisions
/// with a user-supplied associative, commutative function.
///
/// ```
/// use sweep::reduce::KeyedReducer;
/// use sweep::Reducer;
///
/// // Keep the maximum value seen per key.
/// let reducer = KeyedReducer::new(|slot: &mut u32, value| *slot = (*slot).max(value));
/// let mut acc = reducer.empty();
/// reducer.fold(&mut acc, ("a", 3));
/// reducer.fold(&mut acc, ("a", 1));
/// assert_eq!(acc["a"], 3);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct KeyedReducer<K, V, F> {
    combine: F,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K, V, F: Fn(&mut V, V)> KeyedReducer<K, V, F> {
    /// Creates a keyed reducer with the given collision combiner.
    pub fn new(combine: F) -> Self {
        KeyedReducer { combine, _marker: PhantomData }
    }
}

impl<K, V, F> Reducer for KeyedReducer<K, V, F>
where
    K: Ord + Send + Clone,
    V: Send + Clone,
    F: Fn(&mut V, V) + Sync,
{
    type Item = (K, V);
    type Acc = BTreeMap<K, V>;

    fn empty(&self) -> Self::Acc {
        BTreeMap::new()
    }

    fn fold(&self, acc: &mut Self::Acc, (key, value): (K, V)) {
        match acc.entry(key) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(value);
            }
            std::collections::btree_map::Entry::Occupied(mut slot) => {
                (self.combine)(slot.get_mut(), value);
            }
        }
    }

    fn merge(&self, mut left: Self::Acc, right: Self::Acc) -> Self::Acc {
        for (key, value) in right {
            self.fold(&mut left, (key, value));
        }
        left
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_and_histogram_obey_concatenation_compatibility() {
        let items: Vec<u32> = vec![2, 2, 3, 1, 2, 5, 3];
        for split in 0..=items.len() {
            let (a, b) = items.split_at(split);
            let histogram = DecisionTimeHistogram;
            let mut left = histogram.empty();
            a.iter().for_each(|&t| histogram.fold(&mut left, t));
            let mut right = histogram.empty();
            b.iter().for_each(|&t| histogram.fold(&mut right, t));
            let mut whole = histogram.empty();
            items.iter().for_each(|&t| histogram.fold(&mut whole, t));
            assert_eq!(histogram.merge(left, right), whole);

            let count = Count;
            assert_eq!(count.merge(a.len() as u64, b.len() as u64), items.len() as u64);
        }
    }

    #[test]
    fn keyed_reducer_combines_collisions() {
        let reducer = KeyedReducer::new(|slot: &mut u64, value| *slot += value);
        let mut left = reducer.empty();
        reducer.fold(&mut left, ("x", 1));
        reducer.fold(&mut left, ("y", 10));
        let mut right = reducer.empty();
        reducer.fold(&mut right, ("x", 2));
        let merged = reducer.merge(left, right);
        assert_eq!(merged["x"], 3);
        assert_eq!(merged["y"], 10);
    }
}
