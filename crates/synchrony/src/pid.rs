//! Process identifiers and compact sets of process identifiers.

use std::fmt;

/// Identifier of a process in a system of `n` processes.
///
/// The paper numbers processes `1, …, n`; this crate uses zero-based indices
/// `0, …, n − 1`, which is the natural indexing for Rust containers.  The
/// mapping is purely cosmetic and does not affect any result.
///
/// ```
/// use synchrony::ProcessId;
///
/// let p = ProcessId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.to_string(), "p3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Creates a process identifier from a zero-based index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in a `u32`; systems of that size are far
    /// outside the scope of this model.
    pub fn new(index: usize) -> Self {
        assert!(u32::try_from(index).is_ok(), "process index {index} exceeds u32::MAX");
        ProcessId(index as u32)
    }

    /// Returns the zero-based index of this process.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for ProcessId {
    fn from(index: usize) -> Self {
        ProcessId::new(index)
    }
}

impl From<u32> for ProcessId {
    fn from(index: u32) -> Self {
        ProcessId(index)
    }
}

impl From<i32> for ProcessId {
    fn from(index: i32) -> Self {
        assert!(index >= 0, "process indices are non-negative");
        ProcessId(index as u32)
    }
}

impl From<ProcessId> for usize {
    fn from(pid: ProcessId) -> Self {
        pid.index()
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A compact set of [`ProcessId`]s backed by a bit vector.
///
/// `PidSet` is the workhorse of the whole reproduction: seen-sets, heard-from
/// sets, hidden-node layers and failure reports are all `PidSet`s.  The
/// representation is a dense bitmap, so membership tests and set algebra run
/// in `O(n / 64)`.
///
/// The internal word vector is kept *normalized* (no trailing zero words), so
/// the derived notions of equality and hashing agree with set equality.
///
/// ```
/// use synchrony::PidSet;
///
/// let mut s: PidSet = [0usize, 2, 5].into_iter().collect();
/// assert!(s.contains(2));
/// assert_eq!(s.len(), 3);
/// s.remove(2);
/// assert_eq!(s.iter().map(|p| p.index()).collect::<Vec<_>>(), vec![0, 5]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct PidSet {
    words: Vec<u64>,
}

impl PidSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        PidSet { words: Vec::new() }
    }

    /// Creates an empty set with room for processes `0 … n − 1` pre-allocated.
    pub fn with_capacity(n: usize) -> Self {
        PidSet { words: Vec::with_capacity(n.div_ceil(64)) }
    }

    /// Creates the singleton set `{pid}`.
    pub fn singleton(pid: impl Into<ProcessId>) -> Self {
        let mut s = PidSet::new();
        s.insert(pid);
        s
    }

    /// Creates the full set `{0, …, n − 1}`.
    pub fn full(n: usize) -> Self {
        let mut s = PidSet::with_capacity(n);
        for i in 0..n {
            s.insert(i);
        }
        s
    }

    fn normalize(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }

    /// Inserts a process into the set; returns `true` if it was not present.
    pub fn insert(&mut self, pid: impl Into<ProcessId>) -> bool {
        let idx = pid.into().index();
        let (word, bit) = (idx / 64, idx % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        let fresh = self.words[word] & mask == 0;
        self.words[word] |= mask;
        fresh
    }

    /// Removes a process from the set; returns `true` if it was present.
    pub fn remove(&mut self, pid: impl Into<ProcessId>) -> bool {
        let idx = pid.into().index();
        let (word, bit) = (idx / 64, idx % 64);
        if word >= self.words.len() {
            return false;
        }
        let mask = 1u64 << bit;
        let present = self.words[word] & mask != 0;
        self.words[word] &= !mask;
        self.normalize();
        present
    }

    /// Returns `true` if the process belongs to the set.
    pub fn contains(&self, pid: impl Into<ProcessId>) -> bool {
        let idx = pid.into().index();
        let (word, bit) = (idx / 64, idx % 64);
        self.words.get(word).is_some_and(|w| w & (1u64 << bit) != 0)
    }

    /// Returns the number of processes in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set contains no process.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every process from the set.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Returns the smallest process identifier in the set, if any.
    pub fn first(&self) -> Option<ProcessId> {
        self.iter().next()
    }

    /// Iterates over the members in increasing order of index.
    pub fn iter(&self) -> Iter<'_> {
        Iter { set: self, next_index: 0 }
    }

    /// Adds every member of `other` to this set (set union, in place).
    pub fn union_with(&mut self, other: &PidSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w |= o;
        }
    }

    /// Keeps only members also present in `other` (set intersection, in place).
    pub fn intersect_with(&mut self, other: &PidSet) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= other.words.get(i).copied().unwrap_or(0);
        }
        self.normalize();
    }

    /// Removes every member of `other` from this set (set difference, in place).
    pub fn difference_with(&mut self, other: &PidSet) {
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w &= !o;
        }
        self.normalize();
    }

    /// Returns the union of the two sets as a new set.
    pub fn union(&self, other: &PidSet) -> PidSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Returns the intersection of the two sets as a new set.
    pub fn intersection(&self, other: &PidSet) -> PidSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Returns the difference `self \ other` as a new set.
    pub fn difference(&self, other: &PidSet) -> PidSet {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// Returns `true` if every member of `self` belongs to `other`.
    pub fn is_subset(&self, other: &PidSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// Returns `true` if the two sets have no member in common.
    pub fn is_disjoint(&self, other: &PidSet) -> bool {
        self.words.iter().zip(other.words.iter()).all(|(a, b)| a & b == 0)
    }

    /// Returns the normalized backing bitmap (no trailing zero words): bit
    /// `b` of word `w` is process `64·w + b`.  Equal sets always expose
    /// equal word slices, which is what makes the slice usable as an exact
    /// structural encoding (see [`crate::ViewKey`]).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }
}

impl<P: Into<ProcessId>> FromIterator<P> for PidSet {
    fn from_iter<I: IntoIterator<Item = P>>(iter: I) -> Self {
        let mut s = PidSet::new();
        s.extend(iter);
        s
    }
}

impl<P: Into<ProcessId>> Extend<P> for PidSet {
    fn extend<I: IntoIterator<Item = P>>(&mut self, iter: I) {
        for pid in iter {
            self.insert(pid);
        }
    }
}

impl<'a> IntoIterator for &'a PidSet {
    type Item = ProcessId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the members of a [`PidSet`], produced by [`PidSet::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a PidSet,
    next_index: usize,
}

impl Iterator for Iter<'_> {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        let total_bits = self.set.words.len() * 64;
        while self.next_index < total_bits {
            let idx = self.next_index;
            let (word, bit) = (idx / 64, idx % 64);
            let w = self.set.words[word] >> bit;
            if w == 0 {
                // Skip the rest of this word.
                self.next_index = (word + 1) * 64;
                continue;
            }
            let offset = w.trailing_zeros() as usize;
            self.next_index = idx + offset + 1;
            return Some(ProcessId::new(idx + offset));
        }
        None
    }
}

impl fmt::Display for PidSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut s = PidSet::new();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(7));
        assert!(!s.contains(6));
        assert!(s.remove(7));
        assert!(!s.remove(7));
        assert!(s.is_empty());
    }

    #[test]
    fn iteration_is_sorted_and_complete() {
        let s: PidSet = [200usize, 3, 64, 63, 0].into_iter().collect();
        let got: Vec<usize> = s.iter().map(|p| p.index()).collect();
        assert_eq!(got, vec![0, 3, 63, 64, 200]);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn equality_ignores_trailing_capacity() {
        let mut a = PidSet::new();
        a.insert(2);
        a.insert(130);
        a.remove(130);
        let b = PidSet::singleton(2);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn set_algebra() {
        let a: PidSet = [0usize, 1, 2, 3].into_iter().collect();
        let b: PidSet = [2usize, 3, 4].into_iter().collect();
        assert_eq!(a.union(&b), [0usize, 1, 2, 3, 4].into_iter().collect());
        assert_eq!(a.intersection(&b), [2usize, 3].into_iter().collect());
        assert_eq!(a.difference(&b), [0usize, 1].into_iter().collect());
        assert!(a.intersection(&b).is_subset(&a));
        assert!(!a.is_disjoint(&b));
        assert!(a.difference(&b).is_disjoint(&b));
    }

    #[test]
    fn full_set_contains_everything_below_n() {
        let s = PidSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(0));
        assert!(s.contains(69));
        assert!(!s.contains(70));
    }

    #[test]
    fn first_returns_minimum() {
        let s: PidSet = [9usize, 4, 17].into_iter().collect();
        assert_eq!(s.first(), Some(ProcessId::new(4)));
        assert_eq!(PidSet::new().first(), None);
    }

    #[test]
    fn display_formats_members() {
        let s: PidSet = [1usize, 3].into_iter().collect();
        assert_eq!(s.to_string(), "{p1, p3}");
    }

    /// Collecting a set's own iteration back into a `PidSet` rebuilds it
    /// exactly, across the 64-bit word boundary (member 64).
    #[test]
    fn iter_collect_roundtrip_preserves_membership() {
        let s: PidSet = [0usize, 5, 64].into_iter().collect();
        let rebuilt: PidSet = s.iter().collect();
        assert_eq!(rebuilt, s);
    }
}
