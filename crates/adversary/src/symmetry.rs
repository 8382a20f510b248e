//! Symmetry reduction: the process-renaming orbits of a pattern space.
//!
//! Both pattern spaces are closed under renaming processes: if a pattern
//! is in the scope, so is every [`FailurePattern::relabel`] of it.  A job
//! that reads only rename-invariant knowledge (lowness, the minimum value,
//! hidden capacity, crash counts — every check of the Theorem 1 fold)
//! gives the same outcome on `(σP, σx)` as on `(P, x)`, and the input
//! product `{0, …, max}^n` is itself closed under renaming.  So the sum of
//! the job over the whole scope equals, over one *canonical* pattern `P`
//! per orbit, `|orbit(P)| · Σ_x f(P, x)`.
//!
//! An [`OrbitTable`] lists those canonical patterns by rank, with their
//! orbit sizes as weights.  It is built by enumerate-then-filter: every
//! rank is unranked once, encoded as per-process rows (crash round,
//! delivery mask, one dropped mask per omission round), and kept if no
//! renaming gives a lexicographically smaller code — the test leaves a
//! renaming at its first differing word and the pattern at its first
//! smaller code.  The renamings that give an equal code form the
//! pattern's stabilizer, so the weight is `n! / |stabilizer|`.
//!
//! Tables are memoized per [`PatternSpace::scope_key`] for the whole
//! process ([`orbits`]): the service daemon rebuilds a job's source for
//! every job, warm replays included, and needs the reduced length to cut
//! shards.  Spaces too large to tabulate ([`reducible`] is `false`) are
//! swept in full instead.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use synchrony::{FailurePattern, PidSet};

use crate::space::PatternSpace;

/// Largest process count the reduction handles: `n!` renamings are tried
/// per pattern.
pub const MAX_PROCESSES: usize = 8;

/// Bound on `num_patterns() · n!`, the renaming tests one table build may
/// need (about a second of work).
pub const MAX_WORK: u128 = 1 << 28;

/// Bound on `num_patterns()`, which bounds a table's memory.
pub const MAX_PATTERNS: u128 = 1 << 21;

/// Tables kept by [`orbits`]; the memo starts over when it is full.
const MEMO_CAPACITY: usize = 16;

/// The canonical patterns of a renaming-closed pattern space, one per
/// orbit, in increasing rank order, each with its orbit size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrbitTable {
    ranks: Vec<u128>,
    weights: Vec<u64>,
}

impl OrbitTable {
    /// Tabulates the orbits of `space` by enumerate-then-filter (see the
    /// [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if the space is not [`reducible`].
    pub fn build(space: &dyn PatternSpace) -> OrbitTable {
        assert!(reducible(space), "{} is too large to tabulate", space.scope_key());
        let n = space.n();
        let perms = permutations(n);
        let renamings = (perms.len() / n.max(1)) as u64;
        let mut table = OrbitTable { ranks: Vec::new(), weights: Vec::new() };
        let mut code = Vec::new();
        for rank in 0..space.num_patterns() {
            let width = encode(&space.pattern_at(rank), &mut code);
            if let Some(stabilizer) = canonical_stabilizer(&code, n, width, &perms) {
                table.ranks.push(rank);
                table.weights.push(renamings / stabilizer);
            }
        }
        table
    }

    /// Number of orbits (canonical patterns).
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Returns `true` if the table holds no orbit (never the case for a
    /// pattern space, which contains the failure-free pattern).
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// The canonical pattern ranks, increasing.
    pub fn ranks(&self) -> &[u128] {
        &self.ranks
    }

    /// The orbit size of each canonical pattern, parallel to
    /// [`OrbitTable::ranks`].
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// The number of patterns the orbits cover: `Σ weights`, which equals
    /// the space's `num_patterns()` exactly when the space is closed under
    /// renaming.
    pub fn covered(&self) -> u128 {
        self.weights.iter().map(|&w| u128::from(w)).sum()
    }
}

/// Whether `space` is small enough to tabulate: at most
/// [`MAX_PROCESSES`] processes, [`MAX_PATTERNS`] patterns and
/// [`MAX_WORK`] renaming tests.
pub fn reducible(space: &dyn PatternSpace) -> bool {
    let n = space.n();
    let renamings: u128 = (1..=n as u128).product();
    n <= MAX_PROCESSES
        && space.num_patterns() <= MAX_PATTERNS
        && space.num_patterns() * renamings <= MAX_WORK
}

/// The orbit table of `space`, built on first use and shared by every
/// later caller with the same [`PatternSpace::scope_key`] in this process.
///
/// # Panics
///
/// Panics if the space is not [`reducible`].
pub fn orbits(space: &dyn PatternSpace) -> Arc<OrbitTable> {
    static MEMO: OnceLock<Mutex<HashMap<String, Arc<OrbitTable>>>> = OnceLock::new();
    let memo = MEMO.get_or_init(Mutex::default);
    let key = space.scope_key();
    if let Some(table) = memo.lock().expect("orbit memo lock").get(&key) {
        return Arc::clone(table);
    }
    // Built outside the lock, so a large scope never stalls the lookups of
    // others; two racing builders of one scope build the same table.
    let table = Arc::new(OrbitTable::build(space));
    let mut memo = memo.lock().expect("orbit memo lock");
    if memo.len() >= MEMO_CAPACITY {
        memo.clear();
    }
    Arc::clone(memo.entry(key).or_insert(table))
}

/// Every permutation of `0 … n − 1`, flattened: permutation `j` occupies
/// `perms[j·n .. (j+1)·n]`, with `perms[j·n + i] = σ(i)`.  Lexicographic
/// order, so the identity comes first.
fn permutations(n: usize) -> Vec<u8> {
    let mut current: Vec<u8> = (0..n as u8).collect();
    let mut out = current.clone();
    // Next lexicographic permutation, until the sequence is descending.
    loop {
        let Some(pivot) = (1..n).rev().find(|&i| current[i - 1] < current[i]) else {
            return out;
        };
        let swap = (pivot..n).rev().find(|&i| current[i] > current[pivot - 1]).expect("pivot");
        current.swap(pivot - 1, swap);
        current[pivot..].reverse();
        out.extend_from_slice(&current);
    }
}

/// Writes the renaming code of `pattern` into `code` and returns its row
/// width: one row per process of `[crash round (0 if correct), delivery
/// mask, dropped mask of round 1, …, dropped mask of round R]`, where `R`
/// is the pattern's last omission round (a rename-invariant width).
fn encode(pattern: &FailurePattern, code: &mut Vec<u64>) -> usize {
    let mask = |set: &PidSet| set.as_words().first().copied().unwrap_or(0);
    let rounds = pattern.omission_faults().map(|((_, round), _)| round.number()).max();
    let width = 2 + rounds.unwrap_or(0) as usize;
    code.clear();
    code.resize(pattern.n() * width, 0);
    for (process, crash) in pattern.faulty() {
        let row = process.index() * width;
        code[row] = u64::from(crash.round().number());
        code[row + 1] = mask(crash.delivered());
    }
    for ((process, round), dropped) in pattern.omission_faults() {
        code[process.index() * width + 1 + round.number() as usize] = mask(dropped);
    }
    width
}

/// Renames the processes of a mask: bit `q` moves to bit `σ(q)`.
fn rename_mask(mut mask: u64, perm: &[u8]) -> u64 {
    let mut out = 0u64;
    while mask != 0 {
        out |= 1u64 << perm[mask.trailing_zeros() as usize];
        mask &= mask - 1;
    }
    out
}

/// `Some(|stabilizer|)` if `code` is the least code of its orbit, `None`
/// as soon as some renaming gives a smaller one.
///
/// Renaming by `σ` puts process `i`'s row, with its masks renamed, at row
/// `σ(i)`; so row `j` of the renamed code is the renamed row `σ⁻¹(j)`.
fn canonical_stabilizer(code: &[u64], n: usize, width: usize, perms: &[u8]) -> Option<u64> {
    let mut stabilizer = 1u64;
    let mut inverse = vec![0usize; n];
    // Permutation 0 is the identity, which always fixes the code.
    for perm in perms.chunks_exact(n.max(1)).skip(1) {
        for (i, &image) in perm.iter().enumerate() {
            inverse[image as usize] = i;
        }
        let mut order = std::cmp::Ordering::Equal;
        'rows: for (j, &source) in inverse.iter().enumerate() {
            let row = &code[source * width..(source + 1) * width];
            for (c, &word) in row.iter().enumerate() {
                let renamed = if c == 0 { word } else { rename_mask(word, perm) };
                order = renamed.cmp(&code[j * width + c]);
                if order.is_ne() {
                    break 'rows;
                }
            }
        }
        match order {
            std::cmp::Ordering::Less => return None,
            std::cmp::Ordering::Equal => stabilizer += 1,
            std::cmp::Ordering::Greater => {}
        }
    }
    Some(stabilizer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{CrashSpace, EnumerationConfig};
    use crate::space::{OmissionConfig, OmissionSpace};

    fn spaces() -> Vec<Box<dyn PatternSpace>> {
        vec![
            Box::new(CrashSpace::new(EnumerationConfig::small(3, 1, 1)).unwrap()),
            Box::new(CrashSpace::new(EnumerationConfig::small(4, 2, 1)).unwrap()),
            Box::new(
                CrashSpace::new(EnumerationConfig {
                    n: 5,
                    t: 2,
                    max_value: 2,
                    max_crash_round: 2,
                    partial_delivery: false,
                })
                .unwrap(),
            ),
            Box::new(OmissionSpace::new(OmissionConfig::small(3, 1, 1)).unwrap()),
            Box::new(OmissionSpace::new(OmissionConfig::small(3, 2, 1)).unwrap()),
        ]
    }

    fn all_permutations(n: usize) -> Vec<Vec<usize>> {
        permutations(n)
            .chunks_exact(n)
            .map(|p| p.iter().map(|&i| usize::from(i)).collect())
            .collect()
    }

    #[test]
    fn permutations_are_complete_and_start_at_the_identity() {
        for n in 1..=5 {
            let perms = all_permutations(n);
            assert_eq!(perms.len(), (1..=n).product::<usize>());
            assert_eq!(perms[0], (0..n).collect::<Vec<_>>());
            let mut sorted = perms.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), perms.len(), "no permutation repeats");
        }
    }

    /// Every orbit member relabels onto exactly one canonical rep: the
    /// orbits of the canonical patterns, computed with
    /// `FailurePattern::relabel`, have the tabulated sizes and partition the
    /// space.
    #[test]
    fn orbits_of_canonical_patterns_partition_the_space() {
        for space in spaces() {
            let table = OrbitTable::build(&*space);
            let mut owner: HashMap<String, u128> = HashMap::new();
            for (&rank, &weight) in table.ranks().iter().zip(table.weights()) {
                let pattern = space.pattern_at(rank);
                let mut orbit: Vec<String> = all_permutations(space.n())
                    .iter()
                    .map(|perm| pattern.relabel(perm).to_string())
                    .collect();
                orbit.sort();
                orbit.dedup();
                assert_eq!(
                    orbit.len() as u64,
                    weight,
                    "orbit of rank {rank} in {}",
                    space.scope_key()
                );
                for member in orbit {
                    let previous = owner.insert(member.clone(), rank);
                    assert_eq!(previous, None, "{member} lies in two orbits");
                }
            }
            let all: Vec<String> =
                (0..space.num_patterns()).map(|r| space.pattern_at(r).to_string()).collect();
            assert_eq!(owner.len(), all.len(), "{}", space.scope_key());
            assert!(all.iter().all(|p| owner.contains_key(p)), "{}", space.scope_key());
            assert_eq!(table.covered(), space.num_patterns());
        }
    }

    #[test]
    fn the_canonical_rep_is_the_least_code_of_its_orbit() {
        let space = CrashSpace::new(EnumerationConfig::small(3, 1, 1)).unwrap();
        let table = OrbitTable::build(&space);
        // The failure-free pattern is rank 0 and alone in its orbit.
        assert_eq!((table.ranks()[0], table.weights()[0]), (0, 1));
        // Every non-canonical rank has a canonical rep with a smaller code.
        let mut code = Vec::new();
        for rank in 0..space.num_patterns() {
            let width = encode(&space.pattern_at(rank), &mut code);
            let canonical = canonical_stabilizer(&code, 3, width, &permutations(3)).is_some();
            assert_eq!(canonical, table.ranks().contains(&rank));
        }
    }

    #[test]
    fn orbits_are_memoized_per_scope() {
        let a = CrashSpace::new(EnumerationConfig::small(3, 2, 1)).unwrap();
        // Another input domain over the same patterns shares the table.
        let b = CrashSpace::new(EnumerationConfig::small(3, 2, 2)).unwrap();
        assert!(Arc::ptr_eq(&orbits(&a), &orbits(&b)));
        assert_eq!(*orbits(&a), OrbitTable::build(&a));
    }

    #[test]
    fn large_spaces_are_not_reducible() {
        let big = CrashSpace::new(EnumerationConfig::small(9, 1, 1)).unwrap();
        assert!(!reducible(&big), "n = 9 exceeds the process bound");
        let wide = CrashSpace::new(EnumerationConfig {
            n: 6,
            t: 3,
            max_value: 1,
            max_crash_round: 2,
            partial_delivery: true,
        })
        .unwrap();
        assert!(wide.num_patterns() > MAX_PATTERNS);
        assert!(!reducible(&wide));
        assert!(reducible(&CrashSpace::new(EnumerationConfig::small(5, 2, 2)).unwrap()));
    }
}
