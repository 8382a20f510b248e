//! Pluggable pattern spaces: the [`PatternSpace`] trait and the
//! omission-fault space.
//!
//! The sweep engine enumerates adversaries as `pattern-major` blocks: every
//! failure pattern is crossed with every input vector, and everything
//! downstream — the block cursor, run-structure reuse, shard alignment, the
//! service's shard-accumulator cache — is keyed on the *rank* of a pattern
//! within its space.  [`PatternSpace`] abstracts exactly the piece that
//! varies between fault models: how many patterns a scope contains and how a
//! rank decodes into a [`FailurePattern`].  Two spaces implement it:
//!
//! * [`crate::enumerate::CrashSpace`] — the paper's `t`-crash model
//!   (crashing round plus partial-delivery subset per faulty process);
//! * [`OmissionSpace`] — per-round *send omissions* with a mobile failure
//!   budget: in every round independently, at most `t` senders each drop a
//!   nonempty subset of their outgoing messages, and nobody ever crashes.
//!
//! # The conformance contract
//!
//! A conforming space must guarantee, for every `rank < num_patterns()`:
//!
//! 1. **Total order** — `pattern_at(rank)` is defined and deterministic;
//!    distinct ranks decode to distinct patterns.
//! 2. **Reference agreement** — the rank order matches the space's
//!    materialized reference enumeration (`failure_patterns` /
//!    [`omission_patterns`]), which is what pins enumeration order across
//!    refactors.
//! 3. **Scope closure** — every decoded pattern ranges over exactly `n()`
//!    processes, so a single scratch [`synchrony::Adversary`] can absorb any
//!    pattern of the space in place (`set_failures` never changes `n`).
//!
//! Rule 3 is what keeps the shard/block alignment invariant of the sweep
//! engine model-agnostic: `AdversarySpace` crosses any conforming space with
//! the mixed-radix input enumeration, so structure blocks, shard alignment
//! and the cursor's in-place stepping work identically for every model.  The
//! generic conformance suite in `crates/adversary/tests/conformance.rs`
//! checks all of the above against both spaces.

use std::fmt;

use synchrony::{FailurePattern, ModelError, Round};

use crate::enumerate::{delivered_from_mask, subtree_table};

/// The fault-model discriminant of a [`PatternSpace`] — part of every
/// service cache key, so accumulators of different models can never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternModel {
    /// The paper's `t`-crash model ([`crate::enumerate::CrashSpace`]).
    Crash,
    /// Mobile per-round send omissions ([`OmissionSpace`]).
    Omission,
}

impl PatternModel {
    /// The canonical (wire and fingerprint) name of the model.
    pub fn name(self) -> &'static str {
        match self {
            PatternModel::Crash => "crash",
            PatternModel::Omission => "omission",
        }
    }

    /// Parses a canonical model name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "crash" => Some(PatternModel::Crash),
            "omission" => Some(PatternModel::Omission),
            _ => None,
        }
    }
}

impl fmt::Display for PatternModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A rankable space of failure patterns — the model-specific core an
/// `AdversarySpace` crosses with the input-vector enumeration.
///
/// See the [module docs](self) for the conformance contract; the rank/unrank
/// machinery behind both implementations is the same `O(n · t)` subtree-count
/// table (`subtree_table`), so `pattern_at` is `O(n · t)` per pattern with
/// per-scope state independent of `num_patterns()`.
pub trait PatternSpace: fmt::Debug + Send + Sync {
    /// The fault-model discriminant.
    fn model(&self) -> PatternModel;

    /// Number of processes every pattern of the space ranges over.
    fn n(&self) -> usize;

    /// Largest initial value of the scope's input domain (`{0, …, max}`) —
    /// the input crossing is model-independent, but the domain is part of
    /// the scope.
    fn max_value(&self) -> u64;

    /// Total number of failure patterns in the space.
    fn num_patterns(&self) -> u128;

    /// Names the pattern set: two spaces with equal keys decode every rank
    /// to the same pattern.  The input domain is not part of it.  Keys the
    /// process-wide orbit tables of [`crate::symmetry`].
    fn scope_key(&self) -> String;

    /// Decodes the pattern at position `rank` of the space's total order.
    ///
    /// # Panics
    ///
    /// Panics if `rank ≥ num_patterns()`.
    fn pattern_at(&self, rank: u128) -> FailurePattern;
}

/// The scope of an exhaustive send-omission enumeration.
///
/// In every round `1 … rounds` *independently* — the budget is **mobile**,
/// a different set of processes may be faulty each round — at most `t`
/// senders each drop a nonempty subset of their `n − 1` outgoing messages.
/// No process ever crashes, so every process runs (and must decide) in every
/// pattern of the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OmissionConfig {
    /// Number of processes.
    pub n: usize,
    /// Maximum number of omitting senders per round.
    pub t: usize,
    /// Largest initial value (the domain is `{0, …, max_value}`).
    pub max_value: u64,
    /// Number of rounds in which omissions may occur (`1 … rounds`).
    pub rounds: u32,
}

impl OmissionConfig {
    /// A small default scope suitable for exhaustive checks in tests,
    /// mirroring [`crate::enumerate::EnumerationConfig::small`]'s two-round
    /// horizon.
    pub fn small(n: usize, t: usize, max_value: u64) -> Self {
        OmissionConfig { n, t, max_value, rounds: 2 }
    }

    /// Returns the number of input vectors the scope contains.
    pub fn num_input_vectors(&self) -> u128 {
        (self.max_value as u128 + 1).pow(self.n as u32)
    }

    /// Returns the number of single-round omission assignments: the empty
    /// assignment plus every choice of up to `t` ordered senders, each with
    /// one of the `2^(n−1) − 1` nonempty dropped subsets.
    pub fn patterns_per_round(&self) -> u128 {
        subtree_table(self.n, self.t.min(self.n), self.subset_choices())[0][self.t.min(self.n)]
    }

    /// Returns the number of failure patterns the scope contains:
    /// `patterns_per_round() ^ rounds` (rounds are independent).
    pub fn num_failure_patterns(&self) -> u128 {
        self.patterns_per_round().pow(self.rounds)
    }

    /// Returns the total number of adversaries the scope contains.
    pub fn num_adversaries(&self) -> u128 {
        self.num_input_vectors() * self.num_failure_patterns()
    }

    /// Nonempty dropped-subset choices per omitting sender.
    fn subset_choices(&self) -> u128 {
        (1u128 << (self.n - 1)) - 1
    }
}

/// The send-omission [`PatternSpace`]: rank/unrank over
/// [`OmissionConfig`] scopes.
///
/// The rank is a mixed-radix numeral over rounds in base
/// [`OmissionConfig::patterns_per_round`], **round 1 most significant**, so
/// the order is lexicographic by round.  Within one round the digit is
/// unranked by the same preorder subtree walk the crash space uses, with
/// `2^(n−1) − 1` nonempty dropped subsets taking the place of the crash's
/// `(round, delivery subset)` choices.
#[derive(Debug, Clone)]
pub struct OmissionSpace {
    config: OmissionConfig,
    /// Subtree sizes of the single-round recursive enumeration (see
    /// `subtree_table`) — shared by every round, since rounds are
    /// independent and identically shaped.
    round_table: Vec<Vec<u128>>,
    per_round: u128,
    num_patterns: u128,
}

impl OmissionSpace {
    /// Prepares the lazy unranker for the scope, in `O(n² · t)` time and
    /// `O(n · t)` memory regardless of the scope's size.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is degenerate (fewer than two
    /// processes).
    pub fn new(config: OmissionConfig) -> Result<Self, ModelError> {
        if config.n < 2 {
            return Err(ModelError::TooFewProcesses { n: config.n });
        }
        let budget = config.t.min(config.n);
        let round_table = subtree_table(config.n, budget, config.subset_choices());
        let per_round = round_table[0][budget];
        let num_patterns = per_round.pow(config.rounds);
        Ok(OmissionSpace { config, round_table, per_round, num_patterns })
    }

    /// Returns the enumeration scope.
    pub fn config(&self) -> &OmissionConfig {
        &self.config
    }

    /// Decodes one round's digit into omissions on `pattern`.
    fn unrank_round(&self, round: Round, mut rank: u128, pattern: &mut FailurePattern) {
        let n = self.config.n;
        let s = self.config.subset_choices();
        let budget_cap = self.config.t.min(n);
        let mut from = 0usize;
        let mut budget = budget_cap;
        loop {
            debug_assert!(rank < self.round_table[from][budget], "round rank outside the subtree");
            if rank == 0 {
                return;
            }
            // Skip the subtree root (the assignment as built so far), then
            // walk the per-sender blocks: sender `p` contributes `s` nonempty
            // dropped subsets, each heading a subtree rooted at `p + 1` with
            // one less sender in the budget.
            rank -= 1;
            let mut p = from;
            loop {
                debug_assert!(p < n, "round rank exhausted the sender blocks");
                let sub = self.round_table[p + 1][budget - 1];
                let block = s * sub;
                if rank < block {
                    let choice = rank / sub;
                    rank %= sub;
                    // Choice `c` is the nonempty mask `c + 1` over the other
                    // `n − 1` processes, in the shared bit convention.
                    let mask = choice + 1;
                    pattern
                        .omit(p, round.number(), delivered_from_mask(n, p, mask))
                        .expect("unranked omission parameters are always valid");
                    from = p + 1;
                    budget -= 1;
                    break;
                }
                rank -= block;
                p += 1;
            }
        }
    }
}

impl PatternSpace for OmissionSpace {
    fn model(&self) -> PatternModel {
        PatternModel::Omission
    }

    fn n(&self) -> usize {
        self.config.n
    }

    fn max_value(&self) -> u64 {
        self.config.max_value
    }

    fn num_patterns(&self) -> u128 {
        self.num_patterns
    }

    fn scope_key(&self) -> String {
        let OmissionConfig { n, t, rounds, .. } = self.config;
        format!("omission n={n} t={t} rounds={rounds}")
    }

    fn pattern_at(&self, rank: u128) -> FailurePattern {
        assert!(
            rank < self.num_patterns,
            "pattern rank {rank} outside the scope of {:?}",
            self.config
        );
        let mut pattern = FailurePattern::crash_free(self.config.n);
        // Mixed radix over rounds, round 1 most significant: peel digits
        // from the least significant (last round) end, apply in round order.
        let rounds = self.config.rounds as usize;
        let mut digits = vec![0u128; rounds];
        let mut rest = rank;
        for digit in digits.iter_mut().rev() {
            *digit = rest % self.per_round;
            rest /= self.per_round;
        }
        for (index, digit) in digits.iter().enumerate() {
            self.unrank_round(Round::new(index as u32 + 1), *digit, &mut pattern);
        }
        pattern
    }
}

/// Enumerates every omission pattern of the scope, in [`OmissionSpace`] rank
/// order — the materialized reference the conformance suite pins the lazy
/// unranking against (the omission counterpart of
/// [`crate::enumerate::failure_patterns`]).
pub fn omission_patterns(config: &OmissionConfig) -> Vec<FailurePattern> {
    // Preorder of one round's assignments: each entry lists
    // `(sender, nonempty dropped mask)` pairs in recursion order.
    let mut assignments: Vec<Vec<(usize, u128)>> = Vec::new();
    let subsets = config.subset_choices();
    fn extend(
        n: usize,
        t: usize,
        subsets: u128,
        from: usize,
        current: &mut Vec<(usize, u128)>,
        out: &mut Vec<Vec<(usize, u128)>>,
    ) {
        out.push(current.clone());
        if current.len() >= t {
            return;
        }
        for sender in from..n {
            for mask in 1..=subsets {
                current.push((sender, mask));
                extend(n, t, subsets, sender + 1, current, out);
                current.pop();
            }
        }
    }
    extend(config.n, config.t.min(config.n), subsets, 0, &mut Vec::new(), &mut assignments);

    // Cartesian product over rounds, round 1 most significant (later rounds
    // vary fastest).
    let mut out = Vec::new();
    fn build(
        config: &OmissionConfig,
        assignments: &[Vec<(usize, u128)>],
        round: u32,
        pattern: &FailurePattern,
        out: &mut Vec<FailurePattern>,
    ) {
        if round > config.rounds {
            out.push(pattern.clone());
            return;
        }
        for assignment in assignments {
            let mut next = pattern.clone();
            for &(sender, mask) in assignment {
                next.omit(sender, round, delivered_from_mask(config.n, sender, mask))
                    .expect("enumerated omission parameters are always valid");
            }
            build(config, assignments, round + 1, &next, out);
        }
    }
    build(config, &assignments, 1, &FailurePattern::crash_free(config.n), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_names_round_trip() {
        for model in [PatternModel::Crash, PatternModel::Omission] {
            assert_eq!(PatternModel::parse(model.name()), Some(model));
        }
        assert_eq!(PatternModel::parse("byzantine"), None);
    }

    #[test]
    fn omission_counts_match_the_reference_enumeration() {
        for config in [
            OmissionConfig::small(3, 1, 1),
            OmissionConfig::small(3, 2, 1),
            OmissionConfig { n: 4, t: 1, max_value: 0, rounds: 1 },
            OmissionConfig { n: 2, t: 1, max_value: 1, rounds: 3 },
            // A budget beyond n, exercising the clamp.
            OmissionConfig { n: 3, t: 9, max_value: 0, rounds: 1 },
        ] {
            let reference = omission_patterns(&config);
            assert_eq!(reference.len() as u128, config.num_failure_patterns(), "{config:?}");
            let space = OmissionSpace::new(config).unwrap();
            assert_eq!(space.num_patterns(), reference.len() as u128, "{config:?}");
        }
    }

    #[test]
    fn unranking_matches_the_reference_enumeration() {
        for config in [
            OmissionConfig::small(3, 1, 1),
            OmissionConfig::small(3, 2, 1),
            OmissionConfig { n: 4, t: 1, max_value: 0, rounds: 2 },
            OmissionConfig { n: 2, t: 1, max_value: 1, rounds: 3 },
        ] {
            let space = OmissionSpace::new(config).unwrap();
            let reference = omission_patterns(&config);
            for (rank, expected) in reference.iter().enumerate() {
                assert_eq!(
                    &space.pattern_at(rank as u128),
                    expected,
                    "divergence at rank {rank} of {config:?}"
                );
            }
        }
    }

    #[test]
    fn every_pattern_respects_the_mobile_budget() {
        let config = OmissionConfig::small(3, 1, 1);
        for pattern in omission_patterns(&config) {
            assert_eq!(pattern.num_faulty(), 0, "omission patterns never crash");
            for round in 1..=config.rounds {
                assert!(
                    pattern.omitters_in_round(Round::new(round)).len() <= config.t,
                    "budget exceeded in round {round} of {pattern}"
                );
            }
            for round in config.rounds + 1..=config.rounds + 2 {
                assert!(pattern.omitters_in_round(Round::new(round)).is_empty());
            }
        }
    }

    #[test]
    fn patterns_are_pairwise_distinct() {
        let config = OmissionConfig { n: 3, t: 1, max_value: 0, rounds: 2 };
        let patterns = omission_patterns(&config);
        for (i, a) in patterns.iter().enumerate() {
            for b in patterns.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn degenerate_scopes_are_rejected() {
        assert!(OmissionSpace::new(OmissionConfig::small(1, 1, 0)).is_err());
    }

    #[test]
    fn round_one_is_the_most_significant_digit() {
        let config = OmissionConfig { n: 3, t: 1, max_value: 0, rounds: 2 };
        let space = OmissionSpace::new(config).unwrap();
        let per_round = config.patterns_per_round();
        // Rank 0 is omission-free; rank 1 differs only in the *last* round.
        assert!(!space.pattern_at(0).has_omissions());
        let second = space.pattern_at(1);
        assert!(second.omitters_in_round(Round::new(1)).is_empty());
        assert!(!second.omitters_in_round(Round::new(2)).is_empty());
        // Rank `per_round` flips the round-1 digit to its first nonempty
        // assignment and resets round 2.
        let rolled = space.pattern_at(per_round);
        assert!(!rolled.omitters_in_round(Round::new(1)).is_empty());
        assert!(rolled.omitters_in_round(Round::new(2)).is_empty());
    }
}
