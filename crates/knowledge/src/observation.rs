//! Directly observed failures.
//!
//! The early-deciding set-consensus protocols that predate the paper (e.g.
//! Chaudhuri–Herlihy–Lynch–Tuttle, Gafni–Guerraoui–Pochon and
//! Parvédy–Raynal–Travers) keep a process undecided *as long as it discovers
//! at least `k` new failures in every round*.  The relevant quantity is the
//! set of processes the observer has **directly missed**: processes from
//! which it expected, but did not receive, a message in some round.
//!
//! Direct misses relate to hidden capacity as follows (and this is what makes
//! those protocols comparable to the paper's): every hidden node at a layer
//! `ℓ < m` corresponds to a process the observer missed directly in round
//! `ℓ + 1`, so *fewer than `k · m` direct misses implies hidden capacity
//! `< k`* — the classical decision conditions are strictly weaker than the
//! hidden-capacity condition.

use std::fmt;

use synchrony::{Node, PidSet, Round, Run, Time};

/// The failures directly observed by a node `⟨i, m⟩`: for every round
/// `ρ ≤ m`, the processes whose round-`ρ` message to `i` never arrived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectObservations {
    observer: Node,
    /// `missed_by_round[ρ]` (index 0 unused): processes missed in rounds `≤ ρ`.
    missed_by_round: Vec<PidSet>,
}

impl DirectObservations {
    /// Computes the direct observations of `observer` in `run`.
    ///
    /// The observer must be active at its time; callers normally obtain this
    /// through [`crate::ViewAnalysis`], which validates that.
    pub fn compute(run: &Run, observer: Node) -> Self {
        let m = observer.time.index();
        let n = run.n();
        let mut missed_by_round: Vec<PidSet> = Vec::with_capacity(m + 1);
        missed_by_round.push(PidSet::new());
        let mut cumulative = PidSet::new();
        for round in 1..=m {
            let time = Time::new(round as u32);
            let heard = run.heard_from(observer.process, time);
            for j in 0..n {
                if !heard.contains(j) {
                    cumulative.insert(j);
                }
            }
            missed_by_round.push(cumulative.clone());
        }
        DirectObservations { observer, missed_by_round }
    }

    /// Returns the observer node.
    pub fn observer(&self) -> Node {
        self.observer
    }

    /// Returns the set of processes missed in any round up to the observer's
    /// time.
    pub fn missed(&self) -> &PidSet {
        self.missed_by_round.last().expect("round 0 entry always present")
    }

    /// Returns the number of processes missed in any round up to the
    /// observer's time.
    pub fn num_missed(&self) -> usize {
        self.missed().len()
    }

    /// Returns the set of processes missed in rounds `≤ round`.
    ///
    /// # Panics
    ///
    /// Panics if `round` exceeds the observer time.
    pub fn missed_by(&self, round: Round) -> &PidSet {
        &self.missed_by_round[round.number() as usize]
    }

    /// Returns the number of *new* processes missed in exactly `round`.
    ///
    /// # Panics
    ///
    /// Panics if `round` exceeds the observer time.
    pub fn newly_missed_in(&self, round: Round) -> usize {
        let r = round.number() as usize;
        self.missed_by_round[r].len() - self.missed_by_round[r - 1].len()
    }

    /// Returns `true` if some round `ρ ≤ m` revealed fewer than `k` new
    /// failures to the observer — the decision condition of the classical
    /// early-deciding protocols.  At time 0 there are no rounds, so the
    /// answer is `false`.
    pub fn has_round_with_fewer_than_new_misses(&self, k: usize) -> bool {
        (1..self.missed_by_round.len()).any(|r| self.newly_missed_in(Round::new(r as u32)) < k)
    }

    /// Returns `true` if every round up to the observer's time revealed at
    /// least `k` new failures (the negation of the decision condition above,
    /// convenient for assertions about worst-case adversaries).
    pub fn every_round_reveals_at_least(&self, k: usize) -> bool {
        !self.has_round_with_fewer_than_new_misses(k)
    }
}

impl fmt::Display for DirectObservations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} directly missed {}", self.observer, self.missed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synchrony::{Adversary, FailurePattern, InputVector, SystemParams};

    fn run_with(n: usize, t: usize, build: impl FnOnce(&mut FailurePattern), horizon: u32) -> Run {
        let params = SystemParams::new(n, t).unwrap();
        let mut failures = FailurePattern::crash_free(n);
        build(&mut failures);
        let inputs = InputVector::from_values((0..n as u64).collect::<Vec<_>>());
        let adversary = Adversary::new(inputs, failures).unwrap();
        Run::generate(params, adversary, Time::new(horizon)).unwrap()
    }

    #[test]
    fn failure_free_run_has_no_misses() {
        let run = run_with(4, 2, |_| {}, 3);
        let obs = DirectObservations::compute(&run, Node::new(0, Time::new(3)));
        assert_eq!(obs.num_missed(), 0);
        assert!(obs.has_round_with_fewer_than_new_misses(1));
    }

    #[test]
    fn time_zero_has_no_rounds() {
        let run = run_with(3, 1, |_| {}, 2);
        let obs = DirectObservations::compute(&run, Node::new(0, Time::ZERO));
        assert_eq!(obs.num_missed(), 0);
        assert!(!obs.has_round_with_fewer_than_new_misses(1));
    }

    #[test]
    fn silent_crash_is_missed_by_everyone_else() {
        let run = run_with(
            4,
            2,
            |f| {
                f.crash_silent(0, 1).unwrap();
            },
            2,
        );
        let obs = DirectObservations::compute(&run, Node::new(3, Time::new(2)));
        assert_eq!(obs.num_missed(), 1);
        assert!(obs.missed().contains(0));
        assert_eq!(obs.newly_missed_in(Round::new(1)), 1);
        assert_eq!(obs.newly_missed_in(Round::new(2)), 0);
    }

    #[test]
    fn partial_delivery_is_missed_only_by_excluded_receivers() {
        let run = run_with(
            4,
            2,
            |f| {
                f.crash(0, 1, [1]).unwrap();
            },
            2,
        );
        let favored = DirectObservations::compute(&run, Node::new(1, Time::new(2)));
        let excluded = DirectObservations::compute(&run, Node::new(2, Time::new(2)));
        // p1 received p0's round-1 message; it only misses p0 in round 2.
        assert_eq!(favored.newly_missed_in(Round::new(1)), 0);
        assert_eq!(favored.newly_missed_in(Round::new(2)), 1);
        // p2 misses p0 already in round 1.
        assert_eq!(excluded.newly_missed_in(Round::new(1)), 1);
        assert_eq!(excluded.missed_by(Round::new(1)).len(), 1);
    }

    #[test]
    fn per_round_counts_accumulate() {
        let run = run_with(
            6,
            4,
            |f| {
                f.crash_silent(0, 1).unwrap();
                f.crash_silent(1, 1).unwrap();
                f.crash_silent(2, 2).unwrap();
            },
            3,
        );
        let obs = DirectObservations::compute(&run, Node::new(5, Time::new(3)));
        assert_eq!(obs.newly_missed_in(Round::new(1)), 2);
        assert_eq!(obs.newly_missed_in(Round::new(2)), 1);
        assert_eq!(obs.newly_missed_in(Round::new(3)), 0);
        assert_eq!(obs.num_missed(), 3);
        assert!(obs.every_round_reveals_at_least(0));
        assert!(!obs.every_round_reveals_at_least(2));
    }
}
