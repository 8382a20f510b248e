//! Failure patterns: crashes and send omissions.
//!
//! A *failure pattern* `F` describes how processes fail in an execution.  A
//! crashing process fails in some round `m ≥ 1`: it behaves correctly during
//! the first `m − 1` rounds, may succeed in delivering its round-`m` messages
//! to an arbitrary subset of processes, and sends nothing from round `m + 1`
//! on (paper, §2.1).
//!
//! A pattern may additionally carry *send omissions* — the message-adversary
//! generalization the related round-based models use (Shimi–Castañeda): an
//! omitting sender stays active forever, but the individual messages named by
//! [`FailurePattern::omit`] are dropped, pruning the corresponding heard-edge
//! of the run structure instead of killing the sender.  Crash-only patterns
//! (the paper's model) carry no omissions and behave exactly as before; both
//! kinds route through [`FailurePattern::delivers`], which is the single
//! point the run simulation consults.

use std::collections::BTreeMap;
use std::fmt;

use crate::{ModelError, PidSet, ProcessId, Round, SystemParams, Time};

/// The crash of a single process: its crashing round and the set of processes
/// that still receive its final round of messages.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CrashFault {
    round: Round,
    delivered: PidSet,
}

impl CrashFault {
    /// Creates a crash in `round` whose final messages reach exactly
    /// `delivered` (the crashing process's implicit self-delivery is not
    /// represented here).
    pub fn new(round: Round, delivered: PidSet) -> Self {
        CrashFault { round, delivered }
    }

    /// The round in which the process crashes.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The set of processes that receive the crashing process's final
    /// (round-`round`) messages.
    pub fn delivered(&self) -> &PidSet {
        &self.delivered
    }
}

/// A failure pattern: which processes crash, when, and whom they still reach
/// in their crashing round.
///
/// ```
/// use synchrony::{FailurePattern, Round, Time};
///
/// let mut f = FailurePattern::crash_free(4);
/// f.crash(0, 1, [2])?;          // p0 crashes in round 1, reaching only p2
/// f.crash_silent(3, 2)?;        // p3 crashes in round 2, reaching nobody
/// assert_eq!(f.num_faulty(), 2);
/// assert!(f.delivers(0, Round::new(1), 2));
/// assert!(!f.delivers(0, Round::new(1), 1));
/// assert!(f.is_active_at(0, Time::ZERO));
/// assert!(!f.is_active_at(0, Time::new(1)));
/// # Ok::<(), synchrony::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailurePattern {
    n: usize,
    faults: BTreeMap<ProcessId, CrashFault>,
    /// Send omissions: `(sender, round) → receivers whose copy of the
    /// round's message is dropped`.  Empty for crash-only patterns.
    omissions: BTreeMap<(ProcessId, Round), PidSet>,
}

impl FailurePattern {
    /// Creates the failure-free pattern over `n` processes.
    pub fn crash_free(n: usize) -> Self {
        FailurePattern { n, faults: BTreeMap::new(), omissions: BTreeMap::new() }
    }

    /// Returns the number of processes the pattern ranges over.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Registers a crash of `process` in round `round`, delivering its final
    /// messages exactly to `delivered` (self-delivery is implicit and the
    /// crashing process is silently removed from `delivered` if present).
    ///
    /// # Errors
    ///
    /// Returns an error if `process` or any member of `delivered` is out of
    /// range, if `round` is zero, or if `process` already crashes.
    pub fn crash<P, D>(
        &mut self,
        process: P,
        round: u32,
        delivered: D,
    ) -> Result<&mut Self, ModelError>
    where
        P: Into<ProcessId>,
        D: IntoIterator,
        D::Item: Into<ProcessId>,
    {
        let process = process.into();
        if process.index() >= self.n {
            return Err(ModelError::ProcessOutOfRange { process: process.index(), n: self.n });
        }
        if round == 0 {
            return Err(ModelError::InvalidCrashRound);
        }
        if self.faults.contains_key(&process) {
            return Err(ModelError::DuplicateCrash { process: process.index() });
        }
        let mut delivered_set = PidSet::with_capacity(self.n);
        for pid in delivered {
            let pid = pid.into();
            if pid.index() >= self.n {
                return Err(ModelError::ProcessOutOfRange { process: pid.index(), n: self.n });
            }
            if pid != process {
                delivered_set.insert(pid);
            }
        }
        self.faults.insert(process, CrashFault::new(Round::new(round), delivered_set));
        Ok(self)
    }

    /// Registers a crash of `process` in round `round` that reaches nobody.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FailurePattern::crash`].
    pub fn crash_silent(
        &mut self,
        process: impl Into<ProcessId>,
        round: u32,
    ) -> Result<&mut Self, ModelError> {
        self.crash(process, round, std::iter::empty::<ProcessId>())
    }

    /// Registers a send omission: `process`'s round-`round` messages to the
    /// members of `dropped` are lost.  The sender itself stays active — an
    /// omission prunes heard-edges, it never kills the process — and its
    /// implicit self-delivery cannot be dropped (`process` is silently
    /// removed from `dropped` if present).  Repeated calls for the same
    /// `(process, round)` accumulate into one dropped set.
    ///
    /// # Errors
    ///
    /// Returns an error if `process` or any member of `dropped` is out of
    /// range, or if `round` is zero.
    pub fn omit<P, D>(
        &mut self,
        process: P,
        round: u32,
        dropped: D,
    ) -> Result<&mut Self, ModelError>
    where
        P: Into<ProcessId>,
        D: IntoIterator,
        D::Item: Into<ProcessId>,
    {
        let process = process.into();
        if process.index() >= self.n {
            return Err(ModelError::ProcessOutOfRange { process: process.index(), n: self.n });
        }
        if round == 0 {
            return Err(ModelError::InvalidCrashRound);
        }
        let mut dropped_set = PidSet::with_capacity(self.n);
        for pid in dropped {
            let pid = pid.into();
            if pid.index() >= self.n {
                return Err(ModelError::ProcessOutOfRange { process: pid.index(), n: self.n });
            }
            if pid != process {
                dropped_set.insert(pid);
            }
        }
        if !dropped_set.is_empty() {
            self.omissions
                .entry((process, Round::new(round)))
                .or_insert_with(|| PidSet::with_capacity(self.n))
                .union_with(&dropped_set);
        }
        Ok(self)
    }

    /// Returns `true` if the pattern drops `sender`'s round-`round` message
    /// to `receiver`.
    pub fn omits(
        &self,
        sender: impl Into<ProcessId>,
        round: Round,
        receiver: impl Into<ProcessId>,
    ) -> bool {
        let sender = sender.into();
        let receiver = receiver.into();
        receiver != sender
            && self
                .omissions
                .get(&(sender, round))
                .is_some_and(|dropped| dropped.contains(receiver))
    }

    /// Returns `true` if the pattern carries any send omission (`false` for
    /// every pattern of the paper's pure crash model).
    pub fn has_omissions(&self) -> bool {
        !self.omissions.is_empty()
    }

    /// Iterates over the send omissions as `((sender, round), dropped)`.
    pub fn omission_faults(&self) -> impl Iterator<Item = ((ProcessId, Round), &PidSet)> {
        self.omissions.iter().map(|(&key, dropped)| (key, dropped))
    }

    /// Returns the set of processes omitting at least one send in `round` —
    /// what a *mobile* failure budget bounds per round.
    pub fn omitters_in_round(&self, round: Round) -> PidSet {
        self.omissions.keys().filter(|(_, r)| *r == round).map(|&(p, _)| p).collect()
    }

    /// Returns the crash round of `process`, or `None` if it is correct.
    pub fn crash_round(&self, process: impl Into<ProcessId>) -> Option<Round> {
        self.faults.get(&process.into()).map(CrashFault::round)
    }

    /// Returns the full crash record of `process`, or `None` if it is correct.
    pub fn fault(&self, process: impl Into<ProcessId>) -> Option<&CrashFault> {
        self.faults.get(&process.into())
    }

    /// Returns `true` if `process` crashes somewhere in this pattern.
    pub fn is_faulty(&self, process: impl Into<ProcessId>) -> bool {
        self.faults.contains_key(&process.into())
    }

    /// Returns `true` if `process` never crashes in this pattern.
    pub fn is_correct(&self, process: impl Into<ProcessId>) -> bool {
        !self.is_faulty(process)
    }

    /// Returns the number of faulty processes (the paper's `f`).
    pub fn num_faulty(&self) -> usize {
        self.faults.len()
    }

    /// Iterates over the faulty processes together with their crash records.
    pub fn faulty(&self) -> impl Iterator<Item = (ProcessId, &CrashFault)> {
        self.faults.iter().map(|(&p, c)| (p, c))
    }

    /// Returns the set of processes that never crash.
    pub fn correct_set(&self) -> PidSet {
        (0..self.n).filter(|&i| self.is_correct(i)).collect()
    }

    /// Returns the set of processes crashing exactly in `round`.
    pub fn crashes_in_round(&self, round: Round) -> PidSet {
        self.faults.iter().filter(|(_, c)| c.round() == round).map(|(&p, _)| p).collect()
    }

    /// Returns the latest crash round in the pattern, or `None` if crash-free.
    pub fn max_crash_round(&self) -> Option<Round> {
        self.faults.values().map(CrashFault::round).max()
    }

    /// Returns `true` if `process` is still active (has not yet crashed) at
    /// `time`: a process crashing in round `m` is active at times `0 … m − 1`.
    pub fn is_active_at(&self, process: impl Into<ProcessId>, time: Time) -> bool {
        match self.crash_round(process) {
            Some(round) => time.value() < round.number(),
            None => true,
        }
    }

    /// Returns the set of processes active at `time`.
    pub fn active_at(&self, time: Time) -> PidSet {
        (0..self.n).filter(|&i| self.is_active_at(i, time)).collect()
    }

    /// Returns `true` if a message sent by `sender` to `receiver` in `round`
    /// would be delivered: the sender is either still correct during that
    /// round, or it crashes exactly in that round and `receiver` belongs to
    /// its delivery set — and, in either case, the message is not named by a
    /// send omission.  A process always "delivers" to itself while it is
    /// active during the round's send step.
    pub fn delivers(
        &self,
        sender: impl Into<ProcessId>,
        round: Round,
        receiver: impl Into<ProcessId>,
    ) -> bool {
        let sender = sender.into();
        let receiver = receiver.into();
        let survives_crash = match self.faults.get(&sender) {
            None => true,
            Some(crash) => {
                if crash.round().number() > round.number() {
                    true
                } else if crash.round() == round {
                    receiver == sender || crash.delivered().contains(receiver)
                } else {
                    false
                }
            }
        };
        survives_crash && !self.omits(sender, round, receiver)
    }

    /// Renames the processes: process `i` of `self` becomes process
    /// `perm[i]` of the result, with its crash round, its delivery set and
    /// its send omissions renamed alike.  Relabeling by `τ` and then by `σ`
    /// equals relabeling by `σ ∘ τ`, and the inverse permutation undoes a
    /// relabeling.
    ///
    /// ```
    /// use synchrony::{FailurePattern, Round};
    ///
    /// let mut f = FailurePattern::crash_free(3);
    /// f.crash(0, 1, [2])?;
    /// let g = f.relabel(&[1, 2, 0]);
    /// assert!(g.is_faulty(1) && g.is_correct(0));
    /// assert!(g.delivers(1, Round::new(1), 0));
    /// # Ok::<(), synchrony::ModelError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0 … n − 1`.
    pub fn relabel(&self, perm: &[usize]) -> FailurePattern {
        assert_eq!(perm.len(), self.n, "a relabeling names every process once");
        let mut seen = vec![false; self.n];
        for &image in perm {
            assert!(image < self.n && !seen[image], "{perm:?} is not a permutation");
            seen[image] = true;
        }
        let rename = |set: &PidSet| -> PidSet { set.iter().map(|p| perm[p.index()]).collect() };
        FailurePattern {
            n: self.n,
            faults: self
                .faults
                .iter()
                .map(|(p, c)| {
                    (
                        ProcessId::new(perm[p.index()]),
                        CrashFault::new(c.round, rename(&c.delivered)),
                    )
                })
                .collect(),
            omissions: self
                .omissions
                .iter()
                .map(|(&(p, round), dropped)| {
                    ((ProcessId::new(perm[p.index()]), round), rename(dropped))
                })
                .collect(),
        }
    }

    /// Validates the pattern against system parameters: the pattern must range
    /// over exactly `params.n()` processes and contain at most `params.t()`
    /// crashes.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InputLengthMismatch`] or
    /// [`ModelError::TooManyCrashes`] accordingly.
    pub fn validate_against(&self, params: &SystemParams) -> Result<(), ModelError> {
        if self.n != params.n() {
            return Err(ModelError::InputLengthMismatch { got: self.n, expected: params.n() });
        }
        if self.num_faulty() > params.t() {
            return Err(ModelError::TooManyCrashes {
                crashes: self.num_faulty(),
                bound: params.t(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for FailurePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.faults.is_empty() && self.omissions.is_empty() {
            return write!(f, "crash-free({})", self.n);
        }
        if !self.faults.is_empty() {
            write!(f, "crashes[")?;
            for (i, (p, c)) in self.faults.iter().enumerate() {
                if i > 0 {
                    write!(f, "; ")?;
                }
                write!(f, "{p}@{} -> {}", c.round(), c.delivered())?;
            }
            write!(f, "]")?;
        }
        if !self.omissions.is_empty() {
            if !self.faults.is_empty() {
                write!(f, " ")?;
            }
            write!(f, "omits[")?;
            for (i, ((p, round), dropped)) in self.omissions.iter().enumerate() {
                if i > 0 {
                    write!(f, "; ")?;
                }
                write!(f, "{p}@{round} -x-> {dropped}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_free_pattern_has_everyone_correct_forever() {
        let f = FailurePattern::crash_free(3);
        assert_eq!(f.num_faulty(), 0);
        assert!(f.is_active_at(2, Time::new(100)));
        assert!(f.delivers(1, Round::new(5), 2));
        assert_eq!(f.correct_set().len(), 3);
        assert_eq!(f.max_crash_round(), None);
    }

    #[test]
    fn crash_semantics_match_the_paper() {
        let mut f = FailurePattern::crash_free(4);
        f.crash(1, 2, [0, 3]).unwrap();
        // Behaves correctly in rounds before the crash round.
        assert!(f.delivers(1, Round::new(1), 2));
        // Partial delivery in the crashing round.
        assert!(f.delivers(1, Round::new(2), 0));
        assert!(f.delivers(1, Round::new(2), 3));
        assert!(!f.delivers(1, Round::new(2), 2));
        // Silent afterwards.
        assert!(!f.delivers(1, Round::new(3), 0));
        // Active at times strictly before the crash round.
        assert!(f.is_active_at(1, Time::new(1)));
        assert!(!f.is_active_at(1, Time::new(2)));
        assert_eq!(f.crashes_in_round(Round::new(2)).len(), 1);
        assert_eq!(f.max_crash_round(), Some(Round::new(2)));
    }

    #[test]
    fn self_delivery_is_implicit_in_the_crash_round() {
        let mut f = FailurePattern::crash_free(3);
        f.crash(0, 1, [0, 2]).unwrap();
        // The process's own id was stripped from the delivery set but it still
        // "hears from itself" during its last active send step.
        assert!(f.delivers(0, Round::new(1), 0));
        assert_eq!(f.fault(0).unwrap().delivered().len(), 1);
    }

    #[test]
    fn validation_errors() {
        let mut f = FailurePattern::crash_free(3);
        assert_eq!(
            f.crash(5, 1, [0]).unwrap_err(),
            ModelError::ProcessOutOfRange { process: 5, n: 3 }
        );
        assert_eq!(f.crash(0, 0, [1]).unwrap_err(), ModelError::InvalidCrashRound);
        assert_eq!(
            f.crash(0, 1, [9]).unwrap_err(),
            ModelError::ProcessOutOfRange { process: 9, n: 3 }
        );
        f.crash(0, 1, [1]).unwrap();
        assert_eq!(f.crash(0, 2, [1]).unwrap_err(), ModelError::DuplicateCrash { process: 0 });
    }

    #[test]
    fn validate_against_checks_budget_and_size() {
        let params = SystemParams::new(3, 1).unwrap();
        let mut f = FailurePattern::crash_free(3);
        f.crash_silent(0, 1).unwrap();
        assert!(f.validate_against(&params).is_ok());
        f.crash_silent(1, 1).unwrap();
        assert_eq!(
            f.validate_against(&params),
            Err(ModelError::TooManyCrashes { crashes: 2, bound: 1 })
        );
        let wrong_size = FailurePattern::crash_free(4);
        assert_eq!(
            wrong_size.validate_against(&params),
            Err(ModelError::InputLengthMismatch { got: 4, expected: 3 })
        );
    }

    #[test]
    fn active_sets_shrink_over_time() {
        let mut f = FailurePattern::crash_free(4);
        f.crash_silent(0, 1).unwrap();
        f.crash_silent(1, 2).unwrap();
        assert_eq!(f.active_at(Time::ZERO).len(), 4);
        assert_eq!(f.active_at(Time::new(1)).len(), 3);
        assert_eq!(f.active_at(Time::new(2)).len(), 2);
        assert_eq!(f.active_at(Time::new(3)).len(), 2);
    }

    #[test]
    fn omissions_prune_messages_without_killing_the_sender() {
        let mut f = FailurePattern::crash_free(4);
        f.omit(1, 2, [0, 3]).unwrap();
        // The sender is not crash-faulty and stays active forever.
        assert!(f.is_correct(1));
        assert_eq!(f.num_faulty(), 0);
        assert!(f.is_active_at(1, Time::new(100)));
        assert!(f.has_omissions());
        // Only the named messages of the named round are dropped.
        assert!(!f.delivers(1, Round::new(2), 0));
        assert!(!f.delivers(1, Round::new(2), 3));
        assert!(f.delivers(1, Round::new(2), 2));
        assert!(f.delivers(1, Round::new(1), 0));
        assert!(f.delivers(1, Round::new(3), 0));
        // Self-delivery is immune.
        assert!(f.delivers(1, Round::new(2), 1));
        assert_eq!(f.omitters_in_round(Round::new(2)), PidSet::singleton(1));
        assert!(f.omitters_in_round(Round::new(1)).is_empty());
    }

    #[test]
    fn omissions_compose_with_crashes() {
        let mut f = FailurePattern::crash_free(3);
        f.crash(0, 2, [1]).unwrap();
        f.omit(0, 1, [2]).unwrap();
        // Round 1: correct sender, but the message to p2 is omitted.
        assert!(f.delivers(0, Round::new(1), 1));
        assert!(!f.delivers(0, Round::new(1), 2));
        // Round 2: the crash's partial delivery applies as usual.
        assert!(f.delivers(0, Round::new(2), 1));
        assert!(!f.delivers(0, Round::new(2), 2));
    }

    #[test]
    fn omit_validates_and_accumulates() {
        let mut f = FailurePattern::crash_free(3);
        assert_eq!(
            f.omit(5, 1, [0]).unwrap_err(),
            ModelError::ProcessOutOfRange { process: 5, n: 3 }
        );
        assert_eq!(f.omit(0, 0, [1]).unwrap_err(), ModelError::InvalidCrashRound);
        assert_eq!(
            f.omit(0, 1, [9]).unwrap_err(),
            ModelError::ProcessOutOfRange { process: 9, n: 3 }
        );
        // Self is stripped; dropping only yourself is a no-op.
        f.omit(0, 1, [0]).unwrap();
        assert!(!f.has_omissions());
        f.omit(0, 1, [1]).unwrap();
        f.omit(0, 1, [2]).unwrap();
        assert!(!f.delivers(0, Round::new(1), 1));
        assert!(!f.delivers(0, Round::new(1), 2));
        assert_eq!(f.omission_faults().count(), 1);
    }

    #[test]
    fn crash_only_patterns_are_unchanged_by_the_omission_extension() {
        let mut f = FailurePattern::crash_free(3);
        f.crash(2, 1, [0]).unwrap();
        let mut g = FailurePattern::crash_free(3);
        g.crash(2, 1, [0]).unwrap();
        assert_eq!(f, g);
        assert!(!f.has_omissions());
        // Display stays in the pre-omission format.
        assert!(f.to_string().starts_with("crashes["));
        assert!(!f.to_string().contains("omits"));
    }

    #[test]
    fn display_mentions_omissions() {
        let mut f = FailurePattern::crash_free(3);
        f.omit(1, 2, [0]).unwrap();
        let s = f.to_string();
        assert!(s.contains("omits["), "unexpected display: {s}");
        assert!(s.contains("p1"));
        f.crash_silent(0, 1).unwrap();
        let s = f.to_string();
        assert!(s.contains("crashes[") && s.contains("omits["), "unexpected display: {s}");
    }

    fn mixed_pattern() -> FailurePattern {
        let mut f = FailurePattern::crash_free(4);
        f.crash(0, 2, [1, 3]).unwrap();
        f.crash_silent(2, 1).unwrap();
        f.omit(1, 1, [0, 2]).unwrap();
        f.omit(3, 2, [1]).unwrap();
        f
    }

    #[test]
    fn relabel_by_the_identity_is_the_identity() {
        let f = mixed_pattern();
        assert_eq!(f.relabel(&[0, 1, 2, 3]), f);
    }

    #[test]
    fn relabel_moves_crashes_deliveries_and_omissions() {
        let f = mixed_pattern();
        let perm = [2, 0, 3, 1];
        let g = f.relabel(&perm);
        assert_eq!(g.num_faulty(), f.num_faulty());
        for sender in 0..4 {
            for receiver in 0..4 {
                for round in 1..=3 {
                    let round = Round::new(round);
                    assert_eq!(
                        g.delivers(perm[sender], round, perm[receiver]),
                        f.delivers(sender, round, receiver),
                        "{sender} -> {receiver} in {round}"
                    );
                }
            }
        }
    }

    #[test]
    fn relabel_composes_and_inverts() {
        let f = mixed_pattern();
        let (sigma, tau) = ([1, 3, 0, 2], [3, 2, 1, 0]);
        // (σ ∘ τ)(i) = σ(τ(i)): relabel by τ first, then by σ.
        let composed: Vec<usize> = (0..4).map(|i| sigma[tau[i]]).collect();
        assert_eq!(f.relabel(&tau).relabel(&sigma), f.relabel(&composed));
        let mut inverse = [0usize; 4];
        for (i, &image) in sigma.iter().enumerate() {
            inverse[image] = i;
        }
        assert_eq!(f.relabel(&sigma).relabel(&inverse), f);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn relabel_rejects_non_permutations() {
        let _ = mixed_pattern().relabel(&[0, 0, 1, 2]);
    }

    #[test]
    fn display_mentions_crash_rounds() {
        let mut f = FailurePattern::crash_free(3);
        f.crash(2, 1, [0]).unwrap();
        let s = f.to_string();
        assert!(s.contains("p2"));
        assert!(s.contains("round 1"));
    }
}
