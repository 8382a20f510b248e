//! Discrete global time and communication rounds.
//!
//! The model shares a discrete global clock starting at time `0`.  Round
//! `m + 1` takes place *between* time `m` and time `m + 1`: local computation
//! and sends of round `m + 1` are performed at time `m`, and the messages are
//! received at time `m + 1` (paper, §2.1).

use std::fmt;
use std::ops::{Add, Sub};

/// A point on the shared global clock (`0, 1, 2, …`).
///
/// ```
/// use synchrony::{Round, Time};
///
/// let m = Time::new(2);
/// assert_eq!(m.succ(), Time::new(3));
/// assert_eq!(m.round_ending_here(), Some(Round::new(2)));
/// assert_eq!(Time::ZERO.round_ending_here(), None);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time(u32);

impl Time {
    /// The initial time, at which processes hold their input values.
    pub const ZERO: Time = Time(0);

    /// Creates a time point from its clock value.
    pub const fn new(value: u32) -> Self {
        Time(value)
    }

    /// Returns the clock value of this time point.
    pub const fn value(self) -> u32 {
        self.0
    }

    /// Returns the clock value as a `usize`, convenient for indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the next time point.
    pub const fn succ(self) -> Time {
        Time(self.0 + 1)
    }

    /// Returns the previous time point, or `None` at time zero.
    pub const fn pred(self) -> Option<Time> {
        match self.0 {
            0 => None,
            v => Some(Time(v - 1)),
        }
    }

    /// Returns the round that *ends* at this time (round `m` ends at time `m`),
    /// or `None` at time zero, before any communication has taken place.
    pub const fn round_ending_here(self) -> Option<Round> {
        match self.0 {
            0 => None,
            v => Some(Round(v)),
        }
    }

    /// Returns the round that *starts* at this time (round `m + 1` starts at
    /// time `m`).
    pub const fn round_starting_here(self) -> Round {
        Round(self.0 + 1)
    }

    /// Iterates over all time points from zero up to and including `self`.
    pub fn iter_from_zero(self) -> impl DoubleEndedIterator<Item = Time> {
        (0..=self.0).map(Time)
    }
}

impl Add<u32> for Time {
    type Output = Time;

    fn add(self, rhs: u32) -> Time {
        Time(self.0 + rhs)
    }
}

impl Sub<u32> for Time {
    type Output = Time;

    fn sub(self, rhs: u32) -> Time {
        Time(self.0.checked_sub(rhs).expect("time underflow"))
    }
}

impl From<u32> for Time {
    fn from(value: u32) -> Self {
        Time(value)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A communication round (`1, 2, 3, …`).
///
/// Round `m` starts at time `m − 1` and ends at time `m`.  A process that
/// "crashes in round `m`" behaves correctly during rounds `1 … m − 1`, may
/// deliver to an arbitrary subset of processes during round `m`, and sends
/// nothing afterwards.
///
/// ```
/// use synchrony::{Round, Time};
///
/// let r = Round::new(3);
/// assert_eq!(r.start_time(), Time::new(2));
/// assert_eq!(r.end_time(), Time::new(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Round(u32);

impl Round {
    /// The first communication round.
    pub const FIRST: Round = Round(1);

    /// Creates a round from its one-based number.
    ///
    /// # Panics
    ///
    /// Panics if `number` is zero; rounds are numbered from 1.
    pub fn new(number: u32) -> Self {
        assert!(number >= 1, "rounds are numbered from 1");
        Round(number)
    }

    /// Returns the one-based round number.
    pub const fn number(self) -> u32 {
        self.0
    }

    /// Returns the time at which the round's sends are performed.
    pub const fn start_time(self) -> Time {
        Time(self.0 - 1)
    }

    /// Returns the time at which the round's messages are received.
    pub const fn end_time(self) -> Time {
        Time(self.0)
    }

    /// Returns the next round.
    pub const fn succ(self) -> Round {
        Round(self.0 + 1)
    }
}

impl From<Round> for Time {
    fn from(round: Round) -> Time {
        round.end_time()
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "round {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ordering_and_arithmetic() {
        assert!(Time::ZERO < Time::new(1));
        assert_eq!(Time::new(4) + 2, Time::new(6));
        assert_eq!(Time::new(4) - 2, Time::new(2));
        assert_eq!(Time::new(1).pred(), Some(Time::ZERO));
        assert_eq!(Time::ZERO.pred(), None);
    }

    #[test]
    #[should_panic(expected = "time underflow")]
    fn time_subtraction_below_zero_panics() {
        let _ = Time::ZERO - 1;
    }

    #[test]
    fn rounds_bracket_times() {
        let r = Round::new(5);
        assert_eq!(r.start_time(), Time::new(4));
        assert_eq!(r.end_time(), Time::new(5));
        assert_eq!(Time::new(5).round_ending_here(), Some(r));
        assert_eq!(Time::new(4).round_starting_here(), r);
        assert_eq!(r.succ(), Round::new(6));
    }

    #[test]
    #[should_panic(expected = "numbered from 1")]
    fn round_zero_is_rejected() {
        let _ = Round::new(0);
    }

    #[test]
    fn iter_from_zero_is_inclusive() {
        let times: Vec<u32> = Time::new(3).iter_from_zero().map(Time::value).collect();
        assert_eq!(times, vec![0, 1, 2, 3]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Time::new(7).to_string(), "7");
        assert_eq!(Round::new(7).to_string(), "round 7");
    }
}
