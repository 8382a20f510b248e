//! The communication-efficient implementation of Appendix E.
//!
//! The analysis in the paper assumes full-information protocols, but
//! Appendix E (Lemma 6) observes that the decision rules of `Optmin[k]` and
//! `u-Pmin[k]` depend only on (a) which initial values exist and who held
//! them, and (b) which failures are known and how early they occurred.  A
//! process can therefore report each fact at most once per peer:
//!
//! * `value(j) = v` — once per process `j` whose initial value it discovers;
//! * `failed_at(j) = ℓ` — when it learns of a failure of `j`, re-sent at most
//!   once more if a strictly earlier failure round for `j` is discovered;
//! * an *I'm alive* message in rounds with nothing to report.
//!
//! Each process therefore sends `O(n log n)` bits to each other process over
//! the whole run.  [`WireRun`] simulates this protocol under the same
//! adversary as a full-information [`Run`], records the bit traffic, and can
//! verify that the reconstructed knowledge coincides with the
//! full-information knowledge.

use std::fmt;

use crate::{PidSet, ProcessId, Round, Run, Time, Value, ValueSet};

/// A single report carried by a wire message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireReport {
    /// "Process `origin` started with initial value `value`."
    Value {
        /// The process whose initial value is being reported.
        origin: ProcessId,
        /// The reported initial value.
        value: Value,
    },
    /// "Process `process` crashed no later than round `round`."
    FailedAt {
        /// The process reported as crashed.
        process: ProcessId,
        /// The earliest crash round known to the reporter.
        round: Round,
    },
}

/// A message of the efficient protocol: a possibly empty batch of reports.
/// An empty batch is the *I'm alive* message.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireMessage {
    reports: Vec<WireReport>,
}

impl WireMessage {
    /// Creates an *I'm alive* message.
    pub fn alive() -> Self {
        WireMessage { reports: Vec::new() }
    }

    /// Returns the reports carried by the message.
    pub fn reports(&self) -> &[WireReport] {
        &self.reports
    }

    /// Returns `true` if this is a bare *I'm alive* message.
    pub fn is_alive_only(&self) -> bool {
        self.reports.is_empty()
    }

    /// Returns the encoded size of the message in bits under the given field
    /// widths (a small constant header plus the per-report costs).
    pub fn bit_cost(&self, id_bits: u32, value_bits: u32, round_bits: u32) -> u64 {
        const HEADER_BITS: u64 = 8;
        let mut bits = HEADER_BITS;
        for report in &self.reports {
            bits += match report {
                WireReport::Value { .. } => (id_bits + value_bits) as u64,
                WireReport::FailedAt { .. } => (id_bits + round_bits) as u64,
            };
        }
        bits
    }
}

/// Aggregate traffic statistics of a [`WireRun`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireStats {
    n: usize,
    /// `bits[i][j]`: total bits sent by `i` to `j` over the whole run.
    bits: Vec<Vec<u64>>,
    messages: u64,
    reports: u64,
}

impl WireStats {
    fn new(n: usize) -> Self {
        WireStats { n, bits: vec![vec![0; n]; n], messages: 0, reports: 0 }
    }

    /// Returns the total number of bits sent from `sender` to `receiver`.
    pub fn bits_between(
        &self,
        sender: impl Into<ProcessId>,
        receiver: impl Into<ProcessId>,
    ) -> u64 {
        self.bits[sender.into().index()][receiver.into().index()]
    }

    /// Returns the largest per-ordered-pair bit total.
    pub fn max_pair_bits(&self) -> u64 {
        self.bits.iter().flatten().copied().max().unwrap_or(0)
    }

    /// Returns the total number of bits sent in the run.
    pub fn total_bits(&self) -> u64 {
        self.bits.iter().flatten().sum()
    }

    /// Returns the total number of messages sent.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Returns the total number of reports sent.
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Returns the `c` such that the largest per-pair traffic equals
    /// `c · n · log₂(n)` bits — the constant of Lemma 6.
    pub fn n_log_n_constant(&self) -> f64 {
        let n = self.n as f64;
        self.max_pair_bits() as f64 / (n * n.log2().max(1.0))
    }
}

/// Per-process knowledge snapshot of the efficient protocol at some time.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WireKnowledge {
    /// `values[j] = Some(v)` iff the initial value of `j` is known to be `v`.
    values: Vec<Option<Value>>,
    /// `failures[j] = Some(r)` iff `j` is known to have crashed no later than
    /// round `r` (the earliest such round known).
    failures: Vec<Option<Round>>,
}

impl WireKnowledge {
    fn new(n: usize) -> Self {
        WireKnowledge { values: vec![None; n], failures: vec![None; n] }
    }
}

/// A simulation of the Appendix E protocol under the adversary of a [`Run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRun {
    n: usize,
    horizon: Time,
    /// `knowledge[m][i]`: what process `i` knows at time `m`.
    knowledge: Vec<Vec<WireKnowledge>>,
    stats: WireStats,
}

impl WireRun {
    /// Simulates the efficient protocol on the communication structure of
    /// `run` and records traffic statistics.
    pub fn simulate(run: &Run) -> Self {
        let n = run.n();
        let horizon = run.horizon();
        let failures = run.failures();

        let id_bits = (usize::BITS - (n.max(2) - 1).leading_zeros()).max(1);
        let max_value = run.inputs().present_values().max().map(Value::get).unwrap_or(0);
        let value_bits = (u64::BITS - max_value.leading_zeros()).max(1);
        let round_bits = (u32::BITS - horizon.value().leading_zeros()).max(1);

        let mut stats = WireStats::new(n);

        // Time-0 knowledge: each process knows its own initial value.
        let mut current: Vec<WireKnowledge> = (0..n)
            .map(|i| {
                let mut k = WireKnowledge::new(n);
                k.values[i] = Some(run.initial_value(i));
                k
            })
            .collect();
        let mut knowledge = vec![current.clone()];

        // What each sender has already reported to each receiver.
        let mut sent_values: Vec<Vec<PidSet>> = vec![vec![PidSet::new(); n]; n];
        let mut sent_failures: Vec<Vec<Vec<Option<Round>>>> = vec![vec![vec![None; n]; n]; n];

        for m in 1..=horizon.index() {
            let round = Round::new(m as u32);
            let time = Time::new(m as u32);
            let send_time = Time::new(m as u32 - 1);

            // Build the round's messages from the senders' time-(m-1) states.
            let mut inboxes: Vec<Vec<(ProcessId, WireMessage)>> = vec![Vec::new(); n];
            for i in 0..n {
                // A process sends in round m iff it has not crashed in an
                // earlier round (it was active at the send time).
                if !failures.is_active_at(i, send_time) {
                    continue;
                }
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let mut reports = Vec::new();
                    for origin in 0..n {
                        if let Some(v) = current[i].values[origin] {
                            if !sent_values[i][j].contains(origin) {
                                reports.push(WireReport::Value {
                                    origin: ProcessId::new(origin),
                                    value: v,
                                });
                            }
                        }
                    }
                    for p in 0..n {
                        if let Some(r) = current[i].failures[p] {
                            let already = sent_failures[i][j][p];
                            if already.is_none_or(|prev| r < prev) {
                                reports.push(WireReport::FailedAt {
                                    process: ProcessId::new(p),
                                    round: r,
                                });
                            }
                        }
                    }
                    let message = WireMessage { reports };

                    // The sender commits to having reported these facts,
                    // whether or not the message is ultimately delivered (in
                    // the crash model non-delivery implies the sender crashed,
                    // so nothing is ever lost by not re-sending).
                    for report in message.reports() {
                        match *report {
                            WireReport::Value { origin, .. } => {
                                sent_values[i][j].insert(origin);
                            }
                            WireReport::FailedAt { process, round } => {
                                sent_failures[i][j][process.index()] = Some(round);
                            }
                        }
                    }

                    let delivered = failures.delivers(i, round, j);
                    // Traffic accounting: bits leave the sender whenever the
                    // send is attempted by a process that is still up, or is
                    // actually transmitted by a crashing process.
                    if delivered || failures.crash_round(i) != Some(round) {
                        stats.bits[i][j] += message.bit_cost(id_bits, value_bits, round_bits);
                        stats.messages += 1;
                        stats.reports += message.reports().len() as u64;
                    }
                    if delivered {
                        inboxes[j].push((ProcessId::new(i), message));
                    }
                }
            }

            // Receivers merge the round's messages and detect missing senders.
            let mut next = current.clone();
            for (j, inbox) in inboxes.iter().enumerate() {
                if !failures.is_active_at(j, time) {
                    // A crashed process no longer updates its state.
                    next[j] = WireKnowledge::new(n);
                    continue;
                }
                let mut heard = PidSet::singleton(j);
                for (sender, message) in inbox {
                    heard.insert(*sender);
                    for report in message.reports() {
                        match *report {
                            WireReport::Value { origin, value } => {
                                if next[j].values[origin.index()].is_none() {
                                    next[j].values[origin.index()] = Some(value);
                                }
                            }
                            WireReport::FailedAt { process, round } => {
                                let slot = &mut next[j].failures[process.index()];
                                if slot.is_none_or(|prev| round < prev) {
                                    *slot = Some(round);
                                }
                            }
                        }
                    }
                }
                // Direct failure detection: a missing expected message proves a
                // crash no later than the current round.
                for p in 0..n {
                    if !heard.contains(p) && next[j].failures[p].is_none() {
                        next[j].failures[p] = Some(round);
                    }
                }
            }
            current = next;
            knowledge.push(current.clone());
        }

        WireRun { n, horizon, knowledge, stats }
    }

    /// Returns the set of initial values known to `process` at `time`.
    pub fn values_known(&self, process: impl Into<ProcessId>, time: Time) -> ValueSet {
        self.knowledge[time.index()][process.into().index()]
            .values
            .iter()
            .flatten()
            .copied()
            .collect()
    }

    /// Returns the initial value of `origin` as known to `process` at `time`.
    pub fn value_known_from(
        &self,
        process: impl Into<ProcessId>,
        time: Time,
        origin: impl Into<ProcessId>,
    ) -> Option<Value> {
        self.knowledge[time.index()][process.into().index()].values[origin.into().index()]
    }

    /// Returns the set of processes that `process` knows to have crashed at
    /// `time`.
    pub fn failures_known(&self, process: impl Into<ProcessId>, time: Time) -> PidSet {
        self.knowledge[time.index()][process.into().index()]
            .failures
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_some())
            .map(|(p, _)| p)
            .collect()
    }

    /// Returns the earliest crash round of `target` known to `process` at
    /// `time`, if any.
    pub fn earliest_failure_known(
        &self,
        process: impl Into<ProcessId>,
        time: Time,
        target: impl Into<ProcessId>,
    ) -> Option<Round> {
        self.knowledge[time.index()][process.into().index()].failures[target.into().index()]
    }

    /// Returns the traffic statistics.
    pub fn stats(&self) -> &WireStats {
        &self.stats
    }

    /// Verifies that the knowledge reconstructed by the efficient protocol
    /// coincides with full-information knowledge for every active node: the
    /// same initial values are known, and the same processes are known to
    /// have crashed.
    pub fn matches_full_information(&self, run: &Run) -> bool {
        for m in 0..=self.horizon.index() {
            let time = Time::new(m as u32);
            for i in 0..self.n {
                if !run.is_active(i, time) {
                    continue;
                }
                let seen = run.seen(i, time);
                // Initial values: known iff the time-0 node is seen.
                for origin in 0..self.n {
                    let fip =
                        seen.contains_node(origin, Time::ZERO).then(|| run.initial_value(origin));
                    if fip != self.value_known_from(i, time, origin) {
                        return false;
                    }
                }
                // Failures: known iff some seen node missed the process.
                let fip_failures = full_information_failures(run, i, time);
                if fip_failures != self.failures_known(i, time) {
                    return false;
                }
            }
        }
        true
    }
}

/// The set of processes whose crash is provable from the view of `⟨i, m⟩` in
/// the full-information protocol: some seen node did not hear from them.
fn full_information_failures(run: &Run, i: usize, time: Time) -> PidSet {
    let seen = run.seen(i, time);
    let mut known = PidSet::new();
    for (layer_time, layer) in seen.iter() {
        if layer_time == Time::ZERO {
            continue;
        }
        for h in layer.iter() {
            let heard = run.heard_from(h, layer_time);
            for p in 0..run.n() {
                if !heard.contains(p) {
                    known.insert(p);
                }
            }
        }
    }
    known
}

impl fmt::Display for WireRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wire run over {} processes, {} messages, max pair {} bits",
            self.n,
            self.stats.messages(),
            self.stats.max_pair_bits()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adversary, FailurePattern, InputVector, SystemParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run_with(
        n: usize,
        t: usize,
        inputs: &[u64],
        build: impl FnOnce(&mut FailurePattern),
        horizon: u32,
    ) -> Run {
        let params = SystemParams::new(n, t).unwrap();
        let mut failures = FailurePattern::crash_free(n);
        build(&mut failures);
        let adversary =
            Adversary::new(InputVector::from_values(inputs.to_vec()), failures).unwrap();
        Run::generate(params, adversary, Time::new(horizon)).unwrap()
    }

    fn random_run(seed: u64, n: usize, t: usize, horizon: u32) -> Run {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs: Vec<u64> = (0..n).map(|_| rng.random_range(0..4)).collect();
        let mut failures = FailurePattern::crash_free(n);
        let mut crashed = 0;
        for p in 0..n {
            if crashed >= t {
                break;
            }
            if rng.random_bool(0.4) {
                let round = rng.random_range(1..=horizon);
                let delivered: Vec<usize> = (0..n).filter(|_| rng.random_bool(0.5)).collect();
                failures.crash(p, round, delivered).unwrap();
                crashed += 1;
            }
        }
        let params = SystemParams::new(n, t).unwrap();
        let adversary = Adversary::new(InputVector::from_values(inputs), failures).unwrap();
        Run::generate(params, adversary, Time::new(horizon)).unwrap()
    }

    #[test]
    fn failure_free_run_matches_full_information() {
        let run = run_with(4, 2, &[0, 1, 2, 3], |_| {}, 3);
        let wire = WireRun::simulate(&run);
        assert!(wire.matches_full_information(&run));
        // After one round everyone knows every value.
        assert_eq!(wire.values_known(3, Time::new(1)).len(), 4);
        assert!(wire.failures_known(3, Time::new(3)).is_empty());
    }

    #[test]
    fn partial_delivery_knowledge_matches_full_information() {
        let run = run_with(
            5,
            2,
            &[0, 1, 2, 3, 4],
            |f| {
                f.crash(0, 1, [1]).unwrap();
                f.crash(2, 2, [3]).unwrap();
            },
            4,
        );
        let wire = WireRun::simulate(&run);
        assert!(wire.matches_full_information(&run));
        // p4 learns about p0's crash in round 1 directly.
        assert_eq!(wire.earliest_failure_known(4, Time::new(1), 0), Some(Round::new(1)));
    }

    #[test]
    fn random_adversaries_match_full_information() {
        for seed in 0..25u64 {
            let run = random_run(seed, 6, 3, 4);
            let wire = WireRun::simulate(&run);
            assert!(
                wire.matches_full_information(&run),
                "divergence for seed {seed}: {}",
                run.to_adversary()
            );
        }
    }

    #[test]
    fn values_are_reported_at_most_once_per_pair() {
        let run = run_with(4, 2, &[0, 1, 2, 3], |_| {}, 6);
        let wire = WireRun::simulate(&run);
        // With no failures, each process sends each other process: round 1
        // carries its own value; later rounds carry the remaining n-1 values
        // learned at time 1 (paper footnote: each value reported once), and
        // alive messages afterwards.  Reports are therefore bounded by n per
        // ordered pair.
        let n = 4u64;
        assert!(wire.stats().reports() <= n * (n - 1) * n);
        // Per-pair traffic stays modest even over a long horizon.
        assert!(wire.stats().max_pair_bits() < 200);
    }

    #[test]
    fn traffic_grows_like_n_log_n_per_pair() {
        // The per-pair constant should stay bounded as n grows.
        let mut constants = Vec::new();
        for &n in &[8usize, 16, 32] {
            let run = random_run(42, n, n / 2, (n / 2) as u32 + 1);
            let wire = WireRun::simulate(&run);
            constants.push(wire.stats().n_log_n_constant());
        }
        for c in constants {
            assert!(c < 32.0, "per-pair constant unexpectedly large: {c}");
        }
    }

    #[test]
    fn alive_messages_have_small_cost() {
        let alive = WireMessage::alive();
        assert!(alive.is_alive_only());
        assert_eq!(alive.bit_cost(5, 3, 4), 8);
    }
}
