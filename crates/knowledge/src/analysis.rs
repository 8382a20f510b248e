//! The complete knowledge analysis of a single node `⟨i, m⟩`.

use std::fmt;

use synchrony::{ModelError, Node, PidSet, Round, Run, SeenLayers, Time, Value, ValueSet};

use crate::{DirectObservations, HiddenCapacity, NodeStatus};

/// Everything a decision rule may want to know at a node `⟨i, m⟩`.
///
/// The analysis is computed once from the run's communication structure and
/// then queried by the protocols; it packages:
///
/// * the seen-layers of the observer and the classification of every other
///   node as seen / guaranteed crashed / hidden;
/// * `Vals⟨i, m⟩`, `Lows⟨i, m⟩` and `Min⟨i, m⟩` (Definition 5), plus the same
///   data for the observer's own previous node `⟨i, m − 1⟩`;
/// * the hidden capacity `HC⟨i, m⟩` with its witness pools (Definition 2);
/// * the failures the observer can prove (and the earliest round it can prove
///   them for), which give `d` in Definition 3;
/// * the failures the observer has directly missed, which drive the classical
///   early-deciding baselines;
/// * the persistence predicate of Definition 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewAnalysis {
    node: Node,
    n: usize,
    t: usize,
    seen: SeenLayers,
    vals: ValueSet,
    prev_vals: ValueSet,
    capacity: HiddenCapacity,
    prev_capacity: Option<usize>,
    /// Earliest crash round provable for each process, if any.
    earliest_known_crash: Vec<Option<Round>>,
    known_crashed: PidSet,
    observations: DirectObservations,
    /// Values of `vals` that the observer knows will persist (Definition 3).
    persistent: ValueSet,
}

/// The input-value-independent part of a [`ViewAnalysis`].
///
/// Everything here is determined by the *pattern* of the observer's view —
/// its [`synchrony::ViewKey`] — alone: relabeling the initial values of the
/// adversary changes none of these fields.  That makes the structure safe to
/// share across adversaries through [`crate::AnalysisCache`];
/// [`ViewStructure::complete`] then recomputes the (cheap) value-dependent
/// fields against a concrete run.
#[derive(Debug, Clone)]
pub(crate) struct ViewStructure {
    node: Node,
    n: usize,
    t: usize,
    seen: SeenLayers,
    capacity: HiddenCapacity,
    prev_capacity: Option<usize>,
    earliest_known_crash: Vec<Option<Round>>,
    known_crashed: PidSet,
    observations: DirectObservations,
    /// Layer-0 seen set of the observer's previous node (`None` at time 0) —
    /// the support of `Vals⟨i, m − 1⟩`.
    prev_seen0: Option<PidSet>,
    /// Layer-0 seen set of every time-`(m − 1)` witness, in increasing
    /// process order of `seen.layer(m − 1)` — the supports behind the
    /// persistence witness counts of Definition 3.
    witness_seen0: Vec<PidSet>,
}

impl ViewStructure {
    /// Computes the structural analysis of the node `⟨i, m⟩` of `run`.
    ///
    /// # Errors
    ///
    /// Returns an error if the node lies beyond the run's horizon, its
    /// process is out of range, or the process has already crashed at that
    /// time (a crashed node has no local state to analyze).
    pub(crate) fn compute(run: &Run, node: Node) -> Result<Self, ModelError> {
        validate_node(run, node)?;

        let n = run.n();
        let t = run.t();
        let m = node.time.index();
        let seen = run.seen(node.process, node.time).clone();

        // Provable crashes: a seen node did not hear from the process.
        let mut earliest_known_crash: Vec<Option<Round>> = vec![None; n];
        for (layer_time, layer) in seen.iter() {
            if layer_time == Time::ZERO {
                continue;
            }
            let round = Round::new(layer_time.value());
            for h in layer.iter() {
                let heard = run.heard_from(h, layer_time);
                for p in 0..n {
                    if !heard.contains(p) {
                        let slot = &mut earliest_known_crash[p];
                        if slot.is_none_or(|prev| round < prev) {
                            *slot = Some(round);
                        }
                    }
                }
            }
        }
        let known_crashed: PidSet = earliest_known_crash
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_some())
            .map(|(p, _)| p)
            .collect();

        // Hidden layers: neither seen nor guaranteed crashed.
        let mut hidden_layers = Vec::with_capacity(m + 1);
        for (layer_time, layer) in seen.iter() {
            let mut hidden = PidSet::with_capacity(n);
            for j in 0..n {
                if layer.contains(j) {
                    continue;
                }
                let guaranteed = earliest_known_crash[j]
                    .is_some_and(|r| u64::from(r.number()) <= u64::from(layer_time.value()));
                if !guaranteed {
                    hidden.insert(j);
                }
            }
            hidden_layers.push(hidden);
        }
        let capacity = HiddenCapacity::from_layers(node, hidden_layers);

        let prev_capacity = if m > 0 {
            let prev_analysis_capacity =
                hidden_capacity_of(run, Node::new(node.process, node.time - 1));
            Some(prev_analysis_capacity)
        } else {
            None
        };

        let observations = DirectObservations::compute(run, node);

        // Persistence supports: the subviews of seen nodes are determined by
        // the observer's view, so these sets are structural too.
        let (prev_seen0, witness_seen0) = if m > 0 {
            let prev_time = node.time - 1;
            let prev_seen0 = run.seen(node.process, prev_time).layer(Time::ZERO).clone();
            let witness_seen0 = seen
                .layer(prev_time)
                .iter()
                .map(|j| run.seen(j, prev_time).layer(Time::ZERO).clone())
                .collect();
            (Some(prev_seen0), witness_seen0)
        } else {
            (None, Vec::new())
        };

        Ok(ViewStructure {
            node,
            n,
            t,
            seen,
            capacity,
            prev_capacity,
            earliest_known_crash,
            known_crashed,
            observations,
            prev_seen0,
            witness_seen0,
        })
    }

    /// Completes the structure against a concrete run's initial values,
    /// producing a [`ViewAnalysis`] identical (`==`) to
    /// [`ViewAnalysis::new`] of that run and node.
    ///
    /// The run must induce this structure at the node (guaranteed when the
    /// structure was looked up by the run's [`synchrony::ViewKey`]); only the
    /// layer-0 value assignment is read from it.
    pub(crate) fn complete(&self, run: &Run) -> ViewAnalysis {
        let mut analysis = ViewAnalysis {
            node: self.node,
            n: self.n,
            t: self.t,
            seen: self.seen.clone(),
            vals: ValueSet::new(),
            prev_vals: ValueSet::new(),
            capacity: self.capacity.clone(),
            prev_capacity: self.prev_capacity,
            earliest_known_crash: self.earliest_known_crash.clone(),
            known_crashed: self.known_crashed.clone(),
            observations: self.observations.clone(),
            persistent: ValueSet::new(),
        };
        self.recomplete(run, &mut analysis);
        analysis
    }

    /// Refreshes the value-dependent fields (`vals`, `prev_vals`,
    /// `persistent`) of an analysis previously produced by
    /// [`ViewStructure::complete`] of *this* structure, against a new run
    /// that induces the same structure at the node.
    ///
    /// This is the innermost step of structure-major sweep execution: when
    /// only the input overlay of a run changed, every structural field of
    /// the analysis is already correct and the refresh allocates nothing —
    /// in particular, persistence is counted directly on the cached witness
    /// supports instead of materializing per-witness value sets.
    pub(crate) fn recomplete(&self, run: &Run, analysis: &mut ViewAnalysis) {
        debug_assert_eq!(analysis.node, self.node, "analysis completed from another structure");
        let m = self.node.time.index();
        let values_into = |support: &PidSet, out: &mut ValueSet| {
            out.clear();
            for p in support.iter() {
                out.insert(run.initial_value(p));
            }
        };

        let ViewAnalysis { vals, prev_vals, persistent, .. } = analysis;
        values_into(self.seen.layer(Time::ZERO), vals);
        match &self.prev_seen0 {
            Some(support) => values_into(support, prev_vals),
            None => prev_vals.clear(),
        }

        // Persistence (Definition 3), against the cached witness supports.
        let d = self.known_crashed.len();
        let needed = self.t.saturating_sub(d);
        persistent.clear();
        for v in vals.iter() {
            let via_own_history = m > 0 && prev_vals.contains(v);
            let via_witnesses = if m > 0 {
                self.witness_seen0
                    .iter()
                    .filter(|support| support.iter().any(|p| run.initial_value(p) == v))
                    .count()
                    >= needed
            } else {
                needed == 0
            };
            if via_own_history || via_witnesses {
                persistent.insert(v);
            }
        }
    }
}

impl ViewAnalysis {
    /// Analyzes the node `⟨i, m⟩` of `run`.
    ///
    /// # Errors
    ///
    /// Returns an error if the node lies beyond the run's horizon, its process
    /// is out of range, or the process has already crashed at that time (a
    /// crashed node has no local state to analyze).
    pub fn new(run: &Run, node: Node) -> Result<Self, ModelError> {
        Ok(ViewStructure::compute(run, node)?.complete(run))
    }

    /// Returns the analyzed node `⟨i, m⟩`.
    pub fn node(&self) -> Node {
        self.node
    }

    /// Returns the observer's time `m`.
    pub fn time(&self) -> Time {
        self.node.time
    }

    /// Returns the system size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Returns the failure bound `t`.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Returns the seen-layers of the observer.
    pub fn seen(&self) -> &SeenLayers {
        &self.seen
    }

    /// Returns `Vals⟨i, m⟩`: the set of values the observer knows to exist.
    pub fn vals(&self) -> &ValueSet {
        &self.vals
    }

    /// Returns `Min⟨i, m⟩`: the minimum value the observer has seen.
    ///
    /// Every active process has seen at least its own initial value, so the
    /// minimum always exists.
    pub fn min_value(&self) -> Value {
        self.vals.min().expect("an active process has seen its own initial value")
    }

    /// Returns `Lows⟨i, m⟩`: the low values (strictly below `k`) the observer
    /// knows to exist.
    pub fn lows(&self, k: usize) -> ValueSet {
        self.vals.lows(k)
    }

    /// Returns `true` if the observer is *low* at `m`: it has seen a value
    /// strictly smaller than `k`.
    pub fn is_low(&self, k: usize) -> bool {
        !self.lows(k).is_empty()
    }

    /// Returns `true` if the observer is *high* at `m` (not low).
    pub fn is_high(&self, k: usize) -> bool {
        !self.is_low(k)
    }

    /// Returns `Vals⟨i, m − 1⟩`, the values the observer had seen at its
    /// previous node (empty at time 0).
    pub fn prev_vals(&self) -> &ValueSet {
        &self.prev_vals
    }

    /// Returns `Min⟨i, m − 1⟩`, if the observer exists at time `m − 1`.
    pub fn prev_min_value(&self) -> Option<Value> {
        self.prev_vals.min()
    }

    /// Returns `true` if the observer was low at its previous node.
    pub fn was_low(&self, k: usize) -> bool {
        !self.prev_vals.lows(k).is_empty()
    }

    /// Returns the hidden-capacity record of the observer.
    pub fn capacity(&self) -> &HiddenCapacity {
        &self.capacity
    }

    /// Returns the hidden capacity `HC⟨i, m⟩` (Definition 2).
    pub fn hidden_capacity(&self) -> usize {
        self.capacity.capacity()
    }

    /// Returns the hidden capacity of the observer's previous node
    /// `HC⟨i, m − 1⟩`, or `None` at time 0.
    pub fn prev_hidden_capacity(&self) -> Option<usize> {
        self.prev_capacity
    }

    /// Returns the set of processes whose node at `time` is hidden from the
    /// observer.
    pub fn hidden_at(&self, time: Time) -> &PidSet {
        self.capacity.hidden_at(time)
    }

    /// Returns `true` if a hidden path exists with respect to the observer
    /// (hidden capacity at least 1).
    pub fn has_hidden_path(&self) -> bool {
        self.capacity.has_hidden_path()
    }

    /// Classifies the node `⟨j, ℓ⟩` relative to the observer.
    ///
    /// # Panics
    ///
    /// Panics if `ℓ` exceeds the observer's time; the classification is only
    /// defined for nodes in the observer's past cone of uncertainty.
    pub fn status_of(&self, target: Node) -> NodeStatus {
        assert!(
            target.time <= self.node.time,
            "node classification is defined only for times up to the observer's"
        );
        if self.seen.contains_node(target.process, target.time) {
            NodeStatus::Seen
        } else if self.earliest_known_crash[target.process.index()]
            .is_some_and(|r| u64::from(r.number()) <= u64::from(target.time.value()))
        {
            NodeStatus::GuaranteedCrashed
        } else {
            NodeStatus::Hidden
        }
    }

    /// Returns the set of processes the observer can prove to have crashed.
    pub fn known_crashed(&self) -> &PidSet {
        &self.known_crashed
    }

    /// Returns the number of failures the observer knows of (the `d` of
    /// Definition 3).
    pub fn num_known_crashed(&self) -> usize {
        self.known_crashed.len()
    }

    /// Returns the earliest crash round the observer can prove for `process`,
    /// if any.
    pub fn earliest_known_crash(&self, process: impl Into<synchrony::ProcessId>) -> Option<Round> {
        self.earliest_known_crash[process.into().index()]
    }

    /// Returns the observer's directly observed failures.
    pub fn observations(&self) -> &DirectObservations {
        &self.observations
    }

    /// Returns `true` if the observer knows that `value` will persist
    /// (Definition 3): either it had already seen the value at time `m − 1`
    /// and is still active, or it sees at least `t − d` distinct time-`(m−1)`
    /// nodes that have seen the value.
    pub fn knows_will_persist(&self, value: impl Into<Value>) -> bool {
        self.persistent.contains(value)
    }

    /// Returns the set of values the observer knows will persist.
    pub fn persistent_values(&self) -> &ValueSet {
        &self.persistent
    }
}

impl fmt::Display for ViewAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: Vals = {}, HC = {}, known crashes = {}",
            self.node,
            self.vals,
            self.hidden_capacity(),
            self.known_crashed.len()
        )
    }
}

/// Checks that `⟨i, m⟩` is a node an analysis is defined for: within the
/// run's horizon, a real process, and still active (a crashed node has no
/// local state).  Shared by [`ViewAnalysis::new`] and the analysis cache,
/// which must reject invalid nodes *before* touching the run's structures.
pub(crate) fn validate_node(run: &Run, node: Node) -> Result<(), ModelError> {
    run.check_time(node.time)?;
    run.params().check_process(node.process)?;
    if !run.is_active(node.process, node.time) {
        return Err(ModelError::InactiveNode {
            process: node.process.index(),
            time: node.time.value() as u64,
        });
    }
    Ok(())
}

/// The hidden capacity of an arbitrary node, computed directly (used for the
/// observer's previous node without building a full analysis).
fn hidden_capacity_of(run: &Run, node: Node) -> usize {
    let n = run.n();
    let seen = run.seen(node.process, node.time);
    let mut earliest_known_crash: Vec<Option<Round>> = vec![None; n];
    for (layer_time, layer) in seen.iter() {
        if layer_time == Time::ZERO {
            continue;
        }
        let round = Round::new(layer_time.value());
        for h in layer.iter() {
            let heard = run.heard_from(h, layer_time);
            for p in 0..n {
                if !heard.contains(p) {
                    let slot = &mut earliest_known_crash[p];
                    if slot.is_none_or(|prev| round < prev) {
                        *slot = Some(round);
                    }
                }
            }
        }
    }
    let mut capacity = usize::MAX;
    for (layer_time, layer) in seen.iter() {
        let mut hidden = 0;
        for j in 0..n {
            if layer.contains(j) {
                continue;
            }
            let guaranteed = earliest_known_crash[j]
                .is_some_and(|r| u64::from(r.number()) <= u64::from(layer_time.value()));
            if !guaranteed {
                hidden += 1;
            }
        }
        capacity = capacity.min(hidden);
    }
    capacity
}

#[cfg(test)]
mod tests {
    use super::*;
    use synchrony::{Adversary, FailurePattern, InputVector, SystemParams};

    fn build_run(
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

    /// The Fig. 1 scenario: a hidden path carries the value 0 forward while
    /// the observer never sees it.
    fn fig1_run() -> Run {
        build_run(
            5,
            3,
            &[0, 1, 1, 1, 1],
            |f| {
                f.crash(0, 1, [1]).unwrap(); // p0 reaches only p1
                f.crash(1, 2, [2]).unwrap(); // p1 reaches only p2
            },
            3,
        )
    }

    /// The Fig. 2 scenario for k = 3: three disjoint crash chains keep three
    /// nodes hidden at every layer up to time 2.
    ///
    /// Processes 0‥2 are the layer-0 witnesses, 3‥5 the layer-1 witnesses,
    /// 6‥8 the layer-2 witnesses, and process 9 is the observer `i`.
    fn fig2_run() -> Run {
        build_run(
            10,
            6,
            &[1, 2, 3, 9, 9, 9, 9, 9, 9, 9],
            |f| {
                for b in 0..3usize {
                    f.crash(b, 1, [3 + b]).unwrap(); // layer-0 witness reaches only its successor
                    f.crash(3 + b, 2, [6 + b]).unwrap(); // layer-1 witness reaches only its successor
                }
            },
            3,
        )
    }

    #[test]
    fn analysis_rejects_invalid_nodes() {
        let run = fig1_run();
        assert!(matches!(
            ViewAnalysis::new(&run, Node::new(0, Time::new(2))),
            Err(ModelError::InactiveNode { .. })
        ));
        assert!(ViewAnalysis::new(&run, Node::new(9, Time::new(1))).is_err());
        assert!(ViewAnalysis::new(&run, Node::new(2, Time::new(9))).is_err());
    }

    #[test]
    fn fig1_observer_misses_the_value_but_has_a_hidden_path() {
        let run = fig1_run();
        let a = ViewAnalysis::new(&run, Node::new(4, Time::new(2))).unwrap();
        assert!(!a.vals().contains(0u64));
        assert_eq!(a.min_value(), Value::new(1));
        assert!(a.has_hidden_path());
        assert_eq!(a.hidden_capacity(), 1);
        // The hidden path runs through ⟨p0,0⟩, ⟨p1,1⟩, ⟨p2,2⟩… but at layer 2
        // the hidden pool also contains other processes i has simply not heard
        // from at time 2.
        assert!(a.hidden_at(Time::ZERO).contains(0));
        assert!(a.hidden_at(Time::new(1)).contains(1));
    }

    #[test]
    fn fig1_receiver_of_the_chain_sees_the_value() {
        let run = fig1_run();
        let a = ViewAnalysis::new(&run, Node::new(2, Time::new(2))).unwrap();
        assert!(a.vals().contains(0u64));
        assert_eq!(a.min_value(), Value::new(0));
        assert!(a.is_low(1));
    }

    #[test]
    fn fig1_after_one_more_round_the_path_collapses() {
        let run = fig1_run();
        let a = ViewAnalysis::new(&run, Node::new(4, Time::new(3))).unwrap();
        // p2 is correct, so in round 3 it relays the value 0 to everyone.
        assert!(a.vals().contains(0u64));
    }

    #[test]
    fn fig2_observer_has_hidden_capacity_three() {
        let run = fig2_run();
        let a = ViewAnalysis::new(&run, Node::new(9, Time::new(2))).unwrap();
        assert_eq!(a.hidden_capacity(), 3);
        assert!(a.is_high(3), "the observer has seen only the high value");
        assert_eq!(a.hidden_at(Time::ZERO).len(), 3);
        assert_eq!(a.hidden_at(Time::new(1)).len(), 3);
        assert_eq!(a.hidden_at(Time::new(2)).len(), 3);
        // The witnesses are exactly the three crash chains.
        assert!(a.hidden_at(Time::ZERO).contains(0));
        assert!(a.hidden_at(Time::new(1)).contains(3));
        assert!(a.hidden_at(Time::new(2)).contains(6));
    }

    #[test]
    fn fig2_chain_endpoints_know_their_unique_low_value() {
        let run = fig2_run();
        for b in 0..3usize {
            let a = ViewAnalysis::new(&run, Node::new(6 + b, Time::new(2))).unwrap();
            assert!(a.vals().contains((b as u64) + 1));
            assert_eq!(a.lows(4).len(), 1);
        }
    }

    #[test]
    fn node_classification_matches_the_three_categories() {
        let run = fig1_run();
        let a = ViewAnalysis::new(&run, Node::new(4, Time::new(2))).unwrap();
        assert_eq!(a.status_of(Node::new(4, Time::new(2))), NodeStatus::Seen);
        assert_eq!(a.status_of(Node::new(3, Time::new(1))), NodeStatus::Seen);
        // p0 visibly failed to send in round 1, so its later nodes are
        // guaranteed crashed, but its time-0 node is merely hidden.
        assert_eq!(a.status_of(Node::new(0, Time::new(1))), NodeStatus::GuaranteedCrashed);
        assert_eq!(a.status_of(Node::new(0, Time::ZERO)), NodeStatus::Hidden);
        // p1 reached only p2 in round 2; the observer has no proof yet.
        assert_eq!(a.status_of(Node::new(1, Time::new(1))), NodeStatus::Hidden);
    }

    #[test]
    fn known_crashes_and_earliest_rounds() {
        let run = fig1_run();
        let a = ViewAnalysis::new(&run, Node::new(4, Time::new(2))).unwrap();
        assert!(a.known_crashed().contains(0));
        assert_eq!(a.earliest_known_crash(0), Some(Round::new(1)));
        assert_eq!(a.earliest_known_crash(1), Some(Round::new(2)));
        assert_eq!(a.earliest_known_crash(4), None);
        assert_eq!(a.num_known_crashed(), 2);
    }

    #[test]
    fn prev_state_is_exposed() {
        let run = fig1_run();
        let a = ViewAnalysis::new(&run, Node::new(2, Time::new(2))).unwrap();
        // p2 only learns the value 0 at time 2 (via p1's final message).
        assert!(!a.prev_vals().contains(0u64));
        assert!(a.vals().contains(0u64));
        assert_eq!(a.prev_min_value(), Some(Value::new(1)));
        assert!(!a.was_low(1));
        assert!(a.prev_hidden_capacity().is_some());
    }

    #[test]
    fn hidden_capacity_is_monotone_nonincreasing_in_time() {
        let run = fig2_run();
        let a1 = ViewAnalysis::new(&run, Node::new(9, Time::new(1))).unwrap();
        let a2 = ViewAnalysis::new(&run, Node::new(9, Time::new(2))).unwrap();
        let a3 = ViewAnalysis::new(&run, Node::new(9, Time::new(3))).unwrap();
        assert!(a1.hidden_capacity() >= a2.hidden_capacity());
        assert!(a2.hidden_capacity() >= a3.hidden_capacity());
        // Once the crash chains run out, the capacity collapses.
        assert!(a3.hidden_capacity() < 3);
    }

    #[test]
    fn persistence_requires_enough_witnesses_or_own_history() {
        // Failure-free run: after one round everyone has seen every value and
        // every value persists (own history from time 0 onwards).
        let run = build_run(4, 2, &[0, 1, 2, 3], |_| {}, 2);
        let a = ViewAnalysis::new(&run, Node::new(0, Time::new(2))).unwrap();
        for v in 0..4u64 {
            assert!(a.knows_will_persist(v), "value {v} should persist");
        }
        // At time 0 with t > 0 nothing is known to persist yet.
        let a0 = ViewAnalysis::new(&run, Node::new(0, Time::ZERO)).unwrap();
        assert!(!a0.knows_will_persist(0u64));
        assert!(a0.persistent_values().is_empty());
    }

    #[test]
    fn freshly_learned_value_from_a_crashing_process_may_not_persist() {
        // p0 holds 0 and crashes in round 1 reaching only p1.  At time 1, p1
        // knows the value 0 but cannot know it will persist: it did not know
        // it at time 0, and it sees only one time-0 node holding it while
        // t − d = 2 − 1 = 1… actually it sees exactly one (p0's), which meets
        // t − d only if d ≥ 1.  p1 *did* observe p0's silence towards others?
        // No: p1 received p0's message, so it has no proof of the crash, and
        // d = 0, so it needs 2 witnesses but has 1.
        let run = build_run(
            4,
            2,
            &[0, 1, 1, 1],
            |f| {
                f.crash(0, 1, [1]).unwrap();
            },
            2,
        );
        let a = ViewAnalysis::new(&run, Node::new(1, Time::new(1))).unwrap();
        assert!(a.vals().contains(0u64));
        assert!(!a.knows_will_persist(0u64));
        assert!(a.knows_will_persist(1u64), "its own value was seen at time 0");
        // One round later the value has been re-broadcast by p1 itself.
        let a2 = ViewAnalysis::new(&run, Node::new(1, Time::new(2))).unwrap();
        assert!(a2.knows_will_persist(0u64));
    }

    #[test]
    fn observations_are_wired_through() {
        let run = fig1_run();
        let a = ViewAnalysis::new(&run, Node::new(4, Time::new(2))).unwrap();
        assert!(a.observations().missed().contains(0));
        assert_eq!(a.observations().num_missed(), 2);
    }
}
