//! Protocol complexes and star complexes of process states.
//!
//! The `m`-round protocol complex of a full-information protocol has one
//! vertex per reachable local state `(process, view)` and one facet per
//! execution, consisting of the states of the processes that are still active
//! at time `m` in that execution.  The *star* `St(⟨i,m⟩, P_m)` of a state is
//! the subcomplex of executions indistinguishable to that state — the object
//! the paper's Proposition 2 relates to hidden capacity.

use std::collections::HashMap;
use std::fmt;

use synchrony::{Adversary, ModelError, Node, ProcessId, Run, SystemParams, Time, View};

use crate::{homology, Simplex, SimplicialComplex};

/// The `m`-round protocol complex of the full-information protocol over a
/// given set of adversaries.
#[derive(Debug, Clone)]
pub struct ProtocolComplex {
    time: Time,
    complex: SimplicialComplex,
    labels: Vec<(ProcessId, View)>,
    index: HashMap<(ProcessId, View), usize>,
}

impl ProtocolComplex {
    /// Builds the time-`time` protocol complex over the executions induced by
    /// `adversaries`.
    ///
    /// # Errors
    ///
    /// Propagates model errors raised while simulating the runs (e.g. an
    /// adversary inconsistent with the system parameters).
    pub fn build(
        system: SystemParams,
        adversaries: &[Adversary],
        time: Time,
    ) -> Result<Self, ModelError> {
        let mut labels: Vec<(ProcessId, View)> = Vec::new();
        let mut index: HashMap<(ProcessId, View), usize> = HashMap::new();
        let mut complex = SimplicialComplex::new();
        for adversary in adversaries {
            let run = Run::generate(system, adversary.clone(), time)?;
            let mut facet = Vec::new();
            for i in 0..run.n() {
                if !run.is_active(i, time) {
                    continue;
                }
                let view = View::extract(&run, Node::new(i, time));
                let key = (ProcessId::new(i), view);
                let id = match index.get(&key) {
                    Some(&id) => id,
                    None => {
                        let id = labels.len();
                        labels.push(key.clone());
                        index.insert(key, id);
                        id
                    }
                };
                facet.push(id);
            }
            if !facet.is_empty() {
                complex.add(Simplex::new(facet));
            }
        }
        Ok(ProtocolComplex { time, complex, labels, index })
    }

    /// Returns the time of the protocol complex.
    pub fn time(&self) -> Time {
        self.time
    }

    /// Returns the underlying simplicial complex.
    pub fn complex(&self) -> &SimplicialComplex {
        &self.complex
    }

    /// Returns the number of distinct local states (vertices).
    pub fn num_states(&self) -> usize {
        self.labels.len()
    }

    /// Returns the number of executions contributing facets.
    pub fn num_facets(&self) -> usize {
        self.complex.facets().count()
    }

    /// Returns the label `(process, view)` of a vertex.
    pub fn label(&self, id: usize) -> &(ProcessId, View) {
        &self.labels[id]
    }

    /// Returns the vertex identifier of the local state of `node` in `run`,
    /// if that state occurs in the complex.
    pub fn state_id(&self, run: &Run, node: Node) -> Option<usize> {
        let view = View::extract(run, node);
        self.index.get(&(node.process, view)).copied()
    }

    /// Returns the star complex `St(v, P_m)` of the vertex `id`: every facet
    /// containing the vertex, together with all faces.
    pub fn star(&self, id: usize) -> SimplicialComplex {
        self.complex.star(id)
    }

    /// Returns `true` if the star complex of the vertex is `q`-connected in
    /// the reduced-GF(2)-homology sense.
    pub fn star_is_q_connected(&self, id: usize, q: usize) -> bool {
        homology::is_q_connected(&self.star(id), q)
    }
}

impl fmt::Display for ProtocolComplex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "protocol complex at time {}: {} states, {} facets",
            self.time,
            self.num_states(),
            self.num_facets()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synchrony::{FailurePattern, InputVector};

    /// All adversaries over `n` processes with binary inputs and at most one
    /// crash, occurring in round 1 with an arbitrary delivery subset.
    fn one_round_adversaries(n: usize) -> Vec<Adversary> {
        let mut adversaries = Vec::new();
        let inputs: Vec<InputVector> = (0..(1u32 << n))
            .map(|mask| {
                InputVector::from_values(
                    (0..n).map(|i| u64::from(mask >> i & 1)).collect::<Vec<_>>(),
                )
            })
            .collect();
        let mut patterns = vec![FailurePattern::crash_free(n)];
        for crasher in 0..n {
            let others: Vec<usize> = (0..n).filter(|&p| p != crasher).collect();
            for mask in 0..(1u32 << others.len()) {
                let delivered: Vec<usize> = others
                    .iter()
                    .enumerate()
                    .filter(|(bit, _)| mask & (1 << bit) != 0)
                    .map(|(_, &p)| p)
                    .collect();
                let mut pattern = FailurePattern::crash_free(n);
                pattern.crash(crasher, 1, delivered).unwrap();
                patterns.push(pattern);
            }
        }
        for pattern in &patterns {
            for input in &inputs {
                adversaries.push(Adversary::new(input.clone(), pattern.clone()).unwrap());
            }
        }
        adversaries
    }

    #[test]
    fn one_round_binary_complex_has_expected_shape() {
        let n = 3;
        let system = SystemParams::new(n, 1).unwrap();
        let adversaries = one_round_adversaries(n);
        let pc = ProtocolComplex::build(system, &adversaries, Time::new(1)).unwrap();
        // The one-round protocol complex of the synchronous model with at most
        // one crash is connected (this is what makes consensus unsolvable in
        // one round with a possible failure).
        assert!(homology::is_q_connected(pc.complex(), 0));
        assert!(pc.num_states() > n);
        assert!(pc.num_facets() > 1);
        assert!(!pc.to_string().is_empty());
    }

    #[test]
    fn failure_free_states_appear_in_the_complex() {
        let n = 3;
        let system = SystemParams::new(n, 1).unwrap();
        let adversaries = one_round_adversaries(n);
        let pc = ProtocolComplex::build(system, &adversaries, Time::new(1)).unwrap();
        let failure_free = Adversary::failure_free(InputVector::from_values([0, 1, 1])).unwrap();
        let run = Run::generate(system, failure_free, Time::new(1)).unwrap();
        for i in 0..n {
            let id = pc.state_id(&run, Node::new(i, Time::new(1)));
            assert!(id.is_some(), "state of process {i} should be in the complex");
        }
    }

    #[test]
    fn star_of_a_state_with_a_hidden_path_is_connected() {
        // Proposition 2 for k = 1: a state whose hidden capacity is at least 1
        // in every round has a 0-connected (i.e. connected) star complex.
        let n = 3;
        let system = SystemParams::new(n, 1).unwrap();
        let adversaries = one_round_adversaries(n);
        let pc = ProtocolComplex::build(system, &adversaries, Time::new(1)).unwrap();
        // In the run where p0 crashes silently in round 1, p2's state at time 1
        // has a hidden node at every layer (hidden capacity 1).
        let mut failures = FailurePattern::crash_free(n);
        failures.crash_silent(0, 1).unwrap();
        let adversary = Adversary::new(InputVector::from_values([0, 1, 1]), failures).unwrap();
        let run = Run::generate(system, adversary, Time::new(1)).unwrap();
        let analysis = knowledge::ViewAnalysis::new(&run, Node::new(2, Time::new(1))).unwrap();
        assert!(analysis.hidden_capacity() >= 1);
        let id = pc.state_id(&run, Node::new(2, Time::new(1))).unwrap();
        assert!(pc.star_is_q_connected(id, 0));
    }

    #[test]
    fn state_lookup_fails_for_views_outside_the_complex() {
        let n = 3;
        let system = SystemParams::new(n, 1).unwrap();
        // Build the complex from failure-free runs only.
        let adversaries: Vec<Adversary> =
            one_round_adversaries(n).into_iter().filter(|a| a.num_failures() == 0).collect();
        let pc = ProtocolComplex::build(system, &adversaries, Time::new(1)).unwrap();
        // A run with a crash produces a view that is not a vertex.
        let mut failures = FailurePattern::crash_free(n);
        failures.crash_silent(0, 1).unwrap();
        let adversary = Adversary::new(InputVector::from_values([0, 1, 1]), failures).unwrap();
        let run = Run::generate(system, adversary, Time::new(1)).unwrap();
        assert!(pc.state_id(&run, Node::new(2, Time::new(1))).is_none());
    }
}
