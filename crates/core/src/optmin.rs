//! `Optmin[k]` — the unbeatable nonuniform `k`-set consensus protocol (§4).
//!
//! > **Protocol `Optmin[k]`** (for an undecided process `i` at time `m`):
//! > if `i` is low **or** `i` has hidden capacity `< k` then
//! > `decide(Min⟨i, m⟩)`.
//!
//! A process is *low* once it has seen a value strictly below `k`; its hidden
//! capacity is Definition 2.  Proposition 1 shows the protocol solves
//! nonuniform `k`-set consensus with all decisions by time `⌊f/k⌋ + 1`, and
//! Theorem 1 shows it is unbeatable: no correct protocol can ever have any
//! process decide earlier without some other process deciding later in some
//! other run.

use synchrony::Value;

use crate::{DecisionContext, Protocol};

/// The unbeatable nonuniform `k`-set consensus protocol `Optmin[k]`.
///
/// The agreement degree `k` is taken from the task parameters at decision
/// time, so a single instance can be reused across parameterizations.
///
/// ```
/// use set_consensus::{execute, Optmin, TaskParams};
/// use synchrony::{Adversary, InputVector, SystemParams};
///
/// let params = TaskParams::new(SystemParams::new(5, 2)?, 2)?;
/// let adversary = Adversary::failure_free(InputVector::from_values([2, 1, 2, 2, 0]))?;
/// let (run, transcript) = execute(&Optmin, &params, adversary)?;
/// // Failure-free run: everybody is low (or has no hidden capacity) at time 1
/// // and decides the global minimum.
/// assert!(transcript.all_correct_decided(&run));
/// assert!(transcript.decided_values().len() <= 2);
/// # Ok::<(), synchrony::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Optmin;

impl Protocol for Optmin {
    fn name(&self) -> &str {
        "Optmin[k]"
    }

    fn decide(&self, ctx: &DecisionContext<'_>) -> Option<Value> {
        let k = ctx.k();
        let analysis = ctx.analysis;
        if analysis.is_low(k) || analysis.hidden_capacity() < k {
            Some(analysis.min_value())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check, execute, TaskParams, TaskVariant};
    use synchrony::{Adversary, FailurePattern, InputVector, SystemParams, Time};

    fn params(n: usize, t: usize, k: usize) -> TaskParams {
        TaskParams::new(SystemParams::new(n, t).unwrap(), k).unwrap()
    }

    #[test]
    fn failure_free_run_decides_at_time_one() {
        // All-high inputs: nobody is low at time 0, and after one clean round
        // the hidden capacity collapses to zero, so everyone decides at time 1.
        let params = params(6, 3, 2);
        let adversary =
            Adversary::failure_free(InputVector::from_values([2, 2, 2, 2, 2, 2])).unwrap();
        let (run, transcript) = execute(&Optmin, &params, adversary).unwrap();
        for i in 0..6 {
            assert_eq!(transcript.decision_time(i), Some(Time::new(1)));
        }
        assert!(check::check(&run, &transcript, &params, TaskVariant::Nonuniform).is_empty());
    }

    #[test]
    fn low_process_decides_immediately_at_time_zero() {
        let params = params(4, 2, 2);
        let adversary = Adversary::failure_free(InputVector::from_values([0, 2, 2, 2])).unwrap();
        let (_, transcript) = execute(&Optmin, &params, adversary).unwrap();
        // p0 starts with a low value and decides at time 0.
        assert_eq!(transcript.decision_time(0), Some(Time::ZERO));
        assert_eq!(transcript.decision_value(0), Some(synchrony::Value::new(0)));
        // The others are high at time 0 with full hidden capacity, so they wait.
        assert_eq!(transcript.decision_time(1), Some(Time::new(1)));
    }

    #[test]
    fn hidden_capacity_delays_decision_beyond_round_one() {
        // Fig. 2-style adversary for k = 2: two disjoint crash chains keep
        // the observer's hidden capacity at 2 through time 1.
        let params = params(7, 4, 2);
        let mut failures = FailurePattern::crash_free(7);
        // layer-0 witnesses 0,1 reach only their successors 2,3
        failures.crash(0, 1, [2]).unwrap();
        failures.crash(1, 1, [3]).unwrap();
        // layer-1 witnesses 2,3 reach only their successors 4,5
        failures.crash(2, 2, [4]).unwrap();
        failures.crash(3, 2, [5]).unwrap();
        let inputs = InputVector::from_values([0, 1, 2, 2, 2, 2, 2]);
        let adversary = Adversary::new(inputs, failures).unwrap();
        let (run, transcript) = execute(&Optmin, &params, adversary).unwrap();
        // The untouched observer p6 is high with hidden capacity ≥ 2 at time 1,
        // so it cannot decide before time 2.
        assert!(transcript.decision_time(6).unwrap() >= Time::new(2));
        assert!(check::check(&run, &transcript, &params, TaskVariant::Nonuniform).is_empty());
        // Proposition 1 bound: ⌊f/k⌋ + 1 = ⌊4/2⌋ + 1 = 3.
        for (_, d) in transcript.decisions() {
            assert!(d.time <= params.nonuniform_early_bound(run.num_failures()));
        }
    }

    #[test]
    fn decisions_respect_the_proposition_one_bound_under_many_adversaries() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let params = params(8, 5, 3);
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let inputs: Vec<u64> = (0..8).map(|_| rng.random_range(0..=3)).collect();
            let mut failures = FailurePattern::crash_free(8);
            let mut crashed = 0;
            for p in 0..8usize {
                if crashed >= 5 || !rng.random_bool(0.5) {
                    continue;
                }
                let round = rng.random_range(1..=3);
                let delivered: Vec<usize> = (0..8).filter(|_| rng.random_bool(0.5)).collect();
                failures.crash(p, round, delivered).unwrap();
                crashed += 1;
            }
            let adversary = Adversary::new(InputVector::from_values(inputs), failures).unwrap();
            let (run, transcript) = execute(&Optmin, &params, adversary).unwrap();
            let violations = check::check(&run, &transcript, &params, TaskVariant::Nonuniform);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
            let bound = params.nonuniform_early_bound(run.num_failures());
            for (p, d) in transcript.decisions() {
                if run.is_correct(p) {
                    assert!(d.time <= bound, "seed {seed}: {p} decided at {} > {bound}", d.time);
                }
            }
        }
    }
}
