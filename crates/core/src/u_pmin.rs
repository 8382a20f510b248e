//! `u-Pmin[k]` — the uniform `k`-set consensus protocol of §5.
//!
//! > **Protocol `u-Pmin[k]`** (for an undecided process `i` at time `m`):
//! > if (`i` is low **or** `HC⟨i,m⟩ < k`) **and** `i` knows that `Min⟨i,m⟩`
//! > will persist then `decide(Min⟨i,m⟩)`
//! > else if `m > 0` and (`⟨i,m−1⟩` was low **or** `HC⟨i,m−1⟩ < k`) then
//! > `decide(Min⟨i,m−1⟩)`
//! > else if `m = ⌊t/k⌋ + 1` then `decide(Min⟨i,m⟩)`.
//!
//! The persistence requirement (Definition 3) guards against a decided value
//! "fading away" when its only holder crashes — the extra care that
//! uniformity demands.  Theorem 3 shows the protocol solves uniform `k`-set
//! consensus with every process deciding by
//! `min{⌊t/k⌋ + 1, ⌊f/k⌋ + 2}`, and §5 shows it strictly beats every
//! previously known uniform protocol (often by a large margin — see the
//! Fig. 4 adversary family in the `adversary` crate).  Whether it is
//! unbeatable is the paper's Conjecture 1.

use synchrony::Value;

use crate::{DecisionContext, Protocol};

/// The uniform `k`-set consensus protocol `u-Pmin[k]`.
///
/// ```
/// use set_consensus::{execute, check, TaskParams, TaskVariant, UPmin};
/// use synchrony::{Adversary, InputVector, SystemParams};
///
/// let params = TaskParams::new(SystemParams::new(6, 4)?, 2)?;
/// let adversary = Adversary::failure_free(InputVector::from_values([2, 2, 1, 2, 0, 2]))?;
/// let (run, transcript) = execute(&UPmin, &params, adversary)?;
/// assert!(check::check(&run, &transcript, &params, TaskVariant::Uniform).is_empty());
/// # Ok::<(), synchrony::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UPmin;

impl Protocol for UPmin {
    fn name(&self) -> &str {
        "u-Pmin[k]"
    }

    fn decide(&self, ctx: &DecisionContext<'_>) -> Option<Value> {
        let k = ctx.k();
        let analysis = ctx.analysis;

        // First clause: the nonuniform condition holds *and* the minimum is
        // known to persist.
        if (analysis.is_low(k) || analysis.hidden_capacity() < k)
            && analysis.knows_will_persist(analysis.min_value())
        {
            return Some(analysis.min_value());
        }

        // Second clause: the nonuniform condition already held at the
        // observer's previous node; the previous minimum is guaranteed to have
        // been re-broadcast by now, so it is safe to decide on it.
        if analysis.time() > synchrony::Time::ZERO {
            let prev_capacity =
                analysis.prev_hidden_capacity().expect("time > 0 implies a previous node exists");
            if analysis.was_low(k) || prev_capacity < k {
                return Some(
                    analysis
                        .prev_min_value()
                        .expect("time > 0 implies the previous node saw its own value"),
                );
            }
        }

        // Fallback: the worst-case bound ⌊t/k⌋ + 1 has been reached.
        if ctx.at_worst_case_bound() {
            return Some(analysis.min_value());
        }
        None
    }
}

/// `u-Opt0` — the unbeatable uniform (1-set) consensus protocol of
/// Castañeda, Gonczarowski and Moses (2014).  `u-Pmin[k]` generalizes it: for
/// `k = 1` the two protocols coincide, so this type simply runs `u-Pmin` and
/// asserts the parameterization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UOpt0;

impl Protocol for UOpt0 {
    fn name(&self) -> &str {
        "u-Opt0"
    }

    fn decide(&self, ctx: &DecisionContext<'_>) -> Option<Value> {
        debug_assert_eq!(ctx.k(), 1, "u-Opt0 is the k = 1 instance of u-Pmin[k]");
        UPmin.decide(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check, execute, TaskParams, TaskVariant};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use synchrony::{Adversary, FailurePattern, InputVector, SystemParams, Time};

    fn params(n: usize, t: usize, k: usize) -> TaskParams {
        TaskParams::new(SystemParams::new(n, t).unwrap(), k).unwrap()
    }

    fn random_adversary(seed: u64, n: usize, t: usize, k: usize, max_round: u32) -> Adversary {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs: Vec<u64> = (0..n).map(|_| rng.random_range(0..=k as u64)).collect();
        let mut failures = FailurePattern::crash_free(n);
        let mut crashed = 0;
        for p in 0..n {
            if crashed >= t || !rng.random_bool(0.5) {
                continue;
            }
            let round = rng.random_range(1..=max_round);
            let delivered: Vec<usize> = (0..n).filter(|_| rng.random_bool(0.5)).collect();
            failures.crash(p, round, delivered).unwrap();
            crashed += 1;
        }
        Adversary::new(InputVector::from_values(inputs), failures).unwrap()
    }

    #[test]
    fn failure_free_run_decides_by_time_two() {
        let params = params(5, 3, 2);
        let adversary = Adversary::failure_free(InputVector::from_values([2, 1, 2, 2, 2])).unwrap();
        let (run, transcript) = execute(&UPmin, &params, adversary).unwrap();
        assert!(transcript.all_correct_decided(&run));
        for (_, d) in transcript.decisions() {
            assert!(d.time <= Time::new(2), "uniform early bound ⌊0/k⌋+2 = 2");
        }
        assert!(check::check(&run, &transcript, &params, TaskVariant::Uniform).is_empty());
    }

    #[test]
    fn uniform_agreement_holds_when_a_low_value_fades_away() {
        // p0 is the only holder of the low value 0 and crashes in round 1
        // reaching only p1, which itself crashes in round 2 reaching nobody.
        // The value 0 disappears from the system; uniform agreement must
        // nevertheless hold because p1 never decides 0 without knowing it
        // persists.
        let params = params(5, 3, 2);
        let mut failures = FailurePattern::crash_free(5);
        failures.crash(0, 1, [1]).unwrap();
        failures.crash_silent(1, 2).unwrap();
        let adversary =
            Adversary::new(InputVector::from_values([0, 2, 2, 2, 2]), failures).unwrap();
        let (run, transcript) = execute(&UPmin, &params, adversary).unwrap();
        let violations = check::check(&run, &transcript, &params, TaskVariant::Uniform);
        assert!(violations.is_empty(), "{violations:?}");
        // p1 decided before crashing only if its decision is consistent with
        // the survivors' decisions (the checker above verifies the count).
        assert!(transcript.decided_values().len() <= 2);
    }

    #[test]
    fn respects_theorem_three_bound_on_random_adversaries() {
        let params = params(7, 5, 2);
        for seed in 0..40u64 {
            let adversary = random_adversary(seed, 7, 5, 2, 3);
            let (run, transcript) = execute(&UPmin, &params, adversary).unwrap();
            let violations = check::check(&run, &transcript, &params, TaskVariant::Uniform);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
            let bound = params.uniform_early_bound(run.num_failures());
            for (p, d) in transcript.decisions() {
                if run.is_correct(p) {
                    assert!(
                        d.time <= bound,
                        "seed {seed}: correct {p} decided at {} > bound {bound} (f = {})",
                        d.time,
                        run.num_failures()
                    );
                }
            }
        }
    }

    #[test]
    fn u_opt0_matches_u_pmin_for_binary_consensus() {
        let params = params(5, 3, 1);
        for seed in 100..120u64 {
            let adversary = random_adversary(seed, 5, 3, 1, 3);
            let (_, a) = execute(&UOpt0, &params, adversary.clone()).unwrap();
            let (_, b) = execute(&UPmin, &params, adversary).unwrap();
            for i in 0..5 {
                assert_eq!(a.decision(i), b.decision(i), "seed {seed}, process {i}");
            }
        }
    }

    #[test]
    fn never_decides_later_than_the_worst_case_bound() {
        let params = params(6, 5, 2);
        for seed in 200..230u64 {
            let adversary = random_adversary(seed, 6, 5, 2, 4);
            let (run, transcript) = execute(&UPmin, &params, adversary).unwrap();
            assert!(transcript.all_correct_decided(&run), "seed {seed}");
            for (p, d) in transcript.decisions() {
                if run.is_correct(p) {
                    assert!(d.time <= params.worst_case_decision_time(), "seed {seed}");
                }
            }
        }
    }
}
