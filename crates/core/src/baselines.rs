//! Baseline protocols from the pre-existing literature.
//!
//! The paper compares its protocols against the known solutions to
//! synchronous `k`-set consensus (Chaudhuri–Herlihy–Lynch–Tuttle,
//! Gafni–Guerraoui–Pochon, Guerraoui–Herlihy–Pochon, Parvédy–Raynal–Travers).
//! Their common trait, emphasized in §5: *a process remains undecided as long
//! as it discovers at least `k` new failures in every round*.
//!
//! This module implements idealized representatives of those protocols:
//!
//! * [`FloodMin`] — the classical worst-case-optimal protocol: flood minima
//!   for `⌊t/k⌋ + 1` rounds and decide the minimum seen.  Correct for both
//!   the nonuniform and the uniform variant.
//! * [`EarlyFloodMin`] — early-deciding nonuniform `k`-set consensus driven
//!   by the number of *newly discovered* failures per round.
//! * [`EarlyUniformFloodMin`] — the uniform counterpart, mirroring the
//!   structure of `u-Pmin[k]` but with the failure-counting condition in
//!   place of the hidden-capacity condition.
//!
//! The early-deciding baselines are deliberately as aggressive as the
//! failure-counting approach allows (they decide at the first clean round,
//! with no extra confirmation rounds), which makes every comparison against
//! the paper's protocols conservative.  Their safety follows from the same
//! arguments as Proposition 1 and Theorem 3: a round that reveals fewer than
//! `k` new failures to a process certifies that its hidden capacity is below
//! `k` (every node hidden at a past layer corresponds to a process whose
//! silence the observer noticed in the following round), so the conditions
//! below strictly imply the conditions of `Optmin[k]` / `u-Pmin[k]`.

use synchrony::Value;

use crate::{DecisionContext, Protocol};

/// The classical worst-case-optimal protocol: decide the minimum value seen at
/// time `⌊t/k⌋ + 1`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FloodMin;

impl Protocol for FloodMin {
    fn name(&self) -> &str {
        "FloodMin"
    }

    fn decide(&self, ctx: &DecisionContext<'_>) -> Option<Value> {
        ctx.at_worst_case_bound().then(|| ctx.analysis.min_value())
    }
}

/// Early-deciding nonuniform `k`-set consensus based on counting newly
/// discovered failures, representative of the early-deciding protocols in the
/// literature: decide the minimum seen at the first time some past round
/// revealed fewer than `k` new failures, or at the worst-case bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EarlyFloodMin;

impl Protocol for EarlyFloodMin {
    fn name(&self) -> &str {
        "EarlyFloodMin"
    }

    fn decide(&self, ctx: &DecisionContext<'_>) -> Option<Value> {
        let k = ctx.k();
        let analysis = ctx.analysis;
        let clean_round = analysis.observations().has_round_with_fewer_than_new_misses(k);
        if clean_round || ctx.at_worst_case_bound() {
            Some(analysis.min_value())
        } else {
            None
        }
    }
}

/// Early-deciding *uniform* `k`-set consensus based on counting newly
/// discovered failures, representative of the uniform early-deciding
/// protocols in the literature (`⌊f/k⌋ + 2`-round style).  The structure
/// mirrors `u-Pmin[k]`, with the clean-round condition replacing the
/// hidden-capacity condition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EarlyUniformFloodMin;

impl Protocol for EarlyUniformFloodMin {
    fn name(&self) -> &str {
        "EarlyUniformFloodMin"
    }

    fn decide(&self, ctx: &DecisionContext<'_>) -> Option<Value> {
        let k = ctx.k();
        let analysis = ctx.analysis;
        let clean_now =
            analysis.is_low(k) || analysis.observations().has_round_with_fewer_than_new_misses(k);
        if clean_now && analysis.knows_will_persist(analysis.min_value()) {
            return Some(analysis.min_value());
        }
        if analysis.time() > synchrony::Time::ZERO {
            // The clean-round condition evaluated at the previous node: only
            // rounds up to m − 1 count.
            let clean_prev = analysis.was_low(k)
                || (1..analysis.time().value())
                    .any(|r| analysis.observations().newly_missed_in(synchrony::Round::new(r)) < k);
            if clean_prev {
                return Some(
                    analysis
                        .prev_min_value()
                        .expect("time > 0 implies the previous node saw its own value"),
                );
            }
        }
        if ctx.at_worst_case_bound() {
            return Some(analysis.min_value());
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check, execute, Optmin, TaskParams, TaskVariant, UPmin};
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
    fn floodmin_decides_exactly_at_the_worst_case_bound() {
        let params = params(6, 4, 2);
        let adversary =
            Adversary::failure_free(InputVector::from_values([2, 1, 2, 0, 2, 2])).unwrap();
        let (run, transcript) = execute(&FloodMin, &params, adversary).unwrap();
        for i in 0..6 {
            assert_eq!(transcript.decision_time(i), Some(params.worst_case_decision_time()));
        }
        assert!(check::check(&run, &transcript, &params, TaskVariant::Uniform).is_empty());
        assert!(check::check(&run, &transcript, &params, TaskVariant::Nonuniform).is_empty());
    }

    #[test]
    fn early_floodmin_decides_after_one_clean_round_without_failures() {
        let params = params(6, 4, 2);
        let adversary =
            Adversary::failure_free(InputVector::from_values([2, 1, 2, 0, 2, 2])).unwrap();
        let (_, transcript) = execute(&EarlyFloodMin, &params, adversary).unwrap();
        for i in 0..6 {
            assert_eq!(transcript.decision_time(i), Some(Time::new(1)));
        }
    }

    /// All three baselines, executed as one [`crate::BatchRunner`] batch per
    /// adversary and checked through the runner's reused
    /// [`crate::CheckScratch`] — the allocation-free path every sweep job
    /// takes, pinned here against the one-shot executor and checkers.
    #[test]
    fn baselines_are_correct_on_random_adversaries() {
        use crate::{BatchRunner, Protocol};

        let nonuniform = params(7, 5, 2);
        let protocols: [&dyn Protocol; 3] = [&FloodMin, &EarlyFloodMin, &EarlyUniformFloodMin];
        let mut runner = BatchRunner::cached();
        for seed in 0..35u64 {
            let adversary = random_adversary(seed, 7, 5, 2, 3);
            runner.execute_batch(&protocols, &nonuniform, &adversary).unwrap();
            let (run, transcripts, checks) = runner.batch_parts();
            // FloodMin and EarlyUniformFloodMin solve the uniform variant,
            // EarlyFloodMin only the nonuniform one.
            for (slot, variant) in
                [TaskVariant::Uniform, TaskVariant::Nonuniform, TaskVariant::Uniform]
                    .into_iter()
                    .enumerate()
            {
                assert!(
                    checks.check(run, &transcripts[slot], &nonuniform, variant).is_empty(),
                    "seed {seed}: {} violated its variant",
                    transcripts[slot].protocol()
                );
            }
            // The batched transcripts are the one-shot transcripts.
            let (_, reference) = execute(&FloodMin, &nonuniform, adversary).unwrap();
            assert_eq!(transcripts[0], reference, "seed {seed}");
        }
    }

    #[test]
    fn optmin_never_decides_later_than_the_nonuniform_baselines() {
        let params = params(7, 5, 2);
        for seed in 50..90u64 {
            let adversary = random_adversary(seed, 7, 5, 2, 3);
            let (run, opt) = execute(&Optmin, &params, adversary.clone()).unwrap();
            let (_, flood) = execute(&FloodMin, &params, adversary.clone()).unwrap();
            let (_, early) = execute(&EarlyFloodMin, &params, adversary).unwrap();
            for i in 0..7 {
                if !run.is_active(i, run.horizon()) {
                    continue;
                }
                let o = opt.decision_time(i).unwrap();
                assert!(o <= flood.decision_time(i).unwrap(), "seed {seed}");
                assert!(o <= early.decision_time(i).unwrap(), "seed {seed}");
            }
        }
    }

    #[test]
    fn u_pmin_never_decides_later_than_the_uniform_baseline() {
        let params = params(7, 5, 2);
        for seed in 150..190u64 {
            let adversary = random_adversary(seed, 7, 5, 2, 3);
            let (run, upmin) = execute(&UPmin, &params, adversary.clone()).unwrap();
            let (_, baseline) = execute(&EarlyUniformFloodMin, &params, adversary).unwrap();
            for i in 0..7 {
                if let (Some(b), Some(u)) = (baseline.decision_time(i), upmin.decision_time(i)) {
                    assert!(u <= b, "seed {seed}: process {i} decided at {u} vs baseline {b}");
                }
                if baseline.decision_time(i).is_some() && run.is_correct(i) {
                    assert!(upmin.decision_time(i).is_some(), "seed {seed}");
                }
            }
        }
    }
}
