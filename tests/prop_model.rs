//! Property-based tests of the model substrate: structural invariants of
//! runs, knowledge analyses and the wire protocol hold on arbitrary
//! adversaries (64 seeded random cases per property).

mod common;

use common::AdversaryCases;
use knowledge::ViewAnalysis;
use synchrony::{Node, Run, SystemParams, Time, WireRun};

const N: usize = 6;
const T: usize = 4;
const MAX_VALUE: u64 = 3;
const MAX_ROUND: u32 = 3;
const HORIZON: u32 = 5;
const CASES: usize = 64;

fn run_of(adversary: synchrony::Adversary) -> Run {
    let params = SystemParams::new(N, T).unwrap();
    Run::generate(params, adversary, Time::new(HORIZON)).unwrap()
}

fn cases(seed: u64) -> AdversaryCases {
    AdversaryCases::new(seed, CASES, N, T, MAX_VALUE, MAX_ROUND)
}

/// Seen-sets only grow over time: what a process has seen it never forgets.
#[test]
fn seen_sets_are_monotone() {
    for adversary in cases(0xA001) {
        let run = run_of(adversary);
        for i in 0..N {
            for m in 1..HORIZON {
                let now = Time::new(m);
                let next = Time::new(m + 1);
                if !run.is_active(i, next) {
                    continue;
                }
                for (time, layer) in run.seen(i, now).iter() {
                    assert!(layer.is_subset(run.seen(i, next).layer(time)));
                }
            }
        }
    }
}

/// A process always sees itself, at every layer up to its own time.
#[test]
fn a_process_sees_its_own_past() {
    for adversary in cases(0xA002) {
        let run = run_of(adversary);
        for i in 0..N {
            for m in 0..=HORIZON {
                let time = Time::new(m);
                if !run.is_active(i, time) {
                    continue;
                }
                for layer in 0..=m {
                    assert!(run.seen(i, time).contains_node(i, Time::new(layer)));
                }
            }
        }
    }
}

/// Hidden capacity never increases as the observer learns more.
#[test]
fn hidden_capacity_is_nonincreasing() {
    for adversary in cases(0xA003) {
        let run = run_of(adversary);
        for i in 0..N {
            let mut previous: Option<usize> = None;
            for m in 0..=HORIZON {
                let time = Time::new(m);
                if !run.is_active(i, time) {
                    break;
                }
                let analysis = ViewAnalysis::new(&run, Node::new(i, time)).unwrap();
                if let Some(prev) = previous {
                    assert!(analysis.hidden_capacity() <= prev);
                }
                previous = Some(analysis.hidden_capacity());
            }
        }
    }
}

/// Values seen, low status and known failures are monotone over time, and
/// directly missed processes are always provably crashed.
#[test]
fn knowledge_is_monotone_and_consistent() {
    for adversary in cases(0xA004) {
        let run = run_of(adversary);
        for i in 0..N {
            let mut previous: Option<ViewAnalysis> = None;
            for m in 0..=HORIZON {
                let time = Time::new(m);
                if !run.is_active(i, time) {
                    break;
                }
                let analysis = ViewAnalysis::new(&run, Node::new(i, time)).unwrap();
                assert!(analysis.observations().missed().is_subset(analysis.known_crashed()));
                assert!(analysis.vals().contains(run.initial_value(i)));
                if let Some(prev) = &previous {
                    assert!(prev.vals().is_subset(analysis.vals()));
                    assert!(prev.known_crashed().is_subset(analysis.known_crashed()));
                }
                previous = Some(analysis);
            }
        }
    }
}

/// Every process a view analysis believes crashed really did crash, and
/// the earliest known crash round never precedes the true crash round.
#[test]
fn knowledge_of_failures_is_sound() {
    for adversary in cases(0xA005) {
        let run = run_of(adversary);
        for i in 0..N {
            for m in 0..=HORIZON {
                let time = Time::new(m);
                if !run.is_active(i, time) {
                    continue;
                }
                let analysis = ViewAnalysis::new(&run, Node::new(i, time)).unwrap();
                for p in analysis.known_crashed().iter() {
                    let actual = run.failures().crash_round(p);
                    assert!(actual.is_some(), "known crash of a correct process");
                    let known = analysis.earliest_known_crash(p).unwrap();
                    assert!(known >= actual.unwrap());
                }
            }
        }
    }
}

/// The Appendix E wire protocol reconstructs exactly the full-information
/// knowledge, and its per-pair traffic stays within the O(n log n) regime.
#[test]
fn wire_protocol_matches_full_information() {
    for adversary in cases(0xA006) {
        let run = run_of(adversary);
        let wire = WireRun::simulate(&run);
        assert!(wire.matches_full_information(&run));
        assert!(wire.stats().n_log_n_constant() < 64.0);
    }
}

/// Views extracted for the same adversary are identical across two
/// independent simulations (the model is deterministic).
#[test]
fn simulation_is_deterministic() {
    for adversary in cases(0xA007) {
        let a = run_of(adversary.clone());
        let b = run_of(adversary);
        assert_eq!(a, b);
    }
}

/// The communication structure is a function of the failure pattern alone:
/// for a fixed pattern, every input vector induces a bit-identical
/// [`synchrony::RunStructure`] — the invariant behind structure-major sweep
/// execution — and `regenerate` detects it, reuses the structure, and still
/// matches a from-scratch simulation exactly.
#[test]
fn run_structure_is_input_invariant() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use synchrony::{Adversary, InputVector, StructureReuse};

    let params = SystemParams::new(N, T).unwrap();
    let mut rng = StdRng::seed_from_u64(0xA008);
    for adversary in cases(0xA008) {
        let failures = adversary.failures().clone();
        let reference = run_of(adversary);
        let mut reused = reference.clone();
        for _ in 0..8 {
            let values: Vec<u64> = (0..N).map(|_| rng.random_range(0..=MAX_VALUE)).collect();
            let relabeled =
                Adversary::new(InputVector::from_values(values), failures.clone()).unwrap();
            let fresh = Run::generate(params, relabeled.clone(), Time::new(HORIZON)).unwrap();
            // Identical structure, bit for bit — only the overlay differs.
            assert_eq!(fresh.structure(), reference.structure());
            assert_eq!(fresh.failures(), reference.failures());
            // Regenerate must detect the shared pattern and skip simulation,
            // while remaining indistinguishable from the fresh run.
            let reuse = reused.regenerate(params, &relabeled, Time::new(HORIZON)).unwrap();
            assert_eq!(reuse, StructureReuse::Reused);
            assert_eq!(reused, fresh);
        }
    }
}

/// The same invariant in the omission model: a mobile send-omission pattern
/// (no crashes — up to `T` omitters per round, each dropping a nonempty
/// receiver subset) also determines the heard/seen structure alone, so any
/// input overlay reproduces it bit for bit and `regenerate` reuses it.
#[test]
fn omission_run_structure_is_input_invariant() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use synchrony::{Adversary, InputVector, StructureReuse};

    let params = SystemParams::new(N, T).unwrap();
    let mut rng = StdRng::seed_from_u64(0xA009);
    for _ in 0..CASES {
        let failures = random_omission_pattern(&mut rng);
        let values: Vec<u64> = (0..N).map(|_| rng.random_range(0..=MAX_VALUE)).collect();
        let adversary = Adversary::new(InputVector::from_values(values), failures.clone()).unwrap();
        let reference = run_of(adversary);
        assert_eq!(reference.failures().has_omissions(), failures.has_omissions());
        let mut reused = reference.clone();
        for _ in 0..8 {
            let values: Vec<u64> = (0..N).map(|_| rng.random_range(0..=MAX_VALUE)).collect();
            let relabeled =
                Adversary::new(InputVector::from_values(values), failures.clone()).unwrap();
            let fresh = Run::generate(params, relabeled.clone(), Time::new(HORIZON)).unwrap();
            assert_eq!(fresh.structure(), reference.structure());
            assert_eq!(fresh.failures(), reference.failures());
            let reuse = reused.regenerate(params, &relabeled, Time::new(HORIZON)).unwrap();
            assert_eq!(reuse, StructureReuse::Reused);
            assert_eq!(reused, fresh);
        }
    }
}

/// A random mobile omission pattern: per round, a budget-limited set of
/// omitters, each dropping a nonempty subset of other receivers.
fn random_omission_pattern(rng: &mut rand::rngs::StdRng) -> synchrony::FailurePattern {
    use rand::Rng;

    let mut failures = synchrony::FailurePattern::crash_free(N);
    for round in 1..=MAX_ROUND {
        let mut budget = T;
        for sender in 0..N {
            if budget == 0 || !rng.random_bool(0.5) {
                continue;
            }
            let others: Vec<usize> = (0..N).filter(|&p| p != sender).collect();
            let mut dropped: Vec<usize> =
                others.iter().copied().filter(|_| rng.random_bool(0.5)).collect();
            if dropped.is_empty() {
                dropped.push(others[rng.random_range(0..others.len() as u64) as usize]);
            }
            failures.omit(sender, round, dropped).expect("generated omission is valid");
            budget -= 1;
        }
    }
    failures
}

/// Renaming processes is a symmetry of the model — the soundness
/// assumption of the symmetry-reduced Theorem 1 and omission sweeps.  For
/// random crash and omission adversaries `(P, x)` and random permutations
/// `σ`, the run of `(σP, σx)` gives process `σ(i)` the decision (time and
/// value) that `i` gets in the run of `(P, x)` under `Optmin[k]`,
/// `EarlyFloodMin` and `FloodMin`; node `⟨σ(i), m⟩` has the lowness and
/// hidden capacity of `⟨i, m⟩`; and the Theorem 1 job folds both runs to
/// the same outcome.
#[test]
fn renaming_processes_renames_decisions_knowledge_and_checks() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use set_consensus::{
        execute, BatchRunner, EarlyFloodMin, FloodMin, Optmin, Protocol, TaskParams, TaskVariant,
    };
    use sweep::experiments::thm1_job;
    use sweep::Scenario;
    use synchrony::{Adversary, InputVector};

    const K: usize = 2;
    let params = TaskParams::new(SystemParams::new(N, T).unwrap(), K).unwrap();
    let mut rng = StdRng::seed_from_u64(0xA00A);
    let crash: Vec<Adversary> = cases(0xA00A).collect();
    let omission: Vec<Adversary> = (0..CASES)
        .map(|_| {
            let values: Vec<u64> = (0..N).map(|_| rng.random_range(0..=MAX_VALUE)).collect();
            let failures = random_omission_pattern(&mut rng);
            Adversary::new(InputVector::from_values(values), failures).unwrap()
        })
        .collect();
    let mut runner = BatchRunner::new();
    for adversary in crash.into_iter().chain(omission) {
        // A uniform random permutation (Fisher–Yates).
        let mut perm: Vec<usize> = (0..N).collect();
        for i in (1..N).rev() {
            perm.swap(i, rng.random_range(0..=i as u64) as usize);
        }
        let mut values = vec![0u64; N];
        for (i, value) in adversary.inputs().iter() {
            values[perm[i.index()]] = value.get();
        }
        let renamed =
            Adversary::new(InputVector::from_values(values), adversary.failures().relabel(&perm))
                .unwrap();

        let protocols: [&dyn Protocol; 3] = [&Optmin, &EarlyFloodMin, &FloodMin];
        for protocol in protocols {
            let (_, original) = execute(protocol, &params, adversary.clone()).unwrap();
            let (_, image) = execute(protocol, &params, renamed.clone()).unwrap();
            for i in 0..N {
                assert_eq!(
                    image.decision_time(perm[i]),
                    original.decision_time(i),
                    "{} decision time of p{i} under {perm:?}",
                    protocol.name()
                );
                assert_eq!(image.decision_value(perm[i]), original.decision_value(i));
            }
        }

        let original = run_of(adversary.clone());
        let image = run_of(renamed.clone());
        for m in 0..=HORIZON {
            let time = Time::new(m);
            for i in 0..N {
                assert_eq!(image.is_active(perm[i], time), original.is_active(i, time));
                if !original.is_active(i, time) {
                    continue;
                }
                let a = ViewAnalysis::new(&original, Node::new(i, time)).unwrap();
                let b = ViewAnalysis::new(&image, Node::new(perm[i], time)).unwrap();
                assert_eq!(b.hidden_capacity(), a.hidden_capacity(), "<p{i}, {m}> under {perm:?}");
                for k in 1..=N {
                    assert_eq!(b.is_low(k), a.is_low(k), "<p{i}, {m}> low for k = {k}");
                }
            }
        }

        let scenario = |adversary| Scenario {
            index: 0,
            params,
            variant: TaskVariant::Nonuniform,
            adversary,
            weight: 1,
        };
        let original = thm1_job(&mut runner, &scenario(adversary)).unwrap();
        let image = thm1_job(&mut runner, &scenario(renamed)).unwrap();
        assert_eq!(image, original, "Theorem 1 outcome under {perm:?}");
    }
}
