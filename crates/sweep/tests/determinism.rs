//! Shard-determinism contract of the sweep engine: for a fixed seed and
//! scenario family, the fold result is identical for every shard and thread
//! count (ISSUE acceptance: 1, 2 and 8 shards) — and for every setting of
//! the cross-adversary analysis cache, of run-structure reuse, and of the
//! block cursor, which may only change how fast a fold is computed, never
//! its value.

use adversary::enumerate::{AdversarySpace, EnumerationConfig};
use adversary::{OmissionConfig, RandomConfig};
use knowledge::ViewAnalysis;
use set_consensus::{check, Optmin, Protocol, TaskParams, TaskVariant, UPmin};
use sweep::reduce::{Count, DecisionTimeHistogram};
use sweep::source::{ExhaustiveSource, RandomSource};
use sweep::{sweep, sweep_with_stats, ScenarioSource, SweepConfig};
use synchrony::{Node, SystemParams, Time};

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn exhaustive_source() -> ExhaustiveSource {
    let scope = EnumerationConfig::small(3, 1, 1);
    let params = TaskParams::new(SystemParams::new(3, 1).unwrap(), 1).unwrap();
    ExhaustiveSource::new(AdversarySpace::new(scope).unwrap(), params, TaskVariant::Nonuniform)
        .unwrap()
}

fn omission_exhaustive_source() -> ExhaustiveSource {
    let scope = OmissionConfig::small(3, 1, 1);
    let params = TaskParams::new(SystemParams::new(3, 1).unwrap(), 1).unwrap();
    ExhaustiveSource::new(AdversarySpace::omission(scope).unwrap(), params, TaskVariant::Nonuniform)
        .unwrap()
}

fn random_source(seed: u64) -> RandomSource {
    let params = TaskParams::new(SystemParams::new(6, 3).unwrap(), 2).unwrap();
    RandomSource::new(RandomConfig::new(6, 3, 2), params, TaskVariant::Uniform, seed, 120)
}

/// The same exhaustive family folds to the same decision-time histogram for
/// 1, 2 and 8 shards, at every thread count.
#[test]
fn exhaustive_histogram_is_shard_invariant() {
    let source = exhaustive_source();
    let job = |runner: &mut set_consensus::BatchRunner, scenario: &sweep::Scenario| {
        let (run, transcript) =
            runner.execute_one(&Optmin, &scenario.params, &scenario.adversary)?;
        Ok((0..run.n())
            .filter_map(|i| transcript.decision_time(i).map(Time::value))
            .max()
            .unwrap_or(0))
    };
    let reference =
        sweep(&source, &SweepConfig::sequential(), &DecisionTimeHistogram, job).unwrap();
    assert!(!reference.is_empty());
    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            for cache in [false, true] {
                for reuse in [false, true] {
                    for cursor in [false, true] {
                        let config = SweepConfig {
                            shards,
                            threads,
                            seed: SweepConfig::DEFAULT_SEED,
                            cache,
                            reuse,
                            cursor,
                        };
                        let fold = sweep(&source, &config, &DecisionTimeHistogram, job).unwrap();
                        assert_eq!(
                            fold, reference,
                            "histogram diverged at shards={shards}, threads={threads}, \
                             cache={cache}, reuse={reuse}, cursor={cursor}"
                        );
                    }
                }
            }
        }
    }
}

/// The same seed over a random family folds identically for 1, 2 and 8
/// shards; a different seed folds differently.
#[test]
fn random_family_fold_is_seed_deterministic_and_shard_invariant() {
    let job = |runner: &mut set_consensus::BatchRunner, scenario: &sweep::Scenario| {
        let (run, transcript) =
            runner.execute_one(&UPmin, &scenario.params, &scenario.adversary)?;
        let violations =
            check::check(run, transcript, &scenario.params, scenario.variant).len() as u64;
        // Mix failure counts into the fold so it is sensitive to which
        // adversaries were actually generated, not just to correctness.
        Ok(violations * 1_000_000 + run.num_failures() as u64)
    };
    let reference = sweep(&random_source(42), &SweepConfig::sequential(), &Count, job).unwrap();
    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            for cursor in [false, true] {
                let config =
                    SweepConfig { shards, threads, seed: 42, cache: true, reuse: true, cursor };
                let fold = sweep(&random_source(42), &config, &Count, job).unwrap();
                assert_eq!(
                    fold, reference,
                    "random fold diverged at shards={shards}, threads={threads}, cursor={cursor}"
                );
            }
        }
    }
    let other_seed = sweep(&random_source(43), &SweepConfig::sequential(), &Count, job).unwrap();
    assert_ne!(reference, other_seed, "distinct seeds should explore distinct spaces");
}

/// The ported experiments themselves are shard- and thread-invariant (the
/// acceptance check behind `sweep <exp>` printing the same tables at
/// every `--shards`/`--threads`).  Fig. 4 and Theorem 3 are the cheap
/// ones; Theorem 1 and Proposition 2 are covered by the same engine path.
#[test]
fn ported_experiments_are_parallelism_invariant() {
    let sequential = SweepConfig::sequential();
    let fig4_reference = sweep::experiments::fig4(&sequential).unwrap();
    let thm3_reference = sweep::experiments::thm3(&sequential).unwrap();
    for shards in SHARD_COUNTS {
        for cache in [false, true] {
            for cursor in [false, true] {
                let config = SweepConfig {
                    shards,
                    threads: 4,
                    seed: SweepConfig::DEFAULT_SEED,
                    cache,
                    reuse: true,
                    cursor,
                };
                assert_eq!(sweep::experiments::fig4(&config).unwrap(), fig4_reference);
                assert_eq!(sweep::experiments::thm3(&config).unwrap(), thm3_reference);
            }
        }
    }
}

/// The cached-vs-uncached bit-identity contract on a Theorem-1-shaped job
/// (batched executor *plus* per-node structure analyses through the worker's
/// cache handle — the sweep hot path the cache was built for), across every
/// shard/thread combination.  On the side, the hit counters must show the
/// cache actually collapsing the per-adversary constructions: the scope
/// crosses 8 input vectors with every failure pattern, so the number of full
/// constructions must drop by well over the 3× acceptance floor.
#[test]
fn analysis_cache_is_invisible_to_folds_and_collapses_constructions() {
    let source = exhaustive_source();
    let job = |runner: &mut set_consensus::BatchRunner, scenario: &sweep::Scenario| {
        let protocols: [&dyn Protocol; 2] = [&Optmin, &UPmin];
        let analyzer = runner.cache().clone();
        let (run, transcripts) =
            runner.execute_batch(&protocols, &scenario.params, &scenario.adversary)?;
        let mut fingerprint = 0u64;
        for transcript in transcripts {
            fingerprint = fingerprint.wrapping_mul(31).wrapping_add(
                check::check(run, transcript, &scenario.params, scenario.variant).len() as u64,
            );
        }
        // Per-node knowledge analyses outside the executor, mixed into the
        // fold so any cache-induced divergence would flip it.
        for m in 0..=run.horizon().index() {
            let time = Time::new(m as u32);
            for i in 0..run.n() {
                if !run.is_active(i, time) {
                    continue;
                }
                let analysis = analyzer.analyze(run, Node::new(i, time))?;
                let reference = ViewAnalysis::new(run, Node::new(i, time))?;
                assert_eq!(analysis, reference, "cached analysis diverged at ⟨{i}, {m}⟩");
                fingerprint = fingerprint
                    .wrapping_mul(31)
                    .wrapping_add(analysis.hidden_capacity() as u64)
                    .wrapping_add(analysis.min_value().get() << 8);
            }
        }
        // Bound the per-scenario value so the `Count` sum cannot overflow.
        Ok(fingerprint % (1 << 32))
    };

    let sequential = SweepConfig::sequential();
    let uncached = SweepConfig { cache: false, ..sequential };
    let (reference, cold_stats) = sweep_with_stats(&source, &uncached, &Count, job).unwrap();
    let (cached_fold, warm_stats) = sweep_with_stats(&source, &sequential, &Count, job).unwrap();
    assert_eq!(cached_fold, reference, "cache on/off diverged sequentially");
    assert_eq!(cold_stats.cache.hits, 0, "a disabled cache never hits");
    assert!(
        warm_stats.cache.constructions() * 3 <= cold_stats.cache.constructions(),
        "expected ≥3× fewer ViewAnalysis constructions, got {} (cached) vs {} (uncached)",
        warm_stats.cache.constructions(),
        cold_stats.cache.constructions(),
    );

    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            for cache in [false, true] {
                let config = SweepConfig {
                    shards,
                    threads,
                    seed: SweepConfig::DEFAULT_SEED,
                    cache,
                    reuse: true,
                    cursor: true,
                };
                let fold = sweep(&source, &config, &Count, job).unwrap();
                assert_eq!(
                    fold, reference,
                    "fold diverged at shards={shards}, threads={threads}, cache={cache}"
                );
            }
        }
    }
}

/// The structure-reuse bit-identity contract (tentpole acceptance): folds
/// with run-structure reuse on and off are identical at every shard/thread
/// combination, and the pattern-aligned sharding guarantees *exactly one*
/// communication-structure simulation per failure pattern no matter how the
/// space is cut — the property that makes the reuse survive any
/// `--shards`/`--threads` setting.
#[test]
fn structure_reuse_is_invisible_to_folds_and_collapses_simulations() {
    let source = exhaustive_source();
    let patterns = source.space().num_patterns() as u64;
    let inputs_per_pattern = source.space().inputs_per_pattern() as u64;
    let total = ScenarioSource::len(&source) as u64;
    assert_eq!(patterns * inputs_per_pattern, total);

    let job = |runner: &mut set_consensus::BatchRunner, scenario: &sweep::Scenario| {
        let protocols: [&dyn Protocol; 2] = [&Optmin, &UPmin];
        let (run, transcripts) =
            runner.execute_batch(&protocols, &scenario.params, &scenario.adversary)?;
        // Mix decisions and run shape into the fold so any structure-reuse
        // divergence (wrong pattern, stale overlay, stale layers) flips it.
        let mut fingerprint = run.num_failures() as u64;
        for transcript in transcripts {
            fingerprint = fingerprint.wrapping_mul(31).wrapping_add(
                check::check(run, transcript, &scenario.params, scenario.variant).len() as u64,
            );
            for i in 0..run.n() {
                fingerprint = fingerprint.wrapping_mul(31).wrapping_add(
                    transcript
                        .decision_time(i)
                        .map(|t| u64::from(t.value()) + 1)
                        .unwrap_or_default(),
                );
            }
        }
        Ok(fingerprint % (1 << 32))
    };

    let sequential = SweepConfig::sequential();
    let rebuild = SweepConfig { reuse: false, ..sequential };
    let (reference, rebuild_stats) = sweep_with_stats(&source, &rebuild, &Count, job).unwrap();
    let (reused_fold, reuse_stats) = sweep_with_stats(&source, &sequential, &Count, job).unwrap();
    assert_eq!(reused_fold, reference, "reuse on/off diverged sequentially");
    assert_eq!(rebuild_stats.runs.reused, 0, "a reuse-disabled runner never reuses a structure");
    assert_eq!(rebuild_stats.runs.simulated, total);
    assert_eq!(
        reuse_stats.runs.simulated, patterns,
        "sequential reuse must simulate exactly once per failure pattern"
    );
    assert_eq!(reuse_stats.runs.reused, total - patterns);

    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            for reuse in [false, true] {
                for cursor in [false, true] {
                    let config = SweepConfig {
                        shards,
                        threads,
                        seed: SweepConfig::DEFAULT_SEED,
                        cache: true,
                        reuse,
                        cursor,
                    };
                    let (fold, stats) = sweep_with_stats(&source, &config, &Count, job).unwrap();
                    assert_eq!(
                        fold, reference,
                        "fold diverged at shards={shards}, threads={threads}, reuse={reuse}, \
                         cursor={cursor}"
                    );
                    if reuse {
                        // Pattern-aligned shard boundaries: every pattern
                        // block lands in one shard, so the whole sweep still
                        // simulates exactly one structure per pattern, at any
                        // parallelism.
                        assert_eq!(
                            stats.runs.simulated, patterns,
                            "shards={shards}, threads={threads} split a pattern block"
                        );
                        assert_eq!(stats.runs.reused, total - patterns);
                    }
                }
            }
        }
    }
}

/// The block-cursor bit-identity contract (tentpole acceptance): folds with
/// the cursor on and off are identical at every shard/thread combination —
/// and with the cursor on, the allocation counters show the steady state
/// materializing nothing per scenario: exactly one wholesale construction
/// per non-empty shard, one pattern unranking per structure block, and
/// every remaining scenario stepped in place inside the worker's scratch.
#[test]
fn block_cursor_is_invisible_to_folds_and_materializes_nothing() {
    let source = exhaustive_source();
    let patterns = source.space().num_patterns() as u64;
    let block = source.structure_block();
    let total = ScenarioSource::len(&source) as u64;

    let job = |runner: &mut set_consensus::BatchRunner, scenario: &sweep::Scenario| {
        let protocols: [&dyn Protocol; 2] = [&Optmin, &UPmin];
        runner.execute_batch(&protocols, &scenario.params, &scenario.adversary)?;
        // Check through the runner's scratch — the allocation-free path —
        // and mix everything into the fold so a stale scratch scenario, a
        // mis-stepped input vector or a wrong pattern would flip it.
        let (run, transcripts, checks) = runner.batch_parts();
        let mut fingerprint = (scenario.index as u64).wrapping_mul(0x9E37_79B9);
        fingerprint = fingerprint.wrapping_add(run.num_failures() as u64);
        for transcript in transcripts {
            fingerprint = fingerprint.wrapping_mul(31).wrapping_add(
                checks.check(run, transcript, &scenario.params, scenario.variant).len() as u64,
            );
            for i in 0..run.n() {
                fingerprint = fingerprint.wrapping_mul(31).wrapping_add(
                    transcript
                        .decision_time(i)
                        .map(|t| u64::from(t.value()) + 1)
                        .unwrap_or_default(),
                );
            }
        }
        Ok(fingerprint % (1 << 32))
    };

    let nth = SweepConfig { cursor: false, ..SweepConfig::sequential() };
    let (reference, nth_stats) = sweep_with_stats(&source, &nth, &Count, job).unwrap();
    // Cursor off: the pre-cursor path materializes every scenario.
    assert_eq!(nth_stats.cursor.materialized, total);
    assert_eq!(nth_stats.cursor.stepped, 0);

    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            for cursor in [false, true] {
                let config = SweepConfig {
                    shards,
                    threads,
                    seed: SweepConfig::DEFAULT_SEED,
                    cache: true,
                    reuse: true,
                    cursor,
                };
                let (fold, stats) = sweep_with_stats(&source, &config, &Count, job).unwrap();
                assert_eq!(
                    fold, reference,
                    "fold diverged at shards={shards}, threads={threads}, cursor={cursor}"
                );
                assert_eq!(stats.cursor.total(), total);
                if cursor {
                    // One wholesale materialization per non-empty shard, one
                    // unranking per pattern block, everything else stepped in
                    // place — zero per-scenario allocations in steady state.
                    let blocks = (total as usize).div_ceil(block) as u64;
                    let nonempty_shards = (shards as u64).min(blocks);
                    assert_eq!(
                        stats.cursor.materialized, nonempty_shards,
                        "shards={shards}, threads={threads}"
                    );
                    assert_eq!(stats.cursor.patterns_unranked, patterns);
                    assert_eq!(stats.cursor.stepped, total - nonempty_shards);
                } else {
                    assert_eq!(stats.cursor.materialized, total);
                    assert_eq!(stats.cursor.stepped, 0);
                }
            }
        }
    }

    // The same steady state on the real Theorem 1 fold, summed over
    // several built-in scopes the way `experiments::thm1_with_stats` sums
    // them (the two cheap cases; the other two add only debug-build time):
    // a sequential sweep materializes once per scope, steps everything
    // else, and unranks one pattern per simulated structure.
    use sweep::experiments::{thm1_job, thm1_scope, thm1_source, Thm1Reducer};
    let cases = [(3, 1, 1), (5, 2, 2)];
    let mut thm1_stats = sweep::SweepStats::default();
    for (n, t, k) in cases {
        let source = thm1_source(thm1_scope(n, t, k), k).unwrap();
        let (_, case_stats) =
            sweep_with_stats(&source, &SweepConfig::sequential(), &Thm1Reducer, thm1_job).unwrap();
        thm1_stats.merge(case_stats);
    }
    assert_eq!(
        thm1_stats.cursor.materialized,
        cases.len() as u64,
        "one wholesale materialization per sequentially swept scope"
    );
    assert_eq!(
        thm1_stats.cursor.stepped,
        thm1_stats.scenarios - thm1_stats.cursor.materialized,
        "every non-first scenario must be stepped in place"
    );
    assert_eq!(
        thm1_stats.cursor.patterns_unranked, thm1_stats.runs.simulated,
        "one pattern unranking per simulated communication structure"
    );
    // The Theorem 1 sources are symmetry-reduced: 7 of 25 and 6 of 51
    // patterns, each crossed with every input vector, standing for the
    // whole spaces.
    assert_eq!(thm1_stats.scenarios, 7 * 8 + 6 * 243);
    assert_eq!(thm1_stats.covered, 200 + 12_393);
}

/// The per-shard engine hook behind the service daemon's accumulator
/// cache: `sweep_shards` splits the fold into per-shard accumulators,
/// warm-replaying any subset of them reproduces the direct fold
/// bit-identically, and a fully warm sweep executes zero scenarios.
#[test]
fn sweep_shards_warm_replay_is_bit_identical() {
    use std::collections::HashMap;
    use std::sync::Mutex;
    use sweep::{merge_shard_outcomes, sweep_shards};

    let source = exhaustive_source();
    let job = |runner: &mut set_consensus::BatchRunner, scenario: &sweep::Scenario| {
        runner.execute_one(&Optmin, &scenario.params, &scenario.adversary)?;
        Ok(runner.count_violations(&scenario.params, scenario.variant))
    };
    let reference = sweep(&source, &SweepConfig::sequential(), &Count, job).unwrap();

    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            let config = SweepConfig { shards, threads, ..SweepConfig::default() };

            // Cold pass: every shard executes; the streamed outcomes arrive
            // exactly once per shard.
            let streamed = Mutex::new(0usize);
            let (outcomes, stats) = sweep_shards(
                &source,
                &config,
                &Count,
                job,
                |_, _| None,
                |_| *streamed.lock().unwrap() += 1,
            )
            .unwrap();
            assert_eq!(*streamed.lock().unwrap(), outcomes.len());
            assert_eq!(stats.scenarios as usize, source.len());
            assert!(outcomes.iter().all(|o| !o.cached));
            let store: HashMap<usize, u64> = outcomes.iter().map(|o| (o.shard, o.acc)).collect();
            assert_eq!(
                merge_shard_outcomes(&Count, outcomes),
                reference,
                "cold merge diverged at shards={shards}, threads={threads}"
            );

            // Warm pass: every accumulator replayed, nothing executed.
            let (warm_outcomes, warm_stats) = sweep_shards(
                &source,
                &config,
                &Count,
                job,
                |shard, _| store.get(&shard).copied(),
                |outcome| assert!(outcome.cached, "warm pass must not execute"),
            )
            .unwrap();
            assert_eq!(warm_stats.scenarios, 0, "a fully warm sweep executes nothing");
            assert_eq!(
                merge_shard_outcomes(&Count, warm_outcomes),
                reference,
                "warm merge diverged at shards={shards}, threads={threads}"
            );

            // Mixed pass: replay only the even shards; the fold is still
            // bit-identical and only the odd shards execute.
            let (mixed, mixed_stats) = sweep_shards(
                &source,
                &config,
                &Count,
                job,
                |shard, _| if shard % 2 == 0 { store.get(&shard).copied() } else { None },
                |_| {},
            )
            .unwrap();
            let executed: u64 =
                mixed.iter().filter(|o| !o.cached).map(|o| (o.range.1 - o.range.0) as u64).sum();
            assert_eq!(mixed_stats.scenarios, executed);
            assert_eq!(merge_shard_outcomes(&Count, mixed), reference);
        }
    }
}

/// Cross-space determinism (satellite acceptance): the full bit-identity
/// matrix — cold/warm analysis cache, structure reuse on/off, block
/// cursor on/off, at every shard×thread combination — holds for **both**
/// pattern spaces under the real Theorem-1 fold.  A third pattern space
/// joins the matrix by adding one line to the source list.
#[test]
fn both_pattern_spaces_fold_shard_invariantly() {
    use sweep::experiments::{thm1_job, Thm1Reducer};

    for (label, source) in
        [("crash", exhaustive_source()), ("omission", omission_exhaustive_source())]
    {
        let reference = sweep(&source, &SweepConfig::sequential(), &Thm1Reducer, thm1_job).unwrap();
        for shards in SHARD_COUNTS {
            for threads in THREAD_COUNTS {
                for cache in [false, true] {
                    for reuse in [false, true] {
                        for cursor in [false, true] {
                            let config = SweepConfig {
                                shards,
                                threads,
                                seed: SweepConfig::DEFAULT_SEED,
                                cache,
                                reuse,
                                cursor,
                            };
                            let fold = sweep(&source, &config, &Thm1Reducer, thm1_job).unwrap();
                            assert_eq!(
                                fold, reference,
                                "{label} fold diverged at shards={shards}, threads={threads}, \
                                 cache={cache}, reuse={reuse}, cursor={cursor}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// FNV-1a over every adversary of the space in rank order: the pattern's
/// `Display` rendering (crash-only output is unchanged by the omission
/// extension, making the digest comparable across the refactor) plus the
/// raw input values.  Pins the enumeration *order*, not just its counts.
fn enumeration_digest(space: &AdversarySpace) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    for index in 0..space.len() {
        let adversary = space.nth(index);
        eat(format!("{}", adversary.failures()).as_bytes());
        for (_, value) in adversary.inputs().iter() {
            eat(&value.get().to_le_bytes());
        }
    }
    hash
}

/// Golden pin (satellite acceptance): the crash-space enumeration and its
/// exhaustive Theorem-1 fold are byte-identical to the pre-refactor seed.
/// The scope sizes come from the seed commit's `sweep thm1` table; the
/// `(3, 1, 1)` case is cheap enough to re-fold end to end, and its
/// all-zero accumulator plus the enumeration-order digest pin both the
/// fold values and the rank order itself.  If the `PatternSpace` plumbing
/// ever perturbs crash enumeration, this fails before any service cache
/// can replay a wrong accumulator.
#[test]
fn crash_space_golden_pins_survive_the_pattern_space_refactor() {
    use sweep::experiments::{self, Thm1Outcome, Thm1Reducer};

    let golden_sizes = [200u128, 25_616, 129_681, 12_393];
    for (&(n, t, k), golden) in experiments::THM1_CASES.iter().zip(golden_sizes) {
        let space = AdversarySpace::new(experiments::thm1_scope(n, t, k)).unwrap();
        assert_eq!(space.len(), golden, "scope size changed for ({n}, {t}, {k})");
    }

    let source = experiments::thm1_source(experiments::thm1_scope(3, 1, 1), 1).unwrap();
    let acc =
        sweep(&source, &SweepConfig::sequential(), &Thm1Reducer, experiments::thm1_job).unwrap();
    assert_eq!(
        acc,
        Thm1Outcome::default(),
        "the (3,1,1) crash fold must stay all-zero (no violations, nothing beaten)"
    );
    assert_eq!(
        enumeration_digest(source.space()),
        0xd154_88c1_183c_1435,
        "crash (3,1,1) enumeration order drifted"
    );

    // The omission twin of the digest pin: freezes the omission order too,
    // so cached omission accumulators stay replayable across sessions.
    let omission = omission_exhaustive_source();
    assert_eq!(omission.space().len(), 800);
    assert_eq!(
        enumeration_digest(omission.space()),
        0x0c3d_1a3e_e236_211d,
        "omission (3,1,1) enumeration order drifted"
    );
}

/// The law-checked merge path refuses shard accumulators presented out of
/// order — merging non-adjacent slices is outside the `Reducer` contract
/// and must never silently produce a fold.
#[test]
#[should_panic(expected = "out of order")]
fn merge_shard_outcomes_rejects_unordered_shards() {
    use sweep::{merge_shard_outcomes, sweep_shards};

    let source = exhaustive_source();
    let job = |runner: &mut set_consensus::BatchRunner, scenario: &sweep::Scenario| {
        runner.execute_one(&Optmin, &scenario.params, &scenario.adversary)?;
        Ok(runner.count_violations(&scenario.params, scenario.variant))
    };
    let config = SweepConfig { shards: 4, threads: 1, ..SweepConfig::default() };
    let (mut outcomes, _) =
        sweep_shards(&source, &config, &Count, job, |_, _| None, |_| {}).unwrap();
    outcomes.swap(1, 2);
    let _ = merge_shard_outcomes(&Count, outcomes);
}

/// The full-enumeration twin of a symmetry-reduced source: the oracle.
fn full_twin(source: &ExhaustiveSource, n: usize, t: usize, k: usize) -> ExhaustiveSource {
    let params = TaskParams::new(SystemParams::new(n, t).unwrap(), k).unwrap();
    ExhaustiveSource::new(source.space().clone(), params, TaskVariant::Nonuniform).unwrap()
}

/// The symmetry-reduction oracle: on every built-in Theorem 1 and omission
/// case, the fold over canonical patterns weighted by orbit size equals
/// the fold over the full enumeration, at every (shards, threads) pair.
/// The omission folds carry nonzero violation counts, so the weighting of
/// the counters is checked, not only the zero case.
#[test]
fn symmetric_folds_equal_the_full_enumeration() {
    use sweep::experiments::{self, thm1_job, Thm1Reducer};

    let crash = experiments::THM1_CASES.iter().map(|&(n, t, k)| {
        ("crash", (n, t, k), experiments::thm1_source(experiments::thm1_scope(n, t, k), k))
    });
    let omission = experiments::OMISSION_CASES.iter().map(|&(n, t, k)| {
        (
            "omission",
            (n, t, k),
            experiments::omission_source(experiments::omission_scope(n, t, k), k),
        )
    });
    let mut nonzero = 0;
    for (model, (n, t, k), source) in crash.chain(omission) {
        let source = source.unwrap();
        assert!(source.orbits().is_some(), "{model} ({n},{t},{k}) is reduced");
        let oracle = full_twin(&source, n, t, k);
        assert!(oracle.orbits().is_none());
        let parallel = SweepConfig { threads: 2, ..SweepConfig::default() };
        let (expected, full_stats) =
            sweep_with_stats(&oracle, &parallel, &Thm1Reducer, thm1_job).unwrap();
        assert_eq!(full_stats.covered, full_stats.scenarios);
        nonzero += u64::from(expected.violations > 0);
        for shards in [1, 4, 7] {
            for threads in [1, 2] {
                let config = SweepConfig { shards, threads, ..SweepConfig::default() };
                let (fold, stats) =
                    sweep_with_stats(&source, &config, &Thm1Reducer, thm1_job).unwrap();
                assert_eq!(
                    fold, expected,
                    "{model} ({n},{t},{k}) diverged at shards={shards}, threads={threads}"
                );
                assert_eq!(stats.scenarios as usize, source.len());
                assert_eq!(stats.covered, full_stats.scenarios, "{model} ({n},{t},{k})");
            }
        }
    }
    assert_eq!(nonzero, 2, "both omission folds have violations to weight");
}

/// The orbit weights of every built-in scope sum to the scope's pattern
/// count, with the canonical counts pinned (plus the n = 5
/// partial-delivery scope the CI symmetry smoke sweeps).
#[test]
fn orbit_weights_cover_every_pattern() {
    use adversary::symmetry::orbits;
    use sweep::experiments::{omission_scope, thm1_scope};

    let crash = [
        (thm1_scope(3, 1, 1), 25, 7),
        (thm1_scope(4, 2, 1), 1_601, 97),
        (thm1_scope(4, 2, 2), 1_601, 97),
        (thm1_scope(5, 2, 2), 51, 6),
        (EnumerationConfig { partial_delivery: true, ..thm1_scope(5, 2, 2) }, 10_401, 183),
    ];
    let omission = [(omission_scope(3, 1, 1), 100, 19), (omission_scope(4, 1, 1), 841, 49)];
    let spaces =
        crash.into_iter().map(|(scope, p, c)| (AdversarySpace::new(scope).unwrap(), p, c)).chain(
            omission
                .into_iter()
                .map(|(scope, p, c)| (AdversarySpace::omission(scope).unwrap(), p, c)),
        );
    for (space, patterns, canonical) in spaces {
        let table = orbits(space.pattern_space());
        let key = space.pattern_space().scope_key();
        assert_eq!(space.num_patterns(), patterns, "{key}");
        assert_eq!(table.len(), canonical, "{key}");
        assert_eq!(table.covered(), space.num_patterns(), "{key}");
        assert!(table.ranks().windows(2).all(|w| w[0] < w[1]), "{key}: ranks increase");
    }
}

/// A symmetric source walks its canonical blocks through the block
/// cursor exactly as `scenario()` addresses them, weights included, and
/// keeps the cursor invariants: one materialization per non-empty shard,
/// one unranking per canonical block.
#[test]
fn symmetric_cursor_matches_per_index_scenarios() {
    use sweep::experiments::{thm1_scope, thm1_source};

    let source = thm1_source(thm1_scope(4, 2, 1), 1).unwrap();
    let orbits = source.orbits().unwrap();
    let block = source.structure_block();
    assert_eq!(source.len(), orbits.len() * block);
    for (start, end) in
        [(0, source.len()), (block / 2, 5 * block + 3), (source.len(), source.len())]
    {
        let mut cursor = source.cursor(start, end);
        let mut scratch = None;
        let mut index = start;
        while cursor.next(&mut scratch).unwrap() {
            let yielded = scratch.as_ref().unwrap();
            let expected = source.scenario(index).unwrap();
            assert_eq!(yielded.index, index);
            assert_eq!(yielded.adversary, expected.adversary, "index {index}");
            assert_eq!(yielded.weight, expected.weight, "index {index}");
            assert_eq!(yielded.weight, orbits.weights()[index / block]);
            index += 1;
        }
        assert_eq!(index, end);
        let stats = cursor.stats();
        assert_eq!(stats.materialized, u64::from(end > start));
        let blocks = if end > start { (end - 1) / block - start / block + 1 } else { 0 };
        assert_eq!(stats.patterns_unranked as usize, blocks);
    }
}

/// Reducer law of the weighted fold: `Thm1Reducer::fold_weighted(acc, x,
/// w)` equals `w` plain folds of `x`, for random accumulators and items
/// and every weight up to 120 (= 5!, the largest orbit of the built-in
/// scopes).
#[test]
fn weighted_thm1_fold_equals_repeated_folds() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sweep::experiments::{Thm1Outcome, Thm1Reducer};
    use sweep::Reducer;

    let mut rng = StdRng::seed_from_u64(0x5EED_0B17);
    let random_outcome = |rng: &mut StdRng| Thm1Outcome {
        violations: rng.random_range(0..50u64),
        beaten: [rng.random_range(0..4u64) == 0, rng.random_range(0..4u64) == 0],
        structure: rng.random_range(0..50u64),
    };
    for weight in 1..=120u64 {
        let start = random_outcome(&mut rng);
        let item = random_outcome(&mut rng);
        let mut weighted = start;
        Thm1Reducer.fold_weighted(&mut weighted, item, weight);
        let mut repeated = start;
        for _ in 0..weight {
            Thm1Reducer.fold(&mut repeated, item);
        }
        assert_eq!(weighted, repeated, "weight {weight}");
    }
    // Weight 0 folds nothing, as zero plain folds would.
    let mut acc = Thm1Outcome::default();
    Thm1Reducer.fold_weighted(&mut acc, random_outcome(&mut rng), 0);
    assert_eq!(acc, Thm1Outcome::default());
}
