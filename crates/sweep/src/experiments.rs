//! The paper's headline experiments, ported onto the sweep engine.
//!
//! Each function here computes the fold behind one paper claim, sharded
//! and work-stealing: the same [`SweepConfig::seed`] produces
//! bit-identical results for every shard and thread count, so
//! `sweep thm1 --threads 16` and `sweep thm1 --threads 1` print the same
//! tables.  Formatting lives in `bench_harness::report`; this module only
//! produces the data.

use std::collections::{BTreeMap, BTreeSet};

use adversary::enumerate::{self, AdversarySpace, EnumerationConfig};
use adversary::{scenarios, OmissionConfig, RandomConfig};
use knowledge::ViewAnalysis;
use set_consensus::{
    EarlyFloodMin, EarlyUniformFloodMin, FloodMin, Optmin, Protocol, TaskParams, TaskVariant,
    Transcript, UPmin,
};
use synchrony::{
    Adversary, FailurePattern, InputVector, ModelError, Node, Run, SystemParams, Time,
};
use topology::{homology, ProtocolComplex};

use crate::engine::{sweep, sweep_with_stats, Reducer, Scenario, SweepConfig, SweepStats};
use crate::source::{ExhaustiveSource, FixedSource, RandomSource};

/// Latest decision time among the correct processes of a run (`0` if no
/// correct process decided), matching `bench_harness::summarize().latest`.
fn latest_correct_decision(run: &Run, transcript: &Transcript) -> u32 {
    (0..run.n())
        .filter(|&i| run.is_correct(i))
        .filter_map(|i| transcript.decision_time(i).map(Time::value))
        .max()
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Theorem 1 (experiment E7): exhaustive unbeatability spot-checks.
// ---------------------------------------------------------------------------

/// One `(n, t, k)` row of the Theorem 1 experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Thm1Case {
    /// Number of processes.
    pub n: usize,
    /// Failure bound.
    pub t: usize,
    /// Agreement degree.
    pub k: usize,
    /// Size of the exhaustive adversary scope.
    pub adversaries: u128,
    /// Correctness violations summed over every protocol and adversary.
    pub correctness_violations: u64,
    /// Number of competitors with a run in which some process decides
    /// strictly earlier than under `Optmin[k]` (i.e. that are not weakly
    /// dominated — Theorem 1 predicts zero).
    pub beaten_by: usize,
    /// Nodes violating the Lemma 3 decide-exactly-when-enabled structure.
    pub structure_violations: u64,
}

/// Per-scenario (and, folded, per-shard) accumulator of the Theorem 1
/// sweep — public so external schedulers (the `service` daemon's
/// shard-accumulator cache) can store and replay it per shard.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Thm1Outcome {
    /// Correctness violations summed over every protocol.
    pub violations: u64,
    /// Whether each competitor (EarlyFloodMin, FloodMin) beat `Optmin[k]`
    /// in some folded run.
    pub beaten: [bool; 2],
    /// Lemma-3 decide-exactly-when-enabled violations.
    pub structure: u64,
}

/// The [`Reducer`] of the Theorem 1 sweep (saturating flags, summed
/// counters — trivially concatenation-compatible).  Its weighted fold
/// multiplies the counters and sets the flags once.
#[derive(Debug, Clone, Copy, Default)]
pub struct Thm1Reducer;

impl Reducer for Thm1Reducer {
    type Item = Thm1Outcome;
    type Acc = Thm1Outcome;

    fn empty(&self) -> Thm1Outcome {
        Thm1Outcome::default()
    }

    fn fold(&self, acc: &mut Thm1Outcome, item: Thm1Outcome) {
        self.fold_weighted(acc, item, 1);
    }

    fn fold_weighted(&self, acc: &mut Thm1Outcome, item: Thm1Outcome, weight: u64) {
        if weight == 0 {
            return;
        }
        acc.violations += item.violations * weight;
        acc.beaten[0] |= item.beaten[0];
        acc.beaten[1] |= item.beaten[1];
        acc.structure += item.structure * weight;
    }

    fn merge(&self, mut left: Thm1Outcome, right: Thm1Outcome) -> Thm1Outcome {
        self.fold(&mut left, right);
        left
    }
}

/// Sweeps the exhaustive small-system scopes of experiment E7 and returns
/// one row per `(n, t, k)` case.
///
/// Equivalent to [`thm1_with_stats`] with the statistics discarded.
///
/// # Errors
///
/// Propagates model errors from the executor (none occur for the built-in
/// scopes).
pub fn thm1(config: &SweepConfig) -> Result<Vec<Thm1Case>, ModelError> {
    thm1_with_stats(config).map(|(rows, _)| rows)
}

/// The `(n, t, k)` cases of the built-in Theorem 1 experiment, in table
/// order.
pub const THM1_CASES: [(usize, usize, usize); 4] = [(3, 1, 1), (4, 2, 1), (4, 2, 2), (5, 2, 2)];

/// The exhaustive enumeration scope of one Theorem 1 case — the scope the
/// built-in cases use, parameterized so the service daemon can serve the
/// same query over custom `(n, t, k)` scopes.
pub fn thm1_scope(n: usize, t: usize, k: usize) -> EnumerationConfig {
    EnumerationConfig { n, t, max_value: k as u64, max_crash_round: 2, partial_delivery: n <= 4 }
}

/// Builds the exhaustive [`ExhaustiveSource`] of a Theorem 1 case over an
/// arbitrary scope, reduced to one canonical failure pattern per
/// process-renaming orbit ([`ExhaustiveSource::symmetric`]): [`thm1_job`]
/// reads only rename-invariant knowledge, so the weighted fold equals the
/// full one.  `ExhaustiveSource::new` over the same space is the oracle.
///
/// # Errors
///
/// Propagates invalid `(n, t, k)` parameters and oversized scopes.
pub fn thm1_source(scope: EnumerationConfig, k: usize) -> Result<ExhaustiveSource, ModelError> {
    let space = AdversarySpace::new(scope)?;
    let params = TaskParams::new(SystemParams::new(scope.n, scope.t)?, k)?;
    ExhaustiveSource::symmetric(space, params, TaskVariant::Nonuniform)
}

/// The per-scenario job of the Theorem 1 sweep: execute `Optmin[k]` and
/// its competitors against the scenario's adversary and fold correctness,
/// domination and Lemma-3 structure into a [`Thm1Outcome`].
///
/// A plain `fn` (not a closure) so shard schedulers outside this crate —
/// the service daemon's worker pool — can enqueue it without boxing.
///
/// # Errors
///
/// Propagates model errors from the executor.
pub fn thm1_job(
    runner: &mut set_consensus::BatchRunner,
    scenario: &Scenario,
) -> Result<Thm1Outcome, ModelError> {
    let protocols: [&dyn Protocol; 3] = [&Optmin, &EarlyFloodMin, &FloodMin];
    let mut outcome = Thm1Outcome::default();
    let case_k = scenario.params.k();
    // (3) Lemma-3 structure: Optmin[k] decides exactly when low-or-HC<k
    // first holds.  Checked *inside* the executor's decision loop via the
    // per-node observer — transcripts[0] (Optmin) reflects every decision
    // up to the observed node, and each node is analyzed exactly once per
    // run instead of in a second full pass.
    runner.execute_batch_observed(
        &protocols,
        &scenario.params,
        &scenario.adversary,
        |_, node, analysis, transcripts| {
            let enabled = analysis.is_low(case_k) || analysis.hidden_capacity() < case_k;
            let decided_by_now =
                transcripts[0].decision_time(node.process).is_some_and(|d| d <= node.time);
            if enabled != decided_by_now {
                outcome.structure += 1;
            }
            Ok(())
        },
    )?;

    // (1) correctness of every implemented nonuniform protocol, through
    // the runner's check scratch (no per-scenario allocations — this check
    // runs three times per adversary).
    let (run, transcripts, checks) = runner.batch_parts();
    for transcript in transcripts {
        outcome.violations +=
            checks.check(run, transcript, &scenario.params, TaskVariant::Nonuniform).len() as u64;
    }

    // (2) a competitor "beats" Optmin[k] if any process decides strictly
    // earlier under it in this run (the second-improvement condition of
    // the domination comparison).
    let optmin = &transcripts[0];
    for (slot, competitor) in transcripts[1..].iter().enumerate() {
        for i in 0..run.n() {
            let improves = match (optmin.decision_time(i), competitor.decision_time(i)) {
                (Some(a), Some(b)) => b < a,
                (None, Some(_)) => true,
                _ => false,
            };
            if improves {
                outcome.beaten[slot] = true;
            }
        }
    }

    Ok(outcome)
}

/// Assembles the [`Thm1Case`] row of one swept scope from its folded
/// accumulator.
pub fn thm1_case_row(
    scope: &EnumerationConfig,
    k: usize,
    adversaries: u128,
    acc: Thm1Outcome,
) -> Thm1Case {
    Thm1Case {
        n: scope.n,
        t: scope.t,
        k,
        adversaries,
        correctness_violations: acc.violations,
        beaten_by: acc.beaten.iter().filter(|&&b| b).count(),
        structure_violations: acc.structure,
    }
}

/// [`thm1`], plus the execution statistics summed over the per-case sweeps.
///
/// This experiment is the headline scope of the sweep-performance work:
///
/// * every per-node analysis — including the Lemma-3 structure check, which
///   runs *inside* the executor's decision loop via the per-node observer,
///   analyzing each node exactly once per run — goes through each worker's
///   view-keyed cache, so `stats.cache.constructions()` is the number of
///   full `ViewAnalysis` constructions the whole experiment performed;
/// * the exhaustive scopes are swept pattern-major, so `stats.runs` shows
///   one communication-structure simulation per failure pattern with every
///   other input vector reusing it (compare against `reuse: false` /
///   `cache: false` runs to measure each reduction).
///
/// # Errors
///
/// Propagates model errors from the executor (none occur for the built-in
/// scopes).
pub fn thm1_with_stats(config: &SweepConfig) -> Result<(Vec<Thm1Case>, SweepStats), ModelError> {
    let mut rows = Vec::new();
    let mut stats = SweepStats::default();
    for (n, t, k) in THM1_CASES {
        let (row, case_stats) = thm1_case(config, thm1_scope(n, t, k), k)?;
        stats.merge(case_stats);
        rows.push(row);
    }
    Ok((rows, stats))
}

/// Sweeps one Theorem 1 case over an arbitrary scope: the row of
/// [`thm1_with_stats`] for a scope outside [`THM1_CASES`].
///
/// # Errors
///
/// Propagates invalid `(n, t, k)` parameters and model errors.
pub fn thm1_case(
    config: &SweepConfig,
    scope: EnumerationConfig,
    k: usize,
) -> Result<(Thm1Case, SweepStats), ModelError> {
    let source = thm1_source(scope, k)?;
    let (acc, stats) = sweep_with_stats(&source, config, &Thm1Reducer, thm1_job)?;
    Ok((thm1_case_row(&scope, k, source.space().len(), acc), stats))
}

// ---------------------------------------------------------------------------
// Omission scan: the Theorem 1 fold re-run over the send-omission space.
// ---------------------------------------------------------------------------

/// The `(n, t, k)` cases of the built-in omission scan, in table order.
///
/// The scopes are smaller than [`THM1_CASES`]: the mobile-omission space
/// grows as `(Σ C(n,f)·(2^(n-1)-1)^f)^rounds`, so two rounds of `(4, 2)`
/// already exceed a hundred million patterns.
pub const OMISSION_CASES: [(usize, usize, usize); 2] = [(3, 1, 1), (4, 1, 1)];

/// The exhaustive send-omission scope of one omission-scan case,
/// mirroring [`thm1_scope`]'s two-round horizon.
pub fn omission_scope(n: usize, t: usize, k: usize) -> OmissionConfig {
    OmissionConfig { n, t, max_value: k as u64, rounds: 2 }
}

/// Builds the exhaustive [`ExhaustiveSource`] of an omission-scan case
/// over an arbitrary omission scope, reduced by process renaming like
/// [`thm1_source`].
///
/// # Errors
///
/// Propagates invalid `(n, t, k)` parameters and oversized scopes.
pub fn omission_source(scope: OmissionConfig, k: usize) -> Result<ExhaustiveSource, ModelError> {
    let space = AdversarySpace::omission(scope)?;
    let params = TaskParams::new(SystemParams::new(scope.n, scope.t)?, k)?;
    ExhaustiveSource::symmetric(space, params, TaskVariant::Nonuniform)
}

/// Assembles the [`Thm1Case`] row of one swept omission scope from its
/// folded accumulator (the omission twin of [`thm1_case_row`]).
pub fn omission_case_row(
    scope: &OmissionConfig,
    k: usize,
    adversaries: u128,
    acc: Thm1Outcome,
) -> Thm1Case {
    Thm1Case {
        n: scope.n,
        t: scope.t,
        k,
        adversaries,
        correctness_violations: acc.violations,
        beaten_by: acc.beaten.iter().filter(|&&b| b).count(),
        structure_violations: acc.structure,
    }
}

/// Sweeps the exhaustive send-omission scopes of [`OMISSION_CASES`] and
/// returns one row per `(n, t, k)` case.
///
/// Equivalent to [`omission_with_stats`] with the statistics discarded.
///
/// # Errors
///
/// Propagates model errors from the executor.
pub fn omission(config: &SweepConfig) -> Result<Vec<Thm1Case>, ModelError> {
    omission_with_stats(config).map(|(rows, _)| rows)
}

/// [`omission`], plus the execution statistics summed over the per-case
/// sweeps.
///
/// The job, reducer and row shape are shared with the Theorem 1 sweep
/// ([`thm1_job`] / [`Thm1Reducer`] / [`Thm1Case`]): only the pattern
/// space changes, which is the point — the omission scan measures how the
/// crash-model claims fare when faulty senders stay alive and drop
/// messages instead.  Columns other than the adversary count are
/// *observations* here, not theorems: the paper proves unbeatability in
/// the crash model only, so nonzero structure columns are honest data,
/// not failures.
///
/// # Errors
///
/// Propagates model errors from the executor.
pub fn omission_with_stats(
    config: &SweepConfig,
) -> Result<(Vec<Thm1Case>, SweepStats), ModelError> {
    let mut rows = Vec::new();
    let mut stats = SweepStats::default();
    for (n, t, k) in OMISSION_CASES {
        let (row, case_stats) = omission_case(config, omission_scope(n, t, k), k)?;
        stats.merge(case_stats);
        rows.push(row);
    }
    Ok((rows, stats))
}

/// Sweeps one omission-scan case over an arbitrary omission scope (the
/// omission twin of [`thm1_case`]).
///
/// # Errors
///
/// Propagates invalid `(n, t, k)` parameters and model errors.
pub fn omission_case(
    config: &SweepConfig,
    scope: OmissionConfig,
    k: usize,
) -> Result<(Thm1Case, SweepStats), ModelError> {
    let source = omission_source(scope, k)?;
    let (acc, stats) = sweep_with_stats(&source, config, &Thm1Reducer, thm1_job)?;
    Ok((omission_case_row(&scope, k, source.space().len(), acc), stats))
}

// ---------------------------------------------------------------------------
// Theorem 3 (experiment E6): u-Pmin[k] decision times vs the uniform bound.
// ---------------------------------------------------------------------------

/// One `(n, t, k, f)` row of the Theorem 3 experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Thm3Row {
    /// Number of processes.
    pub n: usize,
    /// Failure bound.
    pub t: usize,
    /// Agreement degree.
    pub k: usize,
    /// Number of failures actually realized in the runs of this row.
    pub f: usize,
    /// Number of sampled runs with exactly `f` failures.
    pub runs: u64,
    /// Worst (latest) correct decision time observed among them.
    pub worst: u32,
    /// The Theorem 3 bound `min{⌊t/k⌋ + 1, ⌊f/k⌋ + 2}`.
    pub bound: u32,
    /// Uniform-variant check violations over the whole `(n, t, k)` sample
    /// (Theorem 3 predicts zero; repeated on each row like the original
    /// binary).
    pub violations: u64,
}

/// Per-shard accumulator of the Theorem 3 sweep: worst decision time and
/// run count per realized failure count, plus the uniform-check violation
/// sum.  Public (and clonable) so the service daemon can cache it per
/// shard.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Thm3Acc {
    /// `f → (worst decision time, runs)` over the folded scenarios.
    pub per_f: BTreeMap<usize, (u32, u64)>,
    /// Uniform-variant check violations summed over the folded scenarios.
    pub violations: u64,
}

/// The [`Reducer`] of the Theorem 3 sweep (keyed maxima and sums — both
/// concatenation-compatible).
#[derive(Debug, Clone, Copy, Default)]
pub struct Thm3Reducer;

impl Reducer for Thm3Reducer {
    /// `(f, latest, violations)` per run.
    type Item = (usize, u32, u64);
    type Acc = Thm3Acc;

    fn empty(&self) -> Thm3Acc {
        Thm3Acc::default()
    }

    fn fold(&self, acc: &mut Thm3Acc, (f, latest, violations): Self::Item) {
        let entry = acc.per_f.entry(f).or_insert((0, 0));
        entry.0 = entry.0.max(latest);
        entry.1 += 1;
        acc.violations += violations;
    }

    fn merge(&self, mut left: Thm3Acc, right: Thm3Acc) -> Thm3Acc {
        for (f, (worst, runs)) in right.per_f {
            let entry = left.per_f.entry(f).or_insert((0, 0));
            entry.0 = entry.0.max(worst);
            entry.1 += runs;
        }
        left.violations += right.violations;
        left
    }
}

/// Number of random adversaries sampled per `(n, t, k)` case of the
/// Theorem 3 experiment.
pub const THM3_SAMPLES: usize = 400;

/// The `(n, t, k)` cases of the built-in Theorem 3 experiment, in table
/// order.
pub const THM3_CASES: [(usize, usize, usize); 3] = [(8, 5, 2), (10, 6, 3), (12, 9, 4)];

/// Builds the seeded random scenario source of one Theorem 3 case.
///
/// # Errors
///
/// Propagates invalid `(n, t, k)` parameters.
pub fn thm3_source(n: usize, t: usize, k: usize, seed: u64) -> Result<RandomSource, ModelError> {
    let params = TaskParams::new(SystemParams::new(n, t)?, k)?;
    let distribution = RandomConfig { crash_probability: 0.7, ..RandomConfig::new(n, t, k) };
    Ok(RandomSource::new(distribution, params, TaskVariant::Uniform, seed, THM3_SAMPLES))
}

/// The per-scenario job of the Theorem 3 sweep: run `u-Pmin[k]`, check the
/// uniform variant, and report `(f, latest decision, violations)`.
///
/// # Errors
///
/// Propagates model errors from the executor.
pub fn thm3_job(
    runner: &mut set_consensus::BatchRunner,
    scenario: &Scenario,
) -> Result<(usize, u32, u64), ModelError> {
    runner.execute_one(&UPmin, &scenario.params, &scenario.adversary)?;
    let (run, transcripts, checks) = runner.batch_parts();
    let transcript = &transcripts[0];
    let violations =
        checks.check(run, transcript, &scenario.params, TaskVariant::Uniform).len() as u64;
    Ok((run.num_failures(), latest_correct_decision(run, transcript), violations))
}

/// Expands the folded accumulator of one Theorem 3 case into its table
/// rows.
///
/// # Errors
///
/// Propagates invalid `(n, t, k)` parameters.
pub fn thm3_rows(n: usize, t: usize, k: usize, acc: &Thm3Acc) -> Result<Vec<Thm3Row>, ModelError> {
    let params = TaskParams::new(SystemParams::new(n, t)?, k)?;
    Ok(acc
        .per_f
        .iter()
        .map(|(&f, &(worst, runs))| Thm3Row {
            n,
            t,
            k,
            f,
            runs,
            worst,
            bound: params.uniform_early_bound(f).value(),
            violations: acc.violations,
        })
        .collect())
}

/// Sweeps seeded random adversaries under `u-Pmin[k]` and reports, per
/// realized failure count `f`, the worst decision time against the
/// Theorem 3 bound.
///
/// # Errors
///
/// Propagates model errors from the executor.
pub fn thm3(config: &SweepConfig) -> Result<Vec<Thm3Row>, ModelError> {
    let mut rows = Vec::new();
    for (n, t, k) in THM3_CASES {
        let source = thm3_source(n, t, k, config.seed)?;
        let acc = sweep(&source, config, &Thm3Reducer, thm3_job)?;
        rows.extend(thm3_rows(n, t, k, &acc)?);
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Fig. 4 (experiment E4): the unbounded uniform gap.
// ---------------------------------------------------------------------------

/// One `(k, rounds)` row of the Fig. 4 experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig4Row {
    /// Agreement degree.
    pub k: usize,
    /// Failure bound `t = k · rounds`.
    pub t: usize,
    /// Number of processes.
    pub n: usize,
    /// The failure-counting bound `⌊t/k⌋ + 1`.
    pub bound: usize,
    /// Latest correct decision time per protocol, in the order `u-Pmin[k]`,
    /// `Optmin[k]`, `EarlyUniformFloodMin`, `FloodMin` (the column order of
    /// `bench_harness::report::fig4_table`).
    pub latest: [u32; 4],
    /// Uniform-variant check violations summed over the four protocols.
    pub violations: u64,
}

/// Per-shard accumulator of the Fig. 4 sweep: scenario index → (latest
/// decision time per protocol, violations).  Public so the service daemon
/// can cache it per shard.
pub type Fig4Acc = BTreeMap<usize, ([u32; 4], u64)>;

/// The [`Reducer`] of the Fig. 4 sweep (a keyed first-writer map — each
/// scenario index is written exactly once, so extension order is
/// irrelevant).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig4Reducer;

impl Reducer for Fig4Reducer {
    /// `(scenario index, latest per protocol, violations)`.
    type Item = (usize, [u32; 4], u64);
    type Acc = Fig4Acc;

    fn empty(&self) -> Self::Acc {
        BTreeMap::new()
    }

    fn fold(&self, acc: &mut Self::Acc, (index, latest, violations): Self::Item) {
        acc.insert(index, (latest, violations));
    }

    fn merge(&self, mut left: Self::Acc, right: Self::Acc) -> Self::Acc {
        left.extend(right);
        left
    }
}

/// The `(k, t, n)` shape of one Fig. 4 family point.
pub type Fig4Shape = (usize, usize, usize);

/// Builds the Fig. 4 uniform-gap scenario family as a [`FixedSource`],
/// together with the `(k, t, n)` shape of each point (needed to assemble
/// the rows after the fold).
///
/// # Errors
///
/// Propagates scenario-construction errors.
pub fn fig4_source() -> Result<(FixedSource, Vec<Fig4Shape>), ModelError> {
    let mut points = Vec::new();
    let mut shapes = Vec::new();
    for k in [1usize, 2, 3, 5] {
        for rounds in [2usize, 4, 8, 16] {
            let scenario = scenarios::uniform_gap(k, rounds, 3)?;
            let n = scenario.adversary.n();
            let t = scenario.t;
            let params = TaskParams::new(SystemParams::new(n, t)?, k)?;
            shapes.push((k, t, n));
            points.push(Scenario {
                index: points.len(),
                params,
                variant: TaskVariant::Uniform,
                adversary: scenario.adversary,
                weight: 1,
            });
        }
    }
    Ok((FixedSource::new(points), shapes))
}

/// The per-scenario job of the Fig. 4 sweep: run all four uniform-capable
/// protocols on the point and report their latest correct decision times.
///
/// # Errors
///
/// Propagates model errors from the executor.
pub fn fig4_job(
    runner: &mut set_consensus::BatchRunner,
    scenario: &Scenario,
) -> Result<(usize, [u32; 4], u64), ModelError> {
    let protocols: [&dyn Protocol; 4] = [&UPmin, &Optmin, &EarlyUniformFloodMin, &FloodMin];
    runner.execute_batch(&protocols, &scenario.params, &scenario.adversary)?;
    let (run, transcripts, checks) = runner.batch_parts();
    let mut latest = [0u32; 4];
    let mut violations = 0u64;
    for (slot, transcript) in transcripts.iter().enumerate() {
        latest[slot] = latest_correct_decision(run, transcript);
        violations +=
            checks.check(run, transcript, &scenario.params, TaskVariant::Uniform).len() as u64;
    }
    Ok((scenario.index, latest, violations))
}

/// Assembles the Fig. 4 rows from the point shapes and the folded
/// accumulator.
pub fn fig4_rows(shapes: &[(usize, usize, usize)], acc: &Fig4Acc) -> Vec<Fig4Row> {
    shapes
        .iter()
        .enumerate()
        .map(|(index, &(k, t, n))| {
            let (latest, violations) = acc[&index];
            Fig4Row { k, t, n, bound: t / k + 1, latest, violations }
        })
        .collect()
}

/// Sweeps the Fig. 4 uniform-gap family over `k × rounds` and reports the
/// latest correct decision time of each protocol.
///
/// # Errors
///
/// Propagates scenario-construction and executor errors.
pub fn fig4(config: &SweepConfig) -> Result<Vec<Fig4Row>, ModelError> {
    let (source, shapes) = fig4_source()?;
    let acc = sweep(&source, config, &Fig4Reducer, fig4_job)?;
    Ok(fig4_rows(&shapes, &acc))
}

// ---------------------------------------------------------------------------
// Proposition 2 (experiment E9): hidden capacity and star connectivity.
// ---------------------------------------------------------------------------

/// One `(n, t)` row of the exhaustive `k = 1` connectivity check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prop2ExhaustiveRow {
    /// Number of processes.
    pub n: usize,
    /// Failure bound.
    pub t: usize,
    /// Number of states of the one-round protocol complex.
    pub states: usize,
    /// States with hidden capacity at least 1.
    pub with_capacity: usize,
    /// Among those, states whose star complex is connected.
    pub connected: usize,
    /// Counterexamples (Proposition 2 predicts zero).
    pub counterexamples: usize,
}

/// The targeted `k = 2` star analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prop2Targeted {
    /// Hidden capacity of the observer in the reference run.
    pub hidden_capacity: usize,
    /// Number of executions indistinguishable to the observer.
    pub executions: usize,
    /// States of the star complex.
    pub star_states: usize,
    /// Facets of the star complex.
    pub star_facets: usize,
    /// Reduced Betti numbers of the star.
    pub star_betti: Vec<usize>,
    /// Whether the star is `(k − 1)`-connected.
    pub star_connected: bool,
    /// Reduced Betti numbers of the observer's link.
    pub link_betti: Vec<usize>,
    /// Whether the link is `(k − 2)`-connected.
    pub link_connected: bool,
}

/// The full Proposition 2 report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prop2Report {
    /// The exhaustive `k = 1` rows.
    pub exhaustive: Vec<Prop2ExhaustiveRow>,
    /// The targeted `k = 2` analysis.
    pub targeted: Prop2Targeted,
}

struct Prop2Reducer;

impl Reducer for Prop2Reducer {
    /// State ids with hidden capacity ≥ 1 met in one run.
    type Item = Vec<usize>;
    /// The deduplicated set of those state ids.
    type Acc = BTreeSet<usize>;

    fn empty(&self) -> Self::Acc {
        BTreeSet::new()
    }

    fn fold(&self, acc: &mut Self::Acc, item: Self::Item) {
        acc.extend(item);
    }

    fn merge(&self, mut left: Self::Acc, right: Self::Acc) -> Self::Acc {
        left.extend(right);
        left
    }
}

/// Runs the Proposition 2 experiment in two phases: the protocol-complex
/// build stays sequential (it is a global structure), the per-run knowledge
/// analyses that discover hidden-capacity states are swept in parallel
/// (reusing each worker's run buffer), and the expensive star-connectivity
/// check then runs exactly **once per unique state** — the sweep
/// deduplicates first, unlike a per-run check, which would recompute the
/// homology for every adversary that revisits a state.
///
/// # Errors
///
/// Propagates model errors from enumeration or the complex build.
pub fn prop2(config: &SweepConfig) -> Result<Prop2Report, ModelError> {
    prop2_with_stats(config).map(|(report, _)| report)
}

/// [`prop2`], plus the execution statistics of the exhaustive per-run
/// sweeps (the protocol-complex build and the homology checks are not
/// sweeps and contribute nothing).
///
/// # Errors
///
/// Propagates model errors from enumeration or the complex build.
pub fn prop2_with_stats(config: &SweepConfig) -> Result<(Prop2Report, SweepStats), ModelError> {
    let mut stats = SweepStats::default();
    let mut exhaustive = Vec::new();
    for (n, t) in [(3usize, 1usize), (4, 2)] {
        let scope =
            EnumerationConfig { n, t, max_value: 1, max_crash_round: 1, partial_delivery: true };
        let adversaries = enumerate::adversaries(&scope)?;
        let system = SystemParams::new(n, t)?;
        let time = Time::new(1);
        let complex = ProtocolComplex::build(system, &adversaries, time)?;

        let params = TaskParams::new(system, 1)?;
        let space = AdversarySpace::new(scope)?;
        let source = ExhaustiveSource::new(space, params, TaskVariant::Nonuniform)?;
        let complex_ref = &complex;
        let (with_capacity, sweep_stats) =
            sweep_with_stats(&source, config, &Prop2Reducer, move |runner, scenario| {
                let analyzer = runner.cache().clone();
                let run = runner.simulate(system, &scenario.adversary, time)?;
                let mut found = Vec::new();
                for i in 0..n {
                    if !run.is_active(i, time) {
                        continue;
                    }
                    let Some(id) = complex_ref.state_id(run, Node::new(i, time)) else {
                        continue;
                    };
                    let analysis = analyzer.analyze(run, Node::new(i, time))?;
                    if analysis.hidden_capacity() >= 1 {
                        found.push(id);
                    }
                }
                Ok(found)
            })?;
        stats.merge(sweep_stats);

        let connected =
            with_capacity.iter().filter(|&&id| complex.star_is_q_connected(id, 0)).count();
        exhaustive.push(Prop2ExhaustiveRow {
            n,
            t,
            states: complex.num_states(),
            with_capacity: with_capacity.len(),
            connected,
            counterexamples: with_capacity.len() - connected,
        });
    }
    Ok((Prop2Report { exhaustive, targeted: prop2_targeted()? }, stats))
}

/// The targeted `k = 2` analysis of experiment E9b, unchanged from the
/// original binary (a single star; nothing to shard).
fn prop2_targeted() -> Result<Prop2Targeted, ModelError> {
    let k = 2usize;
    let n = 5usize;
    let t = 2usize;
    let system = SystemParams::new(n, t)?;
    let time = Time::new(1);
    let observer = 4usize;

    // The reference run: processes 0 and 1 crash silently in round 1, so the
    // observer's hidden capacity at time 1 is exactly 2.
    let mut reference_failures = FailurePattern::crash_free(n);
    reference_failures.crash_silent(0, 1)?;
    reference_failures.crash_silent(1, 1)?;
    let reference =
        Adversary::new(InputVector::from_values([2u64, 2, 2, 2, 2]), reference_failures)?;
    let reference_run = Run::generate(system, reference, time)?;
    let analysis = ViewAnalysis::new(&reference_run, Node::new(observer, time))?;

    // Every execution indistinguishable to the observer: the two missing
    // processes crashed in round 1 with arbitrary values and arbitrary
    // deliveries not reaching the observer.
    let mut consistent = Vec::new();
    for v0 in 0..=k as u64 {
        for v1 in 0..=k as u64 {
            let inputs = InputVector::from_values([v0, v1, 2, 2, 2]);
            for mask0 in 0u32..8 {
                for mask1 in 0u32..8 {
                    let others0: Vec<usize> = [1usize, 2, 3]
                        .iter()
                        .enumerate()
                        .filter(|(bit, _)| mask0 & (1 << bit) != 0)
                        .map(|(_, &p)| p)
                        .collect();
                    let others1: Vec<usize> = [0usize, 2, 3]
                        .iter()
                        .enumerate()
                        .filter(|(bit, _)| mask1 & (1 << bit) != 0)
                        .map(|(_, &p)| p)
                        .collect();
                    let mut failures = FailurePattern::crash_free(n);
                    failures.crash(0, 1, others0)?;
                    failures.crash(1, 1, others1)?;
                    consistent.push(Adversary::new(inputs.clone(), failures)?);
                }
            }
        }
    }

    let star = ProtocolComplex::build(system, &consistent, time)?;
    let star_betti = homology::betti_numbers(star.complex());
    let observer_id = star
        .state_id(&reference_run, Node::new(observer, time))
        .expect("the reference run belongs to its own star");
    let link = star.complex().link(observer_id);
    let link_betti = homology::betti_numbers(&link);

    Ok(Prop2Targeted {
        hidden_capacity: analysis.hidden_capacity(),
        executions: consistent.len(),
        star_states: star.num_states(),
        star_facets: star.num_facets(),
        star_betti: star_betti.all().to_vec(),
        star_connected: homology::is_q_connected(star.complex(), k - 1),
        link_betti: link_betti.all().to_vec(),
        link_connected: homology::is_q_connected(&link, k.saturating_sub(2)),
    })
}
