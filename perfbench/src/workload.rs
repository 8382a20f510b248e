//! The three workloads: what each folds in process, which daemon jobs it
//! sends, and the correctness gate on every result.

use adversary::RandomConfig;
use service::{JobSpec, QueryKind, QueryResult, ScopeSpec};
use set_consensus::{TaskParams, TaskVariant};
use sweep::experiments::{
    self, thm1_case_row, thm1_job, thm1_scope, thm1_source, thm3_job, thm3_rows, Thm1Case,
    Thm1Outcome, Thm1Reducer, Thm3Acc, Thm3Reducer, THM1_CASES, THM3_CASES,
};
use sweep::source::{ExhaustiveSource, RandomSource};
use sweep::{sweep_with_stats, SweepConfig, SweepStats};
use synchrony::{ModelError, SystemParams};

/// Scenarios sampled per `THM3_CASES` case by `random-uniform`: enough that
/// one fold takes about as long as the Theorem 1 sweep.
pub const RANDOM_SAMPLES: usize = 6000;

/// The Theorem 1 table every exhaustive fold must reproduce: the
/// adversary count of each `(n, t, k)` case, each row with zero
/// correctness violations, zero competitors beating `Optmin[k]` and zero
/// Lemma-3 violations.
pub fn pinned_thm1() -> Vec<Thm1Case> {
    [(3, 1, 1, 200), (4, 2, 1, 25_616), (4, 2, 2, 129_681), (5, 2, 2, 12_393)]
        .into_iter()
        .map(|(n, t, k, adversaries)| Thm1Case {
            n,
            t,
            k,
            adversaries,
            correctness_violations: 0,
            beaten_by: 0,
            structure_violations: 0,
        })
        .collect()
}

/// The `(n, t, k)` of the single-case Theorem 1 job every daemon job of
/// `thm1-exhaustive` runs: the built-in case with the fewest scenarios
/// per pattern block that still takes tens of milliseconds, so a series of
/// fully executed jobs fits in a run.
pub const DAEMON_THM1_CASE: (usize, usize, usize) = (5, 2, 2);

/// Cold and warm jobs in one daemon job series.  With 100 to 199 samples
/// the tail rule of [`crate::stats::tail_percentile`] reports p90, the
/// percentile the `*_p90` metrics are named after.
pub const SERIES_JOBS: usize = 190;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The built-in exhaustive Theorem 1 sweep; the daemon serves the
    /// [`DAEMON_THM1_CASE`] Theorem 1 job only.
    Thm1Exhaustive,
    /// Seeded uniform random Theorem 3 scenarios; the daemon serves
    /// Theorem 3 jobs only.
    RandomUniform,
    /// The Theorem 1 sweep in process; the daemon serves warm Theorem 1
    /// replays beside fresh-seed Theorem 3 jobs.
    DaemonMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::Thm1Exhaustive, Workload::RandomUniform, Workload::DaemonMix];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Thm1Exhaustive => "thm1-exhaustive",
            Workload::RandomUniform => "random-uniform",
            Workload::DaemonMix => "daemon-mix",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the in-process fold is the Theorem 1 sweep (otherwise it is
    /// the random Theorem 3 fold).
    pub fn folds_thm1(self) -> bool {
        self != Workload::RandomUniform
    }
}

/// One case of an in-process fold: its parameters and scenario source.
pub enum Case {
    /// A Theorem 1 case over its exhaustive scope.
    Thm1 { n: usize, t: usize, k: usize, source: ExhaustiveSource },
    /// A Theorem 3 case over seeded random scenarios.
    Thm3 { n: usize, t: usize, k: usize, source: RandomSource },
}

/// Builds the cases of the workload's in-process fold for `seed`.
///
/// # Errors
///
/// Propagates invalid parameters (none occur for the built-in cases).
pub fn cases(workload: Workload, seed: u64) -> Result<Vec<Case>, ModelError> {
    if workload.folds_thm1() {
        THM1_CASES
            .iter()
            .map(|&(n, t, k)| {
                Ok(Case::Thm1 { n, t, k, source: thm1_source(thm1_scope(n, t, k), k)? })
            })
            .collect()
    } else {
        THM3_CASES
            .iter()
            .map(|&(n, t, k)| Ok(Case::Thm3 { n, t, k, source: random_source(n, t, k, seed)? }))
            .collect()
    }
}

/// The `thm3_source` distribution with [`RANDOM_SAMPLES`] scenarios.
fn random_source(n: usize, t: usize, k: usize, seed: u64) -> Result<RandomSource, ModelError> {
    let params = TaskParams::new(SystemParams::new(n, t)?, k)?;
    let distribution = RandomConfig { crash_probability: 0.7, ..RandomConfig::new(n, t, k) };
    Ok(RandomSource::new(distribution, params, TaskVariant::Uniform, seed, RANDOM_SAMPLES))
}

/// Folds every case, each Theorem 1 case with `thm1` and each Theorem 3
/// case with `thm3` (both given the case's index and source), and
/// assembles the rows and the summed engine counters.
///
/// # Errors
///
/// Propagates the first error of a case.
pub fn fold_cases(
    cases: &[Case],
    mut thm1: impl FnMut(usize, &ExhaustiveSource) -> Result<(Thm1Outcome, SweepStats), ModelError>,
    mut thm3: impl FnMut(usize, &RandomSource) -> Result<(Thm3Acc, SweepStats), ModelError>,
) -> Result<(QueryResult, SweepStats), ModelError> {
    let mut stats = SweepStats::default();
    let mut thm1_table = Vec::new();
    let mut thm3_table = Vec::new();
    for (index, case) in cases.iter().enumerate() {
        match case {
            Case::Thm1 { n, t, k, source } => {
                let (acc, s) = thm1(index, source)?;
                stats.merge(s);
                let row = thm1_case_row(&thm1_scope(*n, *t, *k), *k, source.space().len(), acc);
                thm1_table.push(row);
            }
            Case::Thm3 { n, t, k, source } => {
                let (acc, s) = thm3(index, source)?;
                stats.merge(s);
                thm3_table.extend(thm3_rows(*n, *t, *k, &acc)?);
            }
        }
    }
    let rows = if thm3_table.is_empty() {
        QueryResult::Thm1(thm1_table)
    } else {
        QueryResult::Thm3(thm3_table)
    };
    Ok((rows, stats))
}

/// Folds every case with the public jobs and reducers at `threads`.
///
/// # Errors
///
/// Propagates model errors from the engine.
pub fn fold(cases: &[Case], threads: usize) -> Result<(QueryResult, SweepStats), ModelError> {
    let config = SweepConfig { threads, ..SweepConfig::default() };
    fold_cases(
        cases,
        |_, source| sweep_with_stats(source, &config, &Thm1Reducer, thm1_job),
        |_, source| sweep_with_stats(source, &config, &Thm3Reducer, thm3_job),
    )
}

/// The correctness gate on an in-process fold: the pinned Theorem 1
/// table, or the Theorem 3 bound on every row with zero uniform
/// violations and every sampled scenario accounted for.
pub fn gate(fold: &QueryResult) -> Result<(), String> {
    match fold {
        QueryResult::Thm1(rows) => {
            let pinned = pinned_thm1();
            if *rows == pinned {
                Ok(())
            } else {
                Err(format!("Theorem 1 table {rows:?} differs from the pinned {pinned:?}"))
            }
        }
        QueryResult::Thm3(rows) => {
            if let Some(row) = rows.iter().find(|r| r.worst > r.bound || r.violations != 0) {
                return Err(format!("Theorem 3 row violates the bound: {row:?}"));
            }
            let runs: u64 = rows.iter().map(|r| r.runs).sum();
            let want = (RANDOM_SAMPLES * THM3_CASES.len()) as u64;
            if runs != want {
                return Err(format!("Theorem 3 rows cover {runs} runs, not {want}"));
            }
            Ok(())
        }
        other => Err(format!("no workload folds {other:?}")),
    }
}

/// A deterministic SplitMix64 stream for the job plans.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Whether a series job is expected to be replayed from the shard cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Temperature {
    /// Every shard replays from the cache.
    Warm,
    /// Every shard executes.
    Cold,
}

/// The daemon jobs of one run, in the order the client sends them.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonPlan {
    /// The first job on a fresh daemon; its repeats are the warm jobs of
    /// the Theorem 1 workloads and the job the restart replays.
    pub first: JobSpec,
    /// The closed-loop series of [`SERIES_JOBS`] warm and as many cold
    /// jobs, interleaved in seeded order.
    pub series: Vec<(Temperature, JobSpec)>,
    /// The job the fleet executes with the shard cache bypassed.
    pub fleet: JobSpec,
}

fn thm1_job_spec(id: u64, scope: Option<ScopeSpec>, shard_cache: bool) -> JobSpec {
    JobSpec { id, query: QueryKind::Thm1, scope, shards: 0, seed: 0, shard_cache }
}

fn thm3_job_spec(id: u64, seed: u64, shard_cache: bool) -> JobSpec {
    JobSpec { id, query: QueryKind::Thm3, scope: None, shards: 0, seed, shard_cache }
}

/// The single-case scope of [`DAEMON_THM1_CASE`].
fn daemon_thm1_scope() -> Option<ScopeSpec> {
    let (n, t, k) = DAEMON_THM1_CASE;
    let scope = thm1_scope(n, t, k);
    Some(ScopeSpec {
        n,
        t,
        k,
        max_value: scope.max_value,
        max_crash_round: scope.max_crash_round,
        partial_delivery: scope.partial_delivery,
    })
}

/// The daemon job plan of `workload` for `seed`; the same seed always
/// gives the same jobs in the same order.
///
/// Cold Theorem 3 jobs draw fresh seeds, so each executes every shard and
/// appends it to the store; warm Theorem 3 jobs repeat a seed already
/// sent.  Cold Theorem 1 jobs bypass the shard cache, because a Theorem 1
/// job's fingerprint ignores the seed.  `thm1-exhaustive` sends the
/// [`DAEMON_THM1_CASE`] job throughout, `daemon-mix` the full Theorem 1
/// job.
pub fn plan(workload: Workload, seed: u64, series_jobs: usize) -> DaemonPlan {
    let mut rng = SplitMix::new(seed ^ 0x5EED_DAE0);
    let mut ids = 1u64..;
    let mut next_id = || ids.next().expect("job ids never run out");
    // Seeds already sent; a fresh seed is one not among them.
    let mut sent: Vec<u64> = Vec::new();
    let fresh_seed = |rng: &mut SplitMix, sent: &mut Vec<u64>| loop {
        let s = rng.next_u64() >> 16;
        if !sent.contains(&s) {
            sent.push(s);
            return s;
        }
    };
    let thm1_scope = match workload {
        Workload::Thm1Exhaustive => daemon_thm1_scope(),
        _ => None,
    };
    let first = match workload {
        Workload::RandomUniform => thm3_job_spec(next_id(), fresh_seed(&mut rng, &mut sent), true),
        _ => thm1_job_spec(next_id(), thm1_scope, true),
    };
    let mut temperatures: Vec<Temperature> = (0..2 * series_jobs)
        .map(|i| if i < series_jobs { Temperature::Warm } else { Temperature::Cold })
        .collect();
    for i in (1..temperatures.len()).rev() {
        temperatures.swap(i, rng.below(i + 1));
    }
    let mut series = Vec::with_capacity(temperatures.len());
    for temperature in temperatures {
        let job = match (workload, temperature) {
            (Workload::RandomUniform, Temperature::Warm) => {
                let seed = sent[rng.below(sent.len())];
                thm3_job_spec(next_id(), seed, true)
            }
            (Workload::Thm1Exhaustive | Workload::DaemonMix, Temperature::Warm) => {
                thm1_job_spec(next_id(), thm1_scope, true)
            }
            (Workload::Thm1Exhaustive, Temperature::Cold) => {
                thm1_job_spec(next_id(), thm1_scope, false)
            }
            (Workload::RandomUniform | Workload::DaemonMix, Temperature::Cold) => {
                thm3_job_spec(next_id(), fresh_seed(&mut rng, &mut sent), true)
            }
        };
        series.push((temperature, job));
    }
    let fleet = match workload {
        Workload::RandomUniform => thm3_job_spec(next_id(), fresh_seed(&mut rng, &mut sent), false),
        _ => thm1_job_spec(next_id(), thm1_scope, false),
    };
    DaemonPlan { first, series, fleet }
}

/// The in-process fold of a daemon job, computed through the public
/// experiment API at `threads` — the reference every daemon and fleet
/// result must equal.
///
/// # Errors
///
/// Propagates model errors from the engine.
pub fn reference(job: &JobSpec, threads: usize) -> Result<QueryResult, ModelError> {
    let config = SweepConfig { threads, seed: job.seed, ..SweepConfig::default() };
    match (job.query, &job.scope) {
        (QueryKind::Thm1, None) => Ok(QueryResult::Thm1(experiments::thm1(&config)?)),
        (QueryKind::Thm1, Some(scope)) => {
            let enumeration = adversary::EnumerationConfig {
                n: scope.n,
                t: scope.t,
                max_value: scope.max_value,
                max_crash_round: scope.max_crash_round,
                partial_delivery: scope.partial_delivery,
            };
            let source = thm1_source(enumeration, scope.k)?;
            let acc = sweep::sweep(&source, &config, &Thm1Reducer, thm1_job)?;
            Ok(QueryResult::Thm1(vec![thm1_case_row(
                &enumeration,
                scope.k,
                source.space().len(),
                acc,
            )]))
        }
        (QueryKind::Thm3, _) => Ok(QueryResult::Thm3(experiments::thm3(&config)?)),
        (query, _) => panic!("no benchmark plan sends {} jobs", query.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep::experiments::Thm3Row;

    #[test]
    fn the_same_seed_gives_the_same_daemon_jobs() {
        for workload in Workload::ALL {
            let a = plan(workload, 1605, SERIES_JOBS);
            assert_eq!(a, plan(workload, 1605, SERIES_JOBS), "{}", workload.name());
            assert_ne!(a, plan(workload, 1606, SERIES_JOBS), "{}", workload.name());
            let warm = a.series.iter().filter(|(t, _)| *t == Temperature::Warm).count();
            assert_eq!((warm, a.series.len()), (SERIES_JOBS, 2 * SERIES_JOBS));
            let mut ids: Vec<u64> = a.series.iter().map(|(_, job)| job.id).collect();
            ids.extend([a.first.id, a.fleet.id]);
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 2 * SERIES_JOBS + 2, "job ids are unique");
        }
    }

    #[test]
    fn cold_theorem_3_jobs_never_repeat_a_seed_and_warm_ones_always_do() {
        let plan = plan(Workload::RandomUniform, 7, SERIES_JOBS);
        let mut seen = vec![plan.first.seed];
        for (temperature, job) in &plan.series {
            match temperature {
                Temperature::Cold => {
                    assert!(!seen.contains(&job.seed));
                    seen.push(job.seed);
                }
                Temperature::Warm => assert!(seen.contains(&job.seed)),
            }
        }
        assert!(!seen.contains(&plan.fleet.seed));
    }

    #[test]
    fn the_gate_accepts_the_pinned_table_and_rejects_a_perturbed_fold() {
        let (fold, _) = fold(&cases(Workload::Thm1Exhaustive, 1605).unwrap()[..1], 1).unwrap();
        let QueryResult::Thm1(rows) = fold else { panic!("a Theorem 1 fold") };
        let table = pinned_thm1();
        assert_eq!(rows[..], table[..1]);
        // The first case alone is not the whole table.
        assert!(gate(&QueryResult::Thm1(rows)).is_err());
        assert!(gate(&QueryResult::Thm1(table.clone())).is_ok());
        let mut rows = table.clone();
        rows[2].structure_violations = 1;
        assert!(gate(&QueryResult::Thm1(rows)).is_err());
        let mut rows = table.clone();
        rows[3].beaten_by = 1;
        assert!(gate(&QueryResult::Thm1(rows)).is_err());
        let mut rows = table;
        rows[1].adversaries += 1;
        assert!(gate(&QueryResult::Thm1(rows)).is_err());

        let thm3 = |worst, violations, runs| Thm3Row {
            n: 8,
            t: 5,
            k: 2,
            f: 5,
            runs,
            worst,
            bound: 3,
            violations,
        };
        let all = (RANDOM_SAMPLES * THM3_CASES.len()) as u64;
        assert!(gate(&QueryResult::Thm3(vec![thm3(3, 0, all)])).is_ok());
        assert!(gate(&QueryResult::Thm3(vec![thm3(4, 0, all)])).is_err());
        assert!(gate(&QueryResult::Thm3(vec![thm3(2, 1, all)])).is_err());
        assert!(gate(&QueryResult::Thm3(vec![thm3(2, 0, all - 1)])).is_err());
    }
}
