//! The sharded, work-stealing sweep loop.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use knowledge::CacheStats;
use set_consensus::{BatchRunner, RunReuseStats, TaskParams, TaskVariant};
use synchrony::{Adversary, ModelError};

/// Execution parameters of a sweep.
///
/// A sweep is deterministic in `(source, reducer, job, seed)`: neither
/// `shards` nor `threads` may change the fold result (see [`Reducer`] for
/// the laws that guarantee this; the shard-determinism integration tests
/// enforce it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Number of deterministic shards the scenario space is partitioned
    /// into; `0` picks `4 × threads`.  More shards mean finer-grained work
    /// stealing.  Shard boundaries are aligned to the source's
    /// [`ScenarioSource::structure_block`] so run-structure reuse survives
    /// any shard count.
    pub shards: usize,
    /// Number of worker threads; `0` picks the machine's available
    /// parallelism, `1` runs fully sequentially on the calling thread.
    pub threads: usize,
    /// Seed forwarded to seeded scenario sources (ignored by exhaustive and
    /// fixed sources).
    pub seed: u64,
    /// Whether each worker keeps a cross-adversary, view-keyed
    /// [`knowledge::AnalysisCache`] (default `true`).  The cache can only
    /// change how fast a fold is computed, never its value — cached and
    /// uncached sweeps are bit-identical at any shard/thread count, which
    /// the determinism tests pin down.
    pub cache: bool,
    /// Whether each worker's [`BatchRunner`] may reuse one simulated
    /// communication structure across consecutive scenarios that share a
    /// failure pattern (default `true`).  Like the cache, reuse is purely a
    /// speed knob: folds with reuse on and off are bit-identical at any
    /// parallelism.
    pub reuse: bool,
    /// Whether each shard walks its scenarios through the source's
    /// [`ScenarioSource::cursor`] (default `true`), which reuses one
    /// caller-owned scratch [`Scenario`] per worker and — for block-cursor
    /// sources like `source::ExhaustiveSource` — steps the scenario in
    /// place instead of materializing it per index.  The third speed-only
    /// knob: cursor-on and cursor-off folds are bit-identical at any
    /// parallelism (pinned by the determinism tests); only
    /// [`SweepStats::cursor`] differs.
    pub cursor: bool,
}

impl SweepConfig {
    /// A fully sequential configuration: one shard, one thread.
    pub fn sequential() -> Self {
        SweepConfig {
            shards: 1,
            threads: 1,
            seed: Self::DEFAULT_SEED,
            cache: true,
            reuse: true,
            cursor: true,
        }
    }

    /// The default seed, matching the seed the pre-engine experiment
    /// binaries used.
    pub const DEFAULT_SEED: u64 = 1605;

    /// Resolves `threads = 0` to the machine's available parallelism.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            thread::available_parallelism().map(usize::from).unwrap_or(1)
        }
    }

    /// Resolves `shards = 0` to `4 × resolved_threads()`.
    pub fn resolved_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            self.resolved_threads() * 4
        }
    }
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            shards: 0,
            threads: 0,
            seed: Self::DEFAULT_SEED,
            cache: true,
            reuse: true,
            cursor: true,
        }
    }
}

/// Scenario-production counters of one sweep: how each scenario reached its
/// job, summed over every shard cursor.
///
/// This is [`adversary::enumerate::CursorCounters`] — one definition for
/// the whole stack, read here as "scenarios" rather than "adversaries".
/// With [`SweepConfig::cursor`] on and a block-cursor source, steady state
/// means **zero per-scenario pattern/input allocations**: `materialized`
/// equals the number of non-empty shards (one wholesale construction
/// each), `patterns_unranked` the number of structure blocks, and every
/// other scenario is `stepped` in place.  With the cursor off — or for
/// sources without an in-place representation — every scenario counts as
/// `materialized`, exactly the old per-index [`ScenarioSource::scenario`]
/// cost.
pub use adversary::enumerate::CursorCounters as CursorStats;

/// Execution statistics of one sweep, aggregated over every worker.
///
/// The statistics describe *how* the fold was computed (they may legally
/// vary with shard and thread counts, e.g. fewer cache hits when the space
/// is split across more per-worker caches); the fold value itself never
/// does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Number of scenarios executed.
    pub scenarios: u64,
    /// Number of scenarios the executed ones stand for: the sum of their
    /// [`Scenario::weight`]s.  Equal to `scenarios` except on
    /// symmetry-reduced sources, where each canonical scenario covers its
    /// whole process-renaming orbit.
    pub covered: u64,
    /// Knowledge-analysis cache counters summed over the per-worker caches
    /// (all zeros for jobs that never request an analysis).
    pub cache: CacheStats,
    /// Run-structure simulation counters summed over the per-worker
    /// runners: how many communication structures were simulated vs. reused
    /// outright across input vectors.
    pub runs: RunReuseStats,
    /// Scenario-production counters summed over the per-shard cursors: how
    /// many scenarios were materialized wholesale vs. stepped in place, and
    /// how many failure patterns were unranked.
    pub cursor: CursorStats,
}

impl SweepStats {
    /// Adds another sweep's statistics into this one (for experiments that
    /// chain several sweeps).
    pub fn merge(&mut self, other: SweepStats) {
        self.scenarios += other.scenarios;
        self.covered += other.covered;
        self.cache.merge(other.cache);
        self.runs.merge(other.runs);
        self.cursor.merge(other.cursor);
    }

    /// Renders the statistics as the canonical one-line stderr trailer the
    /// `sweep` CLI and the `sweep serve` daemon print — the format
    /// documented field by field in the crate docs ("The stderr stats
    /// line").  Every consumer (the `sweep` CLI, the service daemon and
    /// client, the benchmark) goes through this one renderer so the line
    /// stays greppable across the whole stack.
    pub fn stats_line(&self) -> String {
        let covering = if self.covered == self.scenarios {
            String::new()
        } else {
            format!(" (covering {} by process renaming)", self.covered)
        };
        format!(
            "sweep stats: {} scenarios{covering}; knowledge analyses: {} requested, \
             {} constructed, {} served from cache (hit rate {:.1}%); run structures: \
             {} simulated, {} reused (reuse rate {:.1}%); scenarios: {} stepped in place, \
             {} materialized, {} patterns unranked (in-place rate {:.1}%)",
            self.scenarios,
            self.cache.lookups(),
            self.cache.constructions(),
            self.cache.constructions_avoided(),
            self.cache.hit_rate() * 100.0,
            self.runs.simulated,
            self.runs.reused,
            self.runs.reuse_rate() * 100.0,
            self.cursor.stepped,
            self.cursor.materialized,
            self.cursor.patterns_unranked,
            self.cursor.in_place_rate() * 100.0,
        )
    }
}

/// One unit of sweep work: a task instance plus the adversary to run it
/// against.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Position of this scenario in its source's enumeration order.
    pub index: usize,
    /// The task parameters `(n, t, k)` the scenario is executed under.
    pub params: TaskParams,
    /// Which agreement variant the scenario's checks should use.
    pub variant: TaskVariant,
    /// The adversary.
    pub adversary: Adversary,
    /// How many scenarios of the full space this one stands for: `1`,
    /// except on a symmetry-reduced source
    /// (`source::ExhaustiveSource::symmetric`), where it is the size of the
    /// pattern's process-renaming orbit.  The engine folds each outcome
    /// with this weight ([`Reducer::fold_weighted`]).
    pub weight: u64,
}

/// A deterministic, randomly-addressable stream of scenarios.
///
/// Random addressability (`scenario(index)` in roughly constant time) is
/// what lets shards seek to their slice of the space without replaying a
/// sequential generator; see `sweep::source` for the implementations.
pub trait ScenarioSource: Sync {
    /// Total number of scenarios.
    fn len(&self) -> usize;

    /// Returns `true` if the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the scenario at `index < len()`.
    ///
    /// # Errors
    ///
    /// Returns an error if the scenario cannot be constructed (a degenerate
    /// configuration, typically caught at source construction instead).
    fn scenario(&self, index: usize) -> Result<Scenario, ModelError>;

    /// The number of consecutive scenarios that share one communication
    /// structure (failure pattern), starting at every multiple of the
    /// returned value — `1` if scenarios have no such structure-major
    /// blocking.
    ///
    /// The engine aligns shard boundaries to multiples of this block so a
    /// worker's [`BatchRunner`] can reuse one simulated [`synchrony::Run`]
    /// structure across a whole block regardless of the `--shards` and
    /// `--threads` settings.  Purely an efficiency hint: any value is
    /// correct (the fold never depends on shard boundaries), a misaligned
    /// value only costs extra simulations.
    fn structure_block(&self) -> usize {
        1
    }

    /// Returns a cursor over the half-open index range `start..end` — the
    /// engine's shard access path when [`SweepConfig::cursor`] is on.
    ///
    /// The default implementation materializes each scenario through
    /// [`ScenarioSource::scenario`] (counting it in
    /// [`CursorStats::materialized`]), so any source gets a correct cursor
    /// for free.  Sources with an in-place representation override it:
    /// `source::ExhaustiveSource` wraps the block cursor of
    /// `adversary::enumerate::AdversarySpace`, which unranks the failure
    /// pattern once per structure block and then only steps the mixed-radix
    /// input code inside the worker's scratch scenario.  Either way the
    /// yielded sequence must be identical to `scenario(start..end)` — the
    /// cursor is the third speed-only knob of the engine, never a semantic
    /// one.
    fn cursor(&self, start: usize, end: usize) -> Box<dyn ScenarioCursor + '_> {
        Box::new(NthCursor {
            source: self,
            next: start,
            end: end.min(self.len()),
            stats: CursorStats::default(),
        })
    }
}

/// A position-tracking producer of consecutive scenarios that writes into a
/// caller-owned scratch slot instead of returning fresh allocations — see
/// [`ScenarioSource::cursor`].
pub trait ScenarioCursor {
    /// Writes the next scenario of the range into `scratch` and returns
    /// `true`, or returns `false` (leaving `scratch` untouched) once the
    /// range is exhausted.
    ///
    /// A `None` scratch is populated on the first call; a `Some` scratch is
    /// either stepped in place (block-cursor sources) or overwritten.  The
    /// caller must not modify the scratch between calls.
    ///
    /// # Errors
    ///
    /// Returns an error if the scenario cannot be constructed (same
    /// conditions as [`ScenarioSource::scenario`]).
    fn next(&mut self, scratch: &mut Option<Scenario>) -> Result<bool, ModelError>;

    /// Returns the production counters accumulated by this cursor.
    fn stats(&self) -> CursorStats;
}

/// The fallback cursor behind the default [`ScenarioSource::cursor`]:
/// materializes every scenario per index, exactly as the engine's pre-cursor
/// shard loop did.
struct NthCursor<'a, S: ?Sized> {
    source: &'a S,
    next: usize,
    end: usize,
    stats: CursorStats,
}

impl<S: ScenarioSource + ?Sized> ScenarioCursor for NthCursor<'_, S> {
    fn next(&mut self, scratch: &mut Option<Scenario>) -> Result<bool, ModelError> {
        if self.next >= self.end {
            return Ok(false);
        }
        *scratch = Some(self.source.scenario(self.next)?);
        self.next += 1;
        self.stats.materialized += 1;
        Ok(true)
    }

    fn stats(&self) -> CursorStats {
        self.stats
    }
}

/// Folds per-scenario outcomes into a shard accumulator and merges shard
/// accumulators.
///
/// Implementations must satisfy `merge(fold(A), fold(B)) == fold(A ++ B)`
/// for consecutive slices `A`, `B` of the scenario order (concatenation
/// compatibility).  Together with the engine's contiguous sharding and
/// in-order merge, this makes the sweep result independent of the shard and
/// thread counts — the property the shard-determinism tests pin down.
/// Counters, histograms, keyed maxima/minima and keyed first-writer maps
/// all qualify; anything sensitive to global interleaving does not.
pub trait Reducer: Sync {
    /// Per-scenario outcome produced by the job closure.  `Clone` so the
    /// default [`Reducer::fold_weighted`] can fold it repeatedly.
    type Item: Send + Clone;
    /// Shard accumulator.
    type Acc: Send;

    /// The accumulator of an empty shard (the fold identity).
    fn empty(&self) -> Self::Acc;

    /// Folds one outcome into a shard accumulator.
    fn fold(&self, acc: &mut Self::Acc, item: Self::Item);

    /// Folds one outcome that stands for `weight` equal scenarios (see
    /// [`Scenario::weight`]).  Must equal `weight` consecutive
    /// [`Reducer::fold`]s of the item, which the default does literally;
    /// a reducer may override it with the closed form (counts times
    /// `weight`, flags once).
    fn fold_weighted(&self, acc: &mut Self::Acc, item: Self::Item, weight: u64) {
        if weight == 0 {
            return;
        }
        for _ in 1..weight {
            self.fold(acc, item.clone());
        }
        self.fold(acc, item);
    }

    /// Merges two adjacent shard accumulators (`left` covers earlier
    /// scenario indices).
    fn merge(&self, left: Self::Acc, right: Self::Acc) -> Self::Acc;
}

/// Splits `0..total` into `shards` contiguous ranges whose boundaries fall
/// on multiples of `block`, keeping the per-shard block counts near-equal.
///
/// With `block = 1` this is the classic near-equal partition.  With a
/// larger block — the structure-major case, where `block` consecutive
/// scenarios share one failure pattern — every shard starts at a fresh
/// pattern, so cutting the space never splits a reuse run across workers.
/// When there are fewer blocks than shards, trailing shards come out empty;
/// the fold is indifferent (a shard of an empty range folds to the reducer
/// identity).
///
/// Public because external shard schedulers (the `service` daemon) must cut
/// the space exactly as the in-process engine does: the per-shard
/// accumulator cache is keyed on shard boundaries, so both sides have to
/// agree on them bit-for-bit.
pub fn shard_ranges(total: usize, shards: usize, block: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1);
    let block = block.max(1);
    let blocks = total.div_ceil(block);
    let base = blocks / shards;
    let extra = blocks % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start_block = 0usize;
    for shard in 0..shards {
        let len = base + usize::from(shard < extra);
        let start = (start_block * block).min(total);
        let end = ((start_block + len) * block).min(total);
        ranges.push((start, end));
        start_block += len;
    }
    ranges
}

/// Version tag of the fold semantics of this engine: the enumeration
/// order, the shard-range computation and the reducer merge discipline.
///
/// Cached per-shard accumulators are only replayable while all three are
/// unchanged, so every persisted or cross-process shard-accumulator key
/// (see `service::fingerprint` in the `service` crate) embeds this value.
/// **Bump it whenever a change could alter any fold bit** — a new
/// enumeration order, a different shard alignment rule, a reducer-law
/// change — and every stale accumulator silently becomes a cache miss
/// instead of a wrong answer.
///
/// Version 3: the Theorem 1 and omission sources sweep one canonical
/// pattern per process-renaming orbit, so a shard range indexes a
/// different (reduced) scenario order.
pub const FOLD_SEMANTICS_VERSION: u32 = 3;

/// Folds the scenarios of one contiguous index range into a fresh
/// accumulator, using a caller-owned runner and scratch slot.
///
/// This is the single-shard kernel shared by [`sweep_with_stats`] (which
/// spawns its own worker threads) and external shard schedulers like the
/// `service` daemon's persistent worker pool (which owns long-lived runners
/// and calls this per queued shard).  `use_cursor` selects between the
/// source's [`ScenarioSource::cursor`] and per-index materialization —
/// exactly the [`SweepConfig::cursor`] knob.  Each outcome is folded with
/// its scenario's [`Scenario::weight`]; the third value returned is the
/// sum of those weights ([`SweepStats::covered`]).
///
/// # Errors
///
/// Returns the first job or source error of the range.
pub fn fold_shard_range<S, R, F>(
    source: &S,
    reducer: &R,
    job: &F,
    runner: &mut BatchRunner,
    scratch: &mut Option<Scenario>,
    range: (usize, usize),
    use_cursor: bool,
) -> Result<(R::Acc, CursorStats, u64), ModelError>
where
    S: ScenarioSource + ?Sized,
    R: Reducer,
    F: Fn(&mut BatchRunner, &Scenario) -> Result<R::Item, ModelError>,
{
    let mut acc = reducer.empty();
    let mut covered = 0u64;
    if use_cursor {
        let mut cursor = source.cursor(range.0, range.1);
        while cursor.next(scratch)? {
            let scenario = scratch.as_ref().expect("the cursor just yielded a scenario");
            reducer.fold_weighted(&mut acc, job(runner, scenario)?, scenario.weight);
            covered += scenario.weight;
        }
        Ok((acc, cursor.stats(), covered))
    } else {
        // The pre-cursor path, kept as the A/B arm: materialize every
        // scenario per index.
        let mut stats = CursorStats::default();
        for index in range.0..range.1 {
            let scenario = source.scenario(index)?;
            stats.materialized += 1;
            reducer.fold_weighted(&mut acc, job(runner, &scenario)?, scenario.weight);
            covered += scenario.weight;
        }
        Ok((acc, stats, covered))
    }
}

/// One completed shard of a [`sweep_shards`] call.
#[derive(Debug, Clone)]
pub struct ShardOutcome<A> {
    /// Index of the shard in the deterministic [`shard_ranges`] partition.
    pub shard: usize,
    /// The half-open scenario index range the shard covers.
    pub range: (usize, usize),
    /// `true` if the accumulator was replayed from the caller's warm store
    /// instead of executed — its `stats` are then all zero.
    pub cached: bool,
    /// The shard's accumulator.
    pub acc: A,
    /// Execution statistics of this shard alone (scenario, analysis-cache,
    /// run-reuse and cursor counters accrued while folding it).
    pub stats: SweepStats,
}

/// Result of a [`sweep_shards`] call: every per-shard outcome in shard
/// order, plus the statistics of the **executed** (non-warm) work.
pub type ShardSweep<A> = (Vec<ShardOutcome<A>>, SweepStats);

/// Snapshots a runner's cumulative counters so a per-shard delta can be
/// taken around one [`fold_shard_range`] call.
fn runner_counters(runner: &BatchRunner) -> (CacheStats, RunReuseStats) {
    (runner.cache().stats(), runner.run_stats())
}

/// Per-shard statistics: the runner-counter delta across one shard plus the
/// shard's own scenario and cursor counts.
fn shard_stats(
    range: (usize, usize),
    before: (CacheStats, RunReuseStats),
    after: (CacheStats, RunReuseStats),
    cursor: CursorStats,
    covered: u64,
) -> SweepStats {
    SweepStats {
        scenarios: (range.1 - range.0) as u64,
        covered,
        cache: CacheStats {
            hits: after.0.hits - before.0.hits,
            misses: after.0.misses - before.0.misses,
        },
        runs: RunReuseStats {
            simulated: after.1.simulated - before.1.simulated,
            reused: after.1.reused - before.1.reused,
        },
        cursor,
    }
}

/// [`fold_shard_range`], plus the full per-shard [`SweepStats`]: the
/// runner's cache and run-reuse counter deltas are snapshotted around the
/// fold, so the statistics describe **this shard alone** even on a
/// long-lived runner (the service daemon's persistent workers).
///
/// # Errors
///
/// Returns the first job or source error of the range.
pub fn fold_shard_stats<S, R, F>(
    source: &S,
    reducer: &R,
    job: &F,
    runner: &mut BatchRunner,
    scratch: &mut Option<Scenario>,
    range: (usize, usize),
    use_cursor: bool,
) -> Result<(R::Acc, SweepStats), ModelError>
where
    S: ScenarioSource + ?Sized,
    R: Reducer,
    F: Fn(&mut BatchRunner, &Scenario) -> Result<R::Item, ModelError>,
{
    let before = runner_counters(runner);
    let (acc, cursor, covered) =
        fold_shard_range(source, reducer, job, runner, scratch, range, use_cursor)?;
    let stats = shard_stats(range, before, runner_counters(runner), cursor, covered);
    Ok((acc, stats))
}

/// Runs `job` over `source` shard by shard, returning every per-shard
/// accumulator instead of only the global fold — the in-process form of
/// the warm/cold shard protocol behind the `service` daemon's incremental
/// shard-accumulator cache.  ([`sweep_with_stats`] and the determinism
/// tests run on this function directly; the daemon's scheduler mirrors the
/// same protocol over its *persistent* worker pool, sharing
/// [`shard_ranges`], [`fold_shard_stats`] and [`merge_shard_outcomes`]
/// with it — keep the two in step when changing the protocol.)
///
/// The scenario space is partitioned exactly as in [`sweep_with_stats`]
/// (contiguous [`shard_ranges`] aligned to the source's structure block,
/// stolen by `config.threads` workers).  Two hooks surround the execution:
///
/// * `warm(shard, range)` may supply a previously computed accumulator for
///   a shard; the engine then **skips that shard entirely** and reports it
///   as [`ShardOutcome::cached`] with zeroed statistics.  Warm shards are
///   reported first, in shard order, before any cold execution starts.
/// * `on_shard` is invoked once per shard as it completes — from worker
///   threads, in completion order, for cold shards — so callers can stream
///   progress (the daemon's `ShardDone` frames) and persist accumulators
///   while later shards are still running.
///
/// The returned vector is ordered by shard index and covers every shard;
/// the accompanying [`SweepStats`] sum the **executed** work only (a fully
/// warm sweep reports zero scenarios).  Feed the vector to
/// [`merge_shard_outcomes`] for the global fold; by the [`Reducer`] laws it
/// is bit-identical to a direct [`sweep_with_stats`] fold at any shard,
/// thread and warm/cold split — the service determinism tests pin this.
///
/// # Errors
///
/// Returns the job or source error of the lowest-indexed failing shard;
/// remaining shards are abandoned as soon as possible.
pub fn sweep_shards<S, R, F, W, O>(
    source: &S,
    config: &SweepConfig,
    reducer: &R,
    job: F,
    warm: W,
    on_shard: O,
) -> Result<ShardSweep<R::Acc>, ModelError>
where
    S: ScenarioSource + ?Sized,
    R: Reducer,
    F: Fn(&mut BatchRunner, &Scenario) -> Result<R::Item, ModelError> + Sync,
    W: FnMut(usize, (usize, usize)) -> Option<R::Acc>,
    O: Fn(&ShardOutcome<R::Acc>) + Sync,
{
    let total = source.len();
    let threads = config.resolved_threads();
    let ranges = shard_ranges(total, config.resolved_shards(), source.structure_block());
    let make_runner = || {
        let runner = if config.cache { BatchRunner::cached() } else { BatchRunner::new() };
        runner.structure_reuse(config.reuse)
    };

    // Warm pass first, in shard order: replayed accumulators are reported
    // before any execution starts, so a fully warm sweep streams instantly.
    let mut warm = warm;
    let mut slots: Vec<Option<ShardOutcome<R::Acc>>> = Vec::with_capacity(ranges.len());
    let mut cold: Vec<usize> = Vec::new();
    for (shard, &range) in ranges.iter().enumerate() {
        match warm(shard, range) {
            Some(acc) => {
                let outcome =
                    ShardOutcome { shard, range, cached: true, acc, stats: SweepStats::default() };
                on_shard(&outcome);
                slots.push(Some(outcome));
            }
            None => {
                cold.push(shard);
                slots.push(None);
            }
        }
    }

    let fold_cold = |runner: &mut BatchRunner,
                     scratch: &mut Option<Scenario>,
                     shard: usize|
     -> Result<ShardOutcome<R::Acc>, ModelError> {
        let range = ranges[shard];
        let (acc, stats) =
            fold_shard_stats(source, reducer, &job, runner, scratch, range, config.cursor)?;
        Ok(ShardOutcome { shard, range, cached: false, acc, stats })
    };

    if threads <= 1 || cold.len() <= 1 {
        let mut runner = make_runner();
        let mut scratch = None;
        for &shard in &cold {
            let outcome = fold_cold(&mut runner, &mut scratch, shard)?;
            on_shard(&outcome);
            slots[shard] = Some(outcome);
        }
    } else {
        let next_cold = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let done: Mutex<Vec<(usize, ShardOutcome<R::Acc>)>> = Mutex::new(Vec::new());
        let first_error: Mutex<Option<(usize, ModelError)>> = Mutex::new(None);
        let cold = &cold;

        thread::scope(|scope| {
            for _ in 0..threads.min(cold.len()) {
                scope.spawn(|| {
                    let mut runner = make_runner();
                    let mut scratch = None;
                    loop {
                        if failed.load(Ordering::Relaxed) {
                            break;
                        }
                        let slot = next_cold.fetch_add(1, Ordering::Relaxed);
                        let Some(&shard) = cold.get(slot) else { break };
                        match fold_cold(&mut runner, &mut scratch, shard) {
                            Ok(outcome) => {
                                on_shard(&outcome);
                                done.lock().expect("sweep outcome lock").push((shard, outcome));
                            }
                            Err(error) => {
                                failed.store(true, Ordering::Relaxed);
                                let mut slot = first_error.lock().expect("sweep error lock");
                                if slot.as_ref().is_none_or(|(s, _)| shard < *s) {
                                    *slot = Some((shard, error));
                                }
                            }
                        }
                    }
                });
            }
        });

        if let Some((_, error)) = first_error.into_inner().expect("sweep error lock") {
            return Err(error);
        }
        for (shard, outcome) in done.into_inner().expect("sweep outcome lock") {
            slots[shard] = Some(outcome);
        }
    }

    let outcomes: Vec<ShardOutcome<R::Acc>> =
        slots.into_iter().map(|slot| slot.expect("every shard completed")).collect();
    let mut stats = SweepStats::default();
    for outcome in &outcomes {
        stats.merge(outcome.stats);
    }
    Ok((outcomes, stats))
}

/// A violated [`merge_shard_outcomes`] precondition: the handed outcomes
/// are not the complete, in-order, contiguous shard partition a
/// [`sweep_shards`] call produces.
///
/// Surfaced as a value (rather than only a panic) because the accumulators
/// being merged may have been replayed from a *persisted* cache — a torn
/// or forged entry must become a reportable job error, never a lawless
/// merge and never a dead worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No outcomes at all.
    Empty,
    /// A shard index out of sequence.
    OutOfOrder {
        /// The offending shard index.
        shard: usize,
        /// The shard merged immediately before it, if any.
        previous: Option<usize>,
    },
    /// A shard range that does not start where its predecessor ended.
    Gap {
        /// The offending shard index.
        shard: usize,
        /// The offending shard's range.
        range: (usize, usize),
        /// Where the range was expected to start.
        expected_start: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Empty => write!(f, "a shard partition has at least one shard"),
            MergeError::OutOfOrder { shard, previous } => {
                write!(f, "shard {shard} merged out of order (previous shard {previous:?})")
            }
            MergeError::Gap { shard, range, expected_start } => write!(
                f,
                "shard {shard} range {range:?} is not contiguous with its predecessor \
                 (expected start {expected_start})"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Merges the per-shard accumulators of a [`sweep_shards`] call into the
/// global fold, re-validating the [`Reducer`]-law preconditions and
/// returning a [`MergeError`] instead of panicking on a violation.
///
/// This is the merge path for accumulators that crossed a trust boundary —
/// replayed from a persisted cache, received over the wire — where a
/// damaged entry must surface as a typed job error while the process keeps
/// serving.  [`merge_shard_outcomes`] is the panicking wrapper for
/// in-process partitions that are correct by construction.
///
/// # Errors
///
/// Returns the first structural violation: an empty partition, a shard
/// index out of sequence, or a range gap.
pub fn try_merge_shard_outcomes<R: Reducer>(
    reducer: &R,
    outcomes: Vec<ShardOutcome<R::Acc>>,
) -> Result<R::Acc, MergeError> {
    if outcomes.is_empty() {
        return Err(MergeError::Empty);
    }
    let mut merged = reducer.empty();
    let mut expected_start = 0usize;
    let mut last_shard: Option<usize> = None;
    for outcome in outcomes {
        if !last_shard.map_or(outcome.shard == 0, |last| outcome.shard == last + 1) {
            return Err(MergeError::OutOfOrder { shard: outcome.shard, previous: last_shard });
        }
        if outcome.range.0 != expected_start {
            return Err(MergeError::Gap {
                shard: outcome.shard,
                range: outcome.range,
                expected_start,
            });
        }
        last_shard = Some(outcome.shard);
        expected_start = outcome.range.1;
        merged = reducer.merge(merged, outcome.acc);
    }
    Ok(merged)
}

/// Merges the per-shard accumulators of a [`sweep_shards`] call into the
/// global fold — the *law-checked* merge path.
///
/// The [`Reducer`] contract only covers merging accumulators of **adjacent
/// slices, in order**; merging shards out of order or with gaps would
/// silently produce a fold no in-process sweep can produce.  Because the
/// accumulators handed here may have been replayed from a cache (a
/// different process, an earlier request), this function re-validates that
/// precondition structurally — outcomes sorted by shard index, ranges
/// contiguous from the first shard's start — and panics on any violation
/// rather than returning a lawless merge.  Callers that merge accumulators
/// from an untrusted store should use [`try_merge_shard_outcomes`] and
/// surface the error instead.
///
/// # Panics
///
/// Panics if the outcomes are not the complete, in-order, contiguous shard
/// partition produced by [`sweep_shards`] — empty, not starting at shard 0
/// and scenario 0, out of order, or with range gaps.
pub fn merge_shard_outcomes<R: Reducer>(
    reducer: &R,
    outcomes: Vec<ShardOutcome<R::Acc>>,
) -> R::Acc {
    try_merge_shard_outcomes(reducer, outcomes).unwrap_or_else(|error| panic!("{error}"))
}

/// Runs `job` on every scenario of `source` and folds the outcomes with
/// `reducer`.
///
/// Equivalent to [`sweep_with_stats`] with the statistics discarded.
///
/// # Errors
///
/// Returns the job or source error of the lowest-indexed failing shard;
/// remaining shards are abandoned as soon as possible.
pub fn sweep<S, R, F>(
    source: &S,
    config: &SweepConfig,
    reducer: &R,
    job: F,
) -> Result<R::Acc, ModelError>
where
    S: ScenarioSource + ?Sized,
    R: Reducer,
    F: Fn(&mut BatchRunner, &Scenario) -> Result<R::Item, ModelError> + Sync,
{
    sweep_with_stats(source, config, reducer, job).map(|(acc, _)| acc)
}

/// Runs `job` on every scenario of `source`, folds the outcomes with
/// `reducer`, and reports execution statistics (scenario, analysis-cache,
/// run-structure-reuse and scenario-cursor counters) alongside the fold.
///
/// The scenario space is partitioned into [`SweepConfig::resolved_shards`]
/// contiguous shards, with boundaries aligned to the source's
/// [`ScenarioSource::structure_block`]; worker threads *steal* shards from
/// a shared queue (an atomic cursor), so a slow shard never idles the other
/// workers.  Each worker owns a [`BatchRunner`] — with a cross-adversary
/// [`knowledge::AnalysisCache`] when [`SweepConfig::cache`] is set, and
/// run-structure reuse across same-pattern scenarios when
/// [`SweepConfig::reuse`] is set — so run/transcript buffers, cached view
/// analyses and whole communication structures are reused across every
/// scenario the worker executes.  With [`SweepConfig::cursor`] set, each
/// shard is walked through the source's [`ScenarioSource::cursor`] into a
/// per-worker scratch [`Scenario`], so block-cursor sources materialize
/// nothing per scenario in steady state.  Shard accumulators are merged in
/// shard order, which — given the [`Reducer`] laws — makes the fold
/// identical for every shard/thread count, cache setting, reuse setting and
/// cursor setting, including the fully sequential path; only the statistics
/// may differ between parallelisms.
///
/// # Errors
///
/// Returns the job or source error of the lowest-indexed failing shard;
/// remaining shards are abandoned as soon as possible.
pub fn sweep_with_stats<S, R, F>(
    source: &S,
    config: &SweepConfig,
    reducer: &R,
    job: F,
) -> Result<(R::Acc, SweepStats), ModelError>
where
    S: ScenarioSource + ?Sized,
    R: Reducer,
    F: Fn(&mut BatchRunner, &Scenario) -> Result<R::Item, ModelError> + Sync,
{
    let (outcomes, stats) = sweep_shards(source, config, reducer, job, |_, _| None, |_| {})?;
    Ok((merge_shard_outcomes(reducer, outcomes), stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_the_space_contiguously() {
        for total in [0usize, 1, 7, 64, 65] {
            for shards in [1usize, 2, 3, 8, 100] {
                let ranges = shard_ranges(total, shards, 1);
                assert_eq!(ranges.len(), shards);
                assert_eq!(ranges.first().unwrap().0, 0);
                assert_eq!(ranges.last().unwrap().1, total);
                for window in ranges.windows(2) {
                    assert_eq!(window[0].1, window[1].0);
                }
                let sizes: Vec<usize> = ranges.iter().map(|(s, e)| e - s).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced shards: {sizes:?}");
            }
        }
    }

    #[test]
    fn shard_ranges_align_to_structure_blocks() {
        for (total, block) in [(64usize, 8usize), (65, 8), (7, 16), (120, 5), (33, 1)] {
            for shards in [1usize, 2, 3, 8, 100] {
                let ranges = shard_ranges(total, shards, block);
                assert_eq!(ranges.len(), shards);
                assert_eq!(ranges.first().unwrap().0, 0);
                assert_eq!(ranges.last().unwrap().1, total);
                for window in ranges.windows(2) {
                    assert_eq!(window[0].1, window[1].0, "shards must stay contiguous");
                }
                for &(start, end) in &ranges {
                    assert!(
                        start % block == 0 || start == total,
                        "shard start {start} must open a fresh block (or be empty at the end)"
                    );
                    assert!(
                        end % block == 0 || end == total,
                        "shard end {end} must close a block (or the space)"
                    );
                }
                // Near-equal in *blocks*, not scenarios.
                let block_counts: Vec<usize> =
                    ranges.iter().map(|(s, e)| (e - s).div_ceil(block)).collect();
                let (min, max) =
                    (block_counts.iter().min().unwrap(), block_counts.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced block counts: {block_counts:?}");
            }
        }
    }

    #[test]
    fn config_resolution_defaults_are_sane() {
        let config = SweepConfig::default();
        assert!(config.resolved_threads() >= 1);
        assert_eq!(config.resolved_shards(), config.resolved_threads() * 4);
        assert!(config.cache, "the analysis cache defaults to on");
        assert!(config.reuse, "run-structure reuse defaults to on");
        assert!(config.cursor, "the block cursor defaults to on");
        assert_eq!(SweepConfig::sequential().resolved_threads(), 1);
        assert_eq!(SweepConfig::sequential().resolved_shards(), 1);
    }

    #[test]
    fn sweep_stats_merge_adds_counters() {
        let mut stats = SweepStats {
            scenarios: 3,
            covered: 9,
            cache: CacheStats { hits: 1, misses: 2 },
            runs: RunReuseStats { simulated: 1, reused: 4 },
            cursor: CursorStats { materialized: 1, stepped: 2, patterns_unranked: 1 },
        };
        stats.merge(SweepStats {
            scenarios: 4,
            covered: 4,
            cache: CacheStats { hits: 10, misses: 20 },
            runs: RunReuseStats { simulated: 2, reused: 8 },
            cursor: CursorStats { materialized: 1, stepped: 3, patterns_unranked: 2 },
        });
        assert_eq!(stats.scenarios, 7);
        assert_eq!(stats.covered, 13);
        assert_eq!(stats.cache, CacheStats { hits: 11, misses: 22 });
        assert_eq!(stats.runs, RunReuseStats { simulated: 3, reused: 12 });
        assert_eq!(stats.cursor, CursorStats { materialized: 2, stepped: 5, patterns_unranked: 3 });
    }

    /// A minimal reducer for exercising the merge-law checks without a
    /// scenario source.
    struct Sum;

    impl Reducer for Sum {
        type Item = u64;
        type Acc = u64;

        fn empty(&self) -> u64 {
            0
        }

        fn fold(&self, acc: &mut u64, item: u64) {
            *acc += item;
        }

        fn merge(&self, left: u64, right: u64) -> u64 {
            left + right
        }
    }

    fn outcome(shard: usize, range: (usize, usize)) -> ShardOutcome<u64> {
        ShardOutcome { shard, range, cached: false, acc: 1, stats: SweepStats::default() }
    }

    /// A contiguous sub-range that misses shard 0 is not a complete
    /// partition: merging it would silently fold a subset of the space.
    #[test]
    #[should_panic(expected = "out of order")]
    fn merge_shard_outcomes_requires_shard_zero() {
        let _ = merge_shard_outcomes(&Sum, vec![outcome(1, (0, 4)), outcome(2, (4, 8))]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn merge_shard_outcomes_rejects_empty_partitions() {
        let _ = merge_shard_outcomes(&Sum, Vec::new());
    }

    #[test]
    #[should_panic(expected = "not contiguous")]
    fn merge_shard_outcomes_rejects_range_gaps() {
        let _ = merge_shard_outcomes(&Sum, vec![outcome(0, (0, 4)), outcome(1, (5, 8))]);
    }

    #[test]
    fn merge_shard_outcomes_accepts_the_full_partition() {
        let merged = merge_shard_outcomes(&Sum, vec![outcome(0, (0, 4)), outcome(1, (4, 8))]);
        assert_eq!(merged, 2);
    }

    /// The fallible merge reports each violation as a typed value — the
    /// path the service daemon takes for cache-replayed accumulators.
    #[test]
    fn try_merge_shard_outcomes_reports_typed_errors() {
        assert_eq!(try_merge_shard_outcomes(&Sum, Vec::new()), Err(MergeError::Empty));
        assert_eq!(
            try_merge_shard_outcomes(&Sum, vec![outcome(1, (0, 4))]),
            Err(MergeError::OutOfOrder { shard: 1, previous: None })
        );
        assert_eq!(
            try_merge_shard_outcomes(&Sum, vec![outcome(0, (0, 4)), outcome(2, (4, 8))]),
            Err(MergeError::OutOfOrder { shard: 2, previous: Some(0) })
        );
        assert_eq!(
            try_merge_shard_outcomes(&Sum, vec![outcome(0, (0, 4)), outcome(1, (5, 8))]),
            Err(MergeError::Gap { shard: 1, range: (5, 8), expected_start: 4 })
        );
        assert_eq!(
            try_merge_shard_outcomes(&Sum, vec![outcome(0, (0, 4)), outcome(1, (4, 8))]),
            Ok(2)
        );
    }

    #[test]
    fn cursor_stats_rates_are_well_defined() {
        assert_eq!(CursorStats::default().in_place_rate(), 0.0);
        assert_eq!(CursorStats::default().total(), 0);
        let stats = CursorStats { materialized: 1, stepped: 3, patterns_unranked: 1 };
        assert_eq!(stats.total(), 4);
        assert!((stats.in_place_rate() - 0.75).abs() < 1e-12);
    }
}
