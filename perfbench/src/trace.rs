//! In-memory spans around the public calls of the fold, timing wrappers
//! for the calls too fine-grained for a span each, and the probes that
//! time single layers on the fold's scenario sequence.
//!
//! Spans are recorded per thread and only while [`enable`] is on for that
//! thread; elsewhere (the workers of a traced 2-thread fold) a wrapped
//! call costs one thread-local flag test.  Untraced runs call the public
//! jobs directly and never go through these wrappers.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use knowledge::{AnalysisCache, StructureMemo, ViewAnalysis};
use service::QueryResult;
use set_consensus::{
    BatchRunner, DecisionContext, EarlyFloodMin, FloodMin, Optmin, Protocol, TaskVariant, UPmin,
};
use sweep::experiments::{Thm1Outcome, Thm1Reducer, Thm3Reducer};
use sweep::{
    merge_shard_outcomes, sweep_shards, CursorStats, Reducer, Scenario, ScenarioCursor,
    ScenarioSource, SweepConfig, SweepStats,
};
use synchrony::{ModelError, Node, Run, StructureReuse, Time, Value};

use crate::stats::self_time;
use crate::workload::{fold_cases, Case};

/// Nanoseconds since the first clock read of the process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a span covers, named after the layer it times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Name {
    /// A whole traced fold (the root span).
    Fold,
    /// `ScenarioSource::cursor`: positioning a shard's cursor.
    Cursor,
    /// `ScenarioCursor::next`: producing one scenario.
    Next,
    /// One scenario's job.
    Job,
    /// `BatchRunner::execute_batch_observed` / `execute_one`.
    Batch,
    /// One `CheckScratch::check` call.
    Check,
    /// The Theorem 1 domination loop.
    Dominate,
    /// One `Reducer::fold` call.
    ReduceFold,
    /// `merge_shard_outcomes`.
    Merge,
}

impl Name {
    /// The span's name in the trace file and the report.
    pub fn label(self) -> &'static str {
        match self {
            Name::Fold => "fold",
            Name::Cursor => "adversary.cursor",
            Name::Next => "adversary.next",
            Name::Job => "job",
            Name::Batch => "core.batch",
            Name::Check => "core.check",
            Name::Dominate => "job.dominate",
            Name::ReduceFold => "sweep.fold",
            Name::Merge => "sweep.merge",
        }
    }
}

/// One recorded span.  `key` is the scenario index for per-scenario spans
/// and the shard's first scenario for cursor spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the span covers.
    pub name: Name,
    /// Scenario or shard id.
    pub key: u32,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, nanoseconds since the process epoch.
    pub start: u64,
    /// End, nanoseconds since the process epoch.
    pub end: u64,
}

/// The parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
    // Plain cells for the per-call wrappers, which run millions of times
    // per fold.
    static DECIDE_NS: Cell<u64> = const { Cell::new(0) };
    static DECIDE_CALLS: Cell<u64> = const { Cell::new(0) };
    static OBSERVE_NS: Cell<u64> = const { Cell::new(0) };
    static SHARD_START: Cell<u64> = const { Cell::new(0) };
    static WORKER: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// Starts recording on this thread, dropping anything recorded before.
pub fn enable() {
    take();
    ENABLED.with(|e| e.set(true));
}

/// Stops recording on this thread and hands over what was recorded.
pub fn take() -> Recorded {
    ENABLED.with(|e| e.set(false));
    let recorder = RECORDER.with(|r| std::mem::take(&mut *r.borrow_mut()));
    Recorded {
        spans: recorder.spans,
        decide_ns: DECIDE_NS.with(|c| c.replace(0)),
        decide_calls: DECIDE_CALLS.with(|c| c.replace(0)),
        observe_ns: OBSERVE_NS.with(|c| c.replace(0)),
    }
}

fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

fn add(cell: &'static std::thread::LocalKey<Cell<u64>>, value: u64) {
    cell.with(|c| c.set(c.get() + value));
}

/// Runs `f` inside a span named `name`, nested under the innermost span
/// open on this thread.
pub fn span<R>(name: Name, key: usize, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let id = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        r.spans.push(Span { name, key: key as u32, parent, start: now_ns(), end: 0 });
        r.open.push(id);
        id
    });
    let result = f();
    let end = now_ns();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.open.pop();
        r.spans[id as usize].end = end;
    });
    result
}

/// A [`Protocol`] that times every `decide` of the protocol it wraps.
struct TimedProtocol<'a>(&'a dyn Protocol);

impl Protocol for TimedProtocol<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn decide(&self, ctx: &DecisionContext<'_>) -> Option<Value> {
        let start = now_ns();
        let decision = self.0.decide(ctx);
        add(&DECIDE_NS, now_ns() - start);
        add(&DECIDE_CALLS, 1);
        decision
    }
}

/// `sweep::experiments::thm1_job` with a span around each public call and
/// timing wrappers on `decide` and the Lemma-3 observer.  Its outcome must
/// equal the public job's on every scenario; the benchmark checks that the
/// folds agree bit for bit.
pub fn traced_thm1_job(
    runner: &mut BatchRunner,
    scenario: &Scenario,
) -> Result<Thm1Outcome, ModelError> {
    let index = scenario.index;
    span(Name::Job, index, || {
        let (optmin, early, flood) =
            (TimedProtocol(&Optmin), TimedProtocol(&EarlyFloodMin), TimedProtocol(&FloodMin));
        let protocols: [&dyn Protocol; 3] = [&optmin, &early, &flood];
        let mut outcome = Thm1Outcome::default();
        let case_k = scenario.params.k();
        span(Name::Batch, index, || {
            runner
                .execute_batch_observed(
                    &protocols,
                    &scenario.params,
                    &scenario.adversary,
                    |_, node, analysis, transcripts| {
                        let start = now_ns();
                        let enabled =
                            analysis.is_low(case_k) || analysis.hidden_capacity() < case_k;
                        let decided_by_now = transcripts[0]
                            .decision_time(node.process)
                            .is_some_and(|d| d <= node.time);
                        if enabled != decided_by_now {
                            outcome.structure += 1;
                        }
                        add(&OBSERVE_NS, now_ns() - start);
                        Ok(())
                    },
                )
                .map(|_| ())
        })?;
        let (run, transcripts, checks) = runner.batch_parts();
        for transcript in transcripts {
            outcome.violations += span(Name::Check, index, || {
                checks.check(run, transcript, &scenario.params, TaskVariant::Nonuniform).len()
            }) as u64;
        }
        span(Name::Dominate, index, || {
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
        });
        Ok(outcome)
    })
}

/// `sweep::experiments::thm3_job` with spans and a timed `decide`, under
/// the same bit-identity check as [`traced_thm1_job`].
pub fn traced_thm3_job(
    runner: &mut BatchRunner,
    scenario: &Scenario,
) -> Result<(usize, u32, u64), ModelError> {
    let index = scenario.index;
    span(Name::Job, index, || {
        let upmin = TimedProtocol(&UPmin);
        span(Name::Batch, index, || {
            runner.execute_one(&upmin, &scenario.params, &scenario.adversary).map(|_| ())
        })?;
        let (run, transcripts, checks) = runner.batch_parts();
        let transcript = &transcripts[0];
        let violations = span(Name::Check, index, || {
            checks.check(run, transcript, &scenario.params, TaskVariant::Uniform).len()
        }) as u64;
        let latest = (0..run.n())
            .filter(|&i| run.is_correct(i))
            .filter_map(|i| transcript.decision_time(i).map(Time::value))
            .max()
            .unwrap_or(0);
        Ok((run.num_failures(), latest, violations))
    })
}

/// A source whose cursors are timed: positioning as [`Name::Cursor`], each
/// scenario as [`Name::Next`].  Positioning also stamps the shard's start
/// for the shard timings of parallel folds.
struct TimedSource<'a, S: ?Sized>(&'a S);

impl<S: ScenarioSource + ?Sized> ScenarioSource for TimedSource<'_, S> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn scenario(&self, index: usize) -> Result<Scenario, ModelError> {
        self.0.scenario(index)
    }

    fn structure_block(&self) -> usize {
        self.0.structure_block()
    }

    fn cursor(&self, start: usize, end: usize) -> Box<dyn ScenarioCursor + '_> {
        SHARD_START.with(|s| s.set(now_ns()));
        let inner = span(Name::Cursor, start, || self.0.cursor(start, end));
        Box::new(TimedCursor(inner))
    }
}

struct TimedCursor<'a>(Box<dyn ScenarioCursor + 'a>);

impl ScenarioCursor for TimedCursor<'_> {
    fn next(&mut self, scratch: &mut Option<Scenario>) -> Result<bool, ModelError> {
        span(Name::Next, 0, || self.0.next(scratch))
    }

    fn stats(&self) -> CursorStats {
        self.0.stats()
    }
}

/// A reducer whose `fold` calls are spans.
struct TimedReducer<'a, R>(&'a R);

impl<R: Reducer> Reducer for TimedReducer<'_, R> {
    type Item = R::Item;
    type Acc = R::Acc;

    fn empty(&self) -> R::Acc {
        self.0.empty()
    }

    fn fold(&self, acc: &mut R::Acc, item: R::Item) {
        span(Name::ReduceFold, 0, || self.0.fold(acc, item));
    }

    fn merge(&self, left: R::Acc, right: R::Acc) -> R::Acc {
        self.0.merge(left, right)
    }
}

/// When one shard of a parallel fold ran, and on which worker.
#[derive(Debug, Clone, Copy)]
pub struct ShardTiming {
    /// The worker thread's id, unique within the process.
    pub worker: u32,
    /// Case index within the fold.
    pub case: usize,
    /// Start, nanoseconds since the process epoch.
    pub start: u64,
    /// End, nanoseconds since the process epoch.
    pub end: u64,
}

fn worker_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    WORKER.with(|w| {
        if w.get() == u32::MAX {
            w.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        w.get()
    })
}

/// One case through the wrapped source, job and reducer, shard by shard.
fn traced_case<S, R, F>(
    source: &S,
    reducer: &R,
    job: F,
    threads: usize,
    case: usize,
    shards: &Mutex<Vec<ShardTiming>>,
) -> Result<(R::Acc, SweepStats), ModelError>
where
    S: ScenarioSource,
    R: Reducer,
    F: Fn(&mut BatchRunner, &Scenario) -> Result<R::Item, ModelError> + Sync,
{
    let config = SweepConfig { threads, ..SweepConfig::default() };
    let timed = TimedReducer(reducer);
    let (outcomes, stats) = sweep_shards(
        &TimedSource(source),
        &config,
        &timed,
        job,
        |_, _| None,
        |_| {
            let end = now_ns();
            let timing =
                ShardTiming { worker: worker_id(), case, start: SHARD_START.with(Cell::get), end };
            shards.lock().expect("shard timing lock").push(timing);
        },
    )?;
    let acc = span(Name::Merge, case, || merge_shard_outcomes(&timed, outcomes));
    Ok((acc, stats))
}

/// A fold run through the timing wrappers.
#[derive(Debug)]
pub struct TracedFold {
    /// The folded rows.
    pub fold: QueryResult,
    /// The engine counters.
    pub stats: SweepStats,
    /// Wall time of the whole fold, nanoseconds.
    pub wall_ns: u64,
    /// Every shard's timing.
    pub shards: Vec<ShardTiming>,
}

/// Folds `cases` at `threads` through the traced jobs, source and reducer.
/// Spans are recorded only on threads that called [`enable`]; at one
/// thread that is the whole fold.
///
/// # Errors
///
/// Propagates model errors from the engine.
pub fn traced_fold(cases: &[Case], threads: usize) -> Result<TracedFold, ModelError> {
    let shards = Mutex::new(Vec::new());
    let start = now_ns();
    let (fold, stats) = span(Name::Fold, 0, || {
        fold_cases(
            cases,
            |case, source| {
                traced_case(source, &Thm1Reducer, traced_thm1_job, threads, case, &shards)
            },
            |case, source| {
                traced_case(source, &Thm3Reducer, traced_thm3_job, threads, case, &shards)
            },
        )
    })?;
    let wall_ns = now_ns() - start;
    Ok(TracedFold { fold, stats, wall_ns, shards: shards.into_inner().expect("shard timing lock") })
}

/// What one thread recorded between [`enable`] and [`take`].
#[derive(Debug, Default)]
pub struct Recorded {
    /// Every span, parents before children.
    pub spans: Vec<Span>,
    /// Time inside `Protocol::decide`, nanoseconds.
    pub decide_ns: u64,
    /// Number of `Protocol::decide` calls.
    pub decide_calls: u64,
    /// Time inside the Lemma-3 observer, nanoseconds.
    pub observe_ns: u64,
}

/// Per-name totals derived from a span list.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Number of spans.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus children), nanoseconds.
    pub self_ns: u64,
}

impl Recorded {
    /// Totals and self times per span name.
    pub fn totals(&self) -> BTreeMap<Name, Totals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                children[span.parent as usize].push((span.start, span.end));
            }
        }
        let mut totals: BTreeMap<Name, Totals> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&children) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.end - span.start;
            entry.self_ns += self_time((span.start, span.end), kids);
        }
        totals
    }

    /// The share of the root span's wall that its direct children — the
    /// calls on the fold's blocking path — account for.
    pub fn coverage(&self) -> f64 {
        let Some((root_index, root)) =
            self.spans.iter().enumerate().find(|(_, s)| s.parent == NO_PARENT)
        else {
            return 0.0;
        };
        let wall = root.end - root.start;
        let covered = wall - {
            let kids: Vec<(u64, u64)> = self
                .spans
                .iter()
                .filter(|s| s.parent == root_index as u32)
                .map(|s| (s.start, s.end))
                .collect();
            self_time((root.start, root.end), &kids)
        };
        covered as f64 / wall.max(1) as f64
    }

    /// Writes every span as one tab-separated line; a span's id is its
    /// line number after the header, starts are relative to the first
    /// span's.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let origin = self.spans.first().map_or(0, |s| s.start);
        let mut out = BufWriter::new(fs::File::create(path)?);
        writeln!(out, "name\tkey\tparent\tstart_ns\tdur_ns")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            let (start, dur) = (s.start - origin, s.end - s.start);
            writeln!(out, "{}\t{}\t{parent}\t{start}\t{dur}", s.name.label(), s.key)?;
        }
        out.flush()
    }
}

/// Single-layer timings over a fold's scenario sequence, measured on
/// benchmark-owned state beside the engine rather than inside it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Probe {
    /// `Run::regenerate_with` over every scenario, nanoseconds.
    pub simulate_ns: u64,
    /// `ViewAnalysis::new` on the active nodes of each simulated
    /// structure, nanoseconds.
    pub construct_ns: u64,
    /// `StructureMemo::analyze` on the active nodes of each reused
    /// structure, nanoseconds.
    pub recomplete_ns: u64,
}

/// Walks every case's scenarios in order through one `Run`, timing
/// simulation, fresh analysis construction and memo recompletion.
///
/// # Errors
///
/// Propagates model errors.
pub fn probe(cases: &[Case]) -> Result<Probe, ModelError> {
    let mut probe = Probe::default();
    let cache = AnalysisCache::new();
    let mut memo = StructureMemo::new();
    let mut run: Option<Run> = None;
    for case in cases {
        let source: &dyn ScenarioSource = match case {
            Case::Thm1 { source, .. } => source,
            Case::Thm3 { source, .. } => source,
        };
        let mut cursor = source.cursor(0, source.len());
        let mut scratch = None;
        while cursor.next(&mut scratch)? {
            let scenario = scratch.as_ref().expect("the cursor just yielded a scenario");
            let (system, horizon) = (scenario.params.system(), scenario.params.horizon());
            let start = now_ns();
            let reuse = match run.as_mut() {
                Some(run) => run.regenerate_with(system, &scenario.adversary, horizon, true)?,
                None => {
                    run = Some(Run::generate(system, scenario.adversary.clone(), horizon)?);
                    StructureReuse::Simulated
                }
            };
            probe.simulate_ns += now_ns() - start;
            let run = run.as_ref().expect("the run was just simulated");
            if reuse == StructureReuse::Simulated {
                memo.invalidate();
            }
            // One clock pair per scenario: every active node of it is
            // either constructed afresh or recompleted.
            let start = now_ns();
            for m in 0..=run.horizon().index() {
                for i in 0..run.n() {
                    let node = Node::new(i, Time::new(m as u32));
                    if !run.is_active(i, node.time) {
                        continue;
                    }
                    match reuse {
                        StructureReuse::Simulated => {
                            black_box(ViewAnalysis::new(run, node)?);
                        }
                        StructureReuse::Reused => {
                            black_box(memo.analyze(&cache, run, node)?);
                        }
                    }
                }
            }
            match reuse {
                StructureReuse::Simulated => probe.construct_ns += now_ns() - start,
                StructureReuse::Reused => probe.recomplete_ns += now_ns() - start,
            }
        }
    }
    Ok(probe)
}
