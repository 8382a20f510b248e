//! The repository's benchmark: one command that runs a workload, checks
//! every result, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <thm1-exhaustive|random-uniform|daemon-mix> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run it from the repository root: the daemon's sockets and caches live
//! under `.bench_tmp/` and the trace under `.bench_out/`.  The last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are a
//! human-readable report.  `--trace 0` measures the end-to-end metrics
//! with tracing off; `--trace 1` is a separate traced run that reports the
//! per-layer metrics.  See `README.md` beside this file for what each
//! workload and metric means.

mod daemon;
mod machine;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use service::wire::{decode_line, encode_line, Frame};
use service::{JobSpec, QueryKind, QueryResult};
use sweep::SweepStats;

use crate::daemon::{DaemonRun, Scratch, Session};
use crate::stats::{median, percentile, tail_percentile};
use crate::workload::{Workload, SERIES_JOBS};

/// The seed of the pinned tables, used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1605;

/// Daemon starts timed as the benchmark's set-up; the median is reported.
const SETUP_REPS: usize = 15;

/// Rounds of an untraced run.  Each round times one first job on a fresh
/// daemon and one fleet job besides its share of the job series, and
/// repeats in-process folds for its share of the time budget.
const ROUNDS: usize = 8;

/// Timed restarts of the series daemon at the end of an untraced run.
const RESTARTS: usize = 15;

/// Most 1- and 2-thread fold pairs in one round.
const MAX_FOLDS_PER_ROUND: usize = 5;

/// Share of `--seconds` spent on repeated in-process folds; the daemon
/// samples have fixed counts.
const IN_PROCESS_SHARE: f64 = 0.5;

/// Timed folds of each kind in a traced run.
const TRACE_FOLDS: usize = 3;

/// Daemon-phase sizes of a traced run.
const TRACE_SERIES_JOBS: usize = 20;

/// Repetitions of the wire re-encoding probe (the median pass is kept).
const WIRE_PASSES: usize = 21;

/// The minimum share of the traced wall the blocking-path spans must
/// account for.
const MIN_COVERAGE: f64 = 0.9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <thm1-exhaustive|random-uniform|daemon-mix> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 20.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected a number of seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Counts operations and their failures; every failure is also reported.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            println!("FAILED {what}: {e}");
        }
    }

    fn same<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: &T, want: &T) {
        let outcome = if got == want { Ok(()) } else { Err(format!("{got:?} != {want:?}")) };
        self.check(what, outcome);
    }
}

/// The named metrics of one run, in print order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The daemon logs every job at info level; only problems are of
    // interest here.
    telemetry::log::set_level(telemetry::log::Level::Warn);
    let steal_before = machine::steal_ticks();
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let started = Instant::now();
    let outcome = if args.trace {
        traced(&args, &mut tally, &mut metrics)
    } else {
        untraced(&args, &mut tally, &mut metrics)
    };
    if let Err(e) = &outcome {
        tally.attempted += 1;
        tally.failed += 1;
        println!("FAILED run: {e}");
    }
    let steal = match (steal_before, machine::steal_ticks()) {
        (Ok(before), Ok(after)) => (after - before).to_string(),
        _ => "unavailable".to_owned(),
    };
    println!(
        "machine: nproc {}, {}, {steal} steal ticks over the run; workload {} seed {} \
         trace {}; {:.1} s",
        machine::nproc(),
        machine::rustc_version(),
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        started.elapsed().as_secs_f64()
    );
    let correct = outcome.is_ok() && tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.json()
    );
    ExitCode::SUCCESS
}

/// The end-to-end run: tracing off.
fn untraced(args: &Args, tally: &mut Tally, metrics: &mut Metrics) -> Result<(), String> {
    let workers = machine::nproc();
    let mut scratch = Scratch::new()?;

    // Set-up: build the workload's inputs and bring a daemon up on a
    // fresh cache until it answers.
    let mut setup_s = Vec::new();
    let mut cases = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        cases = workload::cases(args.workload, args.seed).map_err(|e| e.to_string())?;
        let daemon = daemon::Daemon::start(&scratch.fresh()?, workers)?;
        daemon.stats()?;
        setup_s.push(start.elapsed().as_secs_f64());
        daemon.stop()?;
    }

    // One untimed fold warms up and pins the reference; then rounds
    // interleave timed 1- and 2-thread folds with the daemon samples.
    let (reference, reference_stats) = workload::fold(&cases, 1).map_err(|e| e.to_string())?;
    tally.check("in-process fold gate", workload::gate(&reference));
    let plan = workload::plan(args.workload, args.seed, SERIES_JOBS);
    let mut session = Session::start(&mut scratch, &plan, workers)?;
    let (mut walls_1t, mut walls_2t, mut cpu_1t) = (Vec::new(), Vec::new(), Vec::new());
    let round_budget = args.seconds * IN_PROCESS_SHARE / ROUNDS as f64;
    for round in 0..ROUNDS {
        let phase = Instant::now();
        for pairs in 1..=MAX_FOLDS_PER_ROUND {
            let cpu = machine::process_cpu_ms()?;
            let start = Instant::now();
            let (fold, stats) = workload::fold(&cases, 1).map_err(|e| e.to_string())?;
            walls_1t.push(start.elapsed().as_secs_f64() * 1000.0);
            cpu_1t.push(machine::process_cpu_ms()? - cpu);
            tally.same("1-thread fold", &fold, &reference);
            tally.same("1-thread engine counters", &stats, &reference_stats);

            let start = Instant::now();
            let (fold, _) = workload::fold(&cases, 2).map_err(|e| e.to_string())?;
            walls_2t.push(start.elapsed().as_secs_f64() * 1000.0);
            tally.same("2-thread fold", &fold, &reference);
            // Stop before a pair that would overrun the round's budget.
            let spent = phase.elapsed().as_secs_f64();
            if spent * (pairs + 1) as f64 / pairs as f64 > round_budget {
                break;
            }
        }
        if round > 0 {
            session.first_job_on_fresh_daemon()?;
            // Drops the previous round's fleet workers.
            session.restart(false)?;
        }
        session.series(plan.series.len().div_ceil(ROUNDS))?;
        session.fleet_job()?;
    }
    assert!(session.series_done(), "the rounds send the whole series");
    // Restarts are timed once the cache holds the whole series, so every
    // sample recovers the same store.
    for _ in 0..RESTARTS {
        session.restart(true)?;
    }
    let run = session.finish()?;
    println!(
        "in-process folds: {} per thread count; 1 thread median {:.1} ms (q1 {:.1}, q3 {:.1}); \
         2 threads median {:.1} ms (q1 {:.1}, q3 {:.1})",
        walls_1t.len(),
        median(&walls_1t),
        percentile(&walls_1t, 25.0),
        percentile(&walls_1t, 75.0),
        median(&walls_2t),
        percentile(&walls_2t, 25.0),
        percentile(&walls_2t, 75.0),
    );
    println!("engine counters (1 thread, repeat exactly): {}", reference_stats.stats_line());
    check_daemon(tally, &run, &reference, args.workload);
    report_daemon(&run);

    let series_tail = tail_percentile(SERIES_JOBS).expect("a series is long enough for a tail");
    assert_eq!(series_tail, 90.0, "the *_p90 metrics need a series the tail rule reports at p90");
    let ok_frac = (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64;
    metrics.put("setup_s", median(&setup_s), "s");
    metrics.put("fold_ms_1t", median(&walls_1t), "ms");
    metrics.put("fold_ms_2t", median(&walls_2t), "ms");
    metrics.put("cpu_ms_1t", cpu_1t.iter().sum::<f64>() / cpu_1t.len() as f64, "ms");
    metrics.put("peak_rss_mb", machine::peak_rss_mb()?, "MiB");
    metrics.put("ok_frac", ok_frac, "ratio");
    metrics.put("daemon_first_job_ms", median(&run.first_ms), "ms");
    metrics.put("cold_job_ms_p50", median(&run.cold_ms), "ms");
    metrics.put("cold_job_ms_p90", percentile(&run.cold_ms, series_tail), "ms");
    metrics.put("warm_job_ms_p50", median(&run.warm_ms), "ms");
    metrics.put("warm_job_ms_p90", percentile(&run.warm_ms, series_tail), "ms");
    metrics.put("restart_ms", median(&run.restart_ms), "ms");
    metrics.put("fleet_job_ms", median(&run.fleet_ms), "ms");
    Ok(())
}

/// The correctness gate on the daemon phase: every job had its planned
/// cache behaviour, and every result equals the in-process fold.
fn check_daemon(tally: &mut Tally, run: &DaemonRun, fold: &QueryResult, workload: Workload) {
    for problem in &run.misbehaved {
        tally.check("daemon job cache behaviour", Err(problem.clone()));
    }
    let (checked, mismatches) = daemon::check_results(&run.results, |job: &JobSpec| {
        // The in-process fold is the reference of the full Theorem 1 job.
        if workload.folds_thm1() && job.query == QueryKind::Thm1 && job.scope.is_none() {
            return Ok(fold.clone());
        }
        workload::reference(job, machine::nproc()).map_err(|e| e.to_string())
    });
    tally.attempted += checked - mismatches.len() as u64;
    for mismatch in mismatches {
        tally.check("daemon fold equals in-process fold", Err(mismatch));
    }
}

fn report_daemon(run: &DaemonRun) {
    let describe = |name: &str, v: &[f64]| {
        if v.is_empty() {
            return format!("{name}: none");
        }
        let tail = tail_percentile(v.len())
            .map_or(String::new(), |p| format!(", p{p} {:.2}", percentile(v, p)));
        format!(
            "{name}: n {}, first {:.2}, median {:.2}{tail}, max {:.2} ms",
            v.len(),
            v[0],
            median(v),
            percentile(v, 100.0)
        )
    };
    for (name, values) in [
        ("first job on a fresh daemon", &run.first_ms),
        ("cold jobs", &run.cold_ms),
        ("warm jobs", &run.warm_ms),
        ("restart to first warm reply", &run.restart_ms),
        ("fleet jobs", &run.fleet_ms),
    ] {
        println!("{}", describe(name, values));
    }
}

/// The per-layer run: spans, timing wrappers and probes.
fn traced(args: &Args, tally: &mut Tally, metrics: &mut Metrics) -> Result<(), String> {
    let workers = machine::nproc();
    let cases = workload::cases(args.workload, args.seed).map_err(|e| e.to_string())?;
    let (reference, reference_stats) = workload::fold(&cases, 1).map_err(|e| e.to_string())?;
    tally.check("in-process fold gate", workload::gate(&reference));

    // Untraced and traced 1-thread folds, alternated.
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut recorded = trace::Recorded::default();
    let mut traced_stats = SweepStats::default();
    for _ in 0..TRACE_FOLDS {
        let start = Instant::now();
        let (fold, _) = workload::fold(&cases, 1).map_err(|e| e.to_string())?;
        untraced_ms.push(start.elapsed().as_secs_f64() * 1000.0);
        tally.same("untraced fold", &fold, &reference);

        trace::enable();
        let traced = trace::traced_fold(&cases, 1);
        recorded = trace::take();
        let traced = traced.map_err(|e| e.to_string())?;
        traced_ms.push(ms(traced.wall_ns));
        tally.same("traced fold is bit-identical to the untraced fold", &traced.fold, &reference);
        tally.same("traced engine counters", &traced.stats, &reference_stats);
        traced_stats = traced.stats;
    }
    let coverage = recorded.coverage();
    tally.check(
        "blocking-path spans cover the traced wall",
        if coverage >= MIN_COVERAGE { Ok(()) } else { Err(format!("coverage {coverage:.3}")) },
    );
    let trace_path = format!(".bench_out/trace-{}.tsv", args.workload.name());
    recorded.write(std::path::Path::new(&trace_path)).map_err(|e| format!("{trace_path}: {e}"))?;
    let totals = recorded.totals();
    println!(
        "spans of the last traced 1-thread fold ({} written to {trace_path}):",
        recorded.spans.len()
    );
    for (name, t) in &totals {
        println!(
            "  {:<17} n {:>8}  total {:>10.1} ms  self {:>10.1} ms",
            name.label(),
            t.count,
            ms(t.total_ns),
            ms(t.self_ns)
        );
    }
    let total = |name| totals.get(&name).map_or(0, |t| t.total_ns);
    let self_ns = |name| totals.get(&name).map_or(0, |t| t.self_ns);
    let overhead_ms = median(&traced_ms) - median(&untraced_ms);
    println!(
        "tracing overhead: traced {:.1} ms - untraced {:.1} ms = {overhead_ms:.1} ms; \
         blocking-path coverage {:.1}%",
        median(&traced_ms),
        median(&untraced_ms),
        coverage * 100.0
    );

    // A 2-thread fold through the same wrappers for the shard timings;
    // spans are off on its worker threads.
    let parallel = trace::traced_fold(&cases, 2).map_err(|e| e.to_string())?;
    tally.same("2-thread traced fold", &parallel.fold, &reference);
    let shard_ms: Vec<f64> = parallel.shards.iter().map(|s| ms(s.end - s.start)).collect();
    let tail_idle_ns = tail_idle(&parallel.shards);

    let probe = trace::probe(&cases).map_err(|e| e.to_string())?;

    let plan = workload::plan(args.workload, args.seed, TRACE_SERIES_JOBS);
    let mut scratch = Scratch::new()?;
    let mut session = Session::start(&mut scratch, &plan, workers)?;
    session.series(plan.series.len())?;
    session.fleet_job()?;
    session.fleet_job()?;
    session.restart(true)?;
    let run = session.finish()?;
    check_daemon(tally, &run, &reference, args.workload);
    report_daemon(&run);
    let wire = wire_probe(run.first_outcome.as_ref().ok_or("no first job outcome")?)?;
    tally.check("wire frames decode to themselves", wire.roundtrip.clone());

    let s = &traced_stats;
    let count = |v: u64| v as f64;
    metrics.put(
        "adversary.next_us",
        us(total(trace::Name::Next) + total(trace::Name::Cursor)),
        "us",
    );
    metrics.put("adversary.stepped", count(s.cursor.stepped), "count");
    metrics.put("adversary.materialized", count(s.cursor.materialized), "count");
    metrics.put("adversary.patterns_unranked", count(s.cursor.patterns_unranked), "count");
    metrics.put("synchrony.simulated", count(s.runs.simulated), "count");
    metrics.put("synchrony.reused", count(s.runs.reused), "count");
    metrics.put("synchrony.simulate_us", us(probe.simulate_ns), "us");
    metrics.put("knowledge.lookups", count(s.cache.lookups()), "count");
    metrics.put("knowledge.constructions", count(s.cache.constructions()), "count");
    metrics.put("knowledge.hit_rate", s.cache.hit_rate(), "ratio");
    metrics.put("knowledge.construct_us", us(probe.construct_ns), "us");
    metrics.put("knowledge.recomplete_us", us(probe.recomplete_ns), "us");
    let batch_ns = total(trace::Name::Batch);
    metrics.put("core.batch_us", us(batch_ns), "us");
    metrics.put("core.decide_us", us(recorded.decide_ns), "us");
    metrics.put("core.decide_calls", count(recorded.decide_calls), "count");
    metrics.put("core.check_us", us(total(trace::Name::Check)), "us");
    metrics.put(
        "core.batch_self_us",
        us(batch_ns.saturating_sub(recorded.decide_ns + recorded.observe_ns)),
        "us",
    );
    metrics.put("job.observe_us", us(recorded.observe_ns), "us");
    metrics.put("job.dominate_us", us(total(trace::Name::Dominate)), "us");
    metrics.put("job.self_us", us(self_ns(trace::Name::Job)), "us");
    metrics.put("sweep.fold_us", us(total(trace::Name::ReduceFold)), "us");
    metrics.put("sweep.merge_us", us(total(trace::Name::Merge)), "us");
    metrics.put("sweep.shard_ms_p50", median(&shard_ms), "ms");
    metrics.put("sweep.shard_ms_max", percentile(&shard_ms, 100.0), "ms");
    metrics.put("sweep.tail_idle_ms", ms(tail_idle_ns), "ms");
    metrics.put("trace.fold_ms_untraced", median(&untraced_ms), "ms");
    metrics.put("trace.fold_ms_traced", median(&traced_ms), "ms");
    metrics.put("trace.overhead_ms", overhead_ms, "ms");
    metrics.put("trace.coverage", coverage, "ratio");

    // The series daemon restarts during the run, and each instance keeps
    // its own registry: counters add up over the instances, gauges come
    // from the last one, and each histogram's p50 from the instance that
    // recorded it most often.
    let snapshots = &run.snapshots;
    let last = snapshots.last().ok_or("no daemon snapshot")?;
    let p50 = |name: &str| {
        snapshots
            .iter()
            .filter_map(|s| s.histogram(name))
            .max_by_key(|h| h.count)
            .map_or(0.0, |h| h.p50_us)
    };
    let counter =
        |name: &str| snapshots.iter().map(|s| s.counter(name).unwrap_or(0)).sum::<u64>() as f64;
    let gauge = |name: &str| last.gauge(name).unwrap_or(0) as f64;
    metrics.put("service.server_wall_ms", median(&run.server_wall_ms), "ms");
    metrics.put("service.client_overhead_us", median(&run.client_overhead_us), "us");
    metrics.put("service.wire_encode_us", wire.encode_us, "us");
    metrics.put("service.wire_decode_us", wire.decode_us, "us");
    metrics.put("service.wire_bytes", wire.bytes, "bytes");
    metrics.put("service.queue_wait_us_p50", p50("phase.queue_wait_us"), "us");
    metrics.put("service.dispatch_us_p50", p50("phase.dispatch_us"), "us");
    metrics.put("service.shard_exec_us_p50", p50("phase.shard_exec_us"), "us");
    metrics.put("service.merge_us_p50", p50("phase.merge_us"), "us");
    metrics.put("service.store_append_us_p50", p50("store.append_us"), "us");
    metrics.put("service.cache_hits", counter("cache.replays"), "count");
    metrics.put("service.cache_misses", counter("cache.misses_total"), "count");
    metrics.put("service.store_bytes", gauge("store.bytes"), "bytes");
    metrics.put("service.recovery_us", gauge("store.recovery_us"), "us");
    metrics.put("lease.granted", counter("lease.granted"), "count");
    metrics.put("lease.requeued", counter("lease.requeued"), "count");
    metrics.put("lease.fallbacks", counter("lease.fallbacks"), "count");
    metrics.put("service.shards_remote", count(run.shards_remote), "count");
    Ok(())
}

/// Time the workers of a parallel fold sit idle at its end, summed over
/// the cases: for each worker, from its last shard's end to the case's
/// last shard end.
fn tail_idle(shards: &[trace::ShardTiming]) -> u64 {
    let mut idle = 0;
    let cases = shards.iter().map(|s| s.case).max().map_or(0, |c| c + 1);
    for case in 0..cases {
        let of_case: Vec<_> = shards.iter().filter(|s| s.case == case).collect();
        let end = of_case.iter().map(|s| s.end).max().unwrap_or(0);
        let mut workers: Vec<u32> = of_case.iter().map(|s| s.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        for worker in workers {
            let last =
                of_case.iter().filter(|s| s.worker == worker).map(|s| s.end).max().unwrap_or(end);
            idle += end - last;
        }
    }
    idle
}

/// The daemon codec on one job's shard frames.
struct WireProbe {
    /// Median time to encode every frame, us.
    encode_us: f64,
    /// Median time to decode every frame, us.
    decode_us: f64,
    /// Encoded size of every frame, bytes.
    bytes: f64,
    /// Whether every frame decoded to itself.
    roundtrip: Result<(), String>,
}

/// Re-encodes and decodes a job's shard frames with the daemon's codec.
fn wire_probe(outcome: &service::JobOutcome) -> Result<WireProbe, String> {
    let frames: Vec<Frame> = outcome.shard_frames.iter().cloned().map(Frame::ShardDone).collect();
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    let mut bytes = 0usize;
    let mut roundtrip = Ok(());
    for _ in 0..WIRE_PASSES {
        let start = Instant::now();
        let lines: Vec<String> = frames.iter().map(encode_line).collect();
        encode.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        let decoded: Result<Vec<Frame>, _> = lines.iter().map(|l| decode_line(l)).collect();
        decode.push(start.elapsed().as_secs_f64() * 1e6);
        let decoded = decoded.map_err(|e| format!("decoding a shard frame: {e}"))?;
        if decoded != frames {
            roundtrip = Err("a re-decoded shard frame differs".to_owned());
        }
        bytes = lines.iter().map(String::len).sum();
    }
    Ok(WireProbe {
        encode_us: median(&encode),
        decode_us: median(&decode),
        bytes: bytes as f64,
        roundtrip,
    })
}
