//! The daemon phase: in-process `service::Server`s on temporary Unix
//! sockets, driven by one closed-loop client.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use service::{client, worker, Endpoint, JobOutcome, JobSpec, QueryResult, ServeOptions, Server};
use service::{ServiceError, WorkerOptions};
use telemetry::{MetricsSnapshot, Registry};

use crate::workload::{DaemonPlan, Temperature};

fn err(context: &str) -> impl Fn(ServiceError) -> String + '_ {
    move |e| format!("{context}: {e}")
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1000.0
}

/// A scratch directory under the working directory, removed on drop.
///
/// Socket paths are kept relative and short: a Unix socket path may hold
/// at most 107 bytes, and the checkout may sit deep in the file system.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    /// Creates `.bench_tmp/<pid>`, emptying any leftover of the same pid.
    pub fn new() -> Result<Scratch, String> {
        let root = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).map_err(|e| format!("creating {}: {e}", root.display()))?;
        Ok(Scratch { root, next: 0 })
    }

    /// A fresh, empty directory for one daemon's socket and cache.
    pub fn fresh(&mut self) -> Result<PathBuf, String> {
        self.next += 1;
        let dir = self.root.join(self.next.to_string());
        fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
        let _ = fs::remove_dir(".bench_tmp");
    }
}

/// A running daemon with a durable cache in its directory.
#[derive(Debug)]
pub struct Daemon {
    endpoint: Endpoint,
    server: JoinHandle<Result<(), ServiceError>>,
}

impl Daemon {
    /// Binds a daemon with `workers` pool workers on `dir/d.sock`, its
    /// cache in `dir/cache` (recovered if present) and a private metrics
    /// registry, and starts serving on a thread of its own.
    pub fn start(dir: &Path, workers: usize) -> Result<Daemon, String> {
        let mut options = ServeOptions::new(Endpoint::Unix(dir.join("d.sock")), workers);
        options.cache_dir = Some(dir.join("cache"));
        options.metrics = Some(Arc::new(Registry::new()));
        let server = Server::bind(&options).map_err(err("binding the daemon"))?;
        let endpoint = server.endpoint().clone();
        Ok(Daemon { endpoint, server: thread::spawn(move || server.run()) })
    }

    /// Sends one job and waits for its result.
    pub fn submit(&self, job: &JobSpec) -> Result<JobOutcome, String> {
        client::submit(&self.endpoint, job).map_err(|e| format!("job {}: {e}", job.id))
    }

    /// The daemon's metrics snapshot.
    pub fn stats(&self) -> Result<MetricsSnapshot, String> {
        client::stats(&self.endpoint).map_err(err("reading daemon stats"))
    }

    /// Shuts the daemon down gracefully and joins its thread.
    pub fn stop(self) -> Result<(), String> {
        client::shutdown(&self.endpoint).map_err(err("shutting the daemon down"))?;
        match self.server.join() {
            Ok(result) => result.map_err(err("daemon")),
            Err(_) => Err("the daemon thread panicked".to_owned()),
        }
    }
}

/// Everything the daemon phase measured.
#[derive(Debug, Default)]
pub struct DaemonRun {
    /// Round trip of the first job on each fresh daemon, ms.
    pub first_ms: Vec<f64>,
    /// Round trips of the cold series jobs, ms.
    pub cold_ms: Vec<f64>,
    /// Round trips of the warm series jobs, ms.
    pub warm_ms: Vec<f64>,
    /// Bind on the populated cache up to the first warm reply, ms.
    pub restart_ms: Vec<f64>,
    /// Round trips of the fleet jobs, ms.
    pub fleet_ms: Vec<f64>,
    /// Server wall (`JobOutcome::wall_ms`) of every series job, ms.
    pub server_wall_ms: Vec<f64>,
    /// Round trip minus server wall of every series job, us.
    pub client_overhead_us: Vec<f64>,
    /// Shards the fleet jobs ran on remote workers.
    pub shards_remote: u64,
    /// The first job's full outcome (its shard frames feed the wire probe).
    pub first_outcome: Option<JobOutcome>,
    /// Series-daemon metrics, summed over its restarts: counters and
    /// gauges from each instance's last snapshot, histograms from the
    /// snapshot with the most series jobs.
    pub snapshots: Vec<MetricsSnapshot>,
    /// Every job sent and the result it got, for the correctness gate.
    pub results: Vec<(JobSpec, QueryResult)>,
    /// Jobs whose cache behaviour was not the planned one.
    pub misbehaved: Vec<String>,
}

impl DaemonRun {
    fn expect(&mut self, job: &JobSpec, out: &JobOutcome, want: Temperature) {
        let ok = match want {
            Temperature::Warm => out.shards_cached == out.shards_total && out.stats.scenarios == 0,
            Temperature::Cold => out.shards_executed == out.shards_total && out.shards_cached == 0,
        };
        if !ok {
            self.misbehaved.push(format!(
                "job {} expected {want:?}: {} of {} shards cached",
                job.id, out.shards_cached, out.shards_total
            ));
        }
    }
}

/// One client's session with the series daemon, plus the fresh daemons
/// whose first job it times.
///
/// The phases are methods so a run can interleave them with in-process
/// folds: noise on a shared machine comes in bursts, and spreading every
/// metric's samples over the whole run keeps one burst from moving one
/// metric alone.
pub struct Session<'a> {
    scratch: &'a mut Scratch,
    plan: &'a DaemonPlan,
    workers: usize,
    dir: PathBuf,
    daemon: Option<Daemon>,
    fleet: Vec<JoinHandle<Result<(), ServiceError>>>,
    next_series: usize,
    ids: std::ops::RangeFrom<u64>,
    run: DaemonRun,
}

impl<'a> Session<'a> {
    /// Starts the series daemon on a fresh cache and times the plan's
    /// first job on it, which populates the cache for later warm replays.
    pub fn start(
        scratch: &'a mut Scratch,
        plan: &'a DaemonPlan,
        workers: usize,
    ) -> Result<Self, String> {
        let dir = scratch.fresh()?;
        let daemon = Daemon::start(&dir, workers)?;
        let mut session = Session {
            scratch,
            plan,
            workers,
            dir,
            daemon: Some(daemon),
            fleet: Vec::new(),
            next_series: 0,
            ids: 1_000_000..,
            run: DaemonRun::default(),
        };
        let job = plan.first.clone();
        let start = Instant::now();
        let out = session.daemon()?.submit(&job)?;
        session.run.first_ms.push(ms_since(start));
        session.run.expect(&job, &out, Temperature::Cold);
        session.run.results.push((job, out.result.clone()));
        session.run.first_outcome = Some(out);
        Ok(session)
    }

    fn daemon(&self) -> Result<&Daemon, String> {
        self.daemon.as_ref().ok_or_else(|| "the series daemon is down".to_owned())
    }

    /// A repeat of `job` under a fresh id.
    fn again(&mut self, job: &JobSpec) -> JobSpec {
        JobSpec { id: self.ids.next().expect("ids never run out"), ..job.clone() }
    }

    /// Times the plan's first job on a daemon of its own, started on a
    /// fresh cache and stopped afterwards.
    pub fn first_job_on_fresh_daemon(&mut self) -> Result<(), String> {
        let fresh = Daemon::start(&self.scratch.fresh()?, self.workers)?;
        let plan = self.plan;
        let job = self.again(&plan.first);
        let start = Instant::now();
        let out = fresh.submit(&job);
        self.run.first_ms.push(ms_since(start));
        fresh.stop()?;
        let out = out?;
        self.run.expect(&job, &out, Temperature::Cold);
        self.run.results.push((job, out.result));
        Ok(())
    }

    /// Sends the next `count` jobs of the plan's series, one at a time.
    pub fn series(&mut self, count: usize) -> Result<(), String> {
        let end = (self.next_series + count).min(self.plan.series.len());
        for index in self.next_series..end {
            let (temperature, job) = &self.plan.series[index];
            let temperature = *temperature;
            let start = Instant::now();
            let out = self.daemon()?.submit(job)?;
            let round_trip = ms_since(start);
            match temperature {
                Temperature::Warm => self.run.warm_ms.push(round_trip),
                Temperature::Cold => self.run.cold_ms.push(round_trip),
            }
            self.run.server_wall_ms.push(out.wall_ms);
            self.run.client_overhead_us.push((round_trip - out.wall_ms) * 1000.0);
            self.run.expect(job, &out, temperature);
            self.run.results.push((job.clone(), out.result));
        }
        self.next_series = end;
        Ok(())
    }

    /// Whether every series job has been sent.
    pub fn series_done(&self) -> bool {
        self.next_series == self.plan.series.len()
    }

    /// Stops the series daemon (its fleet workers exit with it) and
    /// joins everything it ran.
    fn stop(&mut self) -> Result<(), String> {
        let Some(daemon) = self.daemon.take() else { return Ok(()) };
        self.run.snapshots.push(daemon.stats()?);
        let stopped = daemon.stop();
        for handle in self.fleet.drain(..) {
            match handle.join() {
                Ok(result) => result.map_err(err("fleet worker"))?,
                Err(_) => return Err("a fleet worker panicked".to_owned()),
            }
        }
        stopped
    }

    /// Shuts the series daemon down and restarts it on the same cache
    /// directory, which also ends its fleet workers; a `timed` restart
    /// records the time from bind up to the first warm reply.
    pub fn restart(&mut self, timed: bool) -> Result<(), String> {
        self.stop()?;
        let plan = self.plan;
        let job = self.again(&plan.first);
        let start = Instant::now();
        self.daemon = Some(Daemon::start(&self.dir, self.workers)?);
        let out = self.daemon()?.submit(&job)?;
        if timed {
            self.run.restart_ms.push(ms_since(start));
        }
        self.run.expect(&job, &out, Temperature::Warm);
        self.run.results.push((job, out.result));
        Ok(())
    }

    /// Registers `workers` in-process fleet workers with the series
    /// daemon, unless they already are, and times one job with the shard
    /// cache bypassed, so every shard goes through a lease.  The workers
    /// stay until the daemon stops.
    pub fn fleet_job(&mut self) -> Result<(), String> {
        if self.fleet.is_empty() {
            let endpoint = self.daemon()?.endpoint.clone();
            for _ in 0..self.workers {
                let options = WorkerOptions::new(endpoint.clone());
                self.fleet.push(thread::spawn(move || worker::run(&options)));
            }
            let deadline = Instant::now() + Duration::from_secs(30);
            while self.daemon()?.stats()?.gauge("fleet.workers").unwrap_or(0) < self.workers as i64
            {
                if Instant::now() > deadline {
                    return Err("the fleet workers did not register within 30 s".to_owned());
                }
                thread::sleep(Duration::from_millis(2));
            }
        }
        let plan = self.plan;
        let job = self.again(&plan.fleet);
        let start = Instant::now();
        let out = self.daemon()?.submit(&job)?;
        self.run.fleet_ms.push(ms_since(start));
        self.run.shards_remote += out.shards_remote;
        self.run.expect(&job, &out, Temperature::Cold);
        self.run.results.push((job, out.result));
        Ok(())
    }

    /// Stops the series daemon and hands over the measurements.
    pub fn finish(mut self) -> Result<DaemonRun, String> {
        self.stop()?;
        Ok(std::mem::take(&mut self.run))
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        // A session abandoned on an error still stops its daemon, so no
        // thread outlives the run's report.
        let _ = self.stop();
    }
}

/// A daemon job's identity for the in-process reference: everything but
/// its id and cache flag.
fn job_key(job: &JobSpec) -> String {
    format!("{} {:?} {}", job.query.name(), job.scope, job.seed)
}

/// Checks every daemon result against its in-process reference, computed
/// once per distinct job by `reference`.  Returns the number of results
/// checked and a description of each mismatch.
pub fn check_results(
    results: &[(JobSpec, QueryResult)],
    mut reference: impl FnMut(&JobSpec) -> Result<QueryResult, String>,
) -> (u64, Vec<String>) {
    let mut known: BTreeMap<String, Result<QueryResult, String>> = BTreeMap::new();
    let mut mismatches = Vec::new();
    for (job, result) in results {
        let want = known.entry(job_key(job)).or_insert_with(|| reference(job));
        match want {
            Ok(want) if want == result => {}
            Ok(_) => mismatches.push(format!(
                "job {} ({}) differs from its in-process fold",
                job.id,
                job_key(job)
            )),
            Err(e) => mismatches.push(format!("job {}: no reference: {e}", job.id)),
        }
    }
    (results.len() as u64, mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use service::QueryKind;
    use sweep::experiments::Thm1Case;

    #[test]
    fn a_daemon_result_that_differs_from_its_reference_is_rejected() {
        let row = |violations| Thm1Case {
            n: 3,
            t: 1,
            k: 1,
            adversaries: 200,
            correctness_violations: violations,
            beaten_by: 0,
            structure_violations: 0,
        };
        let job = |id| JobSpec {
            id,
            query: QueryKind::Thm1,
            scope: None,
            shards: 0,
            seed: 0,
            shard_cache: true,
        };
        let good = QueryResult::Thm1(vec![row(0)]);
        let perturbed = QueryResult::Thm1(vec![row(1)]);
        let mut references = 0;
        let results = [(job(1), good.clone()), (job(2), perturbed), (job(3), good.clone())];
        let (checked, mismatches) = check_results(&results, |_| {
            references += 1;
            Ok(good.clone())
        });
        assert_eq!((checked, references), (3, 1), "one reference per distinct job");
        assert_eq!(mismatches.len(), 1);
        assert!(mismatches[0].starts_with("job 2 "), "{mismatches:?}");
    }
}
