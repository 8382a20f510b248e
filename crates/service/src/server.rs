//! The `sweep serve` daemon: accept loop, bounded job queue, concurrent
//! dispatchers, shard scheduler and result streaming.
//!
//! Thread anatomy (one process):
//!
//! ```text
//!   accept loop (main)  ──spawn──►  connection threads (1 per client)
//!        │                             │ parse line frames; cancel registry
//!        │                             ▼
//!        │                          job queue (bounded sync_channel;
//!        │                           full ⇒ queue-full error frame)
//!        ▼                             │
//!   shutdown flag  ◄──────────  dispatcher threads (N, sharing the queue)
//!                                  │ per case: shard_ranges → warm/cold split
//!                                  │ cold shards ──►  persistent worker pool
//!                                  │                   (fold_shard_stats each)
//!                                  ◄── completions; streams shard-done/partial
//!                                  └─ try_merge_shard_outcomes → job-done
//!                                     (typed error frame on failure)
//! ```
//!
//! Jobs are popped FIFO but up to `dispatchers` of them run concurrently,
//! sharing one worker pool — a long job no longer blocks a warm
//! cache-replay behind it.  *Within* a job, each case's block-aligned
//! shards fan out across the pool and complete in any order.  Determinism
//! is unaffected: accumulators are merged in shard order through
//! `sweep::try_merge_shard_outcomes`, so the streamed final fold is
//! bit-identical to an in-process `sweep::sweep_with_stats` at any worker
//! count, warm or cold — the end-to-end tests pin this.  A failed merge
//! precondition (a gapped or out-of-order partition, e.g. from a forged
//! persisted entry) terminates *that job* with a typed error frame; the
//! daemon itself never panics on cache contents.
//!
//! With a `--cache-dir` (or `--cache-budget`), the shard-accumulator
//! caches route through one shared `store::DurableStore` — persisted,
//! byte-budgeted, LRU-evicted; see `store` for the format and recovery
//! rules.  Shard accumulators are inserted into the store *before* their
//! `shard-done` frame is streamed, so any shard a client observed as done
//! is durably replayable after a crash.
//!
//! **Distributed execution.**  Remote `sweep worker` processes register
//! over the same endpoint (a `register` frame turns the connection into a
//! worker session) and the shard scheduler offers every cold shard to the
//! fleet first, through the [`crate::lease`] table: leases carry TTLs,
//! heartbeats keep workers alive, a dead worker's shard is re-queued with
//! capped backoff, and a shard the fleet cannot finish *falls back* to
//! the local pool — with zero workers registered the daemon behaves
//! exactly as before.  Remote accumulators take the same
//! insert-before-stream path into the cache as local ones, and late
//! duplicate completions are dropped by lease generation, so the merged
//! fold stays bit-identical under any crash schedule.  On TCP endpoints
//! an optional shared-secret `hello` handshake (constant-time compared)
//! gates every connection; Unix sockets are exempt.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use adversary::enumerate::EnumerationConfig;
use adversary::{OmissionConfig, PatternModel};
use set_consensus::BatchRunner;
use sweep::experiments::{
    self, Fig4Acc, Fig4Reducer, Thm1Outcome, Thm1Reducer, Thm3Acc, Thm3Reducer, OMISSION_CASES,
    THM1_CASES, THM3_CASES, THM3_SAMPLES,
};
use sweep::{
    fold_shard_stats, shard_ranges, try_merge_shard_outcomes, MergeError, Reducer, Scenario,
    ScenarioSource, ShardOutcome, SweepConfig, SweepStats,
};
use synchrony::ModelError;

use crate::cache::ShardCache;
use crate::fingerprint::{
    code_version, model_string, omission_scope_string, scope_string, JobFingerprint,
};
use crate::lease::{FleetConfig, LeaseTable, RemoteTask, TaskOutcome};
use crate::net::{Endpoint, Listener, Stream};
use crate::pool::WorkerPool;
use crate::store::{CacheStore, DurableStore};
use crate::wire::{
    self, encode_line, ErrorFrame, ErrorKind, Frame, FrameReader, FromWire, JobDone, JobSpec,
    Partial, QueryKind, QueryResult, ScopeSpec, ShardDone, TaskSpec, ToWire, Value,
};
use crate::ServiceError;
use telemetry::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};

/// Log target of every structured line the daemon emits (`--log-json`
/// routes them through `telemetry::log` as JSON objects; the default human
/// mode prints the historical messages byte-identically).
const LOG_TARGET: &str = "service::server";

/// How the daemon is launched.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Size of the persistent worker pool; `0` picks the machine's
    /// available parallelism.
    pub workers: usize,
    /// Concurrent job dispatchers (jobs running at once); `0` picks
    /// [`ServeOptions::DEFAULT_DISPATCHERS`].
    pub dispatchers: usize,
    /// Bound of the job queue: jobs admitted but not yet dispatched.  A
    /// submit hitting a full queue is rejected with a `queue-full` error
    /// frame instead of growing the queue without bound.  `0` picks
    /// [`ServeOptions::DEFAULT_QUEUE_CAPACITY`].
    pub queue_capacity: usize,
    /// Persist the shard-accumulator cache under this directory
    /// (append-log + snapshot; see `store::DurableStore`).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Byte budget of the shard-accumulator cache (LRU eviction above
    /// it); `None` leaves the cache unbounded.
    pub cache_budget: Option<u64>,
    /// Lease TTL for remote workers in milliseconds: a worker silent for
    /// longer loses its lease (re-queued elsewhere).  `0` picks
    /// [`crate::lease::DEFAULT_LEASE_TTL_MS`].
    pub lease_ttl_ms: u64,
    /// Shared secret required from connections on TCP endpoints (as a
    /// `hello` first frame, constant-time compared).  `None` disables the
    /// handshake; Unix sockets never require it.
    pub auth_token: Option<String>,
    /// Emit a one-line telemetry heartbeat on stderr at this interval
    /// (`sweep serve --stats-interval SECS`); `None` disables it.
    pub stats_interval: Option<Duration>,
    /// Metrics registry the daemon records into.  `None` uses the
    /// process-wide [`telemetry::global`] registry; tests embedding
    /// several daemons in one process inject fresh registries here so
    /// their counters never bleed into each other.
    pub metrics: Option<Arc<Registry>>,
}

impl ServeOptions {
    /// Dispatcher count used when [`ServeOptions::dispatchers`] is `0`.
    pub const DEFAULT_DISPATCHERS: usize = 2;
    /// Queue bound used when [`ServeOptions::queue_capacity`] is `0`.
    pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

    /// Options with every hardening knob at its default: in-memory
    /// unbounded cache, default dispatcher count and queue bound.
    pub fn new(endpoint: Endpoint, workers: usize) -> Self {
        ServeOptions {
            endpoint,
            workers,
            dispatchers: 0,
            queue_capacity: 0,
            cache_dir: None,
            cache_budget: None,
            lease_ttl_ms: 0,
            auth_token: None,
            stats_interval: None,
            metrics: None,
        }
    }
}

/// The protocol sets of each query, in batch order — part of every
/// fingerprint, so a future protocol change cannot replay accumulators
/// folded over a different set.
pub(crate) const THM1_PROTOCOLS: &str = "optmin,earlyfloodmin,floodmin";
const THM3_PROTOCOLS: &str = "upmin";
const FIG4_PROTOCOLS: &str = "upmin,optmin,earlyuniformfloodmin,floodmin";

/// The daemon-lifetime shard-accumulator caches, one typed front per
/// reducer (plus the job-level Proposition 2 report cache), all sharing
/// one optional durable store (the keys embed the query name, so one
/// keyspace holds every type).
#[derive(Debug)]
struct DaemonCaches {
    thm1: ShardCache<Thm1Outcome>,
    omission: ShardCache<Thm1Outcome>,
    thm3: ShardCache<Thm3Acc>,
    fig4: ShardCache<Fig4Acc>,
    prop2: ShardCache<experiments::Prop2Report>,
    store: Option<Arc<DurableStore>>,
}

impl DaemonCaches {
    fn new(store: Option<Arc<DurableStore>>) -> Self {
        fn cache<A: Clone + ToWire + FromWire>(store: &Option<Arc<DurableStore>>) -> ShardCache<A> {
            match store {
                Some(store) => ShardCache::with_store(Arc::clone(store) as Arc<dyn CacheStore>),
                None => ShardCache::new(),
            }
        }
        DaemonCaches {
            thm1: cache(&store),
            omission: cache(&store),
            thm3: cache(&store),
            fig4: cache(&store),
            prop2: cache(&store),
            store,
        }
    }

    /// The `; cache store: …` suffix of the per-job stats line — empty
    /// without a store, the live accounting with one.
    fn store_suffix(&self) -> String {
        match &self.store {
            Some(store) => format!("; cache store: {}", store.accounting()),
            None => String::new(),
        }
    }
}

/// The daemon's recording half of the telemetry subsystem: the registry
/// plus cached hot-path handles (`Registry::counter` takes a lock, so the
/// dispatchers record through these lock-free atomics instead), and the
/// snapshot assembler.
///
/// The registry owns only the metrics that are *new* with telemetry (job
/// counters, phase histograms, queue depth, uptime).  Subsystems that
/// already kept their own counters — the typed shard caches, the lease
/// table, the durable store — are **sampled** into the snapshot at stats
/// time, so nothing is double-counted by mirroring them live.
struct ServerTelemetry {
    registry: Arc<Registry>,
    started: Instant,
    jobs_total: Counter,
    jobs_completed: Counter,
    jobs_failed: Counter,
    shards_cached: Counter,
    shards_executed: Counter,
    shards_remote: Counter,
    engine_scenarios: Counter,
    engine_knowledge_hits: Counter,
    engine_knowledge_misses: Counter,
    engine_runs_simulated: Counter,
    engine_runs_reused: Counter,
    engine_cursor_stepped: Counter,
    engine_cursor_materialized: Counter,
    engine_patterns_unranked: Counter,
    queue_depth: Gauge,
    queue_wait_us: Histogram,
    dispatch_us: Histogram,
    shard_exec_us: Histogram,
    merge_us: Histogram,
    job_us: Histogram,
}

impl ServerTelemetry {
    fn new(registry: Arc<Registry>) -> Self {
        ServerTelemetry {
            started: Instant::now(),
            jobs_total: registry.counter("jobs.total"),
            jobs_completed: registry.counter("jobs.completed"),
            jobs_failed: registry.counter("jobs.failed"),
            shards_cached: registry.counter("jobs.shards_cached"),
            shards_executed: registry.counter("jobs.shards_executed"),
            shards_remote: registry.counter("jobs.shards_remote"),
            engine_scenarios: registry.counter("engine.scenarios"),
            engine_knowledge_hits: registry.counter("engine.knowledge_hits"),
            engine_knowledge_misses: registry.counter("engine.knowledge_misses"),
            engine_runs_simulated: registry.counter("engine.runs_simulated"),
            engine_runs_reused: registry.counter("engine.runs_reused"),
            engine_cursor_stepped: registry.counter("engine.cursor_stepped"),
            engine_cursor_materialized: registry.counter("engine.cursor_materialized"),
            engine_patterns_unranked: registry.counter("engine.patterns_unranked"),
            queue_depth: registry.gauge("queue.depth"),
            queue_wait_us: registry.histogram("phase.queue_wait_us"),
            dispatch_us: registry.histogram("phase.dispatch_us"),
            shard_exec_us: registry.histogram("phase.shard_exec_us"),
            merge_us: registry.histogram("phase.merge_us"),
            job_us: registry.histogram("phase.job_us"),
            registry,
        }
    }

    /// Folds one finished job's summary into the lifetime counters.
    fn absorb_job(&self, summary: &JobSummary) {
        self.shards_cached.add(summary.shards_cached);
        self.shards_executed.add(summary.shards_executed);
        self.shards_remote.add(summary.shards_remote);
        let stats = &summary.stats;
        self.engine_scenarios.add(stats.scenarios);
        self.engine_knowledge_hits.add(stats.cache.hits);
        self.engine_knowledge_misses.add(stats.cache.misses);
        self.engine_runs_simulated.add(stats.runs.simulated);
        self.engine_runs_reused.add(stats.runs.reused);
        self.engine_cursor_stepped.add(stats.cursor.stepped);
        self.engine_cursor_materialized.add(stats.cursor.materialized);
        self.engine_patterns_unranked.add(stats.cursor.patterns_unranked);
    }

    /// Assembles the `stats-result` payload: the registry's own metrics
    /// plus point-in-time samples of the typed shard caches, the durable
    /// store and the lease table.  `cache.replays` — the headline "warm
    /// submits replayed instead of re-executed" number — is the hit sum
    /// across the five typed caches.
    fn snapshot(&self, caches: &DaemonCaches, fleet: &LeaseTable) -> MetricsSnapshot {
        self.registry.gauge("uptime.seconds").set(self.started.elapsed().as_secs() as i64);
        let mut snapshot = self.registry.snapshot();
        let typed: [(&str, u64, u64); 5] = [
            ("thm1", caches.thm1.hits(), caches.thm1.misses()),
            ("omission", caches.omission.hits(), caches.omission.misses()),
            ("thm3", caches.thm3.hits(), caches.thm3.misses()),
            ("fig4", caches.fig4.hits(), caches.fig4.misses()),
            ("prop2", caches.prop2.hits(), caches.prop2.misses()),
        ];
        let mut replays = 0u64;
        let mut misses_total = 0u64;
        for (name, hits, misses) in typed {
            snapshot.push_counter(&format!("cache.{name}.hits"), hits);
            snapshot.push_counter(&format!("cache.{name}.misses"), misses);
            replays += hits;
            misses_total += misses;
        }
        snapshot.push_counter("cache.replays", replays);
        snapshot.push_counter("cache.misses_total", misses_total);
        if let Some(store) = &caches.store {
            let accounting = store.accounting();
            snapshot.push_gauge("store.entries", accounting.entries as i64);
            snapshot.push_gauge("store.bytes", accounting.bytes as i64);
            if let Some(budget) = accounting.budget {
                snapshot.push_gauge("store.budget_bytes", budget as i64);
            }
            snapshot.push_counter("store.evictions", accounting.evictions);
            snapshot.push_counter("store.loaded", accounting.loaded as u64);
            snapshot.push_counter("store.dropped_damaged", accounting.dropped_damaged as u64);
            snapshot.push_counter("store.dropped_stale", accounting.dropped_stale as u64);
            snapshot.push_gauge("store.recovery_us", store.recovery_us() as i64);
            snapshot.histograms.push(store.append_timings().snapshot("store.append_us"));
            snapshot.histograms.push(store.compact_timings().snapshot("store.compact_us"));
            snapshot.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        }
        snapshot.push_counter("lease.granted", fleet.granted_total());
        snapshot.push_counter("lease.completed", fleet.completed_total());
        snapshot.push_counter("lease.expired", fleet.expired_total());
        snapshot.push_counter("lease.requeued", fleet.requeued_total());
        snapshot.push_counter("lease.fallbacks", fleet.fallbacks_total());
        snapshot.push_counter("lease.duplicates", fleet.duplicates_total());
        snapshot.push_gauge("fleet.workers", fleet.live_workers() as i64);
        snapshot.push_gauge("fleet.active_leases", fleet.active_leases() as i64);
        for (worker, age_ms) in fleet.heartbeat_ages_ms(Instant::now()) {
            snapshot.push_gauge(&format!("fleet.worker.{worker}.heartbeat_age_ms"), age_ms as i64);
        }
        snapshot
    }
}

/// How one job failed — each variant maps to a wire [`ErrorKind`], so
/// clients can distinguish a revoked job from a poisoned merge without
/// parsing messages.
#[derive(Debug)]
enum JobError {
    /// The sweep engine rejected the job parameters.
    Model(ModelError),
    /// Cached/fresh accumulators failed the shard-merge preconditions —
    /// the typed, daemon-survivable form of what used to be a worker
    /// panic.
    Merge(MergeError),
    /// The job was revoked by a `cancel` frame.
    Cancelled,
}

impl JobError {
    fn kind(&self) -> ErrorKind {
        match self {
            JobError::Model(_) => ErrorKind::Model,
            JobError::Merge(_) => ErrorKind::Merge,
            JobError::Cancelled => ErrorKind::Cancelled,
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Model(error) => write!(f, "{error}"),
            JobError::Merge(error) => write!(f, "shard merge failed: {error}"),
            JobError::Cancelled => write!(f, "job cancelled"),
        }
    }
}

impl From<ModelError> for JobError {
    fn from(error: ModelError) -> Self {
        JobError::Model(error)
    }
}

/// A queued job: the parsed spec, the submitting connection's writer, and
/// the cancel token the registry can flip.
struct JobTask {
    spec: JobSpec,
    reply: Reply,
    cancel: Arc<AtomicBool>,
    /// When the job was admitted to the queue — the dispatcher that pops
    /// it records the difference as the `phase.queue_wait_us` histogram.
    queued_at: Instant,
}

/// Job id → cancel token of every queued or running job.  Ids are
/// client-chosen; a resubmitted id overwrites the previous token, so
/// clients wanting reliable cancel semantics should keep ids unique.
type CancelRegistry = Arc<Mutex<HashMap<u64, Arc<AtomicBool>>>>;

/// The shared writer of one connection; `shard-done`/`partial`/`job-done`
/// frames of a job go to the connection that submitted it.
type Reply = Arc<Mutex<Stream>>;

/// Sends one frame, reporting whether the client is still connected (a
/// disconnected client never aborts a job — its shards keep warming the
/// cache).
fn send_frame(reply: &Reply, frame: &Frame) -> bool {
    let line = encode_line(frame);
    let mut writer = reply.lock().expect("reply lock");
    writer.write_all(line.as_bytes()).and_then(|_| writer.flush()).is_ok()
}

/// A bound, not-yet-running daemon.
///
/// Splitting [`Server::bind`] from [`Server::run`] lets callers learn the
/// resolved endpoint (TCP port `0`) and move `run` onto its own thread —
/// the shape the end-to-end tests and `sweep serve` both use.
#[derive(Debug)]
pub struct Server {
    listener: Listener,
    endpoint: Endpoint,
    workers: usize,
    dispatchers: usize,
    queue_capacity: usize,
    store: Option<Arc<DurableStore>>,
    fleet_config: FleetConfig,
    auth_token: Option<String>,
    stats_interval: Option<Duration>,
    metrics: Arc<Registry>,
}

impl Server {
    /// Binds the endpoint, resolves the worker/dispatcher counts, and
    /// opens the cache store when one is configured.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (address in use, stale socket file, …) and
    /// cache-directory I/O failures.  Damaged cache *content* is never an
    /// error: the store drops the damage and recovers (see
    /// `store::DurableStore::open`).
    pub fn bind(options: &ServeOptions) -> Result<Server, ServiceError> {
        let listener = Listener::bind(&options.endpoint)?;
        let endpoint = listener.local_endpoint();
        let workers = if options.workers > 0 {
            options.workers
        } else {
            thread::available_parallelism().map(usize::from).unwrap_or(1)
        };
        let dispatchers = if options.dispatchers > 0 {
            options.dispatchers
        } else {
            ServeOptions::DEFAULT_DISPATCHERS
        };
        let queue_capacity = if options.queue_capacity > 0 {
            options.queue_capacity
        } else {
            ServeOptions::DEFAULT_QUEUE_CAPACITY
        };
        let store = match &options.cache_dir {
            Some(dir) => {
                Some(Arc::new(DurableStore::open(dir, options.cache_budget, &code_version())?))
            }
            None => {
                options.cache_budget.map(|budget| Arc::new(DurableStore::in_memory(Some(budget))))
            }
        };
        Ok(Server {
            listener,
            endpoint,
            workers,
            dispatchers,
            queue_capacity,
            store,
            fleet_config: FleetConfig::with_ttl_ms(options.lease_ttl_ms),
            auth_token: options.auth_token.clone(),
            stats_interval: options.stats_interval,
            metrics: options.metrics.clone().unwrap_or_else(telemetry::global),
        })
    }

    /// The endpoint actually bound.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The resolved worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The resolved dispatcher count.
    pub fn dispatchers(&self) -> usize {
        self.dispatchers
    }

    /// Runs the daemon until a client sends a `shutdown` frame, then
    /// finishes every queued job, joins every thread (no orphaned
    /// workers), removes a Unix socket file, and returns.
    ///
    /// # Errors
    ///
    /// Currently infallible after a successful bind — transient accept
    /// failures are logged and survived, never propagated (a long-running
    /// daemon must outlive ECONNABORTED and fd exhaustion).  Clients that
    /// stay connected without submitting do not block shutdown: their
    /// connection threads wake on a read timeout, observe the flag and
    /// exit.
    pub fn run(self) -> Result<(), ServiceError> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let (job_tx, job_rx) = mpsc::sync_channel::<JobTask>(self.queue_capacity);
        let job_rx = Arc::new(Mutex::new(job_rx));
        let registry: CancelRegistry = Arc::new(Mutex::new(HashMap::new()));

        // The dispatchers share the pool, the caches and the fleet's lease
        // table: jobs are popped FIFO, up to `dispatchers` run at once,
        // shards go to remote workers when any are registered and fan out
        // across the persistent local workers otherwise.
        let pool = Arc::new(WorkerPool::new(self.workers));
        let caches = Arc::new(DaemonCaches::new(self.store.clone()));
        let fleet = Arc::new(LeaseTable::new(self.fleet_config.clone()));
        let metrics = Arc::new(ServerTelemetry::new(Arc::clone(&self.metrics)));
        let dispatchers: Vec<_> = (0..self.dispatchers)
            .map(|_| {
                let job_rx = Arc::clone(&job_rx);
                let pool = Arc::clone(&pool);
                let caches = Arc::clone(&caches);
                let registry = Arc::clone(&registry);
                let fleet = Arc::clone(&fleet);
                let metrics = Arc::clone(&metrics);
                thread::spawn(move || loop {
                    // Hold the queue lock only while popping, never while
                    // executing a job.
                    let task = job_rx.lock().expect("job queue lock").recv();
                    match task {
                        Ok(task) => execute_job(&pool, &caches, &registry, &fleet, &metrics, task),
                        Err(_) => break, // queue closed: shutdown
                    }
                })
            })
            .collect();

        // The sweeper expires workers whose heartbeats stopped and grants
        // re-queued shards once their backoff elapses.  During the
        // shutdown drain the worker sessions exit and hand their leases
        // back through `worker_gone`, so jobs finishing after the sweeper
        // stops still fall back to local execution.
        let sweeper = {
            let fleet = Arc::clone(&fleet);
            let shutdown = Arc::clone(&shutdown);
            let interval = Duration::from_millis(
                (self.fleet_config.lease_ttl.as_millis() as u64 / 4).clamp(10, 100),
            );
            thread::spawn(move || {
                while !shutdown.load(Ordering::Relaxed) {
                    fleet.tick(Instant::now());
                    thread::sleep(interval);
                }
            })
        };

        // The opt-in telemetry heartbeat: a one-line snapshot summary on
        // stderr every `--stats-interval`.  The short sleep keeps shutdown
        // latency bounded by ~50 ms rather than by the interval.
        let heartbeat = self.stats_interval.map(|interval| {
            let metrics = Arc::clone(&metrics);
            let caches = Arc::clone(&caches);
            let fleet = Arc::clone(&fleet);
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || {
                let mut last = Instant::now();
                while !shutdown.load(Ordering::Relaxed) {
                    thread::sleep(Duration::from_millis(50));
                    if last.elapsed() < interval {
                        continue;
                    }
                    last = Instant::now();
                    let snapshot = metrics.snapshot(&caches, &fleet);
                    let uptime = snapshot.gauge("uptime.seconds").unwrap_or(0);
                    let jobs = snapshot.counter("jobs.total").unwrap_or(0);
                    let depth = snapshot.gauge("queue.depth").unwrap_or(0);
                    let replays = snapshot.counter("cache.replays").unwrap_or(0);
                    let workers = snapshot.gauge("fleet.workers").unwrap_or(0);
                    telemetry::log::info(
                        LOG_TARGET,
                        format!(
                            "sweep serve: stats: up {uptime} s; {jobs} job(s), queue depth \
                             {depth}; {replays} cache replay(s); fleet: {workers} worker(s)"
                        ),
                        &[
                            ("uptime_s", uptime.into()),
                            ("jobs_total", jobs.into()),
                            ("queue_depth", depth.into()),
                            ("cache_replays", replays.into()),
                            ("fleet_workers", workers.into()),
                        ],
                    );
                }
            })
        });

        telemetry::log::info(
            LOG_TARGET,
            format!(
                "sweep serve: listening on {} with {} worker(s), {} dispatcher(s), {}",
                self.endpoint,
                self.workers,
                self.dispatchers,
                code_version()
            ),
            &[
                ("endpoint", self.endpoint.to_string().into()),
                ("workers", self.workers.into()),
                ("dispatchers", self.dispatchers.into()),
                ("code_version", code_version().into()),
            ],
        );
        if let Some(store) = &self.store {
            let accounting = store.accounting();
            telemetry::log::info(
                LOG_TARGET,
                format!(
                    "sweep serve: cache store ready: {accounting}; {} loaded from disk, \
                     {} damaged line(s) dropped, {} stale entr(ies) dropped",
                    accounting.loaded, accounting.dropped_damaged, accounting.dropped_stale
                ),
                &[
                    ("entries", accounting.entries.into()),
                    ("bytes", accounting.bytes.into()),
                    ("loaded", accounting.loaded.into()),
                    ("dropped_damaged", accounting.dropped_damaged.into()),
                    ("dropped_stale", accounting.dropped_stale.into()),
                ],
            );
        }

        let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
        while !shutdown.load(Ordering::Relaxed) {
            // Reap finished connection threads so the handle list stays
            // bounded by the number of *live* connections, not by the
            // daemon-lifetime total.
            connections.retain(|handle| !handle.is_finished());
            match self.listener.try_accept() {
                Ok(Some(stream)) => {
                    let job_tx = job_tx.clone();
                    let registry = Arc::clone(&registry);
                    let shutdown = Arc::clone(&shutdown);
                    let fleet = Arc::clone(&fleet);
                    let caches = Arc::clone(&caches);
                    let metrics = Arc::clone(&metrics);
                    let auth_token = self.auth_token.clone();
                    connections.push(thread::spawn(move || {
                        handle_connection(
                            stream,
                            &job_tx,
                            &registry,
                            &shutdown,
                            &fleet,
                            &caches,
                            &metrics,
                            auth_token.as_deref(),
                        );
                    }));
                }
                Ok(None) => thread::sleep(Duration::from_millis(5)),
                Err(error) => {
                    // Transient accept failures (ECONNABORTED, fd
                    // exhaustion under load) must not kill a long-running
                    // daemon — log, back off, keep serving.  A persistent
                    // condition will keep logging rather than silently
                    // wedging.
                    telemetry::log::warn(
                        LOG_TARGET,
                        format!("sweep serve: accept failed (continuing): {error}"),
                        &[("error", error.to_string().into())],
                    );
                    thread::sleep(Duration::from_millis(100));
                }
            }
        }
        drop(job_tx);
        for connection in connections {
            let _ = connection.join();
        }
        for dispatcher in dispatchers {
            dispatcher.join().expect("dispatcher thread panicked");
        }
        sweeper.join().expect("sweeper thread panicked");
        if let Some(heartbeat) = heartbeat {
            heartbeat.join().expect("stats heartbeat thread panicked");
        }
        // Dropping the last pool handle closes its queue and joins the
        // workers.
        drop(pool);
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
        telemetry::log::info(LOG_TARGET, "sweep serve: shut down cleanly", &[]);
        Ok(())
    }
}

/// How often a connection thread parked on an idle client wakes to check
/// the shutdown flag — bounds the graceful-shutdown latency contributed by
/// clients that connect and never submit.
const CONNECTION_READ_TIMEOUT: Duration = Duration::from_millis(200);

/// Compares two secrets without an early exit, so the comparison time
/// does not leak how long a matching prefix an attacker has guessed.
/// Length is folded into the accumulator rather than short-circuited.
fn constant_time_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

/// Reads line frames off one connection until EOF or shutdown, queueing
/// jobs (bounded — a full queue rejects with a `queue-full` error frame),
/// flipping cancel tokens, and acknowledging shutdown requests.  On a
/// token-protected TCP endpoint the first frame must be a matching
/// `hello`; a `register` frame turns the connection into a worker
/// session.
#[allow(clippy::too_many_arguments)]
fn handle_connection(
    stream: Stream,
    job_tx: &SyncSender<JobTask>,
    registry: &CancelRegistry,
    shutdown: &AtomicBool,
    fleet: &Arc<LeaseTable>,
    caches: &Arc<DaemonCaches>,
    metrics: &Arc<ServerTelemetry>,
    auth_token: Option<&str>,
) {
    // Unix sockets are gated by filesystem permissions already; the
    // shared-secret handshake protects only TCP endpoints.
    let requires_auth = auth_token.is_some() && matches!(stream, Stream::Tcp(_));
    let mut authed = !requires_auth;
    let Ok(write_half) = stream.try_clone() else { return };
    // The read timeout is what keeps shutdown graceful even while a client
    // (e.g. a human on `nc -U`) sits connected and idle: without it this
    // thread would block on its next line forever and `Server::run` could
    // never join it.
    if stream.set_read_timeout(Some(CONNECTION_READ_TIMEOUT)).is_err() {
        return;
    }
    let reply: Reply = Arc::new(Mutex::new(write_half));
    let mut frames = FrameReader::new(BufReader::new(stream));
    loop {
        // Assemble one full line, waking on every read timeout to check
        // the shutdown flag (the reader keeps a partial line across
        // retries).  An oversized line, even before authentication, gets
        // a typed protocol error and the connection is dropped.
        if !next_line_or_shutdown(&mut frames, shutdown, &reply) {
            break;
        }
        match wire::decode_line(frames.line()) {
            Ok(Frame::Hello { token }) => {
                // Ignored where no auth is required (a client configured
                // with a token may talk to an open daemon).
                if requires_auth {
                    if constant_time_eq(&token, auth_token.unwrap_or_default()) {
                        authed = true;
                    } else {
                        send_frame(
                            &reply,
                            &Frame::Error(ErrorFrame {
                                job: None,
                                kind: ErrorKind::Unauthorized,
                                message: "invalid auth token".into(),
                            }),
                        );
                        break;
                    }
                }
            }
            Ok(_) if !authed => {
                send_frame(
                    &reply,
                    &Frame::Error(ErrorFrame {
                        job: None,
                        kind: ErrorKind::Unauthorized,
                        message: "this endpoint requires a hello frame with the auth token".into(),
                    }),
                );
                break;
            }
            Ok(Frame::Register) => {
                // The connection becomes a worker session: it stops
                // accepting job frames and serves the lease protocol
                // until EOF or shutdown.
                worker_session(frames, &reply, fleet, shutdown);
                return;
            }
            Ok(Frame::Job(spec)) => {
                let id = spec.id;
                let cancel = Arc::new(AtomicBool::new(false));
                // Register before queueing, so a cancel can never race past
                // a job that is queued but not yet visible.
                registry.lock().expect("cancel registry lock").insert(id, Arc::clone(&cancel));
                let task =
                    JobTask { spec, reply: Arc::clone(&reply), cancel, queued_at: Instant::now() };
                match job_tx.try_send(task) {
                    Ok(()) => metrics.queue_depth.add(1),
                    Err(TrySendError::Full(_)) => {
                        registry.lock().expect("cancel registry lock").remove(&id);
                        send_frame(
                            &reply,
                            &Frame::Error(ErrorFrame {
                                job: Some(id),
                                kind: ErrorKind::QueueFull,
                                message: "job queue is full; resubmit later".into(),
                            }),
                        );
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        registry.lock().expect("cancel registry lock").remove(&id);
                        break;
                    }
                }
            }
            Ok(Frame::Cancel { job }) => {
                let token = registry.lock().expect("cancel registry lock").get(&job).cloned();
                let found = token.is_some();
                if let Some(token) = token {
                    token.store(true, Ordering::Relaxed);
                }
                send_frame(&reply, &Frame::CancelAck { job, found });
            }
            Ok(Frame::Shutdown) => {
                // Ack, then stop accepting: jobs already queued (including
                // this connection's) still run to completion.
                send_frame(&reply, &Frame::ShuttingDown);
                shutdown.store(true, Ordering::Relaxed);
                break;
            }
            Ok(Frame::Stats) => {
                // Live introspection: assemble a fresh snapshot (registry
                // metrics plus sampled cache/store/lease counters) and
                // stream it back on this connection.
                send_frame(&reply, &Frame::StatsResult(metrics.snapshot(caches, fleet)));
            }
            Ok(_) => {
                send_frame(
                    &reply,
                    &Frame::Error(ErrorFrame {
                        job: None,
                        kind: ErrorKind::Protocol,
                        message: "unexpected frame (clients send job, cancel, stats, \
                                  shutdown or register)"
                            .into(),
                    }),
                );
            }
            Err(error) => {
                send_frame(
                    &reply,
                    &Frame::Error(ErrorFrame {
                        job: None,
                        kind: ErrorKind::Protocol,
                        message: error.to_string(),
                    }),
                );
            }
        }
    }
}

/// Reads a connection's next frame line into `frames`; `false` once the
/// connection should close: at EOF, on a read error, once `shutdown` is
/// set (checked on every read timeout), or after a line that is oversized
/// or not UTF-8, which is answered with a typed protocol error first.
fn next_line_or_shutdown(
    frames: &mut FrameReader<BufReader<Stream>>,
    shutdown: &AtomicBool,
    reply: &Reply,
) -> bool {
    loop {
        match frames.read_line() {
            Ok(ready) => return ready,
            Err(error)
                if matches!(
                    error.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::Relaxed) {
                    return false;
                }
            }
            Err(error) if error.kind() == std::io::ErrorKind::InvalidData => {
                send_frame(
                    reply,
                    &Frame::Error(ErrorFrame {
                        job: None,
                        kind: ErrorKind::Protocol,
                        message: error.to_string(),
                    }),
                );
                return false;
            }
            Err(_) => return false,
        }
    }
}

/// Serves one registered worker connection: announces the worker to the
/// lease table, then relays heartbeats and lease completions until EOF or
/// shutdown.  Leaving the loop — however it happens — hands the worker's
/// in-flight lease back to the table, which re-queues or falls it back,
/// so a SIGKILLed worker can never strand a shard.
fn worker_session(
    mut frames: FrameReader<BufReader<Stream>>,
    reply: &Reply,
    fleet: &Arc<LeaseTable>,
    shutdown: &AtomicBool,
) {
    // `registered` must be on the wire before any lease frame, so the
    // worker id handshake happens before the table may grant (the table
    // only grants from submit/tick/completion events, never from
    // `register` itself).
    let worker = fleet.register(
        {
            let reply = Arc::clone(reply);
            Box::new(move |frame: &Frame| send_frame(&reply, frame))
        },
        Instant::now(),
    );
    let config = fleet.config();
    if !send_frame(
        reply,
        &Frame::Registered {
            worker,
            lease_ttl_ms: config.lease_ttl.as_millis() as u64,
            heartbeat_ms: config.heartbeat_ms(),
        },
    ) {
        fleet.worker_gone(worker, Instant::now());
        return;
    }
    telemetry::log::info(
        LOG_TARGET,
        format!("sweep serve: worker {worker} registered ({} in fleet)", fleet.live_workers()),
        &[("worker", worker.into()), ("fleet", fleet.live_workers().into())],
    );
    loop {
        if !next_line_or_shutdown(&mut frames, shutdown, reply) {
            break;
        }
        // The session's own worker id is authoritative throughout — a
        // frame cannot heartbeat or complete on behalf of another worker.
        match wire::decode_line(frames.line()) {
            Ok(Frame::Heartbeat { .. }) => fleet.heartbeat(worker, Instant::now()),
            Ok(Frame::LeaseDone(done)) => {
                fleet.lease_done(
                    done.lease,
                    done.generation,
                    worker,
                    done.payload,
                    (done.start, done.end),
                    done.stats,
                    Instant::now(),
                );
            }
            Ok(Frame::LeaseFailed(failed)) => {
                telemetry::log::warn(
                    LOG_TARGET,
                    format!(
                        "sweep serve: worker {worker} rejected lease {}: {}",
                        failed.lease, failed.message
                    ),
                    &[
                        ("worker", worker.into()),
                        ("lease", failed.lease.into()),
                        ("message", failed.message.as_str().into()),
                    ],
                );
                fleet.lease_failed(failed.lease, failed.generation, worker, Instant::now());
            }
            Ok(other) => {
                telemetry::log::warn(
                    LOG_TARGET,
                    format!("sweep serve: worker {worker} sent an unexpected frame {other:?}"),
                    &[("worker", worker.into())],
                );
                break;
            }
            Err(error) => {
                telemetry::log::warn(
                    LOG_TARGET,
                    format!("sweep serve: worker {worker} sent a malformed frame: {error}"),
                    &[("worker", worker.into()), ("error", error.to_string().into())],
                );
                break;
            }
        }
    }
    // Best effort: tell a still-connected worker the session is over so
    // its process exits instead of blocking on a dead read.
    send_frame(reply, &Frame::ShuttingDown);
    fleet.worker_gone(worker, Instant::now());
    telemetry::log::info(
        LOG_TARGET,
        format!("sweep serve: worker {worker} disconnected ({} in fleet)", fleet.live_workers()),
        &[("worker", worker.into()), ("fleet", fleet.live_workers().into())],
    );
}

/// Everything [`JobDone`] reports about one finished job.
struct JobSummary {
    result: QueryResult,
    stats: SweepStats,
    shards_total: u64,
    shards_cached: u64,
    shards_executed: u64,
    shards_remote: u64,
    leases_requeued: u64,
}

impl JobSummary {
    fn new(result: QueryResult) -> Self {
        JobSummary {
            result,
            stats: SweepStats::default(),
            shards_total: 0,
            shards_cached: 0,
            shards_executed: 0,
            shards_remote: 0,
            leases_requeued: 0,
        }
    }

    fn absorb<A>(&mut self, case: &CaseOutcome<A>) {
        self.stats.merge(case.stats);
        self.shards_total += case.shards_total as u64;
        self.shards_cached += case.shards_cached as u64;
        self.shards_executed += (case.shards_total - case.shards_cached) as u64;
        self.shards_remote += case.shards_remote;
        self.leases_requeued += case.requeues;
    }
}

/// Runs one queued job end to end and streams its terminal frame.  A job
/// failure — model error, poisoned merge, cancellation — terminates the
/// job with a typed error frame and leaves the daemon (and this
/// dispatcher) serving.
fn execute_job(
    pool: &WorkerPool,
    caches: &DaemonCaches,
    registry: &CancelRegistry,
    fleet: &Arc<LeaseTable>,
    metrics: &ServerTelemetry,
    task: JobTask,
) {
    let JobTask { spec, reply, cancel, queued_at } = task;
    let start = Instant::now();
    metrics.queue_depth.add(-1);
    metrics.jobs_total.inc();
    metrics.queue_wait_us.observe(start.saturating_duration_since(queued_at));
    let outcome = if cancel.load(Ordering::Relaxed) {
        // Revoked while still queued: never starts executing.
        Err(JobError::Cancelled)
    } else {
        run_query(pool, caches, fleet, metrics, &spec, &reply, &cancel)
    };
    registry.lock().expect("cancel registry lock").remove(&spec.id);
    match outcome {
        Ok(summary) => {
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            metrics.job_us.observe(start.elapsed());
            metrics.jobs_completed.inc();
            metrics.absorb_job(&summary);
            // The daemon-side job trailer, reusing the canonical stats-line
            // renderer of the sweep crate, plus the store accounting when a
            // durable/bounded cache is configured and the fleet accounting
            // (lifetime counters of the lease table — the CI smoke leg and
            // the e2e tests grep this line).
            telemetry::log::info(
                LOG_TARGET,
                format!(
                    "sweep serve: job {} ({}) done in {:.0} ms; shards: {} total, {} cached, \
                     {} executed ({} remote); {}{}; fleet: {} workers, {} leases active, \
                     {} granted, {} expired, {} re-queued, {} duplicates dropped",
                    spec.id,
                    spec.query.name(),
                    wall_ms,
                    summary.shards_total,
                    summary.shards_cached,
                    summary.shards_executed,
                    summary.shards_remote,
                    summary.stats.stats_line(),
                    caches.store_suffix(),
                    fleet.live_workers(),
                    fleet.active_leases(),
                    fleet.granted_total(),
                    fleet.expired_total(),
                    fleet.requeued_total(),
                    fleet.duplicates_total(),
                ),
                &[
                    ("job", spec.id.into()),
                    ("query", spec.query.name().into()),
                    ("wall_ms", wall_ms.into()),
                    ("shards_total", summary.shards_total.into()),
                    ("shards_cached", summary.shards_cached.into()),
                    ("shards_executed", summary.shards_executed.into()),
                    ("shards_remote", summary.shards_remote.into()),
                ],
            );
            send_frame(
                &reply,
                &Frame::JobDone(JobDone {
                    job: spec.id,
                    result: summary.result,
                    stats: summary.stats,
                    shards_total: summary.shards_total,
                    shards_cached: summary.shards_cached,
                    shards_executed: summary.shards_executed,
                    fleet_workers: fleet.live_workers(),
                    shards_remote: summary.shards_remote,
                    leases_requeued: summary.leases_requeued,
                    wall_ms,
                }),
            );
        }
        Err(error) => {
            metrics.jobs_failed.inc();
            telemetry::log::warn(
                LOG_TARGET,
                format!(
                    "sweep serve: job {} ({}) failed ({}): {error}",
                    spec.id,
                    spec.query.name(),
                    error.kind().name()
                ),
                &[
                    ("job", spec.id.into()),
                    ("query", spec.query.name().into()),
                    ("kind", error.kind().name().into()),
                    ("error", error.to_string().into()),
                ],
            );
            send_frame(
                &reply,
                &Frame::Error(ErrorFrame {
                    job: Some(spec.id),
                    kind: error.kind(),
                    message: error.to_string(),
                }),
            );
        }
    }
}

/// Resolves `shards = 0` to `4 × workers`, mirroring
/// [`SweepConfig::resolved_shards`] over the pool size.
fn resolved_shards(spec: &JobSpec, pool: &WorkerPool) -> usize {
    if spec.shards > 0 {
        spec.shards
    } else {
        pool.workers() * 4
    }
}

fn run_query(
    pool: &WorkerPool,
    caches: &DaemonCaches,
    fleet: &Arc<LeaseTable>,
    metrics: &ServerTelemetry,
    spec: &JobSpec,
    reply: &Reply,
    cancel: &Arc<AtomicBool>,
) -> Result<JobSummary, JobError> {
    if spec.scope.is_some() && !matches!(spec.query, QueryKind::Thm1 | QueryKind::Omission) {
        return Err(JobError::Model(ModelError::InvalidTaskParameter {
            reason: "custom scopes are only supported for thm1 and omission jobs".into(),
        }));
    }
    match spec.query {
        QueryKind::Thm1 => run_thm1(pool, caches, fleet, metrics, spec, reply, cancel),
        QueryKind::Omission => run_omission(pool, caches, fleet, metrics, spec, reply, cancel),
        QueryKind::Thm3 => run_thm3(pool, caches, fleet, metrics, spec, reply, cancel),
        QueryKind::Fig4 => run_fig4(pool, caches, fleet, metrics, spec, reply, cancel),
        QueryKind::Prop2 => run_prop2(pool, caches, spec, reply),
    }
}

fn run_thm1(
    pool: &WorkerPool,
    caches: &DaemonCaches,
    fleet: &Arc<LeaseTable>,
    metrics: &ServerTelemetry,
    spec: &JobSpec,
    reply: &Reply,
    cancel: &Arc<AtomicBool>,
) -> Result<JobSummary, JobError> {
    let cases: Vec<(EnumerationConfig, usize)> = match &spec.scope {
        Some(scope) => vec![(scope.enumeration(), scope.k)],
        None => THM1_CASES.iter().map(|&(n, t, k)| (experiments::thm1_scope(n, t, k), k)).collect(),
    };
    let shards = resolved_shards(spec, pool);
    let mut rows = Vec::new();
    let mut summary = JobSummary::new(QueryResult::Thm1(Vec::new()));
    for (case_index, &(scope, k)) in cases.iter().enumerate() {
        let source = experiments::thm1_source(scope, k)?;
        let adversaries = source.space().len();
        let fingerprint = JobFingerprint {
            query: "thm1".into(),
            model: model_string(PatternModel::Crash),
            scope: scope_string(&scope, k),
            protocols: THM1_PROTOCOLS.into(),
            seed: 0,
            shards,
            code_version: code_version(),
        };
        // Remote workers rebuild the case from an explicit scope, so even
        // built-in cases ship theirs.
        let lease_scope = Some(ScopeSpec {
            n: scope.n,
            t: scope.t,
            k,
            max_value: scope.max_value,
            max_crash_round: scope.max_crash_round,
            partial_delivery: scope.partial_delivery,
        });
        let case = run_case(CaseContext {
            pool,
            reply,
            fleet,
            metrics,
            query: QueryKind::Thm1,
            lease_scope,
            seed: 0,
            job_id: spec.id,
            case: case_index,
            cases: cases.len(),
            shards,
            use_shard_cache: spec.shard_cache,
            cancel,
            source: Arc::new(source),
            reducer: Arc::new(Thm1Reducer),
            job: experiments::thm1_job,
            cache: &caches.thm1,
            fingerprint,
            encode_partial: |acc: &Thm1Outcome| {
                Value::Object(vec![
                    ("violations".into(), Value::Int(acc.violations as i128)),
                    ("beaten_earlyfloodmin".into(), Value::Bool(acc.beaten[0])),
                    ("beaten_floodmin".into(), Value::Bool(acc.beaten[1])),
                    ("structure_violations".into(), Value::Int(acc.structure as i128)),
                ])
            },
        })?;
        summary.absorb(&case);
        rows.push(experiments::thm1_case_row(&scope, k, adversaries, case.acc));
    }
    summary.result = QueryResult::Thm1(rows);
    Ok(summary)
}

/// The omission twin of [`run_thm1`]: same job, reducer and row shape,
/// folded over the exhaustive send-omission space.  Its fingerprints
/// carry `model=omission`, so crash and omission accumulators over the
/// same `(n, t, k)` shape live under disjoint cache keys.
fn run_omission(
    pool: &WorkerPool,
    caches: &DaemonCaches,
    fleet: &Arc<LeaseTable>,
    metrics: &ServerTelemetry,
    spec: &JobSpec,
    reply: &Reply,
    cancel: &Arc<AtomicBool>,
) -> Result<JobSummary, JobError> {
    let cases: Vec<(OmissionConfig, usize)> = match &spec.scope {
        // The wire frame is shared with thm1: `max_crash_round` carries the
        // omission round horizon and `partial_delivery` is ignored.
        Some(scope) => vec![(scope.omission(), scope.k)],
        None => OMISSION_CASES
            .iter()
            .map(|&(n, t, k)| (experiments::omission_scope(n, t, k), k))
            .collect(),
    };
    let shards = resolved_shards(spec, pool);
    let mut rows = Vec::new();
    let mut summary = JobSummary::new(QueryResult::Omission(Vec::new()));
    for (case_index, &(scope, k)) in cases.iter().enumerate() {
        let source = experiments::omission_source(scope, k)?;
        let adversaries = source.space().len();
        let fingerprint = JobFingerprint {
            query: "omission".into(),
            model: model_string(PatternModel::Omission),
            scope: omission_scope_string(&scope, k),
            protocols: THM1_PROTOCOLS.into(),
            seed: 0,
            shards,
            code_version: code_version(),
        };
        let lease_scope = Some(ScopeSpec {
            n: scope.n,
            t: scope.t,
            k,
            max_value: scope.max_value,
            max_crash_round: scope.rounds,
            partial_delivery: false,
        });
        let case = run_case(CaseContext {
            pool,
            reply,
            fleet,
            metrics,
            query: QueryKind::Omission,
            lease_scope,
            seed: 0,
            job_id: spec.id,
            case: case_index,
            cases: cases.len(),
            shards,
            use_shard_cache: spec.shard_cache,
            cancel,
            source: Arc::new(source),
            reducer: Arc::new(Thm1Reducer),
            job: experiments::thm1_job,
            cache: &caches.omission,
            fingerprint,
            encode_partial: |acc: &Thm1Outcome| {
                Value::Object(vec![
                    ("violations".into(), Value::Int(acc.violations as i128)),
                    ("beaten_earlyfloodmin".into(), Value::Bool(acc.beaten[0])),
                    ("beaten_floodmin".into(), Value::Bool(acc.beaten[1])),
                    ("structure_violations".into(), Value::Int(acc.structure as i128)),
                ])
            },
        })?;
        summary.absorb(&case);
        rows.push(experiments::omission_case_row(&scope, k, adversaries, case.acc));
    }
    summary.result = QueryResult::Omission(rows);
    Ok(summary)
}

fn run_thm3(
    pool: &WorkerPool,
    caches: &DaemonCaches,
    fleet: &Arc<LeaseTable>,
    metrics: &ServerTelemetry,
    spec: &JobSpec,
    reply: &Reply,
    cancel: &Arc<AtomicBool>,
) -> Result<JobSummary, JobError> {
    let shards = resolved_shards(spec, pool);
    let mut rows = Vec::new();
    let mut summary = JobSummary::new(QueryResult::Thm3(Vec::new()));
    for (case_index, &(n, t, k)) in THM3_CASES.iter().enumerate() {
        let source = experiments::thm3_source(n, t, k, spec.seed)?;
        let fingerprint = JobFingerprint {
            query: "thm3".into(),
            model: model_string(PatternModel::Crash),
            scope: format!("n={n},t={t},k={k},samples={THM3_SAMPLES}"),
            protocols: THM3_PROTOCOLS.into(),
            seed: spec.seed,
            shards,
            code_version: code_version(),
        };
        let case = run_case(CaseContext {
            pool,
            reply,
            fleet,
            metrics,
            query: QueryKind::Thm3,
            lease_scope: None,
            seed: spec.seed,
            job_id: spec.id,
            case: case_index,
            cases: THM3_CASES.len(),
            shards,
            use_shard_cache: spec.shard_cache,
            cancel,
            source: Arc::new(source),
            reducer: Arc::new(Thm3Reducer),
            job: experiments::thm3_job,
            cache: &caches.thm3,
            fingerprint,
            encode_partial: |acc: &Thm3Acc| {
                Value::Object(vec![
                    (
                        "runs".into(),
                        Value::Int(acc.per_f.values().map(|&(_, runs)| runs as i128).sum()),
                    ),
                    ("violations".into(), Value::Int(acc.violations as i128)),
                ])
            },
        })?;
        summary.absorb(&case);
        rows.extend(experiments::thm3_rows(n, t, k, &case.acc)?);
    }
    summary.result = QueryResult::Thm3(rows);
    Ok(summary)
}

fn run_fig4(
    pool: &WorkerPool,
    caches: &DaemonCaches,
    fleet: &Arc<LeaseTable>,
    metrics: &ServerTelemetry,
    spec: &JobSpec,
    reply: &Reply,
    cancel: &Arc<AtomicBool>,
) -> Result<JobSummary, JobError> {
    let shards = resolved_shards(spec, pool);
    let (source, shapes) = experiments::fig4_source()?;
    let fingerprint = JobFingerprint {
        query: "fig4".into(),
        model: model_string(PatternModel::Crash),
        scope: "uniform-gap builtin k*rounds".into(),
        protocols: FIG4_PROTOCOLS.into(),
        seed: 0,
        shards,
        code_version: code_version(),
    };
    let case = run_case(CaseContext {
        pool,
        reply,
        fleet,
        metrics,
        query: QueryKind::Fig4,
        lease_scope: None,
        seed: 0,
        job_id: spec.id,
        case: 0,
        cases: 1,
        shards,
        use_shard_cache: spec.shard_cache,
        cancel,
        source: Arc::new(source),
        reducer: Arc::new(Fig4Reducer),
        job: experiments::fig4_job,
        cache: &caches.fig4,
        fingerprint,
        encode_partial: |acc: &Fig4Acc| {
            Value::Object(vec![("points".into(), Value::Int(acc.len() as i128))])
        },
    })?;
    let mut summary =
        JobSummary::new(QueryResult::Fig4(experiments::fig4_rows(&shapes, &case.acc)));
    summary.absorb(&case);
    Ok(summary)
}

/// Proposition 2 mixes sweeps with global protocol-complex builds, so it
/// is cached at job granularity (one "shard" covering the whole report)
/// and executed on the dispatcher thread with the engine's own scoped
/// parallelism.
fn run_prop2(
    pool: &WorkerPool,
    caches: &DaemonCaches,
    spec: &JobSpec,
    reply: &Reply,
) -> Result<JobSummary, JobError> {
    let fingerprint = JobFingerprint {
        query: "prop2".into(),
        model: model_string(PatternModel::Crash),
        scope: "builtin".into(),
        protocols: "none".into(),
        seed: spec.seed,
        shards: 1,
        code_version: code_version(),
    };
    let key = fingerprint.shard(0);
    let cached = if spec.shard_cache { caches.prop2.get(&key) } else { None };
    let (report, stats, was_cached) = match cached {
        Some((report, _range)) => (report, SweepStats::default(), true),
        None => {
            let config = SweepConfig {
                shards: resolved_shards(spec, pool),
                threads: pool.workers(),
                seed: spec.seed,
                ..SweepConfig::default()
            };
            let (report, stats) = experiments::prop2_with_stats(&config)?;
            if spec.shard_cache {
                caches.prop2.insert(key, (0, stats.scenarios as usize), report.clone());
            }
            (report, stats, false)
        }
    };
    send_frame(
        reply,
        &Frame::ShardDone(ShardDone {
            job: spec.id,
            case: 0,
            cases: 1,
            shard: 0,
            shards: 1,
            start: 0,
            end: stats.scenarios as usize,
            cached: was_cached,
            stats,
        }),
    );
    Ok(JobSummary {
        result: QueryResult::Prop2(report),
        stats,
        shards_total: 1,
        shards_cached: u64::from(was_cached),
        shards_executed: u64::from(!was_cached),
        shards_remote: 0,
        leases_requeued: 0,
    })
}

/// Result of one case: the merged accumulator, the executed statistics,
/// the warm/cold split, and the fleet accounting of the cold pass.
struct CaseOutcome<A> {
    acc: A,
    stats: SweepStats,
    shards_total: usize,
    shards_cached: usize,
    shards_remote: u64,
    requeues: u64,
}

/// The per-scenario job of a case, as a plain function pointer so pool
/// tasks can capture it without boxing.
type JobFn<I> = fn(&mut BatchRunner, &Scenario) -> Result<I, ModelError>;

/// Everything [`run_case`] needs — bundled because the scheduler is
/// monomorphized per query.
struct CaseContext<'a, S, R: Reducer> {
    pool: &'a WorkerPool,
    reply: &'a Reply,
    fleet: &'a Arc<LeaseTable>,
    /// Phase histograms (`phase.dispatch_us` / `phase.shard_exec_us` /
    /// `phase.merge_us`) recorded by the scheduler.
    metrics: &'a ServerTelemetry,
    /// Which query the case belongs to — remote workers rebuild the
    /// scenario source from `(query, case, lease_scope, seed, shards)`.
    query: QueryKind,
    /// Explicit scope shipped in lease grants (Theorem 1 only).
    lease_scope: Option<ScopeSpec>,
    /// Seed shipped in lease grants (seeded sources only).
    seed: u64,
    job_id: u64,
    case: usize,
    cases: usize,
    shards: usize,
    use_shard_cache: bool,
    cancel: &'a Arc<AtomicBool>,
    source: Arc<S>,
    reducer: Arc<R>,
    job: JobFn<R::Item>,
    cache: &'a ShardCache<R::Acc>,
    fingerprint: JobFingerprint,
    encode_partial: fn(&R::Acc) -> Value,
}

/// Schedules one case: splits its scenario range into block-aligned
/// shards, replays warm shards from the accumulator cache, fans the cold
/// ones out across the persistent pool, streams `shard-done`/`partial`
/// frames as they land, and merges everything in shard order.
///
/// The daemon-side sibling of `sweep::sweep_shards`: both share
/// `shard_ranges` for the partition, `fold_shard_stats` for the per-shard
/// kernel and `try_merge_shard_outcomes` for the law-checked merge, so
/// their folds are bit-identical by construction.  Two hardening details:
///
/// * a cold shard's accumulator is inserted into the cache **before** its
///   `shard-done` frame is streamed, so with a durable store any shard a
///   client observed is replayable after a crash;
/// * a replayed shard carries the *stored* scenario range, so a forged or
///   corrupted persisted entry fails `try_merge_shard_outcomes` as a
///   typed [`JobError::Merge`] (daemon stays alive) instead of silently
///   folding wrong data.
fn run_case<S, R>(context: CaseContext<'_, S, R>) -> Result<CaseOutcome<R::Acc>, JobError>
where
    S: ScenarioSource + Send + Sync + 'static,
    R: Reducer + Send + Sync + 'static,
    R::Acc: Clone + Send + ToWire + FromWire + 'static,
{
    let CaseContext {
        pool,
        reply,
        fleet,
        metrics,
        query,
        lease_scope,
        seed,
        job_id,
        case,
        cases,
        shards,
        use_shard_cache,
        cancel,
        source,
        reducer,
        job,
        cache,
        fingerprint,
        encode_partial,
    } = context;
    let total = source.len();
    let ranges = shard_ranges(total, shards, source.structure_block());
    let shard_count = ranges.len();
    let mut outcomes: Vec<Option<ShardOutcome<R::Acc>>> = (0..shard_count).map(|_| None).collect();
    let mut prefix = PrefixFold::new(&*reducer);
    let mut cold = Vec::new();
    let mut cached_count = 0usize;

    let stream_shard = |outcome: &ShardOutcome<R::Acc>| {
        send_frame(
            reply,
            &Frame::ShardDone(ShardDone {
                job: job_id,
                case,
                cases,
                shard: outcome.shard,
                shards: shard_count,
                start: outcome.range.0,
                end: outcome.range.1,
                cached: outcome.cached,
                stats: outcome.stats,
            }),
        );
    };

    // Warm pass, in shard order: replayed shards stream before any
    // execution starts.  The stored range is used verbatim — validation
    // happens at merge time.
    for (shard, _) in ranges.iter().enumerate() {
        let warm = if use_shard_cache { cache.get(&fingerprint.shard(shard)) } else { None };
        match warm {
            Some((acc, range)) => {
                cached_count += 1;
                let outcome =
                    ShardOutcome { shard, range, cached: true, acc, stats: SweepStats::default() };
                stream_shard(&outcome);
                outcomes[shard] = Some(outcome);
            }
            None => cold.push(shard),
        }
    }
    prefix.emit_if_grown(reply, job_id, case, &ranges, &outcomes, &*reducer, encode_partial);

    // Cold pass: offer every cold shard to the remote fleet first; shards
    // the fleet cannot take (zero workers) or gives up on (exhausted
    // retries, typed rejection) fall back to the local pool, so an empty
    // fleet degrades to exactly the pre-distributed scheduler.  Each local
    // task re-checks the cancel token just before executing, so a revoked
    // job's pending shards drain as fast cancellations instead of
    // occupying the pool.
    enum Completion<A> {
        Local { shard: usize, folded: Result<(A, SweepStats), JobError> },
        Remote { shard: usize, outcome: TaskOutcome },
    }
    let (done_tx, done_rx) = mpsc::channel::<Completion<R::Acc>>();
    let dispatch_local = |shard: usize| {
        let source = Arc::clone(&source);
        let reducer = Arc::clone(&reducer);
        let cancel = Arc::clone(cancel);
        let done_tx = done_tx.clone();
        let range = ranges[shard];
        // The histogram handle is an atomic-backed clone — recording from
        // the pool thread costs two shifts and a relaxed fetch_add.
        let shard_exec_us = metrics.shard_exec_us.clone();
        pool.submit(Box::new(move |state| {
            let folded = if cancel.load(Ordering::Relaxed) {
                Err(JobError::Cancelled)
            } else {
                let exec_started = Instant::now();
                let folded = fold_shard_stats(
                    &*source,
                    &*reducer,
                    &job,
                    &mut state.runner,
                    &mut state.scratch,
                    range,
                    true,
                )
                .map_err(JobError::Model);
                shard_exec_us.observe(exec_started.elapsed());
                folded
            };
            // The dispatcher outlives every task it queues, so the send
            // only fails if it already gave up on the job — nothing to do.
            let _ = done_tx.send(Completion::Local { shard, folded });
        }));
    };
    let dispatch_started = Instant::now();
    for &shard in &cold {
        let remote_tx = done_tx.clone();
        let task = RemoteTask {
            spec: TaskSpec { query, case, scope: lease_scope, seed, shards, shard },
            complete: Box::new(move |outcome| {
                // Fires under the lease-table lock — forward and return.
                let _ = remote_tx.send(Completion::Remote { shard, outcome });
            }),
        };
        if !fleet.submit(task, Instant::now()) {
            dispatch_local(shard);
        }
    }
    if !cold.is_empty() {
        metrics.dispatch_us.observe(dispatch_started.elapsed());
    }

    // Every cold shard produces exactly one terminal completion; a remote
    // shard the fleet hands back re-enters the count via `dispatch_local`
    // (pending unchanged), so the counter is exact.
    let mut first_error: Option<(usize, JobError)> = None;
    let mut shards_remote = 0u64;
    let mut requeues_total = 0u64;
    let mut pending = cold.len();
    while pending > 0 {
        let landed = match done_rx.recv().expect("pool workers alive") {
            Completion::Local { shard, folded } => {
                pending -= 1;
                match folded {
                    Ok((acc, stats)) => Some((shard, acc, stats)),
                    Err(error) => {
                        if first_error.as_ref().is_none_or(|(s, _)| shard < *s) {
                            first_error = Some((shard, error));
                        }
                        None
                    }
                }
            }
            // Remote completions honour cancellation here (the worker has
            // no cancel token), so a fully remote job stays cancellable.
            Completion::Remote { shard, .. } if cancel.load(Ordering::Relaxed) => {
                pending -= 1;
                if first_error.as_ref().is_none_or(|(s, _)| shard < *s) {
                    first_error = Some((shard, JobError::Cancelled));
                }
                None
            }
            Completion::Remote { shard, outcome } => match outcome {
                TaskOutcome::Done { payload, range, stats, requeues } => {
                    requeues_total += requeues;
                    let decoded = if range == ranges[shard] {
                        R::Acc::from_wire(&payload).ok()
                    } else {
                        None
                    };
                    match decoded {
                        Some(acc) => {
                            pending -= 1;
                            shards_remote += 1;
                            Some((shard, acc, stats))
                        }
                        None => {
                            // A range that disagrees with the partition or
                            // a payload that does not decode never reaches
                            // the merge — the shard re-runs locally.
                            telemetry::log::warn(
                                LOG_TARGET,
                                format!(
                                    "sweep serve: job {job_id}: dropping malformed remote \
                                     result for shard {shard} (range {:?}, expected {:?}); \
                                     re-running locally",
                                    range, ranges[shard]
                                ),
                                &[("job", job_id.into()), ("shard", shard.into())],
                            );
                            if first_error.is_some() {
                                pending -= 1;
                            } else {
                                dispatch_local(shard);
                            }
                            None
                        }
                    }
                }
                TaskOutcome::Fallback { requeues } => {
                    requeues_total += requeues;
                    if first_error.is_some() {
                        pending -= 1;
                    } else {
                        dispatch_local(shard);
                    }
                    None
                }
            },
        };
        if let Some((shard, acc, stats)) = landed {
            let outcome = ShardOutcome { shard, range: ranges[shard], cached: false, acc, stats };
            // Insert before streaming: a client that saw shard-done may
            // rely on the shard being durably cached.  Remote results take
            // the same store-before-stream path as local ones.
            if use_shard_cache {
                cache.insert(fingerprint.shard(shard), ranges[shard], outcome.acc.clone());
            }
            stream_shard(&outcome);
            outcomes[shard] = Some(outcome);
            prefix.emit_if_grown(
                reply,
                job_id,
                case,
                &ranges,
                &outcomes,
                &*reducer,
                encode_partial,
            );
        }
    }
    if let Some((_, error)) = first_error {
        return Err(error);
    }

    let outcomes: Vec<ShardOutcome<R::Acc>> =
        outcomes.into_iter().map(|slot| slot.expect("every shard completed")).collect();
    let mut stats = SweepStats::default();
    for outcome in &outcomes {
        stats.merge(outcome.stats);
    }
    let merge_started = Instant::now();
    let merged = try_merge_shard_outcomes(&*reducer, outcomes);
    metrics.merge_us.observe(merge_started.elapsed());
    let acc = merged.map_err(JobError::Merge)?;
    Ok(CaseOutcome {
        acc,
        stats,
        shards_total: shard_count,
        shards_cached: cached_count,
        shards_remote,
        requeues: requeues_total,
    })
}

/// The streamed-preview state of one case: the contiguous completed
/// prefix of its shards, with a running fold so each newly completed
/// shard is merged exactly once (not re-merged from the identity per
/// frame).  Only a contiguous prefix can be previewed — the `Reducer`
/// laws cover merging adjacent slices in order and nothing else.
struct PrefixFold<A> {
    done: usize,
    acc: A,
}

impl<A: Clone> PrefixFold<A> {
    fn new<R: Reducer<Acc = A>>(reducer: &R) -> Self {
        PrefixFold { done: 0, acc: reducer.empty() }
    }

    /// Extends the prefix over newly completed shards and emits a
    /// `partial` frame if it grew.
    #[allow(clippy::too_many_arguments)]
    fn emit_if_grown<R: Reducer<Acc = A>>(
        &mut self,
        reply: &Reply,
        job_id: u64,
        case: usize,
        ranges: &[(usize, usize)],
        outcomes: &[Option<ShardOutcome<A>>],
        reducer: &R,
        encode_partial: fn(&A) -> Value,
    ) {
        let before = self.done;
        while self.done < outcomes.len() {
            let Some(outcome) = &outcomes[self.done] else { break };
            let merged = reducer
                .merge(std::mem::replace(&mut self.acc, reducer.empty()), outcome.acc.clone());
            self.acc = merged;
            self.done += 1;
        }
        if self.done == before || self.done == 0 {
            return;
        }
        send_frame(
            reply,
            &Frame::Partial(Partial {
                job: job_id,
                case,
                shards_done: self.done,
                shards: outcomes.len(),
                scenarios_done: ranges[self.done - 1].1 as u64,
                fold: encode_partial(&self.acc),
            }),
        );
    }
}
