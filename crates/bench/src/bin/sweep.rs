//! The unified scenario-sweep CLI: one-shot experiments on the sharded
//! engine, plus the client and server sides of the sweep service daemon.
//!
//! ```text
//! # one-shot (in-process) experiments, as before
//! sweep <thm1|omission|thm3|fig4|prop2|all> [--model crash|omission]
//!       [--scope n,t,k[,maxv[,mcr[,pd]]]] [--shards N] [--threads N] [--seed N]
//!
//! # the service layer
//! sweep serve    (--socket PATH | --tcp ADDR) [--workers N]
//!                [--dispatchers N] [--queue-capacity N]
//!                [--cache-dir PATH] [--cache-budget BYTES]
//!                [--lease-ttl-ms N] [--auth-token TOKEN]
//! sweep worker   --connect ADDR [--auth-token TOKEN]
//!                [--connect-timeout SECS] [--heartbeat-ms N]
//! sweep submit   (--socket PATH | --tcp ADDR) <thm1|omission|thm3|fig4|prop2>
//!                [--model crash|omission] [--scope n,t,k[,maxv[,mcr[,pd]]]]
//!                [--shards N] [--seed N]
//!                [--id N] [--no-shard-cache] [--connect-timeout SECS]
//!                [--auth-token TOKEN]
//! sweep cancel   (--socket PATH | --tcp ADDR) --id N [...]
//! sweep stats    (--socket PATH | --tcp ADDR) [--json | --prom] [...]
//! sweep shutdown (--socket PATH | --tcp ADDR) [...]
//! ```
//!
//! Every mode also accepts the global logging flags `--log-level
//! <error|warn|info|debug>` and `--log-json` (JSON-lines records on
//! stderr instead of the human lines); the `SWEEP_LOG` environment
//! variable sets the default level.  `sweep stats` asks a running daemon
//! for its live metrics snapshot and prints it as an aligned table, as
//! JSON (`--json`), or as Prometheus text exposition (`--prom`).
//!
//! One-shot fold results are independent of `--shards` and `--threads`,
//! and `sweep submit` prints byte-identical tables to the one-shot mode
//! for the same query — the daemon streams the same fold, computed on its
//! persistent worker pool, its registered `sweep worker` fleet, and (for
//! repeated queries) replayed from its shard-accumulator cache.
//! Progress/stats stay on stderr; stdout is the diffable result.
//!
//! `--connect ADDR` treats an address containing `/` as a Unix socket
//! path and anything else as `host:port`.  `--auth-token` (or the
//! `SWEEP_TOKEN` environment variable) is required by daemons started
//! with a token on TCP endpoints; Unix sockets never need it.

use bench_harness::{report, sweep_config_from_args};
use service::wire::ToWire;
use service::{
    client, ConnectOptions, Endpoint, JobSpec, QueryKind, QueryResult, ScopeSpec, ServeOptions,
    Server, WorkerOptions,
};
use std::time::Duration;
use sweep::experiments;
use sweep::SweepConfig;

/// Log target of the CLI's own stderr lines (daemon/worker internals log
/// under their `service::*` targets).
const LOG_TARGET: &str = "sweep::cli";

const USAGE: &str = "usage: sweep <thm1|omission|thm3|fig4|prop2|all> [--model crash|omission] \
                     [--scope n,t,k[,maxv[,mcr[,pd]]]] [--shards N] [--threads N] [--seed N]\n\
       sweep serve    (--socket PATH | --tcp ADDR) [--workers N] [--dispatchers N] \
                      [--queue-capacity N] [--cache-dir PATH] [--cache-budget BYTES] \
                      [--lease-ttl-ms N] [--auth-token TOKEN] [--stats-interval SECS]\n\
       sweep worker   (--connect ADDR | --socket PATH | --tcp ADDR) [--auth-token TOKEN] \
                      [--connect-timeout SECS] [--heartbeat-ms N]\n\
       sweep submit   (--socket PATH | --tcp ADDR) <thm1|omission|thm3|fig4|prop2> \
                      [--model crash|omission] [--scope n,t,k[,maxv[,mcr[,pd]]]] \
                      [--shards N] [--seed N] [--id N] \
                      [--no-shard-cache] [--connect-timeout SECS] [--auth-token TOKEN]\n\
       sweep cancel   (--socket PATH | --tcp ADDR) --id N [--connect-timeout SECS] \
                      [--auth-token TOKEN]\n\
       sweep stats    (--socket PATH | --tcp ADDR) [--json | --prom] [--connect-timeout SECS] \
                      [--auth-token TOKEN]\n\
       sweep shutdown (--socket PATH | --tcp ADDR) [--connect-timeout SECS] [--auth-token TOKEN]\n\
       global flags:  [--log-level error|warn|info|debug] [--log-json]  \
                      (SWEEP_LOG sets the default level)";

fn usage_exit(message: &str) -> ! {
    telemetry::log::error(LOG_TARGET, format!("{message}\n{USAGE}"), &[]);
    std::process::exit(2);
}

/// Strips the global logging flags (`--log-level LEVEL`, `--log-json`) out
/// of the raw argument stream — they may appear anywhere — and configures
/// the `telemetry` logger before any subcommand parser runs.
fn apply_log_flags(raw: Vec<String>) -> Vec<String> {
    let mut filtered = Vec::with_capacity(raw.len());
    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--log-json" => telemetry::log::set_json(true),
            "--log-level" => {
                let text =
                    args.next().unwrap_or_else(|| usage_exit("missing value for --log-level"));
                let level = telemetry::Level::parse(&text).unwrap_or_else(|| {
                    usage_exit(&format!("invalid --log-level {text:?} (error|warn|info|debug)"))
                });
                telemetry::log::set_level(level);
            }
            _ => filtered.push(arg),
        }
    }
    filtered
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = apply_log_flags(raw).into_iter();
    let Some(command) = args.next() else {
        usage_exit("missing command");
    };
    match command.as_str() {
        "serve" => serve_main(args),
        "worker" => worker_main(args),
        "submit" => submit_main(args),
        "cancel" => cancel_main(args),
        "stats" => stats_main(args),
        "shutdown" => shutdown_main(args),
        _ => experiment_main(&command, args),
    }
}

// ---------------------------------------------------------------------------
// One-shot experiment mode (unchanged behavior).
// ---------------------------------------------------------------------------

fn experiment_main(experiment: &str, mut args: impl Iterator<Item = String>) {
    // `--model` selects the pattern space before the engine flags are
    // parsed: `--model omission` reroutes `thm1` onto its send-omission
    // twin (the only experiment with one), `--model crash` is the
    // explicit default.  `--scope` replaces the built-in cases of thm1 and
    // omission with one custom case.  Everything else passes through
    // untouched.
    let mut model = String::from("crash");
    let mut scope: Option<ScopeSpec> = None;
    let mut passthrough = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--model" => {
                model = args.next().unwrap_or_else(|| usage_exit("missing value for --model"));
            }
            "--scope" => {
                let text = args.next().unwrap_or_else(|| usage_exit("missing value for --scope"));
                scope = Some(parse_scope(&text));
            }
            _ => passthrough.push(arg),
        }
    }
    let experiment = match (experiment, model.as_str()) {
        (name, "crash") => name.to_string(),
        ("thm1" | "omission", "omission") => "omission".to_string(),
        (name, "omission") => {
            usage_exit(&format!("experiment {name} has no omission-model variant (only thm1)"))
        }
        (_, other) => usage_exit(&format!("unknown --model {other:?} (crash|omission)")),
    };
    let experiment = experiment.as_str();
    if scope.is_some() && !matches!(experiment, "thm1" | "omission") {
        usage_exit("--scope only applies to thm1/omission");
    }
    let config = match sweep_config_from_args(passthrough.into_iter()) {
        Ok(config) => config,
        Err(message) => usage_exit(&message),
    };

    let run = |name: &str| -> Result<(), synchrony::ModelError> {
        match name {
            "thm1" => {
                let (rows, stats) = match scope {
                    Some(s) => experiments::thm1_case(&config, s.enumeration(), s.k)
                        .map(|(row, stats)| (vec![row], stats))?,
                    None => experiments::thm1_with_stats(&config)?,
                };
                println!("{}", report::thm1_table(&rows));
                println!("{}", report::THM1_CLAIM);
                // Stats may vary with parallelism; stderr keeps stdout diffs
                // (the CI determinism smoke test) parallelism-invariant.
                telemetry::log::info(LOG_TARGET, stats.stats_line(), &[]);
            }
            "omission" => {
                let (rows, stats) = match scope {
                    Some(s) => experiments::omission_case(&config, s.omission(), s.k)
                        .map(|(row, stats)| (vec![row], stats))?,
                    None => experiments::omission_with_stats(&config)?,
                };
                println!("{}", report::omission_table(&rows));
                println!("{}", report::OMISSION_CLAIM);
                telemetry::log::info(LOG_TARGET, stats.stats_line(), &[]);
            }
            "thm3" => {
                println!("{}", report::thm3_table(&experiments::thm3(&config)?));
                println!("{}", report::THM3_CLAIM);
            }
            "fig4" => {
                println!("{}", report::fig4_table(&experiments::fig4(&config)?));
                println!("{}", report::FIG4_CLAIM);
            }
            "prop2" => {
                let (exhaustive, targeted) = report::prop2_tables(&experiments::prop2(&config)?);
                println!("{exhaustive}");
                println!("{targeted}");
                println!("{}", report::PROP2_CLAIM);
            }
            other => usage_exit(&format!("unknown experiment {other}")),
        }
        Ok(())
    };

    let experiments: Vec<&str> =
        if experiment == "all" { vec!["thm1", "thm3", "fig4", "prop2"] } else { vec![experiment] };
    for name in experiments {
        if let Err(error) = run(name) {
            telemetry::log::error(
                LOG_TARGET,
                format!("experiment {name} failed: {error}"),
                &[("experiment", name.into()), ("error", error.to_string().into())],
            );
            std::process::exit(1);
        }
    }
}

// ---------------------------------------------------------------------------
// Service mode.
// ---------------------------------------------------------------------------

/// Pulls `--socket PATH` or `--tcp ADDR` out of a flag stream.
struct EndpointFlag(Option<Endpoint>);

impl EndpointFlag {
    fn accept(&mut self, flag: &str, mut value: impl FnMut() -> String) -> bool {
        match flag {
            "--socket" => {
                self.0 = Some(Endpoint::Unix(value().into()));
                true
            }
            "--tcp" => {
                self.0 = Some(Endpoint::Tcp(value()));
                true
            }
            _ => false,
        }
    }

    fn require(self) -> Endpoint {
        self.0.unwrap_or_else(|| usage_exit("missing --socket PATH or --tcp ADDR"))
    }
}

fn value_of(flag: &str, args: &mut impl Iterator<Item = String>) -> String {
    args.next().unwrap_or_else(|| usage_exit(&format!("missing value for {flag}")))
}

fn parse_number<T: std::str::FromStr>(flag: &str, text: &str) -> T {
    text.parse().unwrap_or_else(|_| usage_exit(&format!("invalid {flag} value {text:?}")))
}

/// The `SWEEP_TOKEN` fallback used wherever `--auth-token` is accepted.
fn token_from_env() -> Option<String> {
    std::env::var("SWEEP_TOKEN").ok().filter(|token| !token.is_empty())
}

/// Pulls `--connect-timeout SECS` and `--auth-token TOKEN` out of a flag
/// stream; the token falls back to the `SWEEP_TOKEN` environment
/// variable.
struct ConnectFlags {
    timeout: Duration,
    auth_token: Option<String>,
}

impl ConnectFlags {
    fn new(default_timeout: Duration) -> Self {
        ConnectFlags { timeout: default_timeout, auth_token: None }
    }

    fn accept(&mut self, flag: &str, mut value: impl FnMut() -> String) -> bool {
        match flag {
            "--connect-timeout" => {
                let secs: u64 = parse_number(flag, &value());
                self.timeout = Duration::from_secs(secs);
                true
            }
            "--auth-token" => {
                self.auth_token = Some(value());
                true
            }
            _ => false,
        }
    }

    fn options(self) -> ConnectOptions {
        ConnectOptions {
            timeout: self.timeout,
            auth_token: self.auth_token.or_else(token_from_env),
        }
    }
}

fn serve_main(mut args: impl Iterator<Item = String>) {
    let mut endpoint = EndpointFlag(None);
    let mut workers = 0usize;
    let mut dispatchers = 0usize;
    let mut queue_capacity = 0usize;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut cache_budget: Option<u64> = None;
    let mut lease_ttl_ms = 0u64;
    let mut auth_token: Option<String> = None;
    let mut stats_interval: Option<Duration> = None;
    while let Some(flag) = args.next() {
        if endpoint.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        match flag.as_str() {
            "--workers" => workers = parse_number(&flag, &value_of(&flag, &mut args)),
            "--dispatchers" => dispatchers = parse_number(&flag, &value_of(&flag, &mut args)),
            "--queue-capacity" => queue_capacity = parse_number(&flag, &value_of(&flag, &mut args)),
            "--cache-dir" => cache_dir = Some(value_of(&flag, &mut args).into()),
            "--cache-budget" => {
                cache_budget = Some(parse_number(&flag, &value_of(&flag, &mut args)))
            }
            "--lease-ttl-ms" => lease_ttl_ms = parse_number(&flag, &value_of(&flag, &mut args)),
            "--auth-token" => auth_token = Some(value_of(&flag, &mut args)),
            "--stats-interval" => {
                let secs: u64 = parse_number(&flag, &value_of(&flag, &mut args));
                stats_interval = (secs > 0).then(|| Duration::from_secs(secs));
            }
            other => usage_exit(&format!("unknown flag {other}")),
        }
    }
    let options = ServeOptions {
        endpoint: endpoint.require(),
        workers,
        dispatchers,
        queue_capacity,
        cache_dir,
        cache_budget,
        lease_ttl_ms,
        auth_token: auth_token.or_else(token_from_env),
        stats_interval,
        metrics: None,
    };
    let server = match Server::bind(&options) {
        Ok(server) => server,
        Err(error) => {
            telemetry::log::error(LOG_TARGET, format!("sweep serve: {error}"), &[]);
            std::process::exit(1);
        }
    };
    if let Err(error) = server.run() {
        telemetry::log::error(LOG_TARGET, format!("sweep serve: {error}"), &[]);
        std::process::exit(1);
    }
}

fn worker_main(mut args: impl Iterator<Item = String>) {
    let mut endpoint = EndpointFlag(None);
    let mut connect = ConnectFlags::new(Duration::from_secs(10));
    let mut heartbeat_ms: Option<u64> = None;
    while let Some(flag) = args.next() {
        if endpoint.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        if connect.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        match flag.as_str() {
            // A path has a '/', a TCP address is host:port — the same
            // heuristic ssh-style tools use.
            "--connect" => {
                let address = value_of(&flag, &mut args);
                endpoint.0 = Some(if address.contains('/') {
                    Endpoint::Unix(address.into())
                } else {
                    Endpoint::Tcp(address)
                });
            }
            "--heartbeat-ms" => {
                heartbeat_ms = Some(parse_number(&flag, &value_of(&flag, &mut args)))
            }
            other => usage_exit(&format!("unknown flag {other}")),
        }
    }
    let options =
        WorkerOptions { endpoint: endpoint.require(), connect: connect.options(), heartbeat_ms };
    if let Err(error) = service::worker::run(&options) {
        telemetry::log::error(LOG_TARGET, format!("sweep worker: {error}"), &[]);
        std::process::exit(1);
    }
}

/// Parses `n,t,k[,max_value[,max_crash_round[,partial_delivery]]]` with
/// the built-in Theorem 1 defaults for the omitted tail.
fn parse_scope(text: &str) -> ScopeSpec {
    let parts: Vec<&str> = text.split(',').collect();
    if !(3..=6).contains(&parts.len()) {
        usage_exit(&format!("invalid --scope {text:?} (expected n,t,k[,maxv[,mcr[,pd]]])"));
    }
    let n: usize = parse_number("--scope n", parts[0]);
    let t: usize = parse_number("--scope t", parts[1]);
    let k: usize = parse_number("--scope k", parts[2]);
    ScopeSpec {
        n,
        t,
        k,
        max_value: parts.get(3).map_or(k as u64, |p| parse_number("--scope max_value", p)),
        max_crash_round: parts.get(4).map_or(2, |p| parse_number("--scope max_crash_round", p)),
        partial_delivery: parts.get(5).map_or(n <= 4, |p| match *p {
            "1" => true,
            "0" => false,
            p => parse_number("--scope pd", p),
        }),
    }
}

fn submit_main(mut args: impl Iterator<Item = String>) {
    let mut endpoint = EndpointFlag(None);
    let mut connect = ConnectFlags::new(Duration::from_secs(5));
    let mut query: Option<QueryKind> = None;
    let mut model: Option<String> = None;
    let mut spec = JobSpec {
        id: std::process::id() as u64,
        query: QueryKind::Thm1,
        scope: None,
        shards: 0,
        seed: SweepConfig::DEFAULT_SEED,
        shard_cache: true,
    };
    while let Some(flag) = args.next() {
        if endpoint.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        if connect.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        match flag.as_str() {
            "--scope" => spec.scope = Some(parse_scope(&value_of(&flag, &mut args))),
            "--model" => model = Some(value_of(&flag, &mut args)),
            "--shards" => spec.shards = parse_number(&flag, &value_of(&flag, &mut args)),
            "--seed" => spec.seed = parse_number(&flag, &value_of(&flag, &mut args)),
            "--id" => spec.id = parse_number(&flag, &value_of(&flag, &mut args)),
            "--no-shard-cache" => spec.shard_cache = false,
            other if !other.starts_with('-') && query.is_none() => {
                query =
                    Some(QueryKind::parse(other).unwrap_or_else(|e| usage_exit(&format!("{e}"))));
            }
            other => usage_exit(&format!("unknown flag {other}")),
        }
    }
    spec.query =
        query.unwrap_or_else(|| usage_exit("missing query (thm1|omission|thm3|fig4|prop2)"));
    // `--model omission` is sugar for the omission query on the thm1 fold
    // (the two share the row shape); any other combination is a mistake.
    match model.as_deref() {
        None | Some("crash") => {}
        Some("omission") => match spec.query {
            QueryKind::Thm1 | QueryKind::Omission => spec.query = QueryKind::Omission,
            _ => usage_exit("--model omission only applies to thm1/omission queries"),
        },
        Some(other) => usage_exit(&format!("unknown --model {other:?} (crash|omission)")),
    }
    let endpoint = endpoint.require();

    let outcome = match client::submit_with(&endpoint, &spec, &connect.options()) {
        Ok(outcome) => outcome,
        Err(error) => {
            telemetry::log::error(LOG_TARGET, format!("sweep submit: {error}"), &[]);
            std::process::exit(1);
        }
    };

    // stdout: the same tables the one-shot mode prints for the same fold.
    match &outcome.result {
        QueryResult::Thm1(rows) => {
            println!("{}", report::thm1_table(rows));
            println!("{}", report::THM1_CLAIM);
        }
        QueryResult::Omission(rows) => {
            println!("{}", report::omission_table(rows));
            println!("{}", report::OMISSION_CLAIM);
        }
        QueryResult::Thm3(rows) => {
            println!("{}", report::thm3_table(rows));
            println!("{}", report::THM3_CLAIM);
        }
        QueryResult::Fig4(rows) => {
            println!("{}", report::fig4_table(rows));
            println!("{}", report::FIG4_CLAIM);
        }
        QueryResult::Prop2(prop2) => {
            let (exhaustive, targeted) = report::prop2_tables(prop2);
            println!("{exhaustive}");
            println!("{targeted}");
            println!("{}", report::PROP2_CLAIM);
        }
    }

    // stderr: the canonical stats line (executed work only) plus the
    // job-level cache split and fleet accounting — the lines the CI smoke
    // stage greps.
    telemetry::log::info(LOG_TARGET, outcome.stats.stats_line(), &[]);
    telemetry::log::info(
        LOG_TARGET,
        format!(
            "job stats: {} shards total, {} cached ({:.1}% cached), {} executed ({} remote); \
             {} partial folds streamed; fleet: {} workers, {} leases re-queued; \
             server wall {:.0} ms",
            outcome.shards_total,
            outcome.shards_cached,
            outcome.cached_fraction() * 100.0,
            outcome.shards_executed,
            outcome.shards_remote,
            outcome.partials,
            outcome.fleet_workers,
            outcome.leases_requeued,
            outcome.wall_ms,
        ),
        &[
            ("shards_total", outcome.shards_total.into()),
            ("shards_cached", outcome.shards_cached.into()),
            ("shards_executed", outcome.shards_executed.into()),
            ("shards_remote", outcome.shards_remote.into()),
            ("partials", outcome.partials.into()),
            ("fleet_workers", outcome.fleet_workers.into()),
            ("leases_requeued", outcome.leases_requeued.into()),
            ("wall_ms", outcome.wall_ms.into()),
        ],
    );
}

fn cancel_main(mut args: impl Iterator<Item = String>) {
    let mut endpoint = EndpointFlag(None);
    let mut connect = ConnectFlags::new(Duration::from_secs(5));
    let mut job: Option<u64> = None;
    while let Some(flag) = args.next() {
        if endpoint.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        if connect.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        match flag.as_str() {
            "--id" => job = Some(parse_number(&flag, &value_of(&flag, &mut args))),
            other => usage_exit(&format!("unknown flag {other}")),
        }
    }
    let job = job.unwrap_or_else(|| usage_exit("missing --id N"));
    match client::cancel_with(&endpoint.require(), job, &connect.options()) {
        Ok(true) => telemetry::log::info(
            LOG_TARGET,
            format!("sweep cancel: job {job} revoked"),
            &[("job", job.into())],
        ),
        Ok(false) => {
            telemetry::log::warn(
                LOG_TARGET,
                format!("sweep cancel: job {job} not found (already finished or never queued)"),
                &[("job", job.into())],
            );
            std::process::exit(1);
        }
        Err(error) => {
            telemetry::log::error(LOG_TARGET, format!("sweep cancel: {error}"), &[]);
            std::process::exit(1);
        }
    }
}

/// `sweep stats`: fetch a running daemon's live metrics snapshot and print
/// it on stdout as an aligned table (default), one JSON object (`--json`),
/// or Prometheus text exposition (`--prom`).
fn stats_main(mut args: impl Iterator<Item = String>) {
    #[derive(PartialEq)]
    enum Output {
        Table,
        Json,
        Prometheus,
    }
    let mut endpoint = EndpointFlag(None);
    let mut connect = ConnectFlags::new(Duration::from_secs(5));
    let mut output = Output::Table;
    while let Some(flag) = args.next() {
        if endpoint.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        if connect.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        match flag.as_str() {
            "--json" => output = Output::Json,
            "--prom" => output = Output::Prometheus,
            other => usage_exit(&format!("unknown flag {other}")),
        }
    }
    let snapshot = match client::stats_with(&endpoint.require(), &connect.options()) {
        Ok(snapshot) => snapshot,
        Err(error) => {
            telemetry::log::error(LOG_TARGET, format!("sweep stats: {error}"), &[]);
            std::process::exit(1);
        }
    };
    match output {
        Output::Table => print!("{}", snapshot.to_table()),
        Output::Json => println!("{}", snapshot.to_wire().render()),
        Output::Prometheus => print!("{}", snapshot.to_prometheus()),
    }
}

fn shutdown_main(mut args: impl Iterator<Item = String>) {
    let mut endpoint = EndpointFlag(None);
    let mut connect = ConnectFlags::new(Duration::from_secs(5));
    while let Some(flag) = args.next() {
        if endpoint.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        if connect.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        usage_exit(&format!("unknown flag {flag}"));
    }
    match client::shutdown_with(&endpoint.require(), &connect.options()) {
        Ok(()) => telemetry::log::info(LOG_TARGET, "sweep shutdown: daemon acknowledged", &[]),
        Err(error) => {
            telemetry::log::error(LOG_TARGET, format!("sweep shutdown: {error}"), &[]);
            std::process::exit(1);
        }
    }
}
