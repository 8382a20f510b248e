//! The remote sweep worker behind `sweep worker --connect`.
//!
//! A worker is deliberately thin: it registers with a coordinator, then
//! loops — pull one lease, rebuild the scenario source self-containedly
//! from the [`TaskSpec`], recompute the identical block-aligned shard
//! partition with `sweep::shard_ranges`, execute the shard through the
//! very same `sweep::fold_shard_stats` kernel the local pool uses, and
//! stream the accumulator back as a `lease-done` frame.  All policy
//! (TTLs, re-queue, dedup, fallback) lives coordinator-side in
//! [`crate::lease`]; the worker's only liveness duty is the heartbeat
//! thread, which keeps beating while a long fold occupies the read loop.
//!
//! Determinism note: the per-shard accumulators are integers and booleans
//! throughout, so their wire round-trip is lossless and a remotely
//! executed shard merges bit-identically to a locally executed one.  A
//! worker that dies mid-shard simply never completes its lease; the
//! coordinator re-queues the shard and the fold is unaffected.

use std::io::{BufReader, Write};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use set_consensus::BatchRunner;
use sweep::experiments::{self, Fig4Reducer, Thm1Reducer, Thm3Reducer, THM3_CASES};
use sweep::{fold_shard_stats, shard_ranges, Reducer, Scenario, ScenarioSource, SweepStats};
use synchrony::ModelError;

use crate::client::open;
use crate::net::{ConnectOptions, Endpoint, Stream};
use crate::pool::WorkerState;
use crate::wire::{
    encode_line, Frame, FrameReader, LeaseDone, LeaseFailed, QueryKind, TaskSpec, ToWire, Value,
};
use crate::ServiceError;

/// Log target of the worker's structured stderr lines.
const LOG_TARGET: &str = "service::worker";

/// How a worker process is launched.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// The coordinator to register with.
    pub endpoint: Endpoint,
    /// Connect behavior: retry budget and the TCP auth token.
    pub connect: ConnectOptions,
    /// Heartbeat interval override in milliseconds.  `None` follows the
    /// cadence the coordinator advertises in `registered`; `Some(0)`
    /// disables heartbeats entirely (fault-injection harnesses use this
    /// to simulate a worker whose heartbeat thread died).
    pub heartbeat_ms: Option<u64>,
}

impl WorkerOptions {
    /// Options following the coordinator-advertised heartbeat cadence.
    pub fn new(endpoint: Endpoint) -> Self {
        WorkerOptions { endpoint, connect: ConnectOptions::default(), heartbeat_ms: None }
    }
}

/// The shared write half of the worker's connection (the heartbeat thread
/// and the lease loop both send on it).
type Writer = Arc<Mutex<Stream>>;

fn send(writer: &Writer, frame: &Frame) -> bool {
    let line = encode_line(frame);
    let mut stream = writer.lock().expect("worker writer lock");
    stream.write_all(line.as_bytes()).and_then(|_| stream.flush()).is_ok()
}

/// Connects to the coordinator, registers, and serves leases until the
/// coordinator shuts down or the connection drops.
///
/// # Errors
///
/// Returns connect/auth failures and protocol violations during the
/// handshake.  After registration the worker is fault-tolerant by
/// construction: a dropped connection ends the loop cleanly (`Ok`),
/// because the coordinator re-queues whatever this worker was holding.
pub fn run(options: &WorkerOptions) -> Result<(), ServiceError> {
    let stream = open(&options.endpoint, &options.connect)?;
    let write_half = stream.try_clone()?;
    let writer: Writer = Arc::new(Mutex::new(write_half));
    let mut reader = FrameReader::new(BufReader::new(stream));

    if !send(&writer, &Frame::Register) {
        return Err(ServiceError::Protocol("connection closed during registration".into()));
    }
    let (worker_id, advertised_heartbeat_ms) = match read_frame(&mut reader)? {
        Some(Frame::Registered { worker, heartbeat_ms, .. }) => (worker, heartbeat_ms),
        Some(Frame::Error(error)) => {
            return Err(ServiceError::Remote { kind: error.kind, message: error.message })
        }
        Some(other) => {
            return Err(ServiceError::Protocol(format!(
                "expected a registered frame, got {other:?}"
            )))
        }
        None => return Err(ServiceError::Protocol("connection closed during registration".into())),
    };
    let heartbeat_ms = options.heartbeat_ms.unwrap_or(advertised_heartbeat_ms);
    telemetry::log::info(
        LOG_TARGET,
        format!(
            "sweep worker: registered as worker {worker_id} with {} (heartbeat {heartbeat_ms} ms)",
            options.endpoint
        ),
        &[
            ("worker", worker_id.into()),
            ("endpoint", options.endpoint.to_string().into()),
            ("heartbeat_ms", heartbeat_ms.into()),
        ],
    );

    // The heartbeat thread keeps the worker alive in the coordinator's
    // lease table while a long fold occupies the lease loop below.  The
    // stop channel makes shutdown responsive: a plain sleep loop would
    // hold the process open for up to one interval.
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let heartbeat = (heartbeat_ms > 0).then(|| {
        let writer = Arc::clone(&writer);
        let interval = Duration::from_millis(heartbeat_ms);
        thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stop_rx.recv_timeout(interval) {
                if !send(&writer, &Frame::Heartbeat { worker: worker_id }) {
                    break;
                }
            }
        })
    });

    // One warm runner + scratch slot, reused across leases — the same
    // warmth the local pool keeps, with the same bit-identity guarantee.
    let mut state =
        WorkerState { runner: BatchRunner::cached().structure_reuse(true), scratch: None };
    loop {
        match read_frame(&mut reader)? {
            Some(Frame::Lease(grant)) => {
                telemetry::log::info(
                    LOG_TARGET,
                    format!(
                        "sweep worker {worker_id}: executing lease {} (gen {}): \
                         shard {}/{} of {} case {}",
                        grant.lease,
                        grant.generation,
                        grant.task.shard,
                        grant.task.shards,
                        grant.task.query.name(),
                        grant.task.case,
                    ),
                    &[
                        ("worker", worker_id.into()),
                        ("lease", grant.lease.into()),
                        ("generation", grant.generation.into()),
                        ("shard", grant.task.shard.into()),
                        ("shards", grant.task.shards.into()),
                        ("query", grant.task.query.name().into()),
                        ("case", grant.task.case.into()),
                    ],
                );
                let reply = match execute_task(&grant.task, &mut state) {
                    Ok((payload, range, stats)) => Frame::LeaseDone(LeaseDone {
                        lease: grant.lease,
                        generation: grant.generation,
                        worker: worker_id,
                        start: range.0,
                        end: range.1,
                        stats,
                        payload,
                    }),
                    Err(error) => Frame::LeaseFailed(LeaseFailed {
                        lease: grant.lease,
                        generation: grant.generation,
                        message: error.to_string(),
                    }),
                };
                if !send(&writer, &reply) {
                    break;
                }
            }
            Some(Frame::LeaseRevoke { lease, generation }) => {
                // Informational: the grant expired coordinator-side while
                // this worker was silent.  Execution here is synchronous,
                // so by the time a revoke is read any result was already
                // sent — and will be dropped by its stale generation.
                telemetry::log::warn(
                    LOG_TARGET,
                    format!("sweep worker {worker_id}: lease {lease} (gen {generation}) revoked"),
                    &[
                        ("worker", worker_id.into()),
                        ("lease", lease.into()),
                        ("generation", generation.into()),
                    ],
                );
            }
            Some(Frame::ShuttingDown) | None => break,
            Some(other) => {
                return Err(ServiceError::Protocol(format!("unexpected frame {other:?}")));
            }
        }
    }
    drop(stop_tx);
    if let Some(handle) = heartbeat {
        let _ = handle.join();
    }
    telemetry::log::info(
        LOG_TARGET,
        format!("sweep worker {worker_id}: disconnected"),
        &[("worker", worker_id.into())],
    );
    Ok(())
}

/// Reads one frame, `None` on EOF.
fn read_frame(frames: &mut FrameReader<BufReader<Stream>>) -> Result<Option<Frame>, ServiceError> {
    frames.next_frame("reading a frame")
}

/// The per-scenario job of a query, as a plain function pointer (mirrors
/// the local scheduler in `server`).
type JobFn<I> = fn(&mut BatchRunner, &Scenario) -> Result<I, ModelError>;

/// Rebuilds the task's scenario source and executes its shard through the
/// shared `fold_shard_stats` kernel, returning the accumulator's wire
/// rendering, the range actually covered, and the execution statistics.
pub(crate) fn execute_task(
    task: &TaskSpec,
    state: &mut WorkerState,
) -> Result<(Value, (usize, usize), SweepStats), ModelError> {
    match task.query {
        QueryKind::Thm1 => {
            let Some(scope) = &task.scope else {
                return Err(ModelError::InvalidTaskParameter {
                    reason: "thm1 lease without an explicit scope".into(),
                });
            };
            let source = experiments::thm1_source(scope.enumeration(), scope.k)?;
            fold_task(&source, &Thm1Reducer, experiments::thm1_job, task, state)
        }
        QueryKind::Omission => {
            let Some(scope) = &task.scope else {
                return Err(ModelError::InvalidTaskParameter {
                    reason: "omission lease without an explicit scope".into(),
                });
            };
            let source = experiments::omission_source(scope.omission(), scope.k)?;
            fold_task(&source, &Thm1Reducer, experiments::thm1_job, task, state)
        }
        QueryKind::Thm3 => {
            let &(n, t, k) =
                THM3_CASES.get(task.case).ok_or_else(|| ModelError::InvalidTaskParameter {
                    reason: format!("thm3 lease for unknown case {}", task.case),
                })?;
            let source = experiments::thm3_source(n, t, k, task.seed)?;
            fold_task(&source, &Thm3Reducer, experiments::thm3_job, task, state)
        }
        QueryKind::Fig4 => {
            let (source, _shapes) = experiments::fig4_source()?;
            fold_task(&source, &Fig4Reducer, experiments::fig4_job, task, state)
        }
        QueryKind::Prop2 => Err(ModelError::InvalidTaskParameter {
            reason: "prop2 is job-level work and is never shard-leased".into(),
        }),
    }
}

fn fold_task<S, R>(
    source: &S,
    reducer: &R,
    job: JobFn<R::Item>,
    task: &TaskSpec,
    state: &mut WorkerState,
) -> Result<(Value, (usize, usize), SweepStats), ModelError>
where
    S: ScenarioSource,
    R: Reducer,
    R::Acc: ToWire,
{
    let ranges = shard_ranges(source.len(), task.shards, source.structure_block());
    let range =
        ranges.get(task.shard).copied().ok_or_else(|| ModelError::InvalidTaskParameter {
            reason: format!(
                "shard {} out of range (partition has {} shards)",
                task.shard,
                ranges.len()
            ),
        })?;
    let (acc, stats) = fold_shard_stats(
        source,
        reducer,
        &job,
        &mut state.runner,
        &mut state.scratch,
        range,
        true,
    )?;
    Ok((acc.to_wire(), range, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{FromWire, ScopeSpec};
    use sweep::experiments::Thm1Outcome;

    fn warm_state() -> WorkerState {
        WorkerState { runner: BatchRunner::cached().structure_reuse(true), scratch: None }
    }

    #[test]
    fn thm1_task_matches_the_local_fold() {
        let scope = ScopeSpec {
            n: 3,
            t: 1,
            k: 1,
            max_value: 1,
            max_crash_round: 0,
            partial_delivery: false,
        };
        let task = TaskSpec {
            query: QueryKind::Thm1,
            case: 0,
            scope: Some(scope),
            seed: 0,
            shards: 3,
            shard: 1,
        };
        let mut state = warm_state();
        let (payload, range, _stats) = execute_task(&task, &mut state).expect("task executes");
        // Reference: the same shard folded directly.
        let config = scope.enumeration();
        let source = experiments::thm1_source(config, 1).unwrap();
        let ranges = shard_ranges(source.len(), 3, source.structure_block());
        assert_eq!(range, ranges[1]);
        let mut reference = warm_state();
        let (expected, _) = fold_shard_stats(
            &source,
            &Thm1Reducer,
            &(experiments::thm1_job as JobFn<_>),
            &mut reference.runner,
            &mut reference.scratch,
            ranges[1],
            true,
        )
        .unwrap();
        assert_eq!(Thm1Outcome::from_wire(&payload).unwrap(), expected);
    }

    #[test]
    fn malformed_tasks_are_typed_rejections() {
        let mut state = warm_state();
        // thm1 without a scope.
        let no_scope =
            TaskSpec { query: QueryKind::Thm1, case: 0, scope: None, seed: 0, shards: 2, shard: 0 };
        assert!(execute_task(&no_scope, &mut state).is_err());
        // thm3 with an out-of-range case.
        let bad_case = TaskSpec {
            query: QueryKind::Thm3,
            case: 99,
            scope: None,
            seed: 0,
            shards: 2,
            shard: 0,
        };
        assert!(execute_task(&bad_case, &mut state).is_err());
        // prop2 is never leasable.
        let prop2 = TaskSpec {
            query: QueryKind::Prop2,
            case: 0,
            scope: None,
            seed: 0,
            shards: 1,
            shard: 0,
        };
        assert!(execute_task(&prop2, &mut state).is_err());
        // shard index beyond the partition.
        let bad_shard =
            TaskSpec { query: QueryKind::Fig4, case: 0, scope: None, seed: 0, shards: 2, shard: 7 };
        assert!(execute_task(&bad_shard, &mut state).is_err());
    }
}
