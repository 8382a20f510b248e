//! The `sweep submit` client: submit a job, stream its frames, return the
//! final result.

use std::io::{BufReader, Write};

use sweep::SweepStats;
use telemetry::MetricsSnapshot;

use crate::net::{ConnectOptions, Endpoint, Stream};
use crate::wire::{encode_line, Frame, FrameReader, JobSpec, QueryResult, ShardDone};
use crate::ServiceError;

/// Everything a completed job streamed back.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The final, fully merged result — bit-identical to an in-process
    /// `sweep::sweep_with_stats` fold of the same job.
    pub result: QueryResult,
    /// Statistics of the executed (non-cached) work; a fully warm job
    /// reports zero scenarios.
    pub stats: SweepStats,
    /// Shards the job was partitioned into, over all cases.
    pub shards_total: u64,
    /// Shards replayed from the daemon's accumulator cache.
    pub shards_cached: u64,
    /// Shards executed on the daemon's worker pool.
    pub shards_executed: u64,
    /// Remote workers registered with the daemon when the job finished.
    pub fleet_workers: u64,
    /// Of the executed shards, how many ran on remote workers.
    pub shards_remote: u64,
    /// Lease re-queues the job survived.
    pub leases_requeued: u64,
    /// Every `shard-done` frame, in arrival order.
    pub shard_frames: Vec<ShardDone>,
    /// Number of `partial` frames received.
    pub partials: usize,
    /// Server-side wall time of the job in milliseconds.
    pub wall_ms: f64,
}

impl JobOutcome {
    /// Fraction of shards served from the accumulator cache, in `[0, 1]`.
    pub fn cached_fraction(&self) -> f64 {
        if self.shards_total == 0 {
            0.0
        } else {
            self.shards_cached as f64 / self.shards_total as f64
        }
    }
}

fn write_frame(stream: &mut Stream, frame: &Frame) -> Result<(), ServiceError> {
    stream
        .write_all(encode_line(frame).as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| ServiceError::io("sending a frame", e))
}

/// Connects under `options`: capped-backoff retries until the connect
/// timeout elapses, then — on a TCP endpoint with a configured token —
/// the `hello` auth handshake as the first frame.  Unix sockets skip the
/// handshake (filesystem permissions already gate them).
pub(crate) fn open(endpoint: &Endpoint, options: &ConnectOptions) -> Result<Stream, ServiceError> {
    let mut stream = Stream::connect_with(endpoint, options.timeout)?;
    if let (Some(token), Endpoint::Tcp(_)) = (&options.auth_token, endpoint) {
        write_frame(&mut stream, &Frame::Hello { token: token.clone() })?;
    }
    Ok(stream)
}

/// Submits one job to a running daemon and blocks until its terminal
/// frame, collecting the streamed progress along the way.
///
/// # Errors
///
/// Returns connection and wire failures, a server-reported job error, or
/// a protocol violation (connection closed mid-job, mismatched job id).
pub fn submit(endpoint: &Endpoint, spec: &JobSpec) -> Result<JobOutcome, ServiceError> {
    submit_with(endpoint, spec, &ConnectOptions::default())
}

/// [`submit`] with explicit connect options (retry budget, auth token).
///
/// # Errors
///
/// As [`submit`].
pub fn submit_with(
    endpoint: &Endpoint,
    spec: &JobSpec,
    options: &ConnectOptions,
) -> Result<JobOutcome, ServiceError> {
    let mut stream = open(endpoint, options)?;
    write_frame(&mut stream, &Frame::Job(spec.clone()))?;
    let mut frames = FrameReader::new(BufReader::new(stream));
    let mut shard_frames = Vec::new();
    let mut partials = 0usize;
    loop {
        let Some(frame) = frames.next_frame("reading a frame")? else {
            return Err(ServiceError::Protocol("connection closed before the job finished".into()));
        };
        match frame {
            Frame::ShardDone(frame) => shard_frames.push(frame),
            Frame::Partial(_) => partials += 1,
            Frame::JobDone(done) => {
                if done.job != spec.id {
                    return Err(ServiceError::Protocol(format!(
                        "job-done for job {} while waiting on job {}",
                        done.job, spec.id
                    )));
                }
                return Ok(JobOutcome {
                    result: done.result,
                    stats: done.stats,
                    shards_total: done.shards_total,
                    shards_cached: done.shards_cached,
                    shards_executed: done.shards_executed,
                    fleet_workers: done.fleet_workers,
                    shards_remote: done.shards_remote,
                    leases_requeued: done.leases_requeued,
                    shard_frames,
                    partials,
                    wall_ms: done.wall_ms,
                });
            }
            Frame::Error(error) => {
                return Err(ServiceError::Remote { kind: error.kind, message: error.message })
            }
            other => {
                return Err(ServiceError::Protocol(format!("unexpected frame {other:?}")));
            }
        }
    }
}

/// Asks a running daemon to revoke a queued or running job by its id,
/// returning whether the daemon knew the job when the cancel arrived.
/// The revoked job itself terminates with a `cancelled` error frame on
/// the connection that submitted it.
///
/// # Errors
///
/// Returns connection and wire failures, a server-reported error, or a
/// protocol violation (connection closed before the acknowledgement).
pub fn cancel(endpoint: &Endpoint, job: u64) -> Result<bool, ServiceError> {
    cancel_with(endpoint, job, &ConnectOptions::default())
}

/// [`cancel`] with explicit connect options (retry budget, auth token).
///
/// # Errors
///
/// As [`cancel`].
pub fn cancel_with(
    endpoint: &Endpoint,
    job: u64,
    options: &ConnectOptions,
) -> Result<bool, ServiceError> {
    match request(endpoint, options, &Frame::Cancel { job }, "cancel ack")? {
        Frame::CancelAck { job: acked, found } if acked == job => Ok(found),
        Frame::CancelAck { job: acked, .. } => Err(ServiceError::Protocol(format!(
            "cancel-ack for job {acked} while cancelling job {job}"
        ))),
        other => Err(ServiceError::Protocol(format!("unexpected frame {other:?}"))),
    }
}

/// Asks a running daemon for a point-in-time metrics snapshot — job and
/// phase metrics from its registry plus sampled cache/store/lease
/// counters (see the `telemetry` crate for the metric names).
///
/// # Errors
///
/// Returns connection and wire failures, a server-reported error, or a
/// protocol violation (connection closed before the snapshot).
pub fn stats(endpoint: &Endpoint) -> Result<MetricsSnapshot, ServiceError> {
    stats_with(endpoint, &ConnectOptions::default())
}

/// [`stats`] with explicit connect options (retry budget, auth token).
///
/// # Errors
///
/// As [`stats`].
pub fn stats_with(
    endpoint: &Endpoint,
    options: &ConnectOptions,
) -> Result<MetricsSnapshot, ServiceError> {
    match request(endpoint, options, &Frame::Stats, "stats result")? {
        Frame::StatsResult(snapshot) => Ok(snapshot),
        other => Err(ServiceError::Protocol(format!("unexpected frame {other:?}"))),
    }
}

/// Asks a running daemon to shut down gracefully and waits for the
/// acknowledgement.
///
/// # Errors
///
/// Returns connection and wire failures, or a protocol violation if the
/// daemon closes the connection without acknowledging.
pub fn shutdown(endpoint: &Endpoint) -> Result<(), ServiceError> {
    shutdown_with(endpoint, &ConnectOptions::default())
}

/// [`shutdown`] with explicit connect options (retry budget, auth token).
///
/// # Errors
///
/// As [`shutdown`].
pub fn shutdown_with(endpoint: &Endpoint, options: &ConnectOptions) -> Result<(), ServiceError> {
    match request(endpoint, options, &Frame::Shutdown, "shutdown ack")? {
        Frame::ShuttingDown => Ok(()),
        other => Err(ServiceError::Protocol(format!("unexpected frame {other:?}"))),
    }
}

/// Sends one request frame and reads the daemon's single reply.  An error
/// frame becomes [`ServiceError::Remote`]; a hang-up before the reply is a
/// protocol violation naming what was `awaited`.
fn request(
    endpoint: &Endpoint,
    options: &ConnectOptions,
    frame: &Frame,
    awaited: &str,
) -> Result<Frame, ServiceError> {
    let mut stream = open(endpoint, options)?;
    write_frame(&mut stream, frame)?;
    let mut frames = FrameReader::new(BufReader::new(stream));
    match frames.next_frame(&format!("reading the {awaited}"))? {
        Some(Frame::Error(error)) => {
            Err(ServiceError::Remote { kind: error.kind, message: error.message })
        }
        Some(reply) => Ok(reply),
        None => Err(ServiceError::Protocol(format!("daemon closed without the {awaited}"))),
    }
}
