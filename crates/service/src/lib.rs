//! The sweep service layer: a long-running daemon (`sweep serve`) that
//! accepts sweep jobs over a Unix/TCP socket, schedules each job's
//! block-aligned shards across a persistent worker pool, streams progress
//! frames back as shards complete, and replays completed per-shard reducer
//! accumulators from an incremental, fingerprint-keyed cache — so a
//! repeated or overlapping query executes only its cold shards.
//!
//! The layer turns the batch engine of the `sweep` crate into a queryable
//! server without changing any fold bit: determinism (shard-, thread- and
//! knob-invariance, PRs 1–4) is exactly what makes per-shard accumulators
//! safe to cache across requests.  Module map:
//!
//! * [`wire`] — the line-delimited JSON protocol (a hand-rolled codec:
//!   `ToWire`/`FromWire` traits over a small JSON value model);
//! * [`fingerprint`] — the cache key: scope, protocol set, reducer id,
//!   seed, shard partition and code version, with the invalidation rule on
//!   version mismatch;
//! * [`cache`] — the typed shard-accumulator store;
//! * [`store`] — the durable backend behind it: an object-safe
//!   [`CacheStore`] seam with a CRC-framed append-log + snapshot
//!   implementation ([`DurableStore`]) and byte-budgeted LRU eviction;
//! * [`pool`] — the persistent worker pool (warm `BatchRunner` per
//!   worker, shared across jobs and connections);
//! * [`server`] — accept loop, bounded job queue, concurrent
//!   dispatchers, shard scheduler, streaming, cancellation, graceful
//!   shutdown;
//! * [`lease`] — the coordinator-side lease table of the distributed
//!   fleet: shard grants with TTL expiry, heartbeat liveness, capped
//!   backoff re-queue, generation-based duplicate drop, and fallback to
//!   local execution;
//! * [`worker`] — the remote worker process loop behind
//!   `sweep worker --connect`;
//! * [`client`] — blocking submit/cancel/shutdown calls used by
//!   `sweep submit`/`sweep cancel` and the end-to-end tests;
//! * [`net`] — Unix/TCP endpoints behind one stream type, with
//!   capped-backoff connect retries and the TCP auth handshake.
//!
//! The frame lifecycle and cache design are documented in
//! `docs/ARCHITECTURE.md` ("The service layer", "Persistence and
//! eviction", and "Distributed execution").

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod client;
pub mod fingerprint;
pub mod lease;
pub mod net;
pub mod pool;
pub mod server;
pub mod store;
pub mod wire;
pub mod worker;

use std::fmt;

pub use client::{cancel, stats, submit, JobOutcome};
pub use net::{ConnectOptions, Endpoint};
pub use server::{ServeOptions, Server};
pub use store::{CacheStore, DurableStore, StoreAccounting, StoredEntry};
pub use wire::{ErrorKind, JobSpec, QueryKind, QueryResult, ScopeSpec};
pub use worker::WorkerOptions;

/// Any failure of the service layer, from transport to protocol to model.
#[derive(Debug)]
pub enum ServiceError {
    /// An I/O failure, with what was being attempted.
    Io {
        /// What the operation was doing.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A frame failed to encode or decode.
    Wire(wire::WireError),
    /// A model error raised while executing a job locally.
    Model(synchrony::ModelError),
    /// The peer violated the frame protocol.
    Protocol(String),
    /// The server reported a job failure.
    Remote {
        /// The machine-readable failure class from the error frame.
        kind: wire::ErrorKind,
        /// The human-readable description.
        message: String,
    },
}

impl ServiceError {
    pub(crate) fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        ServiceError::Io { context: context.into(), source }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io { context, source } => write!(f, "{context}: {source}"),
            ServiceError::Wire(error) => write!(f, "{error}"),
            ServiceError::Model(error) => write!(f, "model error: {error}"),
            ServiceError::Protocol(message) => write!(f, "protocol violation: {message}"),
            ServiceError::Remote { kind, message } => {
                write!(f, "server error ({}): {message}", kind.name())
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Io { source, .. } => Some(source),
            ServiceError::Wire(error) => Some(error),
            _ => None,
        }
    }
}

impl From<wire::WireError> for ServiceError {
    fn from(error: wire::WireError) -> Self {
        ServiceError::Wire(error)
    }
}

impl From<synchrony::ModelError> for ServiceError {
    fn from(error: synchrony::ModelError) -> Self {
        ServiceError::Model(error)
    }
}
