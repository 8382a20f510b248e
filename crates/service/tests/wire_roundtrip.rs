//! Wire-format round-trip property tests: every frame the protocol can
//! produce encodes to one JSON line that decodes back to an equal value,
//! and adversarial or truncated input is rejected instead of panicking.
//! The wire shape is fixed by hand in `service::wire`, so these tests pin
//! the on-wire format itself.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service::wire::{
    decode_line, encode_line, ErrorFrame, ErrorKind, Frame, FromWire, JobDone, JobSpec, LeaseDone,
    LeaseFailed, LeaseGrant, Partial, QueryKind, QueryResult, ScopeSpec, ShardDone, TaskSpec,
    ToWire, Value,
};
use service::{JobOutcome, ServiceError};
use sweep::experiments::{
    Fig4Row, Prop2ExhaustiveRow, Prop2Report, Prop2Targeted, Thm1Case, Thm3Row,
};
use sweep::{CursorStats, SweepStats};
use telemetry::{HistogramSnapshot, MetricsSnapshot};

fn random_stats(rng: &mut StdRng) -> SweepStats {
    let scenarios = rng.random_range(0..1_000_000u64);
    SweepStats {
        scenarios,
        covered: scenarios * rng.random_range(1..121u64),
        cache: knowledge::CacheStats {
            hits: rng.random_range(0..u32::MAX as u64),
            misses: rng.random_range(0..1000u64),
        },
        runs: set_consensus::RunReuseStats {
            simulated: rng.random_range(0..1000u64),
            reused: rng.random_range(0..1_000_000u64),
        },
        cursor: CursorStats {
            materialized: rng.random_range(0..100u64),
            stepped: rng.random_range(0..1_000_000u64),
            patterns_unranked: rng.random_range(0..10_000u64),
        },
    }
}

fn random_spec(rng: &mut StdRng) -> JobSpec {
    let query = match rng.random_range(0..4u64) {
        0 => QueryKind::Thm1,
        1 => QueryKind::Thm3,
        2 => QueryKind::Fig4,
        _ => QueryKind::Prop2,
    };
    JobSpec {
        id: rng.random_range(0..u64::MAX),
        query,
        scope: if query == QueryKind::Thm1 && rng.random_bool(0.5) {
            Some(ScopeSpec {
                n: rng.random_range(2..9u64) as usize,
                t: rng.random_range(0..3u64) as usize,
                k: rng.random_range(1..4u64) as usize,
                max_value: rng.random_range(0..5u64),
                max_crash_round: rng.random_range(1..4u64) as u32,
                partial_delivery: rng.random_bool(0.5),
            })
        } else {
            None
        },
        shards: rng.random_range(0..64u64) as usize,
        seed: rng.random_range(0..u64::MAX),
        shard_cache: rng.random_bool(0.5),
    }
}

fn random_result(rng: &mut StdRng) -> QueryResult {
    match rng.random_range(0..4u64) {
        0 => QueryResult::Thm1(
            (0..rng.random_range(0..5u64))
                .map(|_| Thm1Case {
                    n: rng.random_range(2..9u64) as usize,
                    t: rng.random_range(0..4u64) as usize,
                    k: rng.random_range(1..4u64) as usize,
                    // Deliberately beyond u64 (scope sizes are u128 on the
                    // wire and must survive exactly), but within the
                    // engine's usize::MAX scope bound times a pattern
                    // block — always below i128::MAX.
                    adversaries: (rng.random_range(0..u32::MAX as u64) as u128) << 64
                        | rng.random_range(0..u64::MAX) as u128,
                    correctness_violations: rng.random_range(0..100u64),
                    beaten_by: rng.random_range(0..3u64) as usize,
                    structure_violations: rng.random_range(0..100u64),
                })
                .collect(),
        ),
        1 => QueryResult::Thm3(
            (0..rng.random_range(0..5u64))
                .map(|_| Thm3Row {
                    n: rng.random_range(2..13u64) as usize,
                    t: rng.random_range(0..10u64) as usize,
                    k: rng.random_range(1..5u64) as usize,
                    f: rng.random_range(0..10u64) as usize,
                    runs: rng.random_range(0..500u64),
                    worst: rng.random_range(0..10u64) as u32,
                    bound: rng.random_range(0..10u64) as u32,
                    violations: rng.random_range(0..10u64),
                })
                .collect(),
        ),
        2 => QueryResult::Fig4(
            (0..rng.random_range(0..5u64))
                .map(|_| Fig4Row {
                    k: rng.random_range(1..6u64) as usize,
                    t: rng.random_range(1..81u64) as usize,
                    n: rng.random_range(2..90u64) as usize,
                    bound: rng.random_range(1..20u64) as usize,
                    latest: [
                        rng.random_range(0..20u64) as u32,
                        rng.random_range(0..20u64) as u32,
                        rng.random_range(0..20u64) as u32,
                        rng.random_range(0..20u64) as u32,
                    ],
                    violations: rng.random_range(0..10u64),
                })
                .collect(),
        ),
        _ => QueryResult::Prop2(Prop2Report {
            exhaustive: (0..rng.random_range(0..3u64))
                .map(|_| Prop2ExhaustiveRow {
                    n: rng.random_range(2..5u64) as usize,
                    t: rng.random_range(1..3u64) as usize,
                    states: rng.random_range(0..100u64) as usize,
                    with_capacity: rng.random_range(0..100u64) as usize,
                    connected: rng.random_range(0..100u64) as usize,
                    counterexamples: rng.random_range(0..100u64) as usize,
                })
                .collect(),
            targeted: Prop2Targeted {
                hidden_capacity: rng.random_range(0..4u64) as usize,
                executions: rng.random_range(0..600u64) as usize,
                star_states: rng.random_range(0..100u64) as usize,
                star_facets: rng.random_range(0..100u64) as usize,
                star_betti: (0..rng.random_range(0..4u64))
                    .map(|_| rng.random_range(0..9u64) as usize)
                    .collect(),
                star_connected: rng.random_bool(0.5),
                link_betti: (0..rng.random_range(0..4u64))
                    .map(|_| rng.random_range(0..9u64) as usize)
                    .collect(),
                link_connected: rng.random_bool(0.5),
            },
        }),
    }
}

fn random_kind(rng: &mut StdRng) -> ErrorKind {
    match rng.random_range(0..7u64) {
        0 => ErrorKind::Protocol,
        1 => ErrorKind::QueueFull,
        2 => ErrorKind::Cancelled,
        3 => ErrorKind::Merge,
        4 => ErrorKind::Model,
        5 => ErrorKind::Unauthorized,
        _ => ErrorKind::Internal,
    }
}

fn random_task(rng: &mut StdRng) -> TaskSpec {
    let query = match rng.random_range(0..3u64) {
        0 => QueryKind::Thm1,
        1 => QueryKind::Thm3,
        _ => QueryKind::Fig4,
    };
    TaskSpec {
        query,
        case: rng.random_range(0..4u64) as usize,
        scope: if query == QueryKind::Thm1 {
            Some(ScopeSpec {
                n: rng.random_range(2..9u64) as usize,
                t: rng.random_range(0..3u64) as usize,
                k: rng.random_range(1..4u64) as usize,
                max_value: rng.random_range(0..5u64),
                max_crash_round: rng.random_range(1..4u64) as u32,
                partial_delivery: rng.random_bool(0.5),
            })
        } else {
            None
        },
        seed: rng.random_range(0..u64::MAX),
        shards: rng.random_range(1..65u64) as usize,
        shard: rng.random_range(0..64u64) as usize,
    }
}

fn random_snapshot(rng: &mut StdRng) -> MetricsSnapshot {
    MetricsSnapshot {
        counters: (0..rng.random_range(0..6u64))
            .map(|i| (format!("jobs.counter{i}"), rng.random_range(0..u64::MAX)))
            .collect(),
        gauges: (0..rng.random_range(0..4u64))
            .map(|i| {
                (
                    format!("queue.gauge{i}"),
                    rng.random_range(0..u64::MAX) as i64, // full i64 range incl. negatives
                )
            })
            .collect(),
        histograms: (0..rng.random_range(0..4u64))
            .map(|i| HistogramSnapshot {
                name: format!("phase.hist{i}_ms"),
                count: rng.random_range(0..u64::MAX),
                sum_us: rng.random_range(0..u64::MAX),
                max_us: rng.random_range(0..u64::MAX),
                // Dyadic fractions survive the float round trip exactly
                // (and real percentiles are bucket midpoints: `.0`/`.5`).
                p50_us: rng.random_range(0..1_000_000u64) as f64 / 2.0,
                p95_us: rng.random_range(0..1_000_000u64) as f64 / 2.0,
                p99_us: rng.random_range(0..1_000_000u64) as f64 / 2.0,
            })
            .collect(),
    }
}

fn random_frame(rng: &mut StdRng) -> Frame {
    match rng.random_range(0..19u64) {
        0 => Frame::Job(random_spec(rng)),
        1 => Frame::Shutdown,
        2 => Frame::ShuttingDown,
        3 => Frame::ShardDone(ShardDone {
            job: rng.random_range(0..u64::MAX),
            case: rng.random_range(0..4u64) as usize,
            cases: rng.random_range(1..5u64) as usize,
            shard: rng.random_range(0..64u64) as usize,
            shards: rng.random_range(1..65u64) as usize,
            start: rng.random_range(0..100_000u64) as usize,
            end: rng.random_range(0..200_000u64) as usize,
            cached: rng.random_bool(0.5),
            stats: random_stats(rng),
        }),
        4 => Frame::Partial(Partial {
            job: rng.random_range(0..u64::MAX),
            case: rng.random_range(0..4u64) as usize,
            shards_done: rng.random_range(0..64u64) as usize,
            shards: rng.random_range(1..65u64) as usize,
            scenarios_done: rng.random_range(0..1_000_000u64),
            fold: Value::Object(vec![
                ("violations".into(), Value::Int(rng.random_range(0..100u64) as i128)),
                ("note".into(), Value::Str("prefix \"fold\"\n".into())),
            ]),
        }),
        5 => Frame::JobDone(JobDone {
            job: rng.random_range(0..u64::MAX),
            result: random_result(rng),
            stats: random_stats(rng),
            shards_total: rng.random_range(0..100u64),
            shards_cached: rng.random_range(0..100u64),
            shards_executed: rng.random_range(0..100u64),
            fleet_workers: rng.random_range(0..8u64),
            shards_remote: rng.random_range(0..100u64),
            leases_requeued: rng.random_range(0..10u64),
            // A dyadic fraction survives the float round trip exactly (and
            // `{:?}` is shortest-round-trip anyway).
            wall_ms: rng.random_range(0..1_000_000u64) as f64 / 64.0,
        }),
        6 => Frame::Cancel { job: rng.random_range(0..u64::MAX) },
        7 => Frame::CancelAck { job: rng.random_range(0..u64::MAX), found: rng.random_bool(0.5) },
        8 => Frame::Error(ErrorFrame {
            job: if rng.random_bool(0.5) { Some(rng.random_range(0..u64::MAX)) } else { None },
            kind: random_kind(rng),
            message: format!(
                "error #{} with \"quotes\" and \\slashes\\",
                rng.random_range(0..99u64)
            ),
        }),
        9 => Frame::Hello { token: format!("secret-{}", rng.random_range(0..u64::MAX)) },
        10 => Frame::Register,
        11 => Frame::Registered {
            worker: rng.random_range(1..u64::MAX),
            lease_ttl_ms: rng.random_range(1..100_000u64),
            heartbeat_ms: rng.random_range(1..25_000u64),
        },
        12 => Frame::Heartbeat { worker: rng.random_range(1..u64::MAX) },
        13 => Frame::Lease(LeaseGrant {
            lease: rng.random_range(1..u64::MAX),
            generation: rng.random_range(0..1000u64),
            task: random_task(rng),
        }),
        14 => Frame::LeaseDone(LeaseDone {
            lease: rng.random_range(1..u64::MAX),
            generation: rng.random_range(0..1000u64),
            worker: rng.random_range(1..u64::MAX),
            start: rng.random_range(0..100_000u64) as usize,
            end: rng.random_range(0..200_000u64) as usize,
            stats: random_stats(rng),
            payload: Value::Object(vec![
                ("violations".into(), Value::Int(rng.random_range(0..100u64) as i128)),
                ("beaten".into(), Value::Bool(rng.random_bool(0.5))),
            ]),
        }),
        15 => Frame::LeaseRevoke {
            lease: rng.random_range(1..u64::MAX),
            generation: rng.random_range(0..1000u64),
        },
        16 => Frame::LeaseFailed(LeaseFailed {
            lease: rng.random_range(1..u64::MAX),
            generation: rng.random_range(0..1000u64),
            message: format!("lease error #{}", rng.random_range(0..99u64)),
        }),
        17 => Frame::Stats,
        _ => Frame::StatsResult(random_snapshot(rng)),
    }
}

/// Adversarial `stats-result` frames — missing sections, non-pair metric
/// entries, ill-typed values, out-of-range numbers — are clean decode
/// errors, never panics or silently wrong snapshots.
#[test]
fn malformed_stats_results_are_rejected() {
    let valid = "{\"type\":\"stats-result\",\"counters\":[[\"jobs.total\",2]],\
                 \"gauges\":[[\"queue.depth\",-1]],\"histograms\":[]}";
    match decode_line(valid).expect("valid stats-result decodes") {
        Frame::StatsResult(snapshot) => {
            assert_eq!(snapshot.counter("jobs.total"), Some(2));
            assert_eq!(snapshot.gauge("queue.depth"), Some(-1));
        }
        other => panic!("unexpected frame {other:?}"),
    }
    for bad in [
        // Missing sections.
        "{\"type\":\"stats-result\"}",
        "{\"type\":\"stats-result\",\"counters\":[],\"gauges\":[]}",
        // Sections of the wrong shape.
        "{\"type\":\"stats-result\",\"counters\":7,\"gauges\":[],\"histograms\":[]}",
        "{\"type\":\"stats-result\",\"counters\":[[\"lonely\"]],\"gauges\":[],\"histograms\":[]}",
        "{\"type\":\"stats-result\",\"counters\":[[\"a\",1,2]],\"gauges\":[],\"histograms\":[]}",
        "{\"type\":\"stats-result\",\"counters\":[[3,1]],\"gauges\":[],\"histograms\":[]}",
        // Ill-typed or out-of-range values.
        "{\"type\":\"stats-result\",\"counters\":[[\"a\",\"x\"]],\"gauges\":[],\"histograms\":[]}",
        "{\"type\":\"stats-result\",\"counters\":[[\"a\",-1]],\"gauges\":[],\"histograms\":[]}",
        "{\"type\":\"stats-result\",\"counters\":[[\"a\",18446744073709551616]],\
         \"gauges\":[],\"histograms\":[]}",
        "{\"type\":\"stats-result\",\"counters\":[],\"gauges\":[[\"g\",9223372036854775808]],\
         \"histograms\":[]}",
        // Histogram entries missing fields or ill-typed.
        "{\"type\":\"stats-result\",\"counters\":[],\"gauges\":[],\"histograms\":[{}]}",
        "{\"type\":\"stats-result\",\"counters\":[],\"gauges\":[],\"histograms\":[{\
         \"name\":\"h\",\"count\":1,\"sum_us\":1,\"max_us\":1,\"p50_us\":true,\
         \"p95_us\":1.0,\"p99_us\":1.0}]}",
    ] {
        assert!(decode_line(bad).is_err(), "accepted malformed stats-result {bad:?}");
    }
}

/// Error frames from an older daemon (no `kind` field) and frames with an
/// unknown kind both decode — tolerantly, to [`ErrorKind::Internal`] — so
/// mixed-version deployments never lose the error message.
#[test]
fn error_kind_decoding_is_tolerant() {
    let legacy = "{\"type\":\"error\",\"message\":\"boom\"}";
    match decode_line(legacy).expect("legacy error frame decodes") {
        Frame::Error(frame) => {
            assert_eq!(frame.kind, ErrorKind::Internal);
            assert_eq!(frame.message, "boom");
        }
        other => panic!("unexpected frame {other:?}"),
    }
    let unknown = "{\"type\":\"error\",\"kind\":\"from-the-future\",\"message\":\"boom\"}";
    match decode_line(unknown).expect("unknown error kind decodes") {
        Frame::Error(frame) => assert_eq!(frame.kind, ErrorKind::Internal),
        other => panic!("unexpected frame {other:?}"),
    }
}

/// Every frame encodes to one line that decodes back to an equal frame.
#[test]
fn frames_round_trip_through_their_line_encoding() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for trial in 0..500 {
        let frame = random_frame(&mut rng);
        let line = encode_line(&frame);
        assert!(line.ends_with('\n'), "frames must be newline-terminated");
        assert_eq!(line.matches('\n').count(), 1, "a frame must be exactly one line: {line:?}");
        let decoded =
            decode_line(&line).unwrap_or_else(|e| panic!("trial {trial}: {e} for line {line:?}"));
        assert_eq!(decoded, frame, "trial {trial} round-trip mismatch");
    }
}

/// Every strict prefix of a valid frame line is rejected: truncation (a
/// killed daemon, a cut connection) can never be mistaken for a frame.
#[test]
fn truncated_frames_are_rejected() {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    for _ in 0..40 {
        let frame = random_frame(&mut rng);
        let line = encode_line(&frame);
        let body = line.trim_end();
        for cut in 0..body.len() {
            if !body.is_char_boundary(cut) {
                continue;
            }
            let truncated = &body[..cut];
            assert!(decode_line(truncated).is_err(), "accepted a truncated frame: {truncated:?}");
        }
    }
}

/// Random garbage never panics the decoder — it errors (or, for the rare
/// syntactically valid line, decodes) gracefully.
#[test]
fn adversarial_input_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xF00D);
    let alphabet: Vec<char> =
        "{}[]\",:0123456789.eE+-truefalsnl\\u \u{9}\u{10FFFF}é".chars().collect();
    for _ in 0..2000 {
        let length = rng.random_range(0..60u64) as usize;
        let line: String = (0..length)
            .map(|_| alphabet[rng.random_range(0..alphabet.len() as u64) as usize])
            .collect();
        let _ = decode_line(&line); // must not panic
    }
    // A structurally valid frame with a corrupted field type is a clean
    // error, not a panic.
    let line = encode_line(&random_frame(&mut rng));
    let corrupted = line.replace("\"job\":", "\"job\":\"oops\",\"_\":");
    if corrupted != line {
        assert!(decode_line(&corrupted).is_err());
    }
}

/// `SweepStats.covered` rides the wire, and a peer that predates it (no
/// `covered` field) decodes as covering exactly its executed scenarios.
#[test]
fn stats_without_covered_decode_as_covering_their_scenarios() {
    let mut rng = StdRng::seed_from_u64(0x0B17);
    let stats = random_stats(&mut rng);
    assert_eq!(SweepStats::from_wire(&stats.to_wire()).unwrap(), stats);
    let Value::Object(fields) = stats.to_wire() else { panic!("stats encode as an object") };
    let legacy = Value::Object(fields.into_iter().filter(|(key, _)| key != "covered").collect());
    let decoded = SweepStats::from_wire(&legacy).unwrap();
    assert_eq!(decoded, SweepStats { covered: stats.scenarios, ..stats });
}

/// The client-facing outcome type keeps its derived equality usable for
/// the determinism tests (spot check that ServiceError renders, too).
#[test]
fn outcome_and_error_plumbing_is_usable() {
    let outcome = JobOutcome {
        result: QueryResult::Thm1(Vec::new()),
        stats: SweepStats::default(),
        shards_total: 4,
        shards_cached: 4,
        shards_executed: 0,
        fleet_workers: 0,
        shards_remote: 0,
        leases_requeued: 0,
        shard_frames: Vec::new(),
        partials: 0,
        wall_ms: 1.25,
    };
    assert_eq!(outcome.cached_fraction(), 1.0);
    let error = ServiceError::Protocol("mid-job EOF".into());
    assert!(error.to_string().contains("mid-job EOF"));
}
