#!/usr/bin/env bash
# Tier-1 verification in one command: formatting, lints, build, tests, docs,
# and the smoke stages of the `sweep` CLI and service daemon.
#
#   scripts/ci.sh           # fmt --check + clippy -D warnings + tests
#                           #   + doctests + cargo doc -D warnings
#                           #   + determinism smoke (fig4 at 1 vs 4 threads)
#                           #   + symmetry smoke (n = 5 partial-delivery thm1)
#                           #   + daemon smoke (serve/submit/cache/shutdown)
#                           #   + omission smoke (cross-model cache isolation)
#                           #   + restart smoke (durable cache replay)
#                           #   + fleet smoke (workers, SIGKILL, re-queue)
#                           #   + observability smoke (stats/--prom/--log-json)
#
# Performance is measured separately, by the benchmark in perfbench/ (see
# perfbench/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test --workspace -q
# Doc tests again in isolation (fast; makes a doctest-only breakage obvious)
# and warning-free API docs.
cargo test --workspace --doc -q
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# --- Smoke setup ------------------------------------------------------------
# The smoke stages run the debug `sweep` binary directly (not via `cargo
# run`) so servers and clients never contend for the cargo target-dir lock.
cargo build -q -p bench_harness --bin sweep
SMOKE_DIR="$(mktemp -d)"
SMOKE_SOCK="$SMOKE_DIR/serve.sock"
# A failing assertion below must not orphan a background daemon (the very
# thing the daemon smoke asserts against) or leak the temp dir.
SERVE_PID=""
WORKER1_PID=""
WORKER2_PID=""
cleanup_smoke() {
    [[ -n "$WORKER1_PID" ]] && kill -9 "$WORKER1_PID" 2>/dev/null || true
    [[ -n "$WORKER2_PID" ]] && kill -9 "$WORKER2_PID" 2>/dev/null || true
    [[ -n "$SERVE_PID" ]] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$SMOKE_DIR"
}
trap cleanup_smoke EXIT

# --- Determinism smoke ------------------------------------------------------
# One-shot folds are independent of parallelism: the fig4 table at one
# thread must diff clean against four threads over eight shards.
target/debug/sweep fig4 --threads 1 >"$SMOKE_DIR/fig4-seq.txt"
target/debug/sweep fig4 --threads 4 --shards 8 >"$SMOKE_DIR/fig4-par.txt"
diff "$SMOKE_DIR/fig4-seq.txt" "$SMOKE_DIR/fig4-par.txt"
echo "ci.sh: determinism smoke passed (fig4 identical at 1 and 4 threads)"

# --- Symmetry smoke ---------------------------------------------------------
# The symmetry-reduced Theorem 1 fold on a scope beyond the built-in table:
# n = 5 with partial delivery, 2,527,443 adversaries swept as 183 canonical
# of 10,401 failure patterns.  Every column must read 0, and the stats line
# must show the reduction.
target/debug/sweep thm1 --scope 5,2,2,2,2,1 >"$SMOKE_DIR/symmetry.txt" \
    2>"$SMOKE_DIR/symmetry.log"
grep -Eq '^5 +2 +2 +2527443 +0 +0 +0 *$' "$SMOKE_DIR/symmetry.txt"
grep -q "44469 scenarios (covering 2527443 by process renaming)" "$SMOKE_DIR/symmetry.log"
echo "ci.sh: symmetry smoke passed (n = 5 partial-delivery scope reads 0 / 0 / 0)"

# --- Daemon smoke -----------------------------------------------------------
# Boot `sweep serve` on a temp socket, submit the same small thm1 job twice,
# and assert: the folds diff clean, the second run is served 100% from the
# shard-accumulator cache with zero shards executed, and shutdown is graceful
# (the server process exits by itself — no orphaned workers — and removes its
# socket file).
target/debug/sweep serve --socket "$SMOKE_SOCK" --workers 1 2>"$SMOKE_DIR/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do [[ -S "$SMOKE_SOCK" ]] && break; sleep 0.1; done
if [[ ! -S "$SMOKE_SOCK" ]]; then
    echo "ci.sh: daemon did not come up" >&2
    cat "$SMOKE_DIR/serve.log" >&2
    exit 1
fi
target/debug/sweep submit --socket "$SMOKE_SOCK" thm1 --scope 3,1,1 --shards 4 \
    >"$SMOKE_DIR/cold.txt" 2>"$SMOKE_DIR/cold.log"
target/debug/sweep submit --socket "$SMOKE_SOCK" thm1 --scope 3,1,1 --shards 4 \
    >"$SMOKE_DIR/warm.txt" 2>"$SMOKE_DIR/warm.log"
diff "$SMOKE_DIR/cold.txt" "$SMOKE_DIR/warm.txt"
grep -q "4 shards total, 0 cached" "$SMOKE_DIR/cold.log"
grep -q "(100.0% cached), 0 executed" "$SMOKE_DIR/warm.log"
target/debug/sweep shutdown --socket "$SMOKE_SOCK" 2>/dev/null
wait "$SERVE_PID"
SERVE_PID=""
if [[ -e "$SMOKE_SOCK" ]]; then
    echo "ci.sh: daemon left its socket behind" >&2
    exit 1
fi
echo "ci.sh: daemon smoke passed (warm run 100% cached, graceful shutdown)"

# --- Omission smoke ---------------------------------------------------------
# The omission pattern space end to end.  One-shot: `sweep omission` and its
# spelled-out twin `sweep thm1 --model omission` print the same table at
# different shard counts (parallelism-invariance across models).  Daemon: a
# crash job first warms the shard cache for a scope, then the omission job on
# the *same* scope must run fully cold — the model is part of the cache
# fingerprint, so crash accumulators never replay into an omission fold — and
# only its own warm repeat is served 100% from cache with a clean diff.
target/debug/sweep omission --shards 3 >"$SMOKE_DIR/omission-a.txt" 2>/dev/null
target/debug/sweep thm1 --model omission --shards 7 \
    >"$SMOKE_DIR/omission-b.txt" 2>/dev/null
diff "$SMOKE_DIR/omission-a.txt" "$SMOKE_DIR/omission-b.txt"
OMISSION_SOCK="$SMOKE_DIR/omission.sock"
target/debug/sweep serve --socket "$OMISSION_SOCK" --workers 1 \
    2>"$SMOKE_DIR/omission-serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do [[ -S "$OMISSION_SOCK" ]] && break; sleep 0.1; done
if [[ ! -S "$OMISSION_SOCK" ]]; then
    echo "ci.sh: omission-smoke daemon did not come up" >&2
    cat "$SMOKE_DIR/omission-serve.log" >&2
    exit 1
fi
target/debug/sweep submit --socket "$OMISSION_SOCK" thm1 --scope 3,1,1 --shards 4 \
    >/dev/null 2>&1
target/debug/sweep submit --socket "$OMISSION_SOCK" thm1 --model omission \
    --scope 3,1,1 --shards 4 \
    >"$SMOKE_DIR/omission-cold.txt" 2>"$SMOKE_DIR/omission-cold.log"
target/debug/sweep submit --socket "$OMISSION_SOCK" thm1 --model omission \
    --scope 3,1,1 --shards 4 \
    >"$SMOKE_DIR/omission-warm.txt" 2>"$SMOKE_DIR/omission-warm.log"
diff "$SMOKE_DIR/omission-cold.txt" "$SMOKE_DIR/omission-warm.txt"
grep -q "4 shards total, 0 cached" "$SMOKE_DIR/omission-cold.log"
grep -q "(100.0% cached), 0 executed" "$SMOKE_DIR/omission-warm.log"
target/debug/sweep shutdown --socket "$OMISSION_SOCK" 2>/dev/null
wait "$SERVE_PID"
SERVE_PID=""
echo "ci.sh: omission smoke passed (no cross-model replay, warm repeat 100% cached)"

# --- Daemon restart smoke ---------------------------------------------------
# Same shape, with a durable cache dir: submit, shut the daemon down, start a
# *new* daemon process on the same cache dir, and assert the re-submitted job
# replays 100% from the persisted shard store with zero shards executed and a
# clean stdout diff.  The temp cache dir rides in SMOKE_DIR, so the EXIT trap
# cleans it up on any failure.
RESTART_SOCK="$SMOKE_DIR/restart.sock"
CACHE_DIR="$SMOKE_DIR/cache"
target/debug/sweep serve --socket "$RESTART_SOCK" --workers 1 \
    --cache-dir "$CACHE_DIR" 2>"$SMOKE_DIR/restart-a.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do [[ -S "$RESTART_SOCK" ]] && break; sleep 0.1; done
target/debug/sweep submit --socket "$RESTART_SOCK" thm1 --scope 3,1,1 --shards 4 \
    >"$SMOKE_DIR/before.txt" 2>/dev/null
target/debug/sweep shutdown --socket "$RESTART_SOCK" 2>/dev/null
wait "$SERVE_PID"
SERVE_PID=""
target/debug/sweep serve --socket "$RESTART_SOCK" --workers 1 \
    --cache-dir "$CACHE_DIR" 2>"$SMOKE_DIR/restart-b.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do [[ -S "$RESTART_SOCK" ]] && break; sleep 0.1; done
if [[ ! -S "$RESTART_SOCK" ]]; then
    echo "ci.sh: restarted daemon did not come up" >&2
    cat "$SMOKE_DIR/restart-b.log" >&2
    exit 1
fi
target/debug/sweep submit --socket "$RESTART_SOCK" thm1 --scope 3,1,1 --shards 4 \
    >"$SMOKE_DIR/after.txt" 2>"$SMOKE_DIR/after.log"
diff "$SMOKE_DIR/before.txt" "$SMOKE_DIR/after.txt"
grep -q "4 cached (100.0% cached), 0 executed" "$SMOKE_DIR/after.log"
target/debug/sweep shutdown --socket "$RESTART_SOCK" 2>/dev/null
wait "$SERVE_PID"
SERVE_PID=""
echo "ci.sh: restart smoke passed (persisted cache replayed 100% after restart)"

# --- Fleet smoke ------------------------------------------------------------
# Coordinator plus two worker processes on a temp socket.  SIGKILL one worker
# the moment it starts executing a lease mid-job, and assert: the daemon
# re-queued at least one shard, the merged fold still diffs clean against the
# same job re-run with an empty fleet (pure local execution), and the
# empty-fleet run reports zero live workers.  Shard caching is off on both
# submits so the second run really re-executes every shard locally.
FLEET_SOCK="$SMOKE_DIR/fleet.sock"
target/debug/sweep serve --socket "$FLEET_SOCK" --workers 1 \
    --lease-ttl-ms 2000 2>"$SMOKE_DIR/fleet-serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do [[ -S "$FLEET_SOCK" ]] && break; sleep 0.1; done
target/debug/sweep worker --connect "$FLEET_SOCK" 2>"$SMOKE_DIR/worker-1.log" &
WORKER1_PID=$!
target/debug/sweep worker --connect "$FLEET_SOCK" 2>"$SMOKE_DIR/worker-2.log" &
WORKER2_PID=$!
for _ in $(seq 1 100); do
    grep -q "registered as worker" "$SMOKE_DIR/worker-1.log" 2>/dev/null &&
        grep -q "registered as worker" "$SMOKE_DIR/worker-2.log" 2>/dev/null && break
    sleep 0.1
done
if ! grep -q "registered as worker" "$SMOKE_DIR/worker-2.log"; then
    echo "ci.sh: fleet workers did not register" >&2
    cat "$SMOKE_DIR/worker-1.log" "$SMOKE_DIR/worker-2.log" >&2
    exit 1
fi
target/debug/sweep submit --socket "$FLEET_SOCK" thm1 --scope 4,2,1 --shards 12 \
    --no-shard-cache >"$SMOKE_DIR/fleet.txt" 2>"$SMOKE_DIR/fleet.log" &
SUBMIT_PID=$!
for _ in $(seq 1 500); do
    grep -q "executing lease" "$SMOKE_DIR/worker-1.log" 2>/dev/null && break
    sleep 0.02
done
kill -9 "$WORKER1_PID" 2>/dev/null || true
wait "$SUBMIT_PID"
grep -q "re-queued shard" "$SMOKE_DIR/fleet-serve.log"
# Drop the surviving worker too and re-submit: the empty fleet must degrade
# to pure local execution with a bit-identical fold.
kill -9 "$WORKER2_PID" 2>/dev/null || true
wait "$WORKER1_PID" 2>/dev/null || true
wait "$WORKER2_PID" 2>/dev/null || true
WORKER1_PID=""
WORKER2_PID=""
target/debug/sweep submit --socket "$FLEET_SOCK" thm1 --scope 4,2,1 --shards 12 \
    --no-shard-cache >"$SMOKE_DIR/local.txt" 2>"$SMOKE_DIR/local.log"
diff "$SMOKE_DIR/fleet.txt" "$SMOKE_DIR/local.txt"
grep -q "fleet: 0 workers" "$SMOKE_DIR/local.log"
target/debug/sweep shutdown --socket "$FLEET_SOCK" 2>/dev/null
wait "$SERVE_PID"
SERVE_PID=""
echo "ci.sh: fleet smoke passed (SIGKILL re-queue + empty-fleet degradation diff clean)"

# --- Observability smoke ----------------------------------------------------
# Boot a fresh daemon, submit the same job twice (the second with --log-json),
# and assert via `sweep stats` that the snapshot matches the behavior the
# submits observed: two jobs total, at least one warm cache replay.  The
# --prom form must expose unique series with finite values, the --json form
# one JSON object, and the --log-json submit only JSON lines on stderr.
STATS_SOCK="$SMOKE_DIR/stats.sock"
target/debug/sweep serve --socket "$STATS_SOCK" --workers 1 \
    2>"$SMOKE_DIR/stats-serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do [[ -S "$STATS_SOCK" ]] && break; sleep 0.1; done
if [[ ! -S "$STATS_SOCK" ]]; then
    echo "ci.sh: observability-smoke daemon did not come up" >&2
    cat "$SMOKE_DIR/stats-serve.log" >&2
    exit 1
fi
target/debug/sweep submit --socket "$STATS_SOCK" thm1 --scope 3,1,1 --shards 4 \
    >/dev/null 2>&1
target/debug/sweep --log-json submit --socket "$STATS_SOCK" thm1 --scope 3,1,1 \
    --shards 4 >/dev/null 2>"$SMOKE_DIR/json.log"
if grep -vEq '^\{.*\}$' "$SMOKE_DIR/json.log"; then
    echo "ci.sh: --log-json emitted a non-JSON stderr line" >&2
    cat "$SMOKE_DIR/json.log" >&2
    exit 1
fi
grep -q '"level":"info"' "$SMOKE_DIR/json.log"
target/debug/sweep stats --socket "$STATS_SOCK" >"$SMOKE_DIR/stats.txt"
grep -Eq "jobs\.total +2\$" "$SMOKE_DIR/stats.txt"
REPLAYS=$(awk '$1 == "cache.replays" { print $2 }' "$SMOKE_DIR/stats.txt")
if [[ -z "$REPLAYS" || "$REPLAYS" -lt 1 ]]; then
    echo "ci.sh: warm submit recorded no cache replays" >&2
    cat "$SMOKE_DIR/stats.txt" >&2
    exit 1
fi
target/debug/sweep stats --socket "$STATS_SOCK" --json >"$SMOKE_DIR/stats.json"
grep -Eq '^\{.*\}$' "$SMOKE_DIR/stats.json"
target/debug/sweep stats --socket "$STATS_SOCK" --prom >"$SMOKE_DIR/stats.prom"
awk '
    /^#/ { next }
    NF != 2 { print "ci.sh: malformed prometheus line: " $0; exit 1 }
    seen[$1]++ { print "ci.sh: duplicate prometheus series: " $1; exit 1 }
    $2 !~ /^-?[0-9]+(\.[0-9]+)?$/ {
        print "ci.sh: non-finite prometheus value: " $0; exit 1
    }
' "$SMOKE_DIR/stats.prom" >"$SMOKE_DIR/prom-errors.txt"
if [[ -s "$SMOKE_DIR/prom-errors.txt" ]]; then
    cat "$SMOKE_DIR/prom-errors.txt" >&2
    exit 1
fi
target/debug/sweep shutdown --socket "$STATS_SOCK" 2>/dev/null
wait "$SERVE_PID"
SERVE_PID=""
trap - EXIT
rm -rf "$SMOKE_DIR"
echo "ci.sh: observability smoke passed (stats table/json/prom valid, JSON log clean)"
