#!/usr/bin/env bash
# One-command verification gate: configure, build, and run the full
# gtest suite. Fails on any compile error or test failure. Future PRs
# run this before merging.
#
# Usage: scripts/check.sh [--sanitize | --serve-smoke | --fleet-smoke | --sched-smoke | --store-smoke] [build-dir] [build-type]
#   --sanitize  ASan+UBSan run: Debug build with
#               -fsanitize=address,undefined, leak detection on, tests
#               only (the perf gates measure nothing useful under a
#               sanitizer). The suite includes the task-graph executor,
#               streaming-batch, store and fleet-dispatch tests
#               (test_task_graph, test_batch, test_store, test_dispatch),
#               which exercise the scheduler's, the lease protocol's and
#               the dispatcher's locking under the sanitizers. Defaults
#               build-dir to build-asan. This is exactly what the CI
#               sanitize job executes.
#   --serve-smoke
#               Build, then run ONLY the socket-server smoke: a
#               gpuperf-serve daemon on `--via unix:... --via
#               tcp:127.0.0.1:0` serves 4 concurrent gpuperf-worker
#               clients over the Unix socket plus one over TCP; every
#               response is byte-diffed against an in-process run of
#               the same request. The full (flagless) run executes this
#               and the bench_serve_soak gate as well; artifacts land in
#               <build-dir>/serve-smoke/.
#   --fleet-smoke
#               Build, then run ONLY the fleet-dispatch smoke: a
#               gpuperf-serve daemon with a shared store, 2 registered
#               gpuperf-worker fleet processes (serve --via unix:...)
#               and 2 concurrent clients; one worker is SIGKILLed
#               mid-run and every response is byte-diffed against an
#               in-process run. The full (flagless) run executes this
#               and the bench_fleet_soak gate as well; artifacts land
#               in <build-dir>/fleet-smoke/.
#   --sched-smoke
#               Build, then run ONLY the scheduling-policy smoke: a
#               gpuperf-serve daemon running --sched sjf with one
#               fleet worker serves 2 concurrent clients carrying
#               distinct --client ids; every response is byte-diffed
#               against an in-process (FIFO) run of the same request —
#               policies reorder work, never results. The full
#               (flagless) run executes this and the
#               bench_sched_fairness gate as well; artifacts land in
#               <build-dir>/sched-smoke/.
#   --store-smoke
#               Build, then run ONLY the store-lifecycle smoke: a cold
#               run populates a store, one entry is deliberately
#               bit-flipped on disk (`gpuperf-worker verify` must exit
#               2 and quarantine it), the store is force-compacted
#               into segment files, and a warm run over the compacted
#               store must produce a byte-identical response; a GC
#               dry-run and the disk-usage scan round out the admin
#               verbs. The full (flagless) run executes this step as
#               well; artifacts land in <build-dir>/store-smoke/.
#   build-dir   default: build (build-asan with --sanitize)
#   build-type  Debug | Release | RelWithDebInfo | ... (default: the
#               build dir's existing type, or CMake's default).
#               Debug additionally exercises the debug-only
#               homogeneous-sampling validation in the funcsim and the
#               timing engine's cached-candidate cross-checks.

set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZE=0
SMOKE_ONLY=""
case "${1:-}" in
    --sanitize)
        SANITIZE=1
        shift ;;
    --serve-smoke|--fleet-smoke|--sched-smoke|--store-smoke)
        SMOKE_ONLY="${1#--}"
        SMOKE_ONLY="${SMOKE_ONLY%-smoke}"
        shift ;;
esac

if [[ "$SANITIZE" == 1 ]]; then
    BUILD_DIR="${1:-build-asan}"
    BUILD_TYPE="${2:-Debug}"
else
    BUILD_DIR="${1:-build}"
    BUILD_TYPE="${2:-}"
fi
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

CMAKE_ARGS=()
if [[ -n "$BUILD_TYPE" ]]; then
    CMAKE_ARGS+=(-DCMAKE_BUILD_TYPE="$BUILD_TYPE")
fi
if [[ "$SANITIZE" == 1 ]]; then
    CMAKE_ARGS+=(-DGPUPERF_SANITIZE=address,undefined)
    export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
    export UBSAN_OPTIONS="print_stacktrace=1"
else
    # Pin the cache variable off: reusing a previously sanitized
    # build dir must not silently run the perf gates on instrumented
    # binaries.
    CMAKE_ARGS+=(-DGPUPERF_SANITIZE=)
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j"$JOBS"

# Expand the daemon_smoke placeholders in one word: @SOCK@ (the
# daemon's Unix socket), @SMOKE@ (the smoke's artifact dir) and @PORT@
# (the daemon's ephemeral TCP port, once bound).
smoke_expand() {
    local w="${1//@SOCK@/$SOCK}"
    w="${w//@SMOKE@/$SMOKE}"
    printf '%s' "${w//@PORT@/$PORT}"
}

# Daemon end-to-end driver behind the serve, fleet and sched smokes:
#
#   daemon_smoke NAME WORKERS KILL_ONE STATS_GREP DAEMON_FLAG... -- CLIENT...
#
# Starts gpuperf-serve with the DAEMON_FLAGs (which must include
# --via unix:@SOCK@), registers WORKERS fleet workers, runs the demo
# request in-process as the reference, then runs one gpuperf-worker
# client per CLIENT (a string of `run` flags) concurrently. Every leg
# gets its OWN store so the served legs really execute rather than
# replaying the reference's results (a daemon --store overrides the
# clients' stores), and every response must be byte-identical to the
# reference — the response JSON carries no paths. With KILL_ONE=1 the
# first worker is SIGKILLed while the clients are in flight: its cells
# must be stolen back and re-dispatched, losing nothing. SIGTERM then
# exercises the graceful drain: the daemon must log its "served" line,
# and STATS_GREP (a fixed string, "" for none) must appear in its log.
# Artifacts land in <build-dir>/NAME/.
daemon_smoke() {
    local NAME="$1" WORKERS="$2" KILL_ONE="$3" STATS_GREP="$4"
    shift 4
    local SMOKE="$BUILD_DIR/$NAME"
    local W="$BUILD_DIR/gpuperf-worker"
    local S="$BUILD_DIR/gpuperf-serve"
    local SOCK="$SMOKE/serve.sock"
    local PORT=""
    rm -rf "$SMOKE"
    mkdir -p "$SMOKE"

    local DAEMON_FLAGS=()
    while [[ "$1" != "--" ]]; do
        DAEMON_FLAGS+=("$(smoke_expand "$1")")
        shift
    done
    shift

    "$S" "${DAEMON_FLAGS[@]}" > "$SMOKE/serve.log" 2>&1 &
    local SERVE_PID=$!
    local WORKER_PIDS=()
    trap 'kill "$SERVE_PID" "${WORKER_PIDS[@]}" 2>/dev/null || true; trap - RETURN' RETURN
    for _ in $(seq 1 100); do
        [[ -S "$SOCK" ]] && grep -q "ready" "$SMOKE/serve.log" && break
        sleep 0.1
    done
    [[ -S "$SOCK" ]] || { echo "$NAME: daemon never bound $SOCK" >&2
                          cat "$SMOKE/serve.log" >&2; return 1; }
    PORT="$(sed -n 's/^listening tcp .*:\([0-9]*\)$/\1/p' "$SMOKE/serve.log")"

    local i
    for ((i = 1; i <= WORKERS; i++)); do
        "$W" serve --via "unix:$SOCK" > "$SMOKE/worker-$i.log" 2>&1 &
        WORKER_PIDS+=($!)
    done

    "$W" demo-request --out "$SMOKE/request-ref.json" \
        --store "$SMOKE/store-ref"
    "$W" run "$SMOKE/request-ref.json" --out "$SMOKE/response-ref.json"

    local CLIENT_PIDS=() CLIENT FLAGS WORD n=0
    for CLIENT in "$@"; do
        n=$((n + 1))
        FLAGS=()
        for WORD in $CLIENT; do
            FLAGS+=("$(smoke_expand "$WORD")")
        done
        "$W" demo-request --out "$SMOKE/request-$n.json" \
            --store "$SMOKE/store-$n"
        "$W" run "$SMOKE/request-$n.json" --out "$SMOKE/response-$n.json" \
            "${FLAGS[@]}" > "$SMOKE/client-$n.log" 2>&1 &
        CLIENT_PIDS+=($!)
    done

    if [[ "$KILL_ONE" == 1 ]]; then
        sleep 0.5
        kill -9 "${WORKER_PIDS[0]}" 2>/dev/null || true
        wait "${WORKER_PIDS[0]}" 2>/dev/null || true
    fi

    local PID
    for PID in "${CLIENT_PIDS[@]}"; do
        wait "$PID"
    done
    for ((i = 1; i <= n; i++)); do
        diff "$SMOKE/response-ref.json" "$SMOKE/response-$i.json"
    done

    kill -TERM "$SERVE_PID"
    wait "$SERVE_PID"
    for PID in "${WORKER_PIDS[@]}"; do
        wait "$PID" 2>/dev/null || true
    done
    grep -q "served" "$SMOKE/serve.log" || {
        echo "$NAME: daemon did not shut down gracefully" >&2
        cat "$SMOKE/serve.log" >&2
        return 1
    }
    if [[ -n "$STATS_GREP" ]]; then
        grep -qF "$STATS_GREP" "$SMOKE/serve.log" || {
            echo "$NAME: daemon log lacks '$STATS_GREP'" >&2
            cat "$SMOKE/serve.log" >&2
            return 1
        }
    fi
    echo "$NAME: $n concurrent client(s) over $WORKERS fleet worker(s)" \
         "byte-identical to the in-process run"
}

# Store-lifecycle end-to-end: corruption is quarantined (verify exits
# 2, then 0), compaction folds the store into segment files, and a
# warm run over the compacted store stays byte-identical to the cold
# run. Exercises the gc|verify|compact|stats admin verbs for real.
run_store_smoke() {
    local SMOKE="$BUILD_DIR/store-smoke"
    local W="$BUILD_DIR/gpuperf-worker"
    local STORE="$SMOKE/store"
    rm -rf "$SMOKE"
    mkdir -p "$SMOKE"

    "$W" demo-request --out "$SMOKE/request.json" --store "$STORE"
    "$W" run "$SMOKE/request.json" --out "$SMOKE/response-cold.json"

    # Corrupt a stored profile (trailing garbage breaks the entry
    # framing): verify must exit 2 and quarantine it.
    local VICTIM
    VICTIM="$(ls "$STORE/profiles/"*.profile | head -n 1)"
    printf 'CORRUPTION' >> "$VICTIM"
    local RC=0
    "$W" verify --store "$STORE" > "$SMOKE/verify-corrupt.json" || RC=$?
    [[ "$RC" == 2 ]] || {
        echo "store-smoke: verify expected exit 2 on corruption, got $RC" >&2
        cat "$SMOKE/verify-corrupt.json" >&2
        return 1
    }
    grep -q '"quarantined": 1' "$SMOKE/verify-corrupt.json" || {
        echo "store-smoke: corrupt entry was not quarantined" >&2
        cat "$SMOKE/verify-corrupt.json" >&2
        return 1
    }
    "$W" verify --store "$STORE" > "$SMOKE/verify-clean.json"

    # Fold everything into segment files; the loose entries vanish
    # but a warm run must stay byte-identical to the cold one (the
    # quarantined profile is simply recomputed). Entries younger than
    # the compactor's min-age guard stay loose, so backdate the
    # just-written store first.
    find "$STORE" -type f -exec touch -t 202001010000 {} +
    # A typo'd threshold is a usage error, never a silent default.
    if "$W" compact --store "$STORE" --min-loose abc 2>/dev/null; then
        echo "store-smoke: compact --min-loose abc exited 0" >&2
        return 1
    fi
    "$W" compact --store "$STORE" --force --min-loose 1 \
        > "$SMOKE/compact.json"
    "$W" stats --store "$STORE" > "$SMOKE/stats.json"
    grep -q '"segment_files": [1-9]' "$SMOKE/stats.json" || {
        echo "store-smoke: compaction produced no segment files" >&2
        cat "$SMOKE/compact.json" "$SMOKE/stats.json" >&2
        return 1
    }
    "$W" run "$SMOKE/request.json" --out "$SMOKE/response-warm.json"
    diff "$SMOKE/response-cold.json" "$SMOKE/response-warm.json"

    # GC dry-run over the compacted store reports without touching.
    "$W" gc --store "$STORE" --gc-bytes 1 --dry-run > "$SMOKE/gc.json"
    grep -q '"ok": true' "$SMOKE/gc.json"
    echo "store-smoke: corruption quarantined, compacted warm run byte-identical"
}

# The four end-to-end smokes by name (the --NAME-smoke flags).
run_smoke() {
    case "$1" in
        # 4 Unix clients + 1 TCP client, no fleet.
        serve)
            daemon_smoke serve-smoke 0 0 "" \
                --via "unix:@SOCK@" --via "tcp:127.0.0.1:0" -- \
                "--via unix:@SOCK@" "--via unix:@SOCK@" \
                "--via unix:@SOCK@" "--via unix:@SOCK@" \
                "--via tcp:127.0.0.1:@PORT@" ;;
        # One shared store (the fleet calibrates once, globally), 2
        # workers, one SIGKILLed mid-run.
        fleet)
            daemon_smoke fleet-smoke 2 1 '"workers_registered": 2' \
                --via "unix:@SOCK@" --store "@SMOKE@/store-fleet" \
                --stats-json -- \
                "--via unix:@SOCK@" "--via unix:@SOCK@" ;;
        # An SJF daemon, one worker, two tenants: in-process execution
        # IS the fifo ordering the responses must match.
        sched)
            daemon_smoke sched-smoke 1 0 '"sched_policy": "sjf"' \
                --via "unix:@SOCK@" --sched sjf \
                --store "@SMOKE@/store-fleet" --stats-json -- \
                "--via unix:@SOCK@ --client client-1" \
                "--via unix:@SOCK@ --client client-2" ;;
        store)
            run_store_smoke ;;
    esac
}

if [[ -n "$SMOKE_ONLY" ]]; then
    run_smoke "$SMOKE_ONLY"
    echo "check.sh: $SMOKE_ONLY-smoke green"
    exit 0
fi

ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"

if [[ "$SANITIZE" == 1 ]]; then
    echo "check.sh: sanitizer run green (perf gates skipped)"
    exit 0
fi

# Throughput gates, skipped under sanitizers:
#  - batch scaling (self-skips on <4 hardware threads), the >=3x
#    warm-store profile-sharing speedup, and the streaming
#    time-to-first-result gate (first cell delivered before the
#    slowest calibration completes) — all through the public
#    AnalysisService API;
#  - the >=2x event-driven vs legacy-scan timing-replay speedup on
#    the high-occupancy cases;
#  - the >=2x vectorized vs scalar-reference funcsim speedup on the
#    large high-occupancy cases (warp-instrs/sec, bit-identity
#    checked first; report-only in Debug builds or with
#    GPUPERF_FUNCSIM_GATE=report).
# The main calibration is cached in the build dir, so reruns are
# cheap; the streaming study calibrates two small specs cold on
# purpose (that overlap is what it measures).
(cd "$BUILD_DIR" && ./bench_batch_throughput)
(cd "$BUILD_DIR" && ./bench_timing_replay)
(cd "$BUILD_DIR" && ./bench_funcsim)

# Socket-server soak gate: >= 8 concurrent clients over TCP and Unix
# sockets, every response bit-identical to in-process execution;
# p50/p99 latency and requests/sec land in bench_serve_soak.json.
(cd "$BUILD_DIR" && ./bench_serve_soak)

# Fleet soak gate: 4 real worker processes registered with the
# dispatcher, one SIGKILLed mid-run; zero lost cells, every response
# bit-identical; p50/p99 and per-worker cell counts land in
# bench_fleet_soak.json.
(cd "$BUILD_DIR" && ./bench_fleet_soak)

# Scheduling-fairness gate: per policy, a bulk client floods a
# 2-worker fleet while an interactive client trickles small requests;
# every response must be bit-identical to the fifo run, and the
# interactive p99 under sjf/fair-share must beat fifo by the factors
# in bench_sched_fairness.json (latency gate report-only in Debug
# builds or with GPUPERF_SCHED_GATE=report, like bench_funcsim).
(cd "$BUILD_DIR" && ./bench_sched_fairness)

for SMOKE_NAME in serve fleet sched store; do
    run_smoke "$SMOKE_NAME"
done

echo "check.sh: all green"
