#!/usr/bin/env bash
# Build bench_gpuperf (Release) and run its workloads.
#
#   bash bench_gpuperf/run.sh [--workload NAME]... [--seed N] [--seconds S]
#                             [--trace [0|1]] [--repeat N] [--quick]
#
# With no --workload, all four run, each in its own process. Every run
# works in a fresh directory under .bench_build/runs/ (stores, sockets,
# traces), which is removed afterwards; its JSON result, with a machine
# fingerprint, and any trace-<workload>.json are kept in
# .bench_build/results/. The last line on stdout is the last run's JSON
# report. The exit code is non-zero when a build, the self-check or any
# run's correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"

workloads=()
seed=1
seconds=15
trace=0
repeat=1

die() {
    echo "run.sh: $*" >&2
    exit 2
}

while [ $# -gt 0 ]; do
    case "$1" in
    --workload) [ $# -ge 2 ] || die "--workload needs a name"
        workloads+=("$2"); shift 2 ;;
    --seed) [ $# -ge 2 ] || die "--seed needs a value"
        seed="$2"; shift 2 ;;
    --seconds) [ $# -ge 2 ] || die "--seconds needs a value"
        seconds="$2"; shift 2 ;;
    --trace)
        if [ $# -ge 2 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
            trace="$2"; shift 2
        else
            trace=1; shift
        fi ;;
    --repeat) [ $# -ge 2 ] || die "--repeat needs a count"
        repeat="$2"; shift 2 ;;
    --quick) seconds=3; shift ;;
    *) die "unknown flag $1" ;;
    esac
done
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(cold-analyze warm-whatif serve-repeat fleet-mixed)
fi

# --- Build (incremental after the first run) --------------------------
mkdir -p "$build"
log="$build/build.log"
if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j "$(nproc)" \
           --target bench_gpuperf gpuperf-worker; } >"$log" 2>&1; then
    tail -n 30 "$log" >&2
    echo "run.sh: build failed (full log: $log)" >&2
    exit 1
fi
bench="$build/bench_gpuperf"
export GPUPERF_WORKER_BIN="$build/gpuperf/gpuperf-worker"

mkdir -p "$build/runs" "$build/results"
rundir=""
trap 'if [ -n "$rundir" ]; then rm -rf "$rundir"; fi' EXIT

# --- Self-check, once per build ----------------------------------------
stamp="$build/check.stamp"
if [ ! "$stamp" -nt "$bench" ]; then
    rundir="$(mktemp -d "$build/runs/check.XXXXXX")"
    if ! (cd "$rundir" && "$bench" --check) >&2; then
        echo "run.sh: bench_gpuperf --check failed" >&2
        exit 1
    fi
    rm -rf "$rundir"
    rundir=""
    touch "$stamp"
fi

# --- Machine fingerprint ------------------------------------------------
cxx="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$build/CMakeCache.txt")"
compiler="$("$cxx" --version 2>/dev/null | head -n 1 | tr -d '"\\')"
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$build/CMakeCache.txt")"
if sha="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
    if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
        dirty=true
    else
        dirty=false
    fi
else
    sha=none
    dirty=null
fi

# --- Runs -----------------------------------------------------------------
status=0
for ((r = 0; r < repeat; r++)); do
    for w in "${workloads[@]}"; do
        rundir="$(mktemp -d "$build/runs/$w.XXXXXX")"
        out="$rundir/stdout.txt"
        code=0
        (cd "$rundir" && "$bench" --workload "$w" --seed "$seed" \
            --seconds "$seconds" --trace "$trace") | tee "$out" || code=$?
        result="$(tail -n 1 "$out")"
        case "$result" in
        "{"*) ;;
        *) result=null ;;
        esac
        stem="$build/results/$w-seed$seed-trace$trace-$(date +%Y%m%dT%H%M%S)-$r"
        if [ -f "$rundir/trace-$w.json" ]; then
            cp "$rundir/trace-$w.json" "$stem.trace.json"
        fi
        printf '{"workload": "%s", "seed": %s, "seconds": %s, "trace": %s, "exit": %d, "fingerprint": {"nproc": %d, "compiler": "%s", "build_type": "%s", "git_sha": "%s", "git_dirty": %s}, "result": %s}\n' \
            "$w" "$seed" "$seconds" "$trace" "$code" "$(nproc)" \
            "$compiler" "$build_type" "$sha" "$dirty" "$result" \
            >"$stem.json"
        rm -rf "$rundir"
        rundir=""
        if [ "$code" -ne 0 ]; then
            echo "run.sh: $w (seed $seed) exited $code" >&2
            status=1
        fi
    done
done
exit "$status"
