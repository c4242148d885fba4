#!/bin/sh
# Benchmark harness: runs the repo's benchmark suite with -benchmem and
# records machine-readable results, the perf trajectory later PRs measure
# themselves against:
#
#   BENCH_sweeps.json   — the compute sweeps: Monte Carlo (per worker
#                         count), the Figure 8/9 analytic series, the
#                         absorbing-chain solver;
#   BENCH_simcore.json  — the simulator hot paths: transport round trip,
#                         delivery queue, one instruction of a process no
#                         protocol traffic is queued for (n=4 and n=64 must
#                         read the same), counters contention, end-to-end
#                         failure/recovery runs;
#   BENCH_pipeline.json — the offline analysis pipeline: the aggregate
#                         transform benchmark its perf targets are pinned
#                         against (≤1,200 allocs/op and ≥3× wall over the
#                         pre-arena baseline, see EXPERIMENTS.md), the
#                         per-phase sub-benchmarks (CFG build / match /
#                         place) for regression attribution, and the
#                         generated large-program scaling run.
#
# Usage: scripts/bench.sh [set ...] runs the named sets (see ALL below) and
# rewrites only their files; with no argument it runs them all.
#
# BENCHTIME overrides -benchtime (default 1x: one measured iteration, the
# smoke setting CI uses; use e.g. BENCHTIME=2s locally for stable numbers).
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1x}"
ALL="sweeps simcore pipeline telemetry fleet store"
SETS="${*:-$ALL}"
for s in $SETS; do
    case " $ALL " in
    *" $s "*) ;;
    *)
        echo "bench.sh: unknown set '$s' (have: $ALL)" >&2
        exit 2
        ;;
    esac
done

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
echo ">> building benchjson"
go build -o "$TMP/benchjson" ./cmd/benchjson

# run_set runs one set into $TMP/<name>.out and queues its file. A set whose
# go test fails (a benchmark that calls b.Fatal prints FAIL and exits
# non-zero) stops the script before any BENCH file is rewritten.
PENDING=""
run_set() {
    name="$1" pattern="$2" out="$3"
    shift 3
    case " $SETS " in
    *" $name "*) ;;
    *) return 0 ;;
    esac
    echo ">> bench set $name (-bench '$pattern' -benchtime $BENCHTIME)"
    status=0
    go test -run '^$' -bench "$pattern" -benchmem -benchtime "$BENCHTIME" "$@" >"$TMP/$name.out" || status=$?
    cat "$TMP/$name.out"
    if [ "$status" -ne 0 ]; then
        echo "bench.sh: set $name failed (go test exit $status); no BENCH file rewritten" >&2
        exit 1
    fi
    PENDING="$PENDING $name=$out"
}

# Sweep engine: sharded Monte Carlo across worker counts, analytic figure
# sweeps, chain solver.
run_set sweeps \
    'BenchmarkSimulateGamma|BenchmarkFigure|BenchmarkGamma|BenchmarkMonteCarloValidation' \
    BENCH_sweeps.json \
    ./internal/montecarlo/ ./internal/markov/ .

# Simulator core: per-message hot paths and end-to-end runs.
run_set simcore \
    'BenchmarkTransportRoundTrip|BenchmarkQueuePushPop|BenchmarkStepQuiet|BenchmarkCountersInc|BenchmarkRuntimeFailureRecovery|BenchmarkMessagesPerCheckpoint' \
    BENCH_simcore.json \
    ./internal/sim/ ./internal/metrics/ .

# Analysis pipeline: aggregate transform benchmark (the perf-target
# anchor), per-phase attribution benchmarks, large-program scaling.
run_set pipeline \
    'BenchmarkTransformPipeline$|BenchmarkTransformPipelineLarge|BenchmarkPipelineCFGBuild|BenchmarkPipelineMatch|BenchmarkPipelinePlace' \
    BENCH_pipeline.json \
    .

# Telemetry: the aggregator's observer-tap hot path (must stay ≤1 alloc/op)
# and the sketch observe/quantile paths it leans on.
run_set telemetry \
    'BenchmarkAggregatorIngest|BenchmarkSketch|BenchmarkRunTapOverhead' \
    BENCH_telemetry.json \
    ./internal/telemetry/ ./internal/metrics/

# Fleet: saturated end-to-end job throughput (clean and under chaos) and
# the breaker's closed-path per-op overhead (must stay 0 alloc/op).
run_set fleet \
    'BenchmarkFleetThroughput|BenchmarkFleetChaosThroughput|BenchmarkBreakerClosedPath' \
    BENCH_fleet.json \
    ./internal/fleet/

# Stores: 1000-job aggregate save throughput (the WAL's group commit),
# uncontended save latency, the liveness-pruned vs full-environment
# payload/latency comparison on all three kinds from one lent snapshot
# (memory and wal must stay 0 allocs/op), the snapshot codec alone (encode
# into a reused buffer, decode), one job's rollback on a WAL holding 1k
# vs 64k checkpoints of other jobs (the ratio must stay within 2×), and
# Latest on one process holding 1k vs 16k instances on all three kinds
# (ns/op must not grow with the count).
run_set store \
    'BenchmarkStoreAggregateSave|BenchmarkStoreSingleSave|BenchmarkSaveBytesPruned|BenchmarkSnapshotCodec|BenchmarkWALSelectLongLog|BenchmarkStoreLatestLongLog' \
    BENCH_store.json \
    . ./internal/storage/

for p in $PENDING; do
    "$TMP/benchjson" -o "${p#*=}" <"$TMP/${p%%=*}.out"
    echo ">> wrote ${p#*=}"
done
echo 'bench OK'
