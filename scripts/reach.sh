#!/bin/sh
# Reach: which non-test functions under internal/ does no shipped entry point
# ever call? Builds the benchmark and the five chkpt* tools with coverage
# instrumentation over the whole module, drives the spine workloads and one
# representative invocation per CLI feature under one GOCOVERDIR, and prints
# the functions `go tool covdata func` reports at 0.0%. Tests do not count:
# a function only a test reaches is on the list. The list is where a
# simplicity PR starts looking; it is printed, not gated (a function may be
# kept for a reason no CLI exercises, e.g. a reference implementation).
set -eu

cd "$(dirname "$0")/.."

TMP=$(mktemp -d /tmp/reach.XXXXXX)
trap 'rm -rf "$TMP"' EXIT
BIN=$TMP/bin
mkdir -p "$BIN" "$TMP/cov"
export GOCOVERDIR=$TMP/cov

echo '>> building ./benchmark and cmd/chkpt* with -cover -coverpkg=./...'
for pkg in ./benchmark ./cmd/chkptc ./cmd/chkptsim ./cmd/chkptbench ./cmd/chkptfleet ./cmd/chkptverify; do
    go build -cover -coverpkg=./... -o "$BIN/$(basename "$pkg")" "$pkg"
done

PROG=$TMP/jacobi.mpl
cat > "$PROG" <<'MPL'
program jacobi
const MAXITER = 6
var x, y, tmp, iter
proc {
    iter = 0
    while iter < MAXITER {
        tmp = x + iter
        x = tmp + rank
        if rank % 2 == 0 {
            chkpt
            send(rank + 1, x)
            recv(rank + 1, y)
        } else {
            recv(rank - 1, y)
            send(rank - 1, x)
            chkpt
        }
        tmp = 0
        iter = iter + 1
    }
}
MPL

# quiet runs one invocation with its output dropped; a non-zero exit stops
# the script with the command line that failed.
quiet() {
    "$@" >/dev/null 2>&1 || { echo "reach: exit $? from: $*" >&2; exit 1; }
}

echo '>> spine workloads (2 s each, three of them traced as well)'
for w in durable-wal fleet-wal interp-mem analysis-large crash-storm-inc; do
    quiet "$BIN/benchmark" -workload "$w" -seed 1 -seconds 2 -out "$TMP/history.jsonl"
done
for w in durable-wal fleet-wal interp-mem; do
    quiet "$BIN/benchmark" -workload "$w" -seed 1 -seconds 2 -trace -out "$TMP/history.jsonl"
done

echo '>> chkptsim: protocols, store kinds, chaos, exports, telemetry'
SIM=$BIN/chkptsim
quiet "$SIM" -n 4 -transform -zigzag "$PROG"
for proto in sas cl cic uncoord; do
    quiet "$SIM" -n 4 -transform -protocol "$proto" -verify=false -vtime "$PROG"
done
for store in mem incremental "wal:$TMP/simlog"; do
    quiet "$SIM" -n 4 -transform -store "$store" -fail 1:9 -fail 2:14 "$PROG"
done
quiet "$SIM" -n 4 -transform -no-prune -chaos-seed 3 -chaos-crash-rate 2.5 -storage-fault-rate 0.3 "$PROG"
quiet "$SIM" -n 4 -transform -net-chaos-seed 7 -net-drop-rate 0.15 -net-dup-rate 0.2 \
    -net-reorder-rate 0.2 -net-partition '0>1@0ms+120ms' "$PROG"
quiet "$SIM" -n 4 -transform -vtime -fail 1:9 -trace-out "$TMP/t.json" -events-out "$TMP/e.jsonl" \
    -metrics-out "$TMP/m.jsonl" -cpuprofile "$TMP/c.pprof" -memprofile "$TMP/h.pprof" "$PROG"
quiet "$SIM" -n 4 -transform -protocol sas -verify=false -vtime -fail 1:9 -store "wal:$TMP/tellog" \
    -telemetry-addr 127.0.0.1:0 -telemetry-lag 1 -dash "$PROG"

echo '>> chkptfleet: tenants, chaos, drain, durable store, telemetry'
FLEET=$BIN/chkptfleet
quiet "$FLEET" -jobs 300 -rate 3000 -tenants 'batch:8:3,interactive::0.5' -seed 3 \
    -storage-fault-rate 0.08 -crash-rate 1 -net-fault-rate 0.05 -business-rate 0.05 \
    -store "wal:$TMP/fleetlog" -events-out "$TMP/f.jsonl" -telemetry-addr 127.0.0.1:0 -dash
quiet "$FLEET" -jobs 100000 -rate 2000 -drain-after 200ms -q

echo '>> chkptc: report, dot, runtime verification, check, base mode'
quiet "$BIN/chkptc" -report -dot "$TMP/g.dot" -verify-runtime -o "$TMP/out.mpl" "$PROG"
quiet "$BIN/chkptc" -mode base -o "$TMP/base.mpl" "$PROG"
# -check exits 1 on the untransformed program: that is its report.
"$BIN/chkptc" -check "$PROG" >/dev/null 2>&1 || true

echo '>> chkptbench: every figure'
for fig in 8 9 messages domino; do
    quiet "$BIN/chkptbench" -figure "$fig"
done
quiet "$BIN/chkptbench" -figure validate -trials 2000
quiet "$BIN/chkptbench" -figure runtime -work 50

echo '>> chkptverify -mutate'
quiet "$BIN/chkptverify" -progs 10 -depth 6 -mutate

echo '>> non-test functions under internal/ that none of the above reached'
go tool covdata func -i="$TMP/cov" |
    awk '$1 ~ /\/internal\// && $NF == "0.0%" { sub(/^repro\//, "", $1); print "  " $1 " " $2; n++ }
         END { printf "%d function(s) at 0.0%%\n", n }'
