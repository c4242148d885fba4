#!/bin/sh
# Reach: a gate on non-test functions under internal/ that no shipped entry
# point ever calls. Builds the benchmark, the five chkpt* tools and every
# examples/ program with coverage instrumentation over the whole module,
# drives the spine workloads, one representative invocation per CLI feature,
# a scrape of the live telemetry endpoint and every example under one
# GOCOVERDIR, and lists the functions `go tool covdata func` reports at 0.0%.
# Tests do not count: a function only a test reaches is on the list.
#
# Exit status 1 when a listed function is neither exempt nor named in
# scripts/reach.allow. Exempt are methods only ever called through an
# interface: Error, String, Unwrap, MarshalJSON, UnmarshalText and mpl's
# sealed-interface markers stmtNode / exprNode. An allowlisted function that
# a run happens to reach is not a failure: fault paths are reached or not
# depending on timing. reach_allow_test.go checks the allowlist itself.
set -eu

cd "$(dirname "$0")/.."

TMP=$(mktemp -d /tmp/reach.XXXXXX)
SIM_PID=
trap '[ -n "$SIM_PID" ] && kill "$SIM_PID" 2>/dev/null; rm -rf "$TMP"' EXIT
BIN=$TMP/bin
mkdir -p "$BIN" "$TMP/cov"
export GOCOVERDIR=$TMP/cov

echo '>> building ./benchmark, cmd/chkpt* and examples/* with -cover -coverpkg=./...'
for pkg in ./benchmark ./cmd/chkptc ./cmd/chkptsim ./cmd/chkptbench ./cmd/chkptfleet ./cmd/chkptverify ./examples/*; do
    go build -cover -coverpkg=./... -o "$BIN/$(basename "$pkg")" "$pkg"
done
go build -o "$BIN/telemetryprobe" ./cmd/telemetryprobe

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
BOOM=$TMP/boom.mpl
printf 'program boom\nvar x\nproc {\n    x = 1 / (rank - rank)\n}\n' > "$BOOM"
BAD=$TMP/bad.mpl
printf 'program bad\nvar x\nproc {\n    x = = 1\n}\n' > "$BAD"
DEEP=$TMP/deep.mpl
{ printf 'program deep\nvar x\nproc {\n    x = '; printf '%10001s' '' | tr ' ' '('; printf '\n}\n'; } > "$DEEP"

# quiet runs one invocation with its output dropped; a non-zero exit stops
# the script with the command line that failed.
quiet() {
    "$@" >/dev/null 2>&1 || { echo "reach: exit $? from: $*" >&2; exit 1; }
}

# expect_exit runs one invocation that must fail with the given status:
# refusing its input is the feature it exercises.
expect_exit() {
    want=$1
    shift
    got=0
    "$@" >/dev/null 2>&1 || got=$?
    [ "$got" -eq "$want" ] || { echo "reach: exit $got, want $want, from: $*" >&2; exit 1; }
}

echo '>> spine workloads (2 s each, three of them traced as well)'
for w in durable-wal fleet-wal interp-mem analysis-large crash-storm-inc; do
    quiet "$BIN/benchmark" -workload "$w" -seed 1 -seconds 2 -out "$TMP/history.jsonl"
done
for w in durable-wal fleet-wal interp-mem; do
    quiet "$BIN/benchmark" -workload "$w" -seed 1 -seconds 2 -trace -out "$TMP/history.jsonl"
done

echo '>> chkptsim: protocols, store kinds, chaos, exports, refusals'
SIM=$BIN/chkptsim
quiet "$SIM" -n 4 -transform -zigzag "$PROG"
for proto in sas cl cic uncoord; do
    quiet "$SIM" -n 4 -transform -protocol "$proto" -verify=false -vtime "$PROG"
done
# Untransformed, an odd rank receives index 1 before its first checkpoint, so
# CIC forces one (forced=2 at n = 4, every run): the forced-checkpoint count
# is reached, and the metrics line must show it.
"$SIM" -n 4 -protocol cic -verify=false -vtime "$PROG" >"$TMP/cic.out" 2>&1 ||
    { echo "reach: exit $? from: $SIM -protocol cic" >&2; exit 1; }
grep -q ' forced=[1-9]' "$TMP/cic.out" || { echo 'reach: chkptsim -protocol cic forced no checkpoint' >&2; exit 1; }
for store in mem incremental "wal:$TMP/simlog"; do
    quiet "$SIM" -n 4 -transform -store "$store" -fail 1:9 -fail 2:14 "$PROG"
done
quiet "$SIM" -n 4 -transform -no-prune -seed 3 -crash-rate 2.5 -storage-fault-rate 0.3 "$PROG"
# The uncoordinated walk over checkpoints that fail to load: it skips them.
quiet "$SIM" -n 4 -transform -protocol uncoord -seed 4 -storage-fault-rate 0.3 -fail 1:9 -fail 2:14 "$PROG"
# The partition outlasts sim.SuspectAfter (200 ms): the link 0->1 reports
# rank 1 silent at 200-201 ms, and the run goes through suspect -> rollback
# (restarts=2 at seeds 1-3 and 7: the window outlasts a second detection).
"$SIM" -n 4 -transform -seed 7 -net-fault-rate 0.2 -net-partition '0>1@0ms+400ms' "$PROG" >"$TMP/part.out" 2>&1 ||
    { echo "reach: exit $? from: $SIM -net-partition" >&2; exit 1; }
grep -q ' restarts=[1-9]' "$TMP/part.out" || { echo 'reach: chkptsim -net-partition restarted nothing' >&2; exit 1; }
# SaS coordinates by control messages: over lossy links they take the
# transport's control links.
quiet "$SIM" -n 4 -transform -protocol sas -verify=false -vtime -seed 3 -net-fault-rate 0.05 "$PROG"
quiet "$SIM" -n 4 -transform -vtime -fail 1:9 -trace-out "$TMP/t.json" -events-out "$TMP/e.jsonl" \
    -metrics-out "$TMP/m.jsonl" -cpuprofile "$TMP/c.pprof" -memprofile "$TMP/h.pprof" "$PROG"
expect_exit 2 "$SIM" -n 4 -store bogus "$PROG"
expect_exit 2 "$SIM" -n 0 "$PROG"
expect_exit 1 "$SIM" -n 2 "$BOOM"

# A -cover binary writes its counters only when it exits by itself, so
# chkptsim is scraped inside its -telemetry-linger window, after it has
# printed its final state, and then left to finish.
echo '>> chkptsim telemetry, scraped by telemetryprobe'
"$SIM" -n 4 -transform -protocol sas -verify=false -vtime -fail 1:9 -store "wal:$TMP/tellog" \
    -telemetry-addr 127.0.0.1:0 -telemetry-lag 1 -telemetry-linger 3s -dash "$PROG" \
    >"$TMP/tel.out" 2>"$TMP/tel.err" &
SIM_PID=$!
i=0
until grep -q '^  proc 3:' "$TMP/tel.out"; do
    i=$((i + 1))
    if [ $i -gt 300 ] || ! kill -0 "$SIM_PID" 2>/dev/null; then
        echo 'reach: chkptsim with telemetry never printed its final state:' >&2
        cat "$TMP/tel.out" "$TMP/tel.err" >&2
        exit 1
    fi
    sleep 0.1
done
URL=$(sed -n 's|.*telemetry at \(http://[^/]*\)/metrics.*|\1|p' "$TMP/tel.err" | head -n 1)
quiet "$BIN/telemetryprobe" -url "$URL" -timeout 2s
# Every path the server does not route lands on its index handler, which
# answers 404, so this probe fails; that is its purpose.
"$BIN/telemetryprobe" -url "$URL/unrouted" -timeout 0s >/dev/null 2>&1 || true
wait "$SIM_PID" || { echo "reach: chkptsim with telemetry exited $?" >&2; exit 1; }
SIM_PID=

echo '>> chkptfleet: tenants, chaos, drain, durable and incremental stores, telemetry'
FLEET=$BIN/chkptfleet
quiet "$FLEET" -jobs 300 -rate 3000 -tenants 'batch:8:3,interactive::0.5' -seed 3 \
    -storage-fault-rate 0.08 -crash-rate 1 -net-fault-rate 0.05 -business-rate 0.05 \
    -store "wal:$TMP/fleetlog" -events-out "$TMP/f.jsonl" -telemetry-addr 127.0.0.1:0 -dash
quiet "$FLEET" -jobs 300 -rate 3000 -seed 3 -store incremental -storage-fault-rate 0.08 -crash-rate 1 -q
quiet "$FLEET" -jobs 100000 -rate 2000 -drain-after 200ms -q

echo '>> chkptc: report, dot, runtime verification, check, base mode, parse errors'
quiet "$BIN/chkptc" -report -dot "$TMP/g.dot" -verify-runtime -o "$TMP/out.mpl" "$PROG"
quiet "$BIN/chkptc" -mode base -o "$TMP/base.mpl" "$PROG"
# -check exits 1 on the untransformed program: that is its report.
expect_exit 1 "$BIN/chkptc" -check "$PROG"
expect_exit 1 "$BIN/chkptc" "$BAD"
expect_exit 1 "$BIN/chkptc" "$DEEP"

echo '>> chkptbench: every figure'
for fig in 8 9 messages domino; do
    quiet "$BIN/chkptbench" -figure "$fig"
done
# Two 8192-trial shards, so their moments merge.
quiet "$BIN/chkptbench" -figure validate -trials 10000
quiet "$BIN/chkptbench" -figure runtime -work 50

echo '>> chkptverify -mutate'
quiet "$BIN/chkptverify" -progs 10 -depth 6 -mutate

echo '>> examples'
for ex in examples/*; do
    quiet "$BIN/$(basename "$ex")"
done

echo '>> non-test functions under internal/ that none of the above reached'
go tool covdata func -i="$TMP/cov" |
    awk -v allow=scripts/reach.allow '
        BEGIN {
            while ((getline line < allow) > 0) {
                if (line ~ /^[ \t]*(#|$)/) continue
                split(line, f, /[ \t]+/)
                listed[f[1] " " f[2]] = 1
            }
            split("Error String Unwrap MarshalJSON UnmarshalText stmtNode exprNode", ex, " ")
            for (i in ex) exempt[ex[i]] = 1
        }
        $1 ~ /\/internal\// && $NF == "0.0%" {
            path = $1
            sub(/^repro\//, "", path)
            sub(/:[0-9]+:$/, "", path)
            method = $2
            if (method ~ /\./) sub(/.*\./, "", method)
            else method = ""
            if (method in exempt) { nexempt++; next }
            if ((path " " $2) in listed) { nlisted++; next }
            print "  " path " " $2
            nbad++
        }
        END {
            printf "%d function(s) at 0.0%%: %d exempt, %d allowlisted, %d unlisted\n",
                nexempt + nlisted + nbad, nexempt, nlisted, nbad
            if (nbad > 0) {
                print "reach: add a caller, delete the function, or name it in " allow " with a reason" > "/dev/stderr"
                exit 1
            }
        }'
