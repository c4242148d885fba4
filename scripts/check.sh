#!/bin/sh
# Repository health check: what CI runs, and what a contributor should run
# before sending a change. Fails on the first problem.
set -eu

cd "$(dirname "$0")/.."

echo '>> gofmt'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo '>> code size (scripts/loc.sh)'
./scripts/loc.sh | tail -n 1

echo '>> go vet ./...'
go vet ./...

echo '>> go build ./...'
go build ./...

echo '>> go test -race ./...'
go test -race ./...

# Under the race detector sync.Pool drops a quarter of its puts and counts
# read high, so the allocation contracts (codec append, event production,
# counters, memory-store and WAL steady-state saves) are asserted once more
# at their real value.
echo ">> allocation contracts, no race detector (go test -count=1 -run 'Alloc' ./internal/...)"
go test -count=1 -run 'Alloc' ./internal/...

echo '>> straight-cut theorem harness (make verify)'
make verify

echo '>> chaos soak (go test -race -run TestChaosSoak -count=1 .)'
go test -race -run 'TestChaosSoak' -count=1 .

echo '>> network chaos soak (go test -race -run TestNetChaosSoak -count=1 .)'
go test -race -run 'TestNetChaosSoak' -count=1 .

echo '>> WAL crash soak (go test -race -run TestWALChaosSoak -count=1 .)'
go test -race -run 'TestWALChaosSoak' -count=1 .

echo '>> fleet soak (go test -race -run TestFleetSoak -count=1 .)'
go test -race -run 'TestFleetSoak' -count=1 .

echo '>> telemetry smoke (scripts/telemetry_smoke.sh)'
./scripts/telemetry_smoke.sh

echo '>> prune smoke (scripts/prune_smoke.sh)'
./scripts/prune_smoke.sh

# Opt-in: the benchmark harness is slow relative to the rest of the check
# and its numbers are machine-dependent, so it only runs when asked for.
if [ "${CHECK_BENCH:-0}" = "1" ]; then
    echo '>> bench harness (CHECK_BENCH=1)'
    ./scripts/bench.sh
    echo '>> spine smoke (make spine: all five workloads, interp-mem traced)'
    make spine
fi

echo 'OK'
