GO ?= go

.PHONY: all build vet test race check fmt loc reach bench spine chaos netchaos walchaos verify fuzz telemetry fleet prune

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is what CI runs: scripts/check.sh = vet + build + race tests + gofmt.
check:
	./scripts/check.sh

fmt:
	gofmt -w .

# loc prints the size a simplicity PR is compared by: non-test Go lines
# outside benchmark/, per package and in total.
loc:
	./scripts/loc.sh

# reach lists the non-test functions under internal/ that neither the
# benchmark's five workloads, any CLI feature, the telemetry scrape nor the
# examples call (coverage-instrumented binaries, one GOCOVERDIR, ~40 s), and
# fails on any that is not exempt or named in scripts/reach.allow.
reach:
	./scripts/reach.sh

# bench runs the benchmark harness and writes BENCH_sweeps.json /
# BENCH_simcore.json, the perf trajectory baseline. BENCHTIME=<d|Nx>
# overrides -benchtime (default 1x: smoke; use e.g. 2s for stable numbers).
bench:
	BENCHTIME=$(BENCHTIME) ./scripts/bench.sh

# spine runs the end-to-end benchmark as a correctness smoke: non-zero exit
# on any output mismatch or leaked goroutine; its numbers are not gated here
# (ROADMAP item 1). The traced interp-mem run is the one place the real
# runtime's event tap drives benchmark/trace.go's observers; analysis-large's
# output check (the formatted, compiled program of all 8 sources equals the
# set-up's) is the only end-to-end guard on Parse -> Transform -> Compile ->
# Format; crash-storm-inc's (exactly 4 restarts, FinalVars equal to
# verify.Machine's) the only one on delta-chain recovery across four
# incarnations. CI's bench-smoke and CHECK_BENCH=1 scripts/check.sh call this.
spine:
	$(GO) run ./benchmark -workload durable-wal -seed 1 -seconds 3
	$(GO) run ./benchmark -workload fleet-wal -seed 1 -seconds 3
	$(GO) run ./benchmark -workload interp-mem -seed 1 -seconds 3 -trace
	$(GO) run ./benchmark -workload analysis-large -seed 1 -seconds 3
	$(GO) run ./benchmark -workload crash-storm-inc -seed 1 -seconds 3

# verify runs the generative correctness harness: 100 random programs
# through the full pipeline, systematic schedule exploration, theorem
# checking on every execution, and the mutation (no-vacuous-pass) mode.
# VERIFY_FLAGS overrides the defaults, e.g. VERIFY_FLAGS='-progs 500 -v'.
verify:
	$(GO) run ./cmd/chkptverify $(or $(VERIFY_FLAGS),-progs 100 -depth 8 -mutate)

# fuzz runs every native fuzz target for FUZZTIME (default 30s) each.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzMPLParse -fuzztime $(FUZZTIME) ./internal/mpl
	$(GO) test -fuzz FuzzEval -fuzztime $(FUZZTIME) ./internal/mpl
	$(GO) test -fuzz FuzzCFGBuild -fuzztime $(FUZZTIME) ./internal/cfg
	$(GO) test -fuzz FuzzStraightCutTheorem -fuzztime $(FUZZTIME) ./internal/verify
	$(GO) test -fuzz FuzzLivenessPrune -fuzztime $(FUZZTIME) ./internal/verify
	$(GO) test -fuzz FuzzTransformSource -fuzztime $(FUZZTIME) ./internal/verify
	$(GO) test -fuzz FuzzLivenessReference -fuzztime $(FUZZTIME) ./internal/liveness
	$(GO) test -fuzz FuzzWALRecover -fuzztime $(FUZZTIME) ./internal/storage/wal
	$(GO) test -fuzz FuzzSnapshotCodec -fuzztime $(FUZZTIME) ./internal/storage
	$(GO) test -fuzz FuzzKeyIndexRetention -fuzztime $(FUZZTIME) ./internal/storage
	$(GO) test -fuzz FuzzIncrementalAgainstReference -fuzztime $(FUZZTIME) ./internal/storage
	$(GO) test -fuzz FuzzLogRecord -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -fuzz FuzzStraightCutAgainstReference -fuzztime $(FUZZTIME) ./internal/recovery
	$(GO) test -fuzz FuzzSketch -fuzztime $(FUZZTIME) ./internal/telemetry

# telemetry runs the live-telemetry smoke: chkptsim serving /metrics on an
# ephemeral port, scraped end-to-end by cmd/telemetryprobe.
telemetry:
	./scripts/telemetry_smoke.sh

# prune runs the liveness-pruning smoke: the program under injected
# failures must converge to its failure-free final state from pruned
# checkpoints, with nonzero bytes saved.
prune:
	./scripts/prune_smoke.sh

# chaos runs the fault-injection soak: fixed seeds, all store kinds,
# storage faults + generated crash schedules, under the race detector.
# SOAK_SEEDS=<n> overrides the seed count.
chaos:
	$(GO) test -race -run 'TestChaosSoak' -count=1 -v .

# netchaos runs the network-chaos soak: multi-seed × {drop, dup, reorder,
# partition-heal} over the hardened transport, under the race detector.
# SOAK_SEEDS=<n> overrides the per-profile seed count.
netchaos:
	$(GO) test -race -run 'TestNetChaosSoak' -count=1 -v .

# walchaos runs the durable-log crash soak: multi-seed kill/reopen loops
# over the WAL store with deterministic crash-point and bit-flip injection,
# proving no acknowledged checkpoint is ever lost and no torn record is
# ever served, under the race detector. SOAK_SEEDS=<n> overrides the count.
walchaos:
	$(GO) test -race -run 'TestWALChaosSoak' -count=1 -v .

# fleet runs the fleet-engine soak: >= 1000 concurrent checkpointed jobs
# against one shared store under storage/crash/network chaos, with exact
# taxonomy conservation, graceful drain, and circuit-breaker recovery,
# under the race detector. SOAK_SEEDS=<n> overrides the chaos-seed count.
fleet:
	$(GO) test -race -run 'TestFleetSoak' -count=1 -v .
