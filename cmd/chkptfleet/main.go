// Command chkptfleet drives a fleet of concurrent checkpointed jobs
// against one shared store, exercising the robustness stack end to end:
// open-loop Poisson arrivals, per-tenant quotas and admission control,
// budgeted retries, a circuit breaker over the shared storage, and
// graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	chkptfleet -jobs 1000 [-rate 500] [-nproc 3] [-iters 3]
//	           [-max-inflight 32] [-tenants 'batch:8:3,interactive::1']
//	           [-seed 1] [-storage-fault-rate 0.05] [-crash-rate 0.5]
//	           [-net-fault-rate 0.02] [-business-rate 0.01]
//	           [-breaker-threshold 5] [-breaker-cooldown 50ms]
//	           [-retry-budget 4] [-drain-timeout 30s] [-job-timeout 30s]
//	           [-drain-after 0] [-store mem|wal:DIR] [-events-out fleet.jsonl]
//	           [-telemetry-addr 127.0.0.1:9464] [-telemetry-window 250ms]
//	           [-dash] [-q]
//
// Each tenant is NAME[:QUOTA[:WEIGHT]]; an empty quota means unbounded
// (the fleet-wide -max-inflight cap still applies) and weight biases the
// arrival draw. -rate 0 generates arrivals back to back (closed only by
// admission). -drain-after begins graceful drain on a timer — the same
// path a SIGTERM takes — which is how CI exercises shutdown without
// signals.
//
// The run exits non-zero if the taxonomy is violated (an admitted job
// missing from succeeded/infra_failed/business_failed/parked — a silent
// loss) or if telemetry artifacts cannot be flushed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

func main() {
	// SIGINT/SIGTERM begin graceful drain: stop admitting, give in-flight
	// jobs the drain timeout, park the rest, then report and exit through
	// the ordinary path so telemetry still flushes.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sigs))
}

func run(args []string, stdout, stderr io.Writer, sigs <-chan os.Signal) (code int) {
	fs := flag.NewFlagSet("chkptfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jobs       = fs.Int("jobs", 100, "arrivals to generate")
		rate       = fs.Float64("rate", 0, "open-loop Poisson arrival rate in jobs/second (0 = back to back)")
		nproc      = fs.Int("nproc", 3, "processes per job")
		iters      = fs.Int("iters", 3, "Jacobi iterations per job")
		maxInFl    = fs.Int("max-inflight", 32, "fleet-wide concurrent-job cap (admission control)")
		tenantsStr = fs.String("tenants", "", "tenants as NAME[:QUOTA[:WEIGHT]], comma-separated (empty = one unbounded tenant)")
		seed       = fs.Int64("seed", 1, "seed for arrivals, tenants, chaos, and business verdicts (same seed, same fleet)")
		faultRate  = fs.Float64("storage-fault-rate", 0, "storage chaos rate on the SHARED store in [0,1]")
		crashRate  = fs.Float64("crash-rate", 0, "expected injected crashes per job (Poisson)")
		netRate    = fs.Float64("net-fault-rate", 0, "per-job network chaos rate in [0,1] (drop/dup/reorder)")
		bizRate    = fs.Float64("business-rate", 0, "fraction of jobs ending in a simulated business failure")
		brkThresh  = fs.Int("breaker-threshold", 0, "consecutive transient store failures that open the breaker (0 = default)")
		brkCool    = fs.Duration("breaker-cooldown", 0, "how long the open breaker sheds before probing (0 = default)")
		retryBudg  = fs.Int64("retry-budget", 0, "retry tokens deposited per admitted job into its tenant's budget (0 = default, negative disables budgets)")
		drainTmo   = fs.Duration("drain-timeout", 30*time.Second, "how long drain waits for in-flight jobs before cancel-parking them")
		jobTmo     = fs.Duration("job-timeout", 30*time.Second, "per-job watchdog timeout")
		drainAfter = fs.Duration("drain-after", 0, "begin graceful drain after this long (0 = only on signal/stream end)")
		storeKind  = fs.String("store", "mem", "shared stable storage: mem or wal:DIR (the durable group-commit log rooted at DIR)")
		noPrune    = fs.Bool("no-prune", false, "persist full variable environments instead of liveness-minimized checkpoint manifests")
		eventsOut  = fs.String("events-out", "", "stream structured JSONL fleet+runtime events to this file")
		telAddr    = fs.String("telemetry-addr", "", "serve live telemetry on this address: /metrics, /snapshot.json, /healthz")
		telWindow  = fs.Duration("telemetry-window", 250*time.Millisecond, "telemetry aggregation window")
		dash       = fs.Bool("dash", false, "render a live telemetry dashboard to stderr")
		quiet      = fs.Bool("q", false, "suppress the per-run banner (report still prints)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: chkptfleet [flags] (no positional arguments)")
		fs.PrintDefaults()
		return 2
	}
	tenants, err := parseTenants(*tenantsStr)
	if err != nil {
		fmt.Fprintln(stderr, "chkptfleet:", err)
		return 2
	}

	closing := cli.Closer("chkptfleet", stderr, &code)

	store, err := cli.OpenStore(*storeKind)
	if err == nil && store.Incremental != nil {
		// Delta chains only delete newest-first, and under a job Namespace
		// the chaos scrub can only order a chain by instance, not by age.
		err = fmt.Errorf("%w: -store incremental is not supported by the fleet (use mem or wal:DIR)", cli.ErrUsage)
	}
	if err != nil {
		fmt.Fprintln(stderr, "chkptfleet:", err)
		return cli.ExitCode(err)
	}
	defer closing(store.Close)

	var observers []obs.Observer
	if *eventsOut != "" {
		stream, err := cli.OpenEventStream(*eventsOut)
		if err != nil {
			fmt.Fprintln(stderr, "chkptfleet:", err)
			return 1
		}
		defer closing(stream.Close)
		observers = append(observers, stream)
	}

	// One Counters is every job's metrics sink and the aggregator's tap:
	// the fleet-wide save / block distributions it shows are these.
	counters := &metrics.Counters{}
	observer := obs.Multi(observers...)
	if *telAddr != "" || *dash {
		tcfg := telemetry.Config{
			Nproc:    *nproc,
			Window:   *telWindow,
			Counters: counters,
			Sink:     observer,
		}
		if store.WAL != nil {
			tcfg.WALStats = store.WAL.Stats
		}
		agg := telemetry.New(tcfg)
		observer = obs.Multi(observer, agg)
		stopTelemetry, err := cli.StartTelemetry("chkptfleet", stderr, agg, *telAddr, *dash, 0)
		if err != nil {
			fmt.Fprintln(stderr, "chkptfleet:", err)
			return 1
		}
		defer closing(stopTelemetry)
	}

	e := fleet.New(fleet.Config{
		Jobs:             *jobs,
		Nproc:            *nproc,
		Iters:            *iters,
		ArrivalRate:      *rate,
		MaxInFlight:      *maxInFl,
		Tenants:          tenants,
		Seed:             *seed,
		StorageFaultRate: *faultRate,
		CrashLambda:      *crashRate,
		NetFaultRate:     *netRate,
		BusinessFailRate: *bizRate,
		Breaker: fleet.BreakerConfig{
			FailureThreshold: *brkThresh,
			Cooldown:         *brkCool,
		},
		RetryBudgetPerJob: *retryBudg,
		Store:             store.Store,
		NoPrune:           *noPrune,
		DrainTimeout:      *drainTmo,
		JobTimeout:        *jobTmo,
		Observer:          observer,
		Counters:          counters,
	})

	// Drain triggers: an OS signal, or the -drain-after timer (CI's way to
	// exercise the shutdown path deterministically). Engine.Drain is
	// idempotent, so the two can race freely.
	stopSignals := make(chan struct{})
	defer close(stopSignals)
	go func() {
		var timer <-chan time.Time
		if *drainAfter > 0 {
			timer = time.After(*drainAfter)
		}
		select {
		case <-sigs:
			fmt.Fprintln(stderr, "chkptfleet: signal received; draining")
			e.Drain()
		case <-timer:
			fmt.Fprintln(stderr, "chkptfleet: drain timer fired; draining")
			e.Drain()
		case <-stopSignals:
		}
	}()

	if !*quiet {
		fmt.Fprintf(stderr, "chkptfleet: %d jobs, rate=%g/s, inflight<=%d, %d tenant(s), seed=%d\n",
			*jobs, *rate, *maxInFl, max(1, len(tenants)), *seed)
	}
	rep, err := e.Run()
	fmt.Fprint(stdout, rep.String())
	store.PrintStats(stdout)
	if err != nil {
		// Conservation violation: an admitted job is missing from the
		// taxonomy — a silent loss. Never exit 0 on that.
		fmt.Fprintln(stderr, "chkptfleet:", err)
		return 1
	}
	return 0
}

// parseTenants parses NAME[:QUOTA[:WEIGHT]],... ("batch:8:3,interactive::1").
func parseTenants(s string) ([]fleet.TenantConfig, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []fleet.TenantConfig
	seen := make(map[string]bool)
	for _, spec := range strings.Split(s, ",") {
		parts := strings.Split(spec, ":")
		if len(parts) > 3 {
			return nil, fmt.Errorf("tenant %q: want NAME[:QUOTA[:WEIGHT]]", spec)
		}
		t := fleet.TenantConfig{Name: strings.TrimSpace(parts[0])}
		if t.Name == "" {
			return nil, fmt.Errorf("tenant %q: empty name", spec)
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("tenant %q: duplicate name", t.Name)
		}
		seen[t.Name] = true
		if len(parts) > 1 && strings.TrimSpace(parts[1]) != "" {
			q, err := strconv.Atoi(strings.TrimSpace(parts[1]))
			if err != nil {
				return nil, fmt.Errorf("tenant %q: bad quota: %v", spec, err)
			}
			t.Quota = q
		}
		if len(parts) > 2 && strings.TrimSpace(parts[2]) != "" {
			w, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("tenant %q: bad weight: %v", spec, err)
			}
			t.Weight = w
		}
		out = append(out, t)
	}
	return out, nil
}
