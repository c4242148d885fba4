// Command chkptfleet drives a fleet of concurrent checkpointed jobs
// against one shared store, exercising the robustness stack end to end:
// open-loop Poisson arrivals, per-tenant quotas and admission control,
// budgeted retries, a circuit breaker over the shared storage, and
// graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	chkptfleet -jobs 1000 [-rate 500] [-max-inflight 32]
//	           [-tenants 'batch:8:3,interactive::1']
//	           [-seed 1] [-storage-fault-rate 0.05] [-crash-rate 0.5]
//	           [-net-fault-rate 0.02] [-business-rate 0.01]
//	           [-drain-after 0] [-store mem|wal:DIR] [-no-prune]
//	           [-events-out fleet.jsonl] [-telemetry-addr 127.0.0.1:9464]
//	           [-telemetry-window 250ms] [-dash] [-q]
//
// Every job is the Figure 1 Jacobi at 3 processes and 3 iterations; the
// breaker, retry budgets and the 30 s drain and job timeouts are
// fleet.Config's defaults. A tenant's empty quota means unbounded (the
// -max-inflight cap still applies) and its weight biases the arrival draw.
// -drain-after takes the path a SIGTERM takes, without a signal.
//
// The run exits non-zero if the taxonomy is violated (an admitted job
// missing from succeeded/infra_failed/business_failed/parked — a silent
// loss) or if telemetry artifacts cannot be flushed.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/fleet"
)

func main() {
	// SIGINT/SIGTERM begin graceful drain: stop admitting, give in-flight
	// jobs the drain timeout, park the rest, then report and exit through
	// the ordinary path so telemetry still flushes.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sigs))
}

// jobNproc is every job's process count (fleet.Config's default).
const jobNproc = 3

func run(args []string, stdout, stderr io.Writer, sigs <-chan os.Signal) (code int) {
	fs := flag.NewFlagSet("chkptfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		shared  cli.Flags
		jobs    = 100
		rate    float64
		maxInFl = 32
		bizRate float64
	)
	shared.Register(fs)
	cli.Bounded(fs, &jobs, "jobs", 0, math.MaxInt, "arrivals to generate")
	cli.Bounded(fs, &rate, "rate", 0, math.Inf(1), "open-loop Poisson arrival rate in jobs/second (0 = back to back)")
	cli.Bounded(fs, &maxInFl, "max-inflight", 1, math.MaxInt, "fleet-wide concurrent-job cap (admission control)")
	cli.Bounded(fs, &bizRate, "business-rate", 0, 1, "fraction of jobs ending in a simulated business failure")
	var (
		tenantsStr = fs.String("tenants", "", "tenants as NAME[:QUOTA[:WEIGHT]], comma-separated (empty = one unbounded tenant)")
		drainAfter = fs.Duration("drain-after", 0, "begin graceful drain after this long (0 = only on signal/stream end)")
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
	r, err := shared.Open("chkptfleet", stderr, jobNproc)
	if err != nil {
		fmt.Fprintln(stderr, "chkptfleet:", err)
		return cli.ExitCode(err)
	}
	defer closing(r.Close)

	e := fleet.New(fleet.Config{
		Jobs:             jobs,
		Nproc:            jobNproc,
		ArrivalRate:      rate,
		MaxInFlight:      maxInFl,
		Tenants:          tenants,
		Seed:             shared.Seed,
		StorageFaultRate: shared.StorageFaultRate,
		CrashLambda:      shared.CrashRate,
		NetFaultRate:     shared.NetFaultRate,
		BusinessFailRate: bizRate,
		Store:            r.Store.Store,
		NoPrune:          shared.NoPrune,
		Observer:         r.Observer,
		// One Counters is every job's metrics sink and the aggregator's
		// tap: the fleet-wide save / block distributions it shows are these.
		Counters: r.Counters,
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
			jobs, rate, maxInFl, max(1, len(tenants)), shared.Seed)
	}
	rep, err := e.Run()
	fmt.Fprint(stdout, rep.String())
	r.PrintStats(stdout)
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
			if q < 0 {
				return nil, fmt.Errorf("tenant %q: negative quota", spec)
			}
			t.Quota = q
		}
		if len(parts) > 2 && strings.TrimSpace(parts[2]) != "" {
			w, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("tenant %q: bad weight: %v", spec, err)
			}
			if !(w >= 0) {
				return nil, fmt.Errorf("tenant %q: negative weight", spec)
			}
			t.Weight = w
		}
		out = append(out, t)
	}
	return out, nil
}
