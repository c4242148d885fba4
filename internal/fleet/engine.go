package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Every admitted job deposits retryTokensPerJob into its tenant's retry
// budget, and a tenant's pool holds at most retryTokensCap.
const (
	retryTokensPerJob = 4
	retryTokensCap    = 64 * retryTokensPerJob
)

// Config shapes one fleet run.
type Config struct {
	// Jobs is how many arrivals to generate (a drain may stop the stream
	// early; arrivals after StartDrain are rejected, not queued).
	Jobs int
	// Nproc is each job's process count. Default 3.
	Nproc int
	// Iters sizes each job's Jacobi iteration count. Default 3.
	Iters int
	// ArrivalRate is the open-loop Poisson arrival rate in jobs/second;
	// <= 0 disables pacing (arrivals are generated back to back — the
	// bench and soak configuration).
	ArrivalRate float64
	// MaxInFlight caps fleet-wide concurrent jobs (admission control) and
	// sizes the worker pool. Default 32.
	MaxInFlight int
	// Tenants partitions the fleet; empty means one unlimited tenant
	// "default". Arrivals draw tenants by Weight.
	Tenants []TenantConfig
	// Seed drives every random choice (arrivals, tenants, chaos, business
	// verdicts). Same seed, same fleet.
	Seed int64
	// StorageFaultRate turns on seeded storage chaos on the SHARED store
	// (every job feels the same brownouts). 0 disables.
	StorageFaultRate float64
	// CrashLambda is the per-job expected injected crashes (Poisson,
	// distinct per job by seed). 0 disables.
	CrashLambda float64
	// NetFaultRate turns on per-job network chaos (drop/dup/reorder) at
	// the given rate. 0 disables.
	NetFaultRate float64
	// BusinessFailRate is the fraction of jobs whose outcome is a
	// simulated application-owned failure (ErrBusiness) — the
	// business-vs-infrastructure split. Drawn per job from Seed.
	BusinessFailRate float64
	// Store is the shared backing store. Default: fresh in-memory store.
	Store storage.Store
	// NoPrune persists full variable environments instead of each job's
	// liveness-minimized checkpoint manifests (the A/B lane for measuring
	// what pruning saves fleet-wide).
	NoPrune bool
	// DrainTimeout bounds how long drain waits for in-flight jobs before
	// cancel-parking them. Default 30s.
	DrainTimeout time.Duration
	// JobTimeout is each job's sim watchdog. Default 30s.
	JobTimeout time.Duration
	// Observer taps every job's runtime events plus the fleet's own
	// admit/reject/jobdone/breaker/drain events — point the telemetry
	// aggregator here. Optional.
	Observer obs.Observer
	// Counters is the shared metrics sink (fleet gauges and counters ride
	// it to /metrics). Optional; a private one is used when nil.
	Counters *metrics.Counters
}

func (c *Config) fill() {
	if c.Nproc <= 0 {
		c.Nproc = 3
	}
	if c.Iters <= 0 {
		c.Iters = 3
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 32
	}
	if len(c.Tenants) == 0 {
		c.Tenants = []TenantConfig{{Name: "default"}}
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 30 * time.Second
	}
	if c.Counters == nil {
		c.Counters = &metrics.Counters{}
	}
}

// Report is a completed fleet run's accounting.
type Report struct {
	Arrivals int64            // jobs that arrived (admitted + rejected)
	Admitted int64            // jobs that entered the fleet
	Rejected map[string]int64 // refusals by reason
	Buckets  map[string]int64 // terminal taxonomy of admitted jobs
	Breaker  BreakerStats
	// DrainDur is how long drain took; DrainParked reports whether the
	// deadline expired and in-flight jobs were cancel-parked.
	DrainDur    time.Duration
	DrainParked bool
	Elapsed     time.Duration
	JobsPerSec  float64
}

// RejectedTotal sums refusals across reasons.
func (r *Report) RejectedTotal() int64 {
	var n int64
	for _, v := range r.Rejected {
		n += v
	}
	return n
}

// Conserved is the no-silent-loss check: every arrival was admitted or
// rejected, and every admitted job reached exactly one taxonomy bucket.
func (r *Report) Conserved() bool {
	var buckets int64
	for _, b := range Buckets {
		buckets += r.Buckets[b]
	}
	return r.Arrivals == r.Admitted+r.RejectedTotal() && r.Admitted == buckets
}

// String renders the taxonomy table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fleet: %d arrivals in %v (%.1f jobs/s admitted)\n",
		r.Arrivals, r.Elapsed.Round(time.Millisecond), r.JobsPerSec)
	fmt.Fprintf(&sb, "  admitted           %6d\n", r.Admitted)
	for _, b := range Buckets {
		fmt.Fprintf(&sb, "    %-16s %6d\n", b, r.Buckets[b])
	}
	reasons := make([]string, 0, len(r.Rejected))
	for reason := range r.Rejected {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	fmt.Fprintf(&sb, "  rejected           %6d\n", r.RejectedTotal())
	for _, reason := range reasons {
		fmt.Fprintf(&sb, "    %-16s %6d\n", reason, r.Rejected[reason])
	}
	fmt.Fprintf(&sb, "  breaker            opened=%d shed=%d\n", r.Breaker.Opened, r.Breaker.Shed)
	fmt.Fprintf(&sb, "  drain              %v (parked=%v)\n", r.DrainDur.Round(time.Millisecond), r.DrainParked)
	fmt.Fprintf(&sb, "  conserved          %v\n", r.Conserved())
	return sb.String()
}

// Engine drives one fleet run. Build with New, start with Run; Drain may
// be called from any goroutine (SIGTERM handler) to begin graceful
// shutdown early.
type Engine struct {
	cfg Config

	adm     *Admission
	brk     *Breaker
	budgets map[string]*RetryBudget

	drainCh    chan struct{} // closed by Drain: stop generating arrivals
	drainOnce  sync.Once
	cancelJobs chan struct{} // closed at the drain deadline: park in-flight jobs

	mu sync.Mutex // guards the report's Buckets while jobs run
}

// New builds an engine (validating nothing beyond defaults: a zero Config
// is a small but runnable fleet).
func New(cfg Config) *Engine {
	cfg.fill()
	st := cfg.Store
	if st == nil {
		st = storage.NewMemory()
	}
	if cfg.StorageFaultRate > 0 {
		st = chaos.New(st, cfg.Seed^0x9e3779b9, chaos.DefaultRates(cfg.StorageFaultRate), cfg.Observer)
	}
	e := &Engine{
		cfg:        cfg,
		adm:        NewAdmission(cfg.MaxInFlight, cfg.Tenants, cfg.Counters, cfg.Observer),
		brk:        NewBreaker(st, BreakerConfig{Counters: cfg.Counters, Obs: cfg.Observer}),
		budgets:    make(map[string]*RetryBudget),
		drainCh:    make(chan struct{}),
		cancelJobs: make(chan struct{}),
	}
	for _, t := range cfg.Tenants {
		e.budgets[t.Name] = NewRetryBudget(retryTokensPerJob, retryTokensCap)
	}
	return e
}

// Drain begins graceful shutdown: the arrival stream stops, admissions
// are refused with ReasonDraining, and Run proceeds to its drain phase —
// in-flight jobs get DrainTimeout to finish before being cancel-parked.
// Safe to call from any goroutine, any number of times.
func (e *Engine) Drain() {
	e.drainOnce.Do(func() {
		e.adm.StartDrain()
		close(e.drainCh)
	})
}

// Run generates the arrival stream, drives every admitted job to a
// terminal bucket, drains, and reports. It is a single-shot: build a new
// Engine per run.
func (e *Engine) Run() (*Report, error) {
	cfg := e.cfg
	start := time.Now()
	// Every job runs the same program: it is built and compiled once, and the
	// jobs share the result (sim.Config.Code).
	code, err := sim.Compile(corpus.JacobiFig1(cfg.Iters))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pool := par.NewPool(cfg.MaxInFlight)

	rep := &Report{
		Rejected: make(map[string]int64),
		Buckets:  make(map[string]int64),
	}
	var wg sync.WaitGroup

arrivals:
	for j := 0; j < cfg.Jobs; j++ {
		if cfg.ArrivalRate > 0 && j > 0 {
			// Open-loop Poisson arrivals: exponential inter-arrival gaps on
			// the fleet's own clock, cut short only by a drain request.
			gap := time.Duration(rng.ExpFloat64() / cfg.ArrivalRate * float64(time.Second))
			select {
			case <-time.After(gap):
			case <-e.drainCh:
				break arrivals
			}
		} else {
			select {
			case <-e.drainCh:
				break arrivals
			default:
			}
		}
		rep.Arrivals++
		tenant := e.pickTenant(rng)
		release, err := e.adm.TryAdmit(tenant)
		if err != nil {
			var aerr *AdmissionError
			if errors.As(err, &aerr) {
				rep.Rejected[aerr.Reason]++
			}
			continue
		}
		rep.Admitted++
		e.budgets[tenant].Deposit(retryTokensPerJob)
		jobID := j
		jobSeed := cfg.Seed ^ (int64(jobID)+1)*0x5deece66d
		business := cfg.BusinessFailRate > 0 && splitmixFrac(jobSeed) < cfg.BusinessFailRate
		wg.Add(1)
		pool.Submit(func() {
			defer wg.Done()
			err := e.runJob(code, jobID, jobSeed, tenant, business)
			bucket := Classify(err)
			e.mu.Lock()
			rep.Buckets[bucket]++
			e.mu.Unlock()
			cfg.Counters.Inc(bucketCounters[bucket], 1)
			if cfg.Observer != nil {
				label := ""
				if err != nil {
					label = err.Error()
				}
				cfg.Observer.OnEvent(obs.Event{
					Kind: obs.KindJobDone, Proc: -1, Inc: jobID,
					Tag: bucket, Label: label,
				})
			}
			release()
		})
	}

	// Drain: no more admissions (either the stream is exhausted or Drain
	// fired); give in-flight jobs the deadline, then park the rest.
	e.Drain()
	drainStart := time.Now()
	if cfg.Observer != nil {
		cfg.Observer.OnEvent(obs.Event{Kind: obs.KindDrain, Proc: -1, Label: "begin",
			Tag: fmt.Sprintf("inflight=%d", e.adm.Active())})
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(cfg.DrainTimeout):
		rep.DrainParked = true
		close(e.cancelJobs)
		if cfg.Observer != nil {
			cfg.Observer.OnEvent(obs.Event{Kind: obs.KindDrain, Proc: -1, Label: "park",
				Tag: fmt.Sprintf("inflight=%d", e.adm.Active())})
		}
		<-done // cancellation unblocks every job promptly
	}
	pool.Close()
	rep.DrainDur = time.Since(drainStart)
	rep.Elapsed = time.Since(start)
	cfg.Counters.SetGauge("drain_seconds", rep.DrainDur.Seconds())
	if cfg.Observer != nil {
		cfg.Observer.OnEvent(obs.Event{Kind: obs.KindDrain, Proc: -1, Label: "done",
			Tag: fmt.Sprintf("%.3fs", rep.DrainDur.Seconds())})
	}

	// Every job has reported (done is closed): Buckets is read without mu.
	rep.Breaker = e.brk.Stats()
	if rep.Elapsed > 0 {
		rep.JobsPerSec = float64(rep.Admitted) / rep.Elapsed.Seconds()
	}
	if !rep.Conserved() {
		return rep, fmt.Errorf("fleet: taxonomy violated: %d arrivals, %d admitted, %d rejected, buckets %v",
			rep.Arrivals, rep.Admitted, rep.RejectedTotal(), rep.Buckets)
	}
	return rep, nil
}

// pickTenant draws a tenant by weight.
func (e *Engine) pickTenant(rng *rand.Rand) string {
	ts := e.cfg.Tenants
	if len(ts) == 1 {
		return ts[0].Name
	}
	// Weight <= 0 counts as 1 (see TenantConfig).
	var total float64
	for _, t := range ts {
		w := t.Weight
		if w <= 0 {
			w = 1
		}
		total += w
	}
	x := rng.Float64() * total
	for _, t := range ts {
		w := t.Weight
		if w <= 0 {
			w = 1
		}
		x -= w
		if x < 0 {
			return t.Name
		}
	}
	return ts[len(ts)-1].Name
}

// runJob drives one admitted job to its terminal error (nil = success).
func (e *Engine) runJob(code *sim.Code, jobID int, jobSeed int64, tenant string, business bool) error {
	cfg := e.cfg
	ns, err := storage.NewNamespace(e.brk, jobID, cfg.Nproc)
	if err != nil {
		return err
	}
	sc := sim.Config{
		Code:     code,
		Nproc:    cfg.Nproc,
		Store:    ns,
		NoPrune:  cfg.NoPrune,
		Input:    func(rank, i int) int { return rank + i },
		Jitter:   jobSeed | 1, // nonzero: every job explores its own schedule
		Timeout:  cfg.JobTimeout,
		Cancel:   e.cancelJobs,
		Observer: cfg.Observer,
		Counters: cfg.Counters,

		RetryBudget:  e.budgets[tenant],
		DisableTrace: true, // nothing reads a job's Result.Trace
	}
	// The shared store sheds saves through the breaker, so recovery always
	// gets the restart headroom.
	chaos.Arm(&sc, chaos.Faults{
		Seed: jobSeed, CrashRate: cfg.CrashLambda, Incarnations: 2,
		NetRate: cfg.NetFaultRate, StoreFaults: true,
	}, cfg.Observer)
	if _, err := sim.Run(sc); err != nil {
		return err
	}
	if business {
		return fmt.Errorf("fleet: job %d (tenant %s): simulated domain error: %w", jobID, tenant, ErrBusiness)
	}
	return nil
}

// splitmixFrac hashes a seed to a uniform [0, 1) fraction (splitmix64
// finalizer) — the per-job business-failure draw, decoupled from the
// arrival rng so schedules stay comparable across configs.
func splitmixFrac(seed int64) float64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}
