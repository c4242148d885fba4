package repro_test

// Fleet chaos soak: the acceptance test of the fleet engine. Seeded runs
// drive hundreds of concurrent checkpointed jobs each against one shared
// store under storage faults, injected crashes, lossy links, and business
// failures, and every run must balance the books exactly: arrivals ==
// admitted + rejected, and every admitted job lands in exactly ONE
// taxonomy bucket (succeeded / infra_failed / business_failed / parked).
// Across the full matrix at least 1000 jobs must be admitted, the drain
// must complete within its deadline, and a dedicated brownout scenario
// must prove the shared-store circuit breaker opens AND recovers through
// half-open probes.
//
// Under -short the matrix shrinks (which also sidesteps the fleet-wide
// volume bars) instead of skipping outright; `make fleet` runs the full
// matrix with -race. SOAK_SEEDS overrides the chaos-scenario count.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/storage"
	"repro/internal/storage/wal"
)

// brownoutStore fails every operation transiently for a wall-clock window
// starting at its first op. Time-based on purpose: while the breaker is
// open, sheds never reach the store, so an op-counted window would never
// drain.
type brownoutStore struct {
	storage.Store
	dur   time.Duration
	mu    sync.Mutex
	start time.Time
}

func (w *brownoutStore) browned() error {
	w.mu.Lock()
	if w.start.IsZero() {
		w.start = time.Now()
	}
	brown := time.Since(w.start) < w.dur
	w.mu.Unlock()
	if brown {
		return storage.ErrTransient
	}
	return nil
}

func (w *brownoutStore) Save(s storage.Snapshot) error {
	if err := w.browned(); err != nil {
		return err
	}
	return w.Store.Save(s)
}

func (w *brownoutStore) Latest(proc, cfgIndex int) (storage.Snapshot, error) {
	if err := w.browned(); err != nil {
		return storage.Snapshot{}, err
	}
	return w.Store.Latest(proc, cfgIndex)
}

func TestFleetSoak(t *testing.T) {
	defSeeds := 4
	jobsPerSeed := 300
	if testing.Short() {
		defSeeds = 2
		jobsPerSeed = 40
	}
	seeds := soakSeeds(t, defSeeds)
	fullMatrix := fleetAssertions(t, seeds, 4) && !testing.Short()

	var (
		mu            sync.Mutex
		totalAdmitted int64
		totalRejected int64
		buckets       = map[string]int64{}
	)
	runScenario := func(t *testing.T, cfg fleet.Config) *fleet.Report {
		t.Helper()
		e := fleet.New(cfg)
		rep, err := e.Run()
		if err != nil {
			// Run errors exactly when conservation fails: a silent loss.
			t.Fatalf("seed %d: %v\n%s", cfg.Seed, err, rep)
		}
		if !rep.Conserved() {
			t.Fatalf("seed %d: not conserved:\n%s", cfg.Seed, rep)
		}
		if rep.DrainParked {
			t.Fatalf("seed %d: drain deadline expired — jobs outlived the generous deadline:\n%s", cfg.Seed, rep)
		}
		if rep.DrainDur > cfg.DrainTimeout+5*time.Second {
			t.Fatalf("seed %d: drain took %v against a %v deadline:\n%s",
				cfg.Seed, rep.DrainDur, cfg.DrainTimeout, rep)
		}
		mu.Lock()
		totalAdmitted += rep.Admitted
		totalRejected += rep.RejectedTotal()
		for b, n := range rep.Buckets {
			buckets[b] += n
		}
		mu.Unlock()
		return rep
	}

	chaosCfg := func(seed int64) fleet.Config {
		return fleet.Config{
			Jobs:        jobsPerSeed,
			MaxInFlight: 32,
			// Paced so admission keeps up: the soak measures robustness, not
			// rejection volume (capacity rejection has its own scenario).
			ArrivalRate:      800,
			Seed:             seed,
			StorageFaultRate: 0.04,
			CrashLambda:      0.4,
			NetFaultRate:     0.01,
			BusinessFailRate: 0.1,
			Tenants: []fleet.TenantConfig{
				{Name: "batch", Quota: 24, Weight: 3},
				{Name: "interactive", Weight: 1},
			},
			DrainTimeout: 60 * time.Second,
			JobTimeout:   20 * time.Second,
		}
	}

	// The chaos scenarios are independent seeded fleets; soak them in
	// parallel. The enclosing group completes before the volume bars below.
	t.Run("chaos", func(t *testing.T) {
		for seed := int64(0); seed < int64(seeds); seed++ {
			t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
				t.Parallel()
				runScenario(t, chaosCfg(seed))
			})
		}
	})
	if t.Failed() {
		return
	}

	// Breaker scenario: a brownout covering the stream's start must trip
	// the breaker (pacing load off the shared store) and, once the window
	// passes, the breaker must recover via half-open probes so later
	// arrivals run clean.
	t.Run("breaker", func(t *testing.T) {
		st := &brownoutStore{Store: storage.NewMemory(), dur: 30 * time.Millisecond}
		cfg := fleet.Config{
			Jobs: 60, MaxInFlight: 8, Iters: 10, Seed: 99, Store: st,
			ArrivalRate:  400,
			DrainTimeout: 60 * time.Second,
			JobTimeout:   20 * time.Second,
		}
		e := fleet.New(cfg)
		rep, err := e.Run()
		if err != nil {
			t.Fatalf("breaker scenario: %v\n%s", err, rep)
		}
		if rep.Breaker.Opened == 0 {
			t.Fatalf("breaker never opened through the brownout:\n%s", rep)
		}
		if got := rep.Breaker.State; got != fleet.StateClosed {
			t.Fatalf("breaker state = %d after the store healed, want closed (half-open recovery)\n%s", got, rep)
		}
		if rep.Buckets[fleet.BucketSucceeded] == 0 {
			t.Fatalf("no job survived the brownout:\n%s", rep)
		}
		mu.Lock()
		totalAdmitted += rep.Admitted
		for b, n := range rep.Buckets {
			buckets[b] += n
		}
		mu.Unlock()
	})

	// WAL-store scenario: the whole fleet — admission, retry, breaker,
	// namespaces — runs against the durable group-commit log instead of a
	// memory store, under the same chaos profile. The books must still
	// balance and every acked save must have hit the committer. (Batch
	// amortization itself is pinned by TestGroupCommitBatches; Batches
	// vs Saves is not an invariant here because scrub tombstones commit
	// in batches of their own.)
	t.Run("walstore", func(t *testing.T) {
		ws := openTestStore(t, "wal", 0, wal.Options{}).(*wal.Store)
		cfg := chaosCfg(4242)
		cfg.Store = ws
		rep := runScenario(t, cfg)
		if rep.Buckets[fleet.BucketSucceeded] == 0 {
			t.Fatalf("no job succeeded against the WAL store:\n%s", rep)
		}
		st := ws.Stats()
		if st.Saves == 0 {
			t.Fatalf("fleet ran but the WAL store saw no saves: %+v", st)
		}
		if st.Batches == 0 {
			t.Errorf("saves acked but no group commit recorded: %+v", st)
		}
		t.Logf("wal under fleet: %d saves in %d group commits", st.Saves, st.Batches)
	})

	// Incremental-store scenario: the same chaos profile over the delta
	// store, whose interior deletes leave dead bases the chains replay
	// through. Breaker sheds may classify jobs infra_failed, as on any
	// shared store; the books must balance and some job must succeed.
	t.Run("incstore", func(t *testing.T) {
		cfg := chaosCfg(4243)
		cfg.Store = storage.NewIncremental(0)
		rep := runScenario(t, cfg)
		if rep.Buckets[fleet.BucketSucceeded] == 0 {
			t.Fatalf("no job succeeded against the incremental store:\n%s", rep)
		}
	})

	// Overload scenario: back-to-back arrivals into a tiny fleet must be
	// REJECTED, not queued — and rejection is loss-accounted, not silent.
	t.Run("overload", func(t *testing.T) {
		rep := runScenario(t, fleet.Config{
			Jobs: 100, MaxInFlight: 2, Iters: 50, Seed: 7,
			DrainTimeout: 60 * time.Second, JobTimeout: 20 * time.Second,
		})
		if rep.Rejected[fleet.ReasonFleetCapacity] == 0 {
			t.Errorf("overloaded fleet rejected nothing:\n%s", rep)
		}
	})
	if t.Failed() {
		return
	}

	// Top-up to the acceptance volume: the soak must witness >= 1000
	// admitted jobs under chaos in the full matrix.
	if fullMatrix {
		for extra := int64(100); totalAdmitted < 1000 && extra < 120; extra++ {
			cfg := chaosCfg(extra)
			cfg.Jobs = 200
			runScenario(t, cfg)
		}
		if totalAdmitted < 1000 {
			t.Fatalf("soak admitted only %d jobs, want >= 1000", totalAdmitted)
		}
		// The taxonomy must have real mass in every class the scenarios
		// provoke: successes, business failures, and (from overload)
		// rejections.
		if buckets[fleet.BucketSucceeded] == 0 || buckets[fleet.BucketBusinessFailed] == 0 {
			t.Errorf("taxonomy coverage hole: %v", buckets)
		}
		if totalRejected == 0 {
			t.Error("no rejections across the matrix — admission control never pushed back")
		}
		var sum int64
		for _, n := range buckets {
			sum += n
		}
		if sum != totalAdmitted {
			t.Fatalf("SILENT LOSS: %d admitted but %d bucketed (%v)", totalAdmitted, sum, buckets)
		}
	}
	t.Logf("fleet soak: admitted=%d rejected=%d buckets=%v", totalAdmitted, totalRejected, buckets)
}
