package repro_test

// Chaos soak: the acceptance test of the robustness layer. Seeded runs
// combining storage fault injection (transient errors, torn writes, bit
// flips, latency) with generated multi-process, multi-incarnation crash
// schedules must all converge to the clean run's final state, across all
// three store kinds — and the fleet as a whole must actually exercise the
// fault machinery (faults injected, retries taken, degraded recoveries
// observed, with matching observability events).
//
// Under -short the seed matrix shrinks (which also sidesteps the
// fleet-wide coverage assertions) instead of skipping outright; `make
// chaos` runs the full matrix with -race. SOAK_SEEDS overrides the seed
// count (CI uses a smaller matrix).

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mpl"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage/wal"
)

func TestChaosSoak(t *testing.T) {
	// -short trims the matrix to a few seeds rather than skipping; the
	// per-seed convergence checks all still run, and fleetAssertions sees
	// the shrunken count and skips only the fleet-wide coverage bars.
	// 36, not fewer: among seeds 0–23 only seed 6 ever degrades, and only
	// when its process 0 wins a save-versus-crash race in incarnation 0,
	// which it loses in 10–25 % of runs on a busy box. Seeds 24, 33 and 35
	// degrade whatever the interleaving.
	const fullSeeds = 36
	defSeeds := fullSeeds
	if testing.Short() {
		defSeeds = 4
	}
	rep, err := core.Transform(corpus.JacobiFig2(3), core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	prog := rep.Program
	const n = 3
	clean, err := sim.Run(sim.Config{Program: prog, Nproc: n, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Jacobi keeps every variable live at its checkpoint sites, so a third
	// of the seeds run master/worker instead, whose sites have genuinely
	// dead variables — the matrix must crash and recover from snapshots the
	// liveness pass actually shrank.
	repMW, err := core.Transform(corpus.MasterWorker(n), core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	progMW := repMW.Program
	cleanMW, err := sim.Run(sim.Config{Program: progMW, Nproc: n, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	// Fleet-wide aggregates: individual seeds may draw empty schedules or
	// dodge every fault, but across the default seeds the machinery
	// must fire.
	seeds := int64(soakSeeds(t, defSeeds))
	checkFleet := fleetAssertions(t, int(seeds), fullSeeds)
	var (
		mu                                                      sync.Mutex
		totalFaults, totalRetries, totalDegraded, totalRestarts int64
		totalPruneSaved                                         int64
	)
	kinds := map[obs.Kind]int{}
	// soak runs one seed of p on procs processes, which must end in
	// cleanVars; the fleet aggregates count it when counted.
	soak := func(t *testing.T, seed int64, procs int, p *mpl.Program, cleanVars []map[string]int, counted bool) {
		t.Parallel()
		// Half the seeds run on the durable store.
		inner := openTestStore(t, storeKinds[min(seed%4, 2)], 4, wal.Options{})
		rates := chaos.DefaultRates(0.12)
		if seed%2 == 1 {
			// Rot-heavy profile: with a large fraction of snapshots damaged
			// on disk, the recovery frontier itself is corrupt and selection
			// must walk down the degradation ladder. (At the default rates
			// a flipped checkpoint is usually shadowed by a newer clean
			// instance before any crash probes it.)
			rates = chaos.Rates{WriteError: 0.05, ReadError: 0.05, TornWrite: 0.05, BitFlip: 0.4}
		}
		rec := obs.NewRecorder()
		cst := chaos.New(inner, seed, rates, rec)
		crashes := chaos.CrashSchedule(seed, chaos.ScheduleConfig{
			Nproc: procs, Lambda: 1.2, MaxIncarnations: 3, MaxEvents: 35,
		})
		// Every fifth seed runs the full-environment A/B lane: crash
		// convergence must not depend on snapshots being pruned.
		noPrune := seed%5 == 4
		res, err := sim.Run(sim.Config{
			Program:  p,
			Nproc:    procs,
			Store:    cst,
			Crashes:  crashes,
			Observer: rec,
			NoPrune:  noPrune,
			Jitter:   seed,
			// Storage faults crash processes beyond the schedule; give
			// recovery generous headroom.
			MaxRestarts: len(crashes) + 25,
			Timeout:     20 * time.Second,
		})
		if err != nil {
			t.Fatalf("seed %d (%T): %v (schedule %v)", seed, inner, err, crashes)
		}
		if !reflect.DeepEqual(cleanVars, res.FinalVars) {
			t.Fatalf("seed %d (%T): diverged under chaos\nclean: %v\nchaos: %v",
				seed, inner, cleanVars, res.FinalVars)
		}
		if noPrune && res.Metrics.Custom[sim.MetricPruneBytesFull] != 0 {
			t.Fatalf("seed %d: NoPrune run still recorded prune accounting: %v",
				seed, res.Metrics.Custom)
		}
		if !counted {
			if res.Restarts == 0 {
				t.Errorf("seed %d on %d processes: no restart", seed, procs)
			}
			return
		}
		st := cst.Stats()
		mu.Lock()
		totalFaults += st.Total()
		totalRetries += int64(res.Metrics.Custom[sim.MetricStoreRetries])
		totalDegraded += int64(res.Metrics.Custom[sim.MetricRecoveryDegraded])
		totalPruneSaved += int64(res.Metrics.Custom[sim.MetricPruneBytesSaved])
		totalRestarts += int64(res.Restarts)
		for _, e := range rec.Events() {
			kinds[e.Kind]++
		}
		mu.Unlock()
	}
	// The per-seed runs are independent — every chaos decision is hashed
	// from (seed, class, key, attempt), never from cross-seed state or
	// scheduling — so they soak in parallel. Each seed's convergence check
	// against the serial clean run asserts the results are unchanged by
	// the interleaving. The enclosing group subtest completes only after
	// all parallel seeds finish, so the fleet assertions below see the
	// full aggregates.
	t.Run("seeds", func(t *testing.T) {
		for seed := int64(0); seed < seeds; seed++ {
			t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
				if seed%3 == 2 {
					soak(t, seed, n, progMW, cleanMW.FinalVars, true)
				} else {
					soak(t, seed, n, prog, clean.FinalVars, true)
				}
			})
		}
		// The same faults at 64 processes, whatever SOAK_SEEDS says: a
		// Jacobi rank's row holds its neighbour, the master's all 63
		// workers, the densest a sparse row gets. Each seed must restart
		// (on the incremental store, the WAL, memory, the WAL).
		// They stay out of the fleet aggregates, which the seeds above must
		// earn.
		for _, wide := range []struct {
			name string
			prog *mpl.Program
			seed int64
		}{{"jacobi", prog, 1}, {"jacobi", prog, 6}, {"masterworker", progMW, 0}, {"masterworker", progMW, 3}} {
			t.Run(fmt.Sprintf("n64-%s-seed%d", wide.name, wide.seed), func(t *testing.T) {
				clean, err := sim.Run(sim.Config{Program: wide.prog, Nproc: 64, Timeout: 20 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				soak(t, wide.seed, 64, wide.prog, clean.FinalVars, false)
			})
		}
	})
	if t.Failed() {
		return
	}

	if !checkFleet {
		return
	}
	if totalFaults == 0 {
		t.Error("fleet injected no storage faults — the chaos layer never fired")
	}
	if totalRetries == 0 {
		t.Error("fleet recorded no storage retries")
	}
	if totalDegraded == 0 {
		t.Error("fleet recorded no degraded recoveries — corruption never forced a fallback")
	}
	if totalRestarts == 0 {
		t.Error("fleet recorded no restarts — the crash schedules never fired")
	}
	if totalPruneSaved == 0 {
		t.Error("fleet saved no bytes to manifest pruning — the liveness-minimized lane never fired")
	}
	for _, want := range []obs.Kind{obs.KindFault, obs.KindRetry, obs.KindScrub, obs.KindDegraded} {
		if kinds[want] == 0 {
			t.Errorf("no %q events across the fleet: %v", want, kinds)
		}
	}
}
