package repro_test

// Network chaos soak: the acceptance test of the hardened transport.
// Seeded runs over lossy links — multi-seed × {drop, dup, reorder,
// partition-heal} — must all converge to the clean run's final state while
// the repair machinery (resequencing, ack/retransmit with adaptive RTO,
// failure detection by the link a silent peer leaves unacked) visibly
// engages: frames dropped and retransmitted, duplicates suppressed, reorders
// resequenced, partitions suspected and healed, with matching observability
// events. The loss profiles suspect no one.
//
// Under -short the per-profile seed matrix shrinks (which also sidesteps
// the fleet-wide coverage assertions) instead of skipping outright; `make
// netchaos` runs the full matrix with -race. SOAK_SEEDS overrides the
// per-profile seed count (CI uses a smaller matrix).

import (
	"fmt"
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/sim"
)

// soakSeeds returns the soak matrix's seed count: the SOAK_SEEDS
// environment variable when set, def otherwise.
func soakSeeds(t *testing.T, def int) int {
	t.Helper()
	s := os.Getenv("SOAK_SEEDS")
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		t.Fatalf("bad SOAK_SEEDS %q: want a positive integer", s)
	}
	return n
}

// fleetAssertions reports whether the fleet-wide "machinery must fire"
// aggregates should be checked. Per-seed convergence (the safety property)
// is always asserted, but the statistical coverage assertions only hold
// across a full-size matrix: a shrunken SOAK_SEEDS run may legitimately
// dodge a rare fault class.
func fleetAssertions(t *testing.T, seeds, def int) bool {
	t.Helper()
	if seeds >= def {
		return true
	}
	t.Logf("SOAK_SEEDS=%d < default %d: skipping fleet-wide coverage assertions (convergence still checked per seed)", seeds, def)
	return false
}

func TestNetChaosSoak(t *testing.T) {
	// -short trims the per-profile matrix to two seeds rather than
	// skipping; convergence is still checked per seed, and fleetAssertions
	// sees the shrunken count and skips only the fleet-wide coverage bars.
	defSeeds := 6
	if testing.Short() {
		defSeeds = 2
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

	profiles := []struct {
		name  string
		rates chaos.NetRates
		parts []chaos.Partition
		// metrics that this profile's fleet must move
		wantMetrics []string
	}{
		{
			name:        "drop",
			rates:       chaos.NetRates{Drop: 0.15},
			wantMetrics: []string{sim.MetricNetDrops, sim.MetricNetRetransmits, sim.MetricNetRTOExpired},
		},
		{
			name:        "dup",
			rates:       chaos.NetRates{Dup: 0.25},
			wantMetrics: []string{sim.MetricNetDups},
		},
		{
			name:        "reorder",
			rates:       chaos.NetRates{Reorder: 0.3, Delay: 0.2, MaxDelay: 2 * time.Millisecond},
			wantMetrics: []string{sim.MetricNetReorders},
		},
		{
			name:  "partition-heal",
			rates: chaos.NetRates{Drop: 0.05},
			// The window opens at the epoch: the program is small enough to
			// finish in single-digit milliseconds, so a late-opening window
			// would never bite. An immediate one forces the detector to
			// convert the silence into restarts until the heal; at 1.5 ×
			// SuspectAfter it outlasts every seed's first report.
			parts: []chaos.Partition{
				{From: 0, To: 1, Start: 0, Dur: 3 * sim.SuspectAfter / 2},
			},
			wantMetrics: []string{sim.MetricHBSuspects, sim.MetricPartitionHealed},
		},
	}

	seeds := soakSeeds(t, defSeeds)
	checkFleet := fleetAssertions(t, seeds, 6)
	for _, prof := range profiles {
		prof := prof
		t.Run(prof.name, func(t *testing.T) {
			var mu sync.Mutex
			totals := map[string]int64{}
			kinds := map[obs.Kind]int{}
			var totalRestarts int64
			// Per-seed runs are independent: every link verdict is hashed
			// from (seed, class, from, to, seq, attempt), so interleaving
			// them is safe and each seed's convergence check against the
			// serial clean run asserts the outcome is unchanged. The group
			// subtest joins all parallel seeds before the fleet assertions.
			t.Run("seeds", func(t *testing.T) {
				for seed := int64(1); seed <= int64(seeds); seed++ {
					t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
						t.Parallel()
						rec := obs.NewRecorder()
						inj := chaos.NewNetwork(seed, prof.rates, prof.parts, rec)
						res, err := sim.Run(sim.Config{
							Program:     prog,
							Nproc:       n,
							Net:         &sim.NetConfig{Chaos: inj},
							Observer:    rec,
							Jitter:      seed,
							MaxRestarts: 40,
							Timeout:     20 * time.Second,
						})
						if err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
						if !reflect.DeepEqual(clean.FinalVars, res.FinalVars) {
							t.Fatalf("seed %d: diverged under %s chaos\nclean: %v\nchaos: %v",
								seed, prof.name, clean.FinalVars, res.FinalVars)
						}
						mu.Lock()
						for name, v := range res.Metrics.Custom {
							totals[name] += v
						}
						totalRestarts += int64(res.Restarts)
						for _, e := range rec.Events() {
							kinds[e.Kind]++
						}
						mu.Unlock()
					})
				}
			})
			if t.Failed() {
				return
			}
			// Transient loss never silences a peer for SuspectAfter: no
			// seed may suspect one, whatever the matrix's size.
			if len(prof.parts) == 0 && totals[sim.MetricHBSuspects] != 0 {
				t.Errorf("fleet %s = %d under transient loss, want 0: a live peer was suspected", sim.MetricHBSuspects, totals[sim.MetricHBSuspects])
			}
			if !checkFleet {
				return
			}
			for _, name := range prof.wantMetrics {
				if totals[name] == 0 {
					t.Errorf("fleet %s = 0, want > 0 (totals: %v)", name, totals)
				}
			}
			if kinds[obs.KindNetFault] == 0 {
				t.Errorf("no %q events across the fleet: %v", obs.KindNetFault, kinds)
			}
			if len(prof.parts) > 0 {
				if totalRestarts == 0 {
					t.Error("partition profile triggered no restarts — silence never became recovery")
				}
				for _, want := range []obs.Kind{obs.KindSuspect, obs.KindHeal, obs.KindRollback, obs.KindRestart} {
					if kinds[want] == 0 {
						t.Errorf("no %q events across the fleet: %v", want, kinds)
					}
				}
			}
		})
	}
}
