package sim

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mpl"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/trace"
)

func mustParseProg(t *testing.T, src string) *mpl.Program {
	t.Helper()
	p, err := mpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDurableStoreRecovery runs the full crash/recover cycle against the
// durable store: checkpoints are written as CRC-framed log records and read
// back for the restart.
func TestDurableStoreRecovery(t *testing.T) {
	st, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p := corpus.JacobiFig1(4)
	clean := runOK(t, p, 4)
	failed := runOK(t, p, 4, func(c *Config) {
		c.Store = st
		c.Failures = []Failure{{Proc: 2, AfterEvents: 20}}
	})
	if failed.Restarts != 1 {
		t.Fatalf("restarts = %d", failed.Restarts)
	}
	if !reflect.DeepEqual(clean.FinalVars, failed.FinalVars) {
		t.Errorf("durable-store recovery diverged")
	}
	// The store holds complete straight cuts.
	indexes, err := st.Indexes(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(indexes) == 0 {
		t.Error("no complete indexes in the log")
	}
}

// TestIncrementalStoreRecovery runs crash/recover against the delta-
// encoded incremental store: reconstruction chains must survive rollback
// pruning (dead bases included) and replay.
func TestIncrementalStoreRecovery(t *testing.T) {
	p := corpus.JacobiFig1(5)
	clean := runOK(t, p, 4)
	for _, fullEvery := range []int{1, 2, 4} {
		inc := storage.NewIncremental(fullEvery)
		failed := runOK(t, p, 4, func(c *Config) {
			c.Store = inc
			c.Failures = []Failure{{Proc: 2, AfterEvents: 20}}
		})
		if failed.Restarts != 1 {
			t.Fatalf("fullEvery=%d: restarts = %d", fullEvery, failed.Restarts)
		}
		if !reflect.DeepEqual(clean.FinalVars, failed.FinalVars) {
			t.Errorf("fullEvery=%d: incremental-store recovery diverged", fullEvery)
		}
	}
}

// TestLargerScale exercises n=16 (beyond the attr solver's default bound
// of 17, checking end-to-end behavior at the edge of the analysis range).
func TestLargerScale(t *testing.T) {
	rep, err := core.Transform(corpus.JacobiFig2(3), core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	res := runOK(t, rep.Program, 16)
	checkStraightCuts(t, res.Trace, true)
	if err := trace.Validate(res.Trace); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleSweepDeterministicResults varies the real-time interleaving
// with jitter seeds: results, straight-cut consistency, and metrics of a
// deterministic program must be schedule-invariant.
func TestScheduleSweepDeterministicResults(t *testing.T) {
	rep, err := core.Transform(corpus.JacobiFig2(3), core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	var baseline *Result
	for seed := int64(0); seed < 6; seed++ {
		res := runOK(t, rep.Program, 4, func(c *Config) { c.Jitter = seed })
		checkStraightCuts(t, res.Trace, true)
		if baseline == nil {
			baseline = res
			continue
		}
		if !reflect.DeepEqual(baseline.FinalVars, res.FinalVars) {
			t.Fatalf("seed %d: results changed with schedule", seed)
		}
		if baseline.Metrics.AppMessages != res.Metrics.AppMessages {
			t.Fatalf("seed %d: message count changed with schedule", seed)
		}
	}
}

// TestRepeatedRunsShareNetworklessState ensures two sequential Run calls
// with the same config are fully independent (no leaked globals).
func TestRepeatedRunsIndependent(t *testing.T) {
	p := corpus.Ring(2)
	a := runOK(t, p, 3)
	b := runOK(t, p, 3)
	if a.Metrics.AppMessages != b.Metrics.AppMessages {
		t.Errorf("app messages differ: %d vs %d", a.Metrics.AppMessages, b.Metrics.AppMessages)
	}
	if !reflect.DeepEqual(a.FinalVars, b.FinalVars) {
		t.Error("final states differ across runs")
	}
}

// TestFailureAtEveryPoint sweeps the crash point across the whole
// execution of the transformed Fig2 — recovery must succeed and reproduce
// the clean result regardless of when the crash lands.
func TestFailureAtEveryPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short")
	}
	rep, err := core.Transform(corpus.JacobiFig2(3), core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	clean := runOK(t, rep.Program, 3)
	maxEvents := 0
	for _, h := range clean.Trace.Events() {
		if len(h) > maxEvents {
			maxEvents = len(h)
		}
	}
	for victim := 0; victim < 3; victim++ {
		for after := 1; after <= maxEvents; after += 3 {
			failed, err := Run(Config{
				Program:  rep.Program,
				Nproc:    3,
				Failures: []Failure{{Proc: victim, AfterEvents: after}},
				Timeout:  20 * time.Second,
			})
			if err != nil {
				t.Fatalf("victim %d after %d: %v", victim, after, err)
			}
			if !reflect.DeepEqual(clean.FinalVars, failed.FinalVars) {
				t.Fatalf("victim %d after %d: diverged", victim, after)
			}
		}
	}
}

// TestCrashDuringRecoverySweep sweeps crash points across incarnation 1 —
// the crash strikes while the application is replaying from the first
// recovery line — and across a three-deep cascade (incarnations 0, 1, 2).
// Every schedule must converge to the clean result.
func TestCrashDuringRecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short")
	}
	rep, err := core.Transform(corpus.JacobiFig2(3), core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	clean := runOK(t, rep.Program, 3)
	hitIncOne := 0
	for victim := 0; victim < 3; victim++ {
		for after := 1; after <= 40; after += 4 {
			failed, err := Run(Config{
				Program: rep.Program,
				Nproc:   3,
				// Proc 0 is always active in this program (rank 2's
				// partner is out of range, so rank 2 idles early); anchor
				// the first crash there so incarnation 1 always exists.
				Crashes: []Crash{
					{Inc: 0, Proc: 0, AfterEvents: 10},
					{Inc: 1, Proc: victim, AfterEvents: after},
				},
				Timeout: 20 * time.Second,
			})
			if err != nil {
				t.Fatalf("victim %d after %d in inc 1: %v", victim, after, err)
			}
			// A crash point past the end of the replay never fires, so
			// restarts is 1 or 2 depending on where the sweep landed.
			switch failed.Restarts {
			case 1:
			case 2:
				hitIncOne++
			default:
				t.Fatalf("victim %d after %d: restarts = %d, want 1 or 2", victim, after, failed.Restarts)
			}
			if !reflect.DeepEqual(clean.FinalVars, failed.FinalVars) {
				t.Fatalf("victim %d after %d in inc 1: diverged", victim, after)
			}
		}
	}
	if hitIncOne == 0 {
		t.Fatal("no sweep point crashed incarnation 1 — the sweep tested nothing")
	}
	// Three-deep cascade with concurrent crashes in the middle incarnation.
	failed, err := Run(Config{
		Program: rep.Program,
		Nproc:   3,
		Crashes: []Crash{
			{Inc: 0, Proc: 0, AfterEvents: 10},
			{Inc: 1, Proc: 0, AfterEvents: 8},
			{Inc: 1, Proc: 1, AfterEvents: 8},
			{Inc: 2, Proc: 1, AfterEvents: 12},
		},
		Timeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if failed.Restarts < 2 {
		t.Fatalf("cascade restarts = %d, want >= 2", failed.Restarts)
	}
	if !reflect.DeepEqual(clean.FinalVars, failed.FinalVars) {
		t.Fatal("cascade diverged")
	}
}

// TestStoreHoldsLatestInstancesOnly verifies rollback pruning: after a
// recovery, the store never holds two snapshots claiming the same
// (proc,index,instance) and replay regenerates the pruned suffix.
func TestRollbackPruningAndRegeneration(t *testing.T) {
	p := corpus.JacobiFig1(4)
	clean := runOK(t, p, 3)
	failed := runOK(t, p, 3, func(c *Config) {
		c.Failures = []Failure{{Proc: 0, AfterEvents: 18}}
	})
	// After recovery and replay, both stores hold the same number of
	// checkpoints per process (replay regenerated the pruned ones).
	for proc := 0; proc < 3; proc++ {
		a, err := clean.Store.List(proc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := failed.Store.List(proc)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Errorf("proc %d: clean store has %d snapshots, failed-run store %d",
				proc, len(a), len(b))
		}
	}
}

// TestBcastFromNonzeroRoot covers the collective with a non-default root.
func TestBcastFromNonzeroRoot(t *testing.T) {
	src := `
program rootcast
var v
proc {
    v = rank * 10
    chkpt
    bcast(2, v)
}
`
	p := mustParseProg(t, src)
	res := runOK(t, p, 4)
	for r, vars := range res.FinalVars {
		if vars["v"] != 20 {
			t.Errorf("rank %d v = %d, want 20 (root 2's value)", r, vars["v"])
		}
	}
}

// TestBcastRootOutOfRange surfaces a clear error.
func TestBcastRootOutOfRange(t *testing.T) {
	src := `
program badroot
var v
proc {
    bcast(9, v)
}
`
	p := mustParseProg(t, src)
	if _, err := Run(Config{Program: p, Nproc: 2, Timeout: 5 * time.Second}); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

// TestStepBudgetEnforced catches runaway loops.
func TestStepBudgetEnforced(t *testing.T) {
	src := `
program forever
var x
proc {
    while 1 {
        x = x + 1
    }
}
`
	p := mustParseProg(t, src)
	_, err := Run(Config{Program: p, Nproc: 1, DisableTrace: true, Timeout: 5 * time.Second})
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("err = %v, want ErrStepBudget", err)
	}
}
