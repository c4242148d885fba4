package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mpl"
	"repro/internal/recovery"
	"repro/internal/trace"
)

// runOK runs a program with the application-driven scheme and fails the
// test on error.
func runOK(t *testing.T, p *mpl.Program, n int, extra ...func(*Config)) *Result {
	t.Helper()
	cfg := Config{Program: p, Nproc: n, Timeout: 20 * time.Second}
	for _, f := range extra {
		f(&cfg)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%s, n=%d): %v", p.Name, n, err)
	}
	return res
}

// checkStraightCuts verifies that every complete straight cut of the trace
// is (or is not) a recovery line.
func checkStraightCuts(t *testing.T, tr *trace.Trace, wantConsistent bool) {
	t.Helper()
	idxs := tr.CheckpointIndexes()
	if len(idxs) == 0 {
		t.Fatal("no checkpoints recorded")
	}
	for _, i := range idxs {
		cut, err := tr.StraightCut(i)
		if err != nil {
			continue // some process never reached index i
		}
		got := trace.IsRecoveryLine(cut)
		if got != wantConsistent {
			a, b, _ := trace.FirstViolation(cut)
			t.Errorf("straight cut R_%d consistent = %v, want %v (violation %v -> %v)",
				i, got, wantConsistent, a, b)
		}
	}
}

func TestJacobiFig1StraightCutsAreRecoveryLines(t *testing.T) {
	res := runOK(t, corpus.JacobiFig1(4), 4)
	if err := trace.Validate(res.Trace); err != nil {
		t.Fatal(err)
	}
	checkStraightCuts(t, res.Trace, true)
	// Cross-check clocks against structural happened-before.
	h, err := trace.NewHB(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CheckClockConsistency(); err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Checkpoints == 0 || res.Metrics.AppMessages == 0 {
		t.Errorf("metrics empty: %v", res.Metrics)
	}
	if res.Metrics.CtrlMessages != 0 {
		t.Errorf("application-driven run sent %d control messages (must be 0)", res.Metrics.CtrlMessages)
	}
}

func TestJacobiFig2UntransformedViolates(t *testing.T) {
	// The paper's Figure 3: with even ranks checkpointing before the
	// exchange and odd ranks after, C_even happens-before C_odd.
	res := runOK(t, corpus.JacobiFig2(3), 4)
	checkStraightCuts(t, res.Trace, false)
}

func TestJacobiFig2TransformedIsSafe(t *testing.T) {
	rep, err := core.Transform(corpus.JacobiFig2(3), core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	res := runOK(t, rep.Program, 4)
	checkStraightCuts(t, res.Trace, true)
}

func TestFinalStateMatchesAcrossSchedules(t *testing.T) {
	// Deterministic programs give identical results on every run.
	p := corpus.JacobiFig1(3)
	a := runOK(t, p, 4)
	b := runOK(t, p, 4)
	if !reflect.DeepEqual(a.FinalVars, b.FinalVars) {
		t.Errorf("final states differ:\n%v\n%v", a.FinalVars, b.FinalVars)
	}
}

func TestFailureRecoveryPreservesResult(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog *mpl.Program
		n    int
	}{
		{"jacobi_fig1", corpus.JacobiFig1(4), 4},
		{"ring", corpus.Ring(3), 3},
		{"masterworker", corpus.MasterWorker(3), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean := runOK(t, tc.prog, tc.n)
			failed := runOK(t, tc.prog, tc.n, func(c *Config) {
				c.Failures = []Failure{{Proc: 1, AfterEvents: 8}}
			})
			if failed.Restarts != 1 {
				t.Fatalf("restarts = %d, want 1", failed.Restarts)
			}
			if !reflect.DeepEqual(clean.FinalVars, failed.FinalVars) {
				t.Errorf("failure run diverged:\nclean: %v\nfailed: %v",
					clean.FinalVars, failed.FinalVars)
			}
		})
	}
}

func TestTransformedFig2SurvivesFailures(t *testing.T) {
	rep, err := core.Transform(corpus.JacobiFig2(4), core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	clean := runOK(t, rep.Program, 4)
	// Inject failures at several points; recovery must always find a
	// consistent straight cut (Theorem 3.2 at runtime).
	for _, after := range []int{5, 15, 30, 50} {
		failed := runOK(t, rep.Program, 4, func(c *Config) {
			c.Failures = []Failure{{Proc: 2, AfterEvents: after}}
		})
		if !reflect.DeepEqual(clean.FinalVars, failed.FinalVars) {
			t.Errorf("after=%d: diverged: %v vs %v", after, clean.FinalVars, failed.FinalVars)
		}
	}
}

func TestUntransformedFig2RecoveryIsInconsistent(t *testing.T) {
	// Without the transformation, the straight cut chosen at recovery is
	// NOT a recovery line; the recovery layer must detect and report it.
	p := corpus.JacobiFig2(4)
	_, err := Run(Config{
		Program:  p,
		Nproc:    4,
		Failures: []Failure{{Proc: 1, AfterEvents: 40}},
		Timeout:  20 * time.Second,
	})
	if err == nil {
		t.Skip("failure hit before checkpoints diverged; nothing to detect")
	}
	if !errors.Is(err, recovery.ErrInconsistentCut) {
		t.Fatalf("err = %v, want ErrInconsistentCut", err)
	}
}

func TestFailureBeforeAnyCheckpointRestartsFromScratch(t *testing.T) {
	p := corpus.JacobiFig1(3)
	clean := runOK(t, p, 3)
	failed := runOK(t, p, 3, func(c *Config) {
		c.Failures = []Failure{{Proc: 0, AfterEvents: 1}} // before first chkpt
	})
	if failed.Restarts != 1 {
		t.Fatalf("restarts = %d", failed.Restarts)
	}
	if !reflect.DeepEqual(clean.FinalVars, failed.FinalVars) {
		t.Errorf("scratch restart diverged: %v vs %v", clean.FinalVars, failed.FinalVars)
	}
}

// RestartedEvents is the work a rollback throws away: each process's own
// clock ticks past the checkpoint it returns to (all of them on a
// from-scratch restart).
func TestRestartedEventsCountsLostWork(t *testing.T) {
	p := corpus.JacobiFig1(4)
	if got := runOK(t, p, 4).Metrics.RestartedEvents; got != 0 {
		t.Errorf("failure-free run: RestartedEvents = %d, want 0", got)
	}
	failed := runOK(t, p, 4, func(c *Config) {
		c.Failures = []Failure{{Proc: 1, AfterEvents: 8}}
	})
	if failed.Restarts != 1 || failed.Metrics.RestartedEvents <= 0 {
		t.Errorf("one failure: restarts = %d, RestartedEvents = %d, want 1 and > 0",
			failed.Restarts, failed.Metrics.RestartedEvents)
	}
	scratch := runOK(t, p, 4, func(c *Config) {
		c.Failures = []Failure{{Proc: 0, AfterEvents: 1}} // before first chkpt
	})
	if scratch.Metrics.RestartedEvents <= 0 {
		t.Errorf("from-scratch restart: RestartedEvents = %d, want > 0", scratch.Metrics.RestartedEvents)
	}
}

func TestMultipleFailures(t *testing.T) {
	p := corpus.JacobiFig1(5)
	clean := runOK(t, p, 4)
	failed := runOK(t, p, 4, func(c *Config) {
		c.Failures = []Failure{
			{Proc: 0, AfterEvents: 12},
			{Proc: 3, AfterEvents: 6},
			{Proc: 1, AfterEvents: 4},
		}
	})
	if failed.Restarts < 2 {
		t.Fatalf("restarts = %d, want at least 2", failed.Restarts)
	}
	if !reflect.DeepEqual(clean.FinalVars, failed.FinalVars) {
		t.Errorf("multi-failure run diverged: %v vs %v", clean.FinalVars, failed.FinalVars)
	}
}

func TestDeadlockDetected(t *testing.T) {
	p, err := mpl.Parse(`
program dead
var x
proc {
    if rank == 0 {
        recv(1, x)
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{Program: p, Nproc: 2, Timeout: 200 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestEvalErrorSurfaces(t *testing.T) {
	p, err := mpl.Parse(`
program boom
var x
proc {
    x = 1 / (rank - rank)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{Program: p, Nproc: 2, Timeout: 5 * time.Second})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v, want division by zero", err)
	}
}

func TestInputDataFlows(t *testing.T) {
	p, err := mpl.Parse(`
program inputs
var x
proc {
    x = input(rank)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	res := runOK(t, p, 3, func(c *Config) {
		c.Input = func(rank, i int) int { return 100*rank + i }
	})
	for r, vars := range res.FinalVars {
		if want := 100*r + r; vars["x"] != want {
			t.Errorf("proc %d x = %d, want %d", r, vars["x"], want)
		}
	}
}

func TestBcastDeliversRootValue(t *testing.T) {
	res := runOK(t, corpus.MasterWorker(2), 4)
	checkStraightCuts(t, res.Trace, true)
	if err := trace.Validate(res.Trace); err != nil {
		t.Fatal(err)
	}
}

func TestWholeCorpusRunsAndValidates(t *testing.T) {
	for name, p := range corpus.All() {
		if name == "irregular" {
			continue // needs input data; covered below
		}
		t.Run(name, func(t *testing.T) {
			res := runOK(t, p, 4)
			if err := trace.Validate(res.Trace); err != nil {
				t.Fatal(err)
			}
			h, err := trace.NewHB(res.Trace)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.CheckClockConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestIrregularProgramRuns(t *testing.T) {
	// n=2: rank 0 sends to input(0)+1 = 1, rank 1 receives from 0.
	res := runOK(t, corpus.Irregular(), 2, func(c *Config) {
		c.Input = func(rank, i int) int { return 0 }
	})
	// Rank 0 sent to rank 1.
	if res.FinalVars[1]["v"] != res.FinalVars[0]["v"] {
		t.Errorf("irregular send not delivered: %v", res.FinalVars)
	}
}

// TestPropertyTransformedRandomProgramsSafe is the end-to-end property
// test of the paper's contribution: random SPMD programs with arbitrary
// checkpoint placements, once transformed, execute with every straight cut
// being a recovery line — and survive failure injection with unchanged
// results.
func TestPropertyTransformedRandomProgramsSafe(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in -short")
	}
	input := func(rank, i int) int { return rank ^ i }
	for seed := int64(0); seed < 25; seed++ {
		p := corpus.Random(seed)
		rep, err := core.Transform(p, core.DefaultConfig)
		if err != nil {
			t.Fatalf("seed %d: transform: %v", seed, err)
		}
		for _, n := range []int{2, 3, 5} {
			res, err := Run(Config{
				Program: rep.Program, Nproc: n, Input: input,
				Timeout: 20 * time.Second,
			})
			if err != nil {
				t.Fatalf("seed %d n=%d: %v\n%s", seed, n, err, mpl.Format(rep.Program))
			}
			if err := trace.Validate(res.Trace); err != nil {
				t.Fatalf("seed %d n=%d: %v", seed, n, err)
			}
			for _, i := range res.Trace.CheckpointIndexes() {
				cut, err := res.Trace.StraightCut(i)
				if err != nil {
					continue
				}
				if !trace.IsRecoveryLine(cut) {
					a, b, _ := trace.FirstViolation(cut)
					t.Fatalf("seed %d n=%d: R_%d violated (%v -> %v)\n%s",
						seed, n, i, a, b, mpl.Format(rep.Program))
				}
			}
			// Failure injection must reproduce the clean result.
			failed, err := Run(Config{
				Program: rep.Program, Nproc: n, Input: input,
				Failures: []Failure{{Proc: seedProc(seed, n), AfterEvents: 12}},
				Timeout:  20 * time.Second,
			})
			if err != nil {
				t.Fatalf("seed %d n=%d failure run: %v\n%s",
					seed, n, err, mpl.Format(rep.Program))
			}
			if !reflect.DeepEqual(res.FinalVars, failed.FinalVars) {
				t.Fatalf("seed %d n=%d: failure run diverged", seed, n)
			}
		}
	}
}

func seedProc(seed int64, n int) int { return int(seed) % n }

func BenchmarkRunJacobiFig1(b *testing.B) {
	p := corpus.JacobiFig1(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Program: p, Nproc: 4, DisableTrace: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunWithFailure(b *testing.B) {
	p := corpus.JacobiFig1(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := Run(Config{
			Program: p, Nproc: 4, DisableTrace: true,
			Failures: []Failure{{Proc: 1, AfterEvents: 20}},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
