package sim

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/mpl"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

func TestVTimeStraightLine(t *testing.T) {
	src := `
program vt
var x
proc {
    x = 1
    work(5)
    chkpt
}
`
	p := mustParseProg(t, src)
	tm := &TimeModel{Compute: 2, Setup: 1, CheckpointOverhead: 10}
	res, err := Run(Config{Program: p, Nproc: 1, Time: tm, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// assign (2) + work 5 units (10) + chkpt (10) = 22.
	if !almostEqual(res.VTime, 22) {
		t.Fatalf("VTime = %v, want 22", res.VTime)
	}
	if len(res.VTimes) != 1 || !almostEqual(res.VTimes[0], 22) {
		t.Fatalf("VTimes = %v", res.VTimes)
	}
}

func TestVTimeMessageSynchronizes(t *testing.T) {
	src := `
program sync
var x
proc {
    if rank == 0 {
        work(100)
        x = 7
        send(1, x)
    } else {
        recv(0, x)
    }
}
`
	p := mustParseProg(t, src)
	tm := &TimeModel{Compute: 1, Setup: 2, Delay: 3}
	res, err := Run(Config{Program: p, Nproc: 2, Time: tm, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// P0: work 100 + assign 1 + setup 2 = 103; arrival = 103 + 3 = 106.
	if !almostEqual(res.VTimes[0], 103) {
		t.Errorf("sender vtime = %v, want 103", res.VTimes[0])
	}
	if !almostEqual(res.VTimes[1], 106) {
		t.Errorf("receiver vtime = %v, want 106 (arrival)", res.VTimes[1])
	}
}

func TestVTimeZeroWithoutModel(t *testing.T) {
	res := runOK(t, corpus.JacobiFig1(2), 2)
	if res.VTime != 0 {
		t.Fatalf("VTime = %v without a time model", res.VTime)
	}
}

func TestVTimeDeterministic(t *testing.T) {
	p := corpus.JacobiFig1(3)
	tm := &TimeModel{Compute: 1, Setup: 0.5, Delay: 0.25, CheckpointOverhead: 5}
	a, err := Run(Config{Program: p, Nproc: 4, Time: tm, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Program: p, Nproc: 4, Time: tm, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.VTimes, b.VTimes) {
		t.Errorf("vtimes differ across runs: %v vs %v", a.VTimes, b.VTimes)
	}
}

func TestVTimeCheckpointOverheadMeasurable(t *testing.T) {
	// The same workload with and without checkpoint statements: the
	// virtual-time difference is exactly iterations × o per process chain.
	withCk := corpus.JacobiFig1(4)
	without := mpl.Clone(withCk)
	stripCheckpoints(without)

	tm := &TimeModel{Compute: 1, Setup: 0.1, Delay: 0.1, CheckpointOverhead: 7}
	a, err := Run(Config{Program: withCk, Nproc: 3, Time: tm, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Program: without, Nproc: 3, Time: tm, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	diff := a.VTime - b.VTime
	// Each of the 4 iterations pays o=7 on the critical path.
	if !almostEqual(diff, 4*7) {
		t.Errorf("checkpoint overhead on makespan = %v, want 28", diff)
	}
}

// stripCheckpoints removes all chkpt statements, through an edit of p.
func stripCheckpoints(p *mpl.Program) {
	var ids []int
	mpl.Walk(p.Body, func(s mpl.Stmt) bool {
		if _, ok := s.(*mpl.Chkpt); ok {
			ids = append(ids, s.ID())
		}
		return true
	})
	e := p.Edit()
	for _, id := range ids {
		e.Remove(id)
	}
	e.Close()
}

// TestFailureUnderTimePaysForRecovery: a crash halfway through a priced run
// is recovered from, leaves the answer unchanged, and costs the makespan at
// least the recovery overhead R on top of the clean run.
func TestFailureUnderTimePaysForRecovery(t *testing.T) {
	p := corpus.JacobiFig1(4)
	tm := &TimeModel{Compute: 1, Setup: 0.1, Delay: 0.1, CheckpointOverhead: 2, Recovery: 9}
	clean, err := Run(Config{Program: p, Nproc: 3, Time: tm, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	failed, err := Run(Config{
		Program:  p,
		Nproc:    3,
		Time:     tm,
		Failures: []Failure{{Proc: 1, AfterEvents: len(clean.Trace.Events()[1]) / 2}},
		Timeout:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if failed.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", failed.Restarts)
	}
	if !reflect.DeepEqual(clean.FinalVars, failed.FinalVars) {
		t.Error("failed run diverged")
	}
	// The failed run must cost at least the clean time plus R (lost work
	// and recovery are re-paid).
	if failed.VTime < clean.VTime+tm.Recovery {
		t.Errorf("failed VTime = %v, want >= clean %v + R %v",
			failed.VTime, clean.VTime, tm.Recovery)
	}
}

func BenchmarkVTimeRun(b *testing.B) {
	p := corpus.JacobiFig1(4)
	tm := &TimeModel{Compute: 1, Setup: 0.1, Delay: 0.1, CheckpointOverhead: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Program: p, Nproc: 4, Time: tm, DisableTrace: true}); err != nil {
			b.Fatal(err)
		}
	}
}
