package mpmd

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpl"
	"repro/internal/sim"
	"repro/internal/trace"
)

// masterRole and workerRole form a producer/consumer MPMD pair: rank 0
// hands a task to each worker and collects results; the checkpoint
// placements are deliberately skewed (master before sending, workers after
// replying) so the merged program needs Phase III.
func masterRole(t *testing.T) Role {
	t.Helper()
	p, err := mpl.Parse(`
program master
var task, result, acc, w
proc {
    task = 7
    chkpt
    w = 1
    while w < nproc {
        send(w, task)
        w = w + 1
    }
    w = 1
    while w < nproc {
        recv(w, result)
        acc = acc + result
        w = w + 1
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	return Role{Name: "master", Guard: mpl.Eq(mpl.Rank(), mpl.Int(0)), Program: p}
}

func workerRole(t *testing.T) Role {
	t.Helper()
	p, err := mpl.Parse(`
program worker
var task, result
proc {
    recv(0, task)
    result = task * rank
    send(0, result)
    chkpt
}
`)
	if err != nil {
		t.Fatal(err)
	}
	return Role{Name: "worker", Guard: mpl.Neq(mpl.Rank(), mpl.Int(0)), Program: p}
}

func TestMergeProducesValidSPMD(t *testing.T) {
	merged, err := Merge("mw", []Role{masterRole(t), workerRole(t)})
	if err != nil {
		t.Fatal(err)
	}
	// Top level is a guard chain.
	if len(merged.Body) != 1 {
		t.Fatalf("top level = %d statements, want 1 if-chain", len(merged.Body))
	}
	outer, ok := merged.Body[0].(*mpl.If)
	if !ok {
		t.Fatalf("top = %T", merged.Body[0])
	}
	if mpl.ExprString(outer.Cond) != "rank == 0" {
		t.Errorf("outer guard = %q", mpl.ExprString(outer.Cond))
	}
	// Shared variables merged once.
	count := 0
	for _, v := range merged.Vars {
		if v == "task" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("task declared %d times", count)
	}
	// Unique statement ids.
	seen := map[int]bool{}
	mpl.Walk(merged.Body, func(s mpl.Stmt) bool {
		if seen[s.ID()] {
			t.Errorf("duplicate id %d", s.ID())
		}
		seen[s.ID()] = true
		return true
	})
	// Reparses after formatting.
	if _, err := mpl.Parse(mpl.Format(merged)); err != nil {
		t.Fatalf("merged program does not reparse: %v\n%s", err, mpl.Format(merged))
	}
}

func TestMergedProgramTransformsAndRuns(t *testing.T) {
	merged, err := Merge("mw", []Role{masterRole(t), workerRole(t)})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Transform(merged, core.DefaultConfig)
	if err != nil {
		t.Fatalf("transform: %v\n%s", err, mpl.Format(merged))
	}
	res, err := sim.Run(sim.Config{Program: rep.Program, Nproc: 4, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, mpl.Format(rep.Program))
	}
	// acc on the master = 7*(1+2+3) = 42.
	if got := res.FinalVars[0]["acc"]; got != 42 {
		t.Errorf("master acc = %d, want 42", got)
	}
	// Every straight cut is a recovery line.
	for _, idx := range res.Trace.CheckpointIndexes() {
		cut, err := res.Trace.StraightCut(idx)
		if err != nil {
			continue
		}
		if !trace.IsRecoveryLine(cut) {
			t.Errorf("R_%d inconsistent", idx)
		}
	}
	// And it survives a worker crash.
	clean := res.FinalVars
	crashed, err := sim.Run(sim.Config{
		Program:  rep.Program,
		Nproc:    4,
		Failures: []sim.Failure{{Proc: 2, AfterEvents: 3}},
		Timeout:  20 * time.Second,
	})
	if err != nil {
		t.Fatalf("crash run: %v", err)
	}
	if !reflect.DeepEqual(clean, crashed.FinalVars) {
		t.Error("crash run diverged")
	}
}

func TestMergeRejectsOverlap(t *testing.T) {
	a, b := masterRole(t), workerRole(t)
	b.Guard = mpl.Lt(mpl.Rank(), mpl.Int(2)) // overlaps rank 0
	_, err := Merge("bad", []Role{a, b})
	if !errors.Is(err, ErrOverlap) {
		t.Fatalf("err = %v, want ErrOverlap", err)
	}
}

func TestMergeRejectsUncovered(t *testing.T) {
	a := masterRole(t)
	b := workerRole(t)
	b.Guard = mpl.Eq(mpl.Rank(), mpl.Int(1)) // ranks >= 2 uncovered
	_, err := Merge("bad", []Role{a, b})
	if !errors.Is(err, ErrUncovered) {
		t.Fatalf("err = %v, want ErrUncovered", err)
	}
}

func TestMergeRejectsConflictingConsts(t *testing.T) {
	a, b := masterRole(t), workerRole(t)
	a.Program.Consts = append(a.Program.Consts, mpl.Const{Name: "K", Value: 1})
	b.Program.Consts = append(b.Program.Consts, mpl.Const{Name: "K", Value: 2})
	_, err := Merge("bad", []Role{a, b})
	if err == nil || !strings.Contains(err.Error(), "conflicting values") {
		t.Fatalf("err = %v", err)
	}
}

func TestMergeRejectsUnclosedGuard(t *testing.T) {
	a := masterRole(t)
	a.Guard = mpl.Eq(mpl.V("task"), mpl.Int(0)) // not closed over rank/nproc
	_, err := Merge("bad", []Role{a, workerRole(t)})
	if err == nil {
		t.Fatal("unclosed guard accepted")
	}
}

func TestMergeRejectsEmpty(t *testing.T) {
	if _, err := Merge("empty", nil); err == nil {
		t.Fatal("empty role set accepted")
	}
}

func TestMergeThreeRoles(t *testing.T) {
	mk := func(t *testing.T, src string) *mpl.Program {
		t.Helper()
		p, err := mpl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	head := Role{
		Name:  "head",
		Guard: mpl.Eq(mpl.Rank(), mpl.Int(0)),
		Program: mk(t, `
program head
var v
proc {
    chkpt
    v = 100
    send(1, v)
}`),
	}
	middle := Role{
		Name:  "middle",
		Guard: &mpl.Binary{Op: mpl.OpAnd, L: mpl.Lt(mpl.Int(0), mpl.Rank()), R: mpl.Lt(mpl.Rank(), mpl.Sub(mpl.Nproc(), mpl.Int(1)))},
		Program: mk(t, `
program middle
var v
proc {
    recv(rank - 1, v)
    chkpt
    v = v + rank
    send(rank + 1, v)
}`),
	}
	tailR := Role{
		Name:  "tail",
		Guard: mpl.Eq(mpl.Rank(), mpl.Sub(mpl.Nproc(), mpl.Int(1))),
		Program: mk(t, `
program tail
var v
proc {
    recv(rank - 1, v)
    chkpt
}`),
	}
	merged, err := Merge("pipeline3", []Role{head, middle, tailR})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Transform(merged, core.DefaultConfig)
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	res, err := sim.Run(sim.Config{Program: rep.Program, Nproc: 4, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// v at the tail = 100 + 1 + 2 = 103.
	if got := res.FinalVars[3]["v"]; got != 103 {
		t.Errorf("tail v = %d, want 103", got)
	}
	for _, idx := range res.Trace.CheckpointIndexes() {
		cut, err := res.Trace.StraightCut(idx)
		if err != nil {
			continue
		}
		if !trace.IsRecoveryLine(cut) {
			t.Errorf("R_%d inconsistent", idx)
		}
	}
}
