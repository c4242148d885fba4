package dataflow

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/mpl"
)

func mustParse(t *testing.T, src string) *mpl.Program {
	t.Helper()
	p, err := mpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// firstStmt returns the first statement of type T found pre-order.
func findStmts[T mpl.Stmt](p *mpl.Program) []T {
	var out []T
	mpl.Walk(p.Body, func(s mpl.Stmt) bool {
		if t, ok := s.(T); ok {
			out = append(out, t)
		}
		return true
	})
	return out
}

func TestDirectRankParams(t *testing.T) {
	p := mustParse(t, `
program direct
var x
proc {
    send(rank + 1, x)
    recv(rank - 1, x)
}
`)
	r := Analyze(p)
	sends := findStmts[*mpl.Send](p)
	recvs := findStmts[*mpl.Recv](p)
	if got := r.Params[sends[0].ID()]; got.Wildcard || mpl.ExprString(got.Expr) != "rank + 1" {
		t.Errorf("send param = %v", got)
	}
	if got := r.Params[recvs[0].ID()]; got.Wildcard || mpl.ExprString(got.Expr) != "rank - 1" {
		t.Errorf("recv param = %v", got)
	}
}

func TestVariablePropagation(t *testing.T) {
	p := mustParse(t, `
program prop
const OFF = 2
var right, x
proc {
    right = rank + OFF
    send(right, x)
}
`)
	r := Analyze(p)
	s := findStmts[*mpl.Send](p)[0]
	got := r.Params[s.ID()]
	if got.Wildcard {
		t.Fatal("propagated param widened to wildcard")
	}
	if mpl.ExprString(got.Expr) != "rank + 2" {
		t.Errorf("resolved = %q, want \"rank + 2\"", mpl.ExprString(got.Expr))
	}
}

func TestInputIsIrregular(t *testing.T) {
	p := corpus.Irregular()
	r := Analyze(p)
	sends := findStmts[*mpl.Send](p)
	if got := r.Params[sends[0].ID()]; !got.Wildcard {
		t.Errorf("input-derived destination should be wildcard, got %v", got)
	}
	// The receive's source (literal 0) stays precise.
	recvs := findStmts[*mpl.Recv](p)
	if got := r.Params[recvs[0].ID()]; got.Wildcard || mpl.ExprString(got.Expr) != "0" {
		t.Errorf("recv param = %v", got)
	}
}

func TestReceivedValueIsUnknown(t *testing.T) {
	p := mustParse(t, `
program taint
var peer, x
proc {
    recv(0, peer)
    send(peer, x)
}
`)
	r := Analyze(p)
	s := findStmts[*mpl.Send](p)[0]
	if got := r.Params[s.ID()]; !got.Wildcard {
		t.Errorf("destination from received value should be wildcard, got %v", got)
	}
}

func TestIDDependentBranches(t *testing.T) {
	p := corpus.JacobiFig2(3)
	r := Analyze(p)
	whiles := findStmts[*mpl.While](p)
	ifs := findStmts[*mpl.If](p)
	if len(whiles) != 1 || len(ifs) != 1 {
		t.Fatalf("whiles=%d ifs=%d", len(whiles), len(ifs))
	}
	if bi := r.Branches[whiles[0].ID()]; bi.IDDependent {
		t.Error("loop counter condition must not be ID-dependent")
	}
	bi := r.Branches[ifs[0].ID()]
	if !bi.IDDependent {
		t.Fatal("rank parity condition must be ID-dependent")
	}
	if mpl.ExprString(bi.Resolved) != "rank % 2 == 0" {
		t.Errorf("resolved cond = %q", mpl.ExprString(bi.Resolved))
	}
}

func TestIDDependenceThroughVariable(t *testing.T) {
	p := mustParse(t, `
program indirect
var parity, x
proc {
    parity = rank % 2
    if parity == 0 {
        send(rank + 1, x)
    } else {
        recv(rank - 1, x)
    }
}
`)
	r := Analyze(p)
	ifs := findStmts[*mpl.If](p)[0]
	bi := r.Branches[ifs.ID()]
	if !bi.IDDependent {
		t.Fatal("condition via rank-derived variable must be ID-dependent")
	}
	if mpl.ExprString(bi.Resolved) != "rank % 2 == 0" {
		t.Errorf("resolved = %q", mpl.ExprString(bi.Resolved))
	}
}

func TestLoopWidensModifiedVars(t *testing.T) {
	p := mustParse(t, `
program widen
var i, x
proc {
    i = rank
    while i < 10 {
        send(i, x)
        i = i + 1
    }
}
`)
	r := Analyze(p)
	s := findStmts[*mpl.Send](p)[0]
	// i changes across iterations: the destination must widen to wildcard.
	if got := r.Params[s.ID()]; !got.Wildcard {
		t.Errorf("loop-varying destination should be wildcard, got %v", got)
	}
	w := findStmts[*mpl.While](p)[0]
	if bi := r.Branches[w.ID()]; bi.IDDependent {
		t.Error("widened loop condition must not be ID-dependent")
	}
}

// A loop is uniform when its condition has one value on every process:
// a counter from constants is, while one seeded from rank (widened to ⊤,
// so not ID-dependent either), a received bound, and a variable assigned
// under a rank guard are not.
func TestUniformBranches(t *testing.T) {
	p := mustParse(t, `
program uniform
const N = 3
var i, j, k, m, y
proc {
    i = 0
    while i < N { i = i + 1 }
    j = rank
    while j < 10 { j = j + 1 }
    recv(0, y)
    while k < y { k = k + 1 }
    if rank == 0 { m = 1 }
    while m < 2 { m = m + 1 }
}
`)
	r := Analyze(p)
	for i, w := range findStmts[*mpl.While](p) {
		if got := r.Branches[w.ID()].Uniform; got != (i == 0) {
			t.Errorf("while #%d (%s): Uniform = %v, want %v", i, mpl.ExprString(w.Cond), got, i == 0)
		}
	}
}

func TestLoopInvariantStaysPrecise(t *testing.T) {
	p := mustParse(t, `
program inv
var right, i, x
proc {
    right = rank + 1
    i = 0
    while i < 10 {
        send(right, x)
        i = i + 1
    }
}
`)
	r := Analyze(p)
	s := findStmts[*mpl.Send](p)[0]
	got := r.Params[s.ID()]
	if got.Wildcard || mpl.ExprString(got.Expr) != "rank + 1" {
		t.Errorf("loop-invariant destination = %v, want rank + 1", got)
	}
}

func TestJoinConflictingAssignsWidens(t *testing.T) {
	p := mustParse(t, `
program conflict
var d, x
proc {
    if rank == 0 {
        d = 1
    } else {
        d = 2
    }
    send(d, x)
}
`)
	r := Analyze(p)
	s := findStmts[*mpl.Send](p)[0]
	if got := r.Params[s.ID()]; !got.Wildcard {
		t.Errorf("join-conflicting destination should be wildcard, got %v", got)
	}
}

func TestJoinAgreeingAssignsStaysPrecise(t *testing.T) {
	p := mustParse(t, `
program agree
var d, x
proc {
    if rank == 0 {
        d = rank + 1
    } else {
        d = rank + 1
    }
    send(d, x)
}
`)
	r := Analyze(p)
	s := findStmts[*mpl.Send](p)[0]
	got := r.Params[s.ID()]
	if got.Wildcard || mpl.ExprString(got.Expr) != "rank + 1" {
		t.Errorf("agreeing join = %v, want rank + 1", got)
	}
}

func TestBcastRootResolved(t *testing.T) {
	p := corpus.MasterWorker(2)
	r := Analyze(p)
	bcasts := findStmts[*mpl.Bcast](p)
	if len(bcasts) != 1 {
		t.Fatalf("bcasts = %d", len(bcasts))
	}
	got := r.Params[bcasts[0].ID()]
	if got.Wildcard || mpl.ExprString(got.Expr) != "0" {
		t.Errorf("bcast root = %v, want 0", got)
	}
}

func TestAllCorpusAnalyzes(t *testing.T) {
	for name, p := range corpus.All() {
		t.Run(name, func(t *testing.T) {
			r := Analyze(p)
			// Every send/recv/bcast must have a recorded param.
			mpl.Walk(p.Body, func(s mpl.Stmt) bool {
				switch s.(type) {
				case *mpl.Send, *mpl.Recv, *mpl.Bcast:
					if _, ok := r.Params[s.ID()]; !ok {
						t.Errorf("no param recorded for %s", mpl.DescribeStmt(s))
					}
				case *mpl.If, *mpl.While:
					if _, ok := r.Branches[s.ID()]; !ok {
						t.Errorf("no branch info for %s", mpl.DescribeStmt(s))
					}
				}
				return true
			})
		})
	}
}

func BenchmarkAnalyzeJacobi(b *testing.B) {
	p := corpus.JacobiFig2(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Analyze(p)
	}
}
