package insert

import (
	"math"
	"testing"

	"repro/internal/cfg"
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

func countChkptStmts(p *mpl.Program) int {
	n := 0
	mpl.Walk(p.Body, func(s mpl.Stmt) bool {
		if _, ok := s.(*mpl.Chkpt); ok {
			n++
		}
		return true
	})
	return n
}

func TestYoungInterval(t *testing.T) {
	got, err := YoungInterval(1.78, 1.23e-6)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(2 * 1.78 / 1.23e-6)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("interval = %v, want %v", got, want)
	}
	if _, err := YoungInterval(0, 1); err == nil {
		t.Error("o=0 accepted")
	}
	if _, err := YoungInterval(1, -1); err == nil {
		t.Error("negative lambda accepted")
	}
}

func TestEstimateBodyCost(t *testing.T) {
	p := mustParse(t, `
program cost
var x
proc {
    x = 1
    work(10)
    send(rank + 1, x)
    recv(rank - 1, x)
    if rank == 0 {
        work(100)
    } else {
        work(10)
    }
}
`)
	cm := CostModel{Compute: 1, MessageDelay: 5}
	got := EstimateBodyCost(p.Body, cm)
	// assign(1) + work(10) + send(5) + recv(5) + if(1 + max(100,10))
	want := 1.0 + 10 + 5 + 5 + 1 + 100
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("cost = %v, want %v", got, want)
	}
}

func TestInsertIntoLoop(t *testing.T) {
	p := mustParse(t, `
program bare
var x, i
proc {
    i = 0
    while i < 10 {
        x = x + 1
        i = i + 1
    }
}
`)
	plan, err := InsertCheckpoints(p, DefaultCostModel)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Inserted) != 1 {
		t.Fatalf("inserted = %v", plan.Inserted)
	}
	w := p.Body[1].(*mpl.While)
	if _, ok := w.Body[0].(*mpl.Chkpt); !ok {
		t.Fatalf("checkpoint not at loop top: %T", w.Body[0])
	}
	if plan.IterationCost <= 0 {
		t.Error("iteration cost not estimated")
	}
	if plan.IterationsPerCheckpoint < 1 {
		t.Errorf("k = %d", plan.IterationsPerCheckpoint)
	}
	if plan.OptimalInterval <= 0 {
		t.Error("optimal interval missing")
	}
	// The result must enumerate cleanly.
	if err := cfg.EnumerateInto(p, new(cfg.Enumeration)); err != nil {
		t.Errorf("inserted program does not enumerate: %v", err)
	}
}

func TestInsertLoopFree(t *testing.T) {
	p := mustParse(t, `
program flat
var x
proc {
    x = 1
    x = x * 2
}
`)
	plan, err := InsertCheckpoints(p, DefaultCostModel)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Inserted) != 1 {
		t.Fatalf("inserted = %v", plan.Inserted)
	}
	if _, ok := p.Body[0].(*mpl.Chkpt); !ok {
		t.Fatalf("checkpoint not at program start: %T", p.Body[0])
	}
}

func TestInsertSkipsProgramsWithCheckpoints(t *testing.T) {
	p := corpus.JacobiFig1(3)
	before := countChkptStmts(p)
	plan, err := InsertCheckpoints(p, DefaultCostModel)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Inserted) != 0 {
		t.Errorf("inserted %v into a program that has checkpoints", plan.Inserted)
	}
	if countChkptStmts(p) != before {
		t.Error("checkpoint count changed")
	}
}

func TestInsertMultipleOutermostLoops(t *testing.T) {
	p := mustParse(t, `
program twoloop
var i, j
proc {
    i = 0
    while i < 5 {
        i = i + 1
    }
    j = 0
    while j < 5 {
        j = j + 1
    }
}
`)
	plan, err := InsertCheckpoints(p, DefaultCostModel)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Inserted) != 2 {
		t.Fatalf("inserted = %v, want one per loop", plan.Inserted)
	}
	if err := cfg.EnumerateInto(p, new(cfg.Enumeration)); err != nil {
		t.Errorf("enumeration failed: %v", err)
	}
}

func TestEqualizeSimpleImbalance(t *testing.T) {
	p := mustParse(t, `
program amb
var x
proc {
    if rank == 0 {
        chkpt
    }
    x = 1
}
`)
	added, err := Equalize(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 1 {
		t.Fatalf("added = %v, want 1", added)
	}
	enum := new(cfg.Enumeration)
	if err := cfg.EnumerateInto(p, enum); err != nil {
		t.Fatalf("still ambiguous: %v", err)
	}
	if enum.Count != 1 {
		t.Errorf("Count = %d", enum.Count)
	}
	ifStmt := p.Body[0].(*mpl.If)
	if len(ifStmt.Else) != 1 {
		t.Fatalf("else branch = %v", ifStmt.Else)
	}
	if _, ok := ifStmt.Else[0].(*mpl.Chkpt); !ok {
		t.Error("equalization did not add a checkpoint to else")
	}
}

func TestEqualizeNested(t *testing.T) {
	p := mustParse(t, `
program nested
var x
proc {
    if rank < 4 {
        if rank < 2 {
            chkpt
            chkpt
        } else {
            chkpt
        }
    } else {
        x = 1
    }
}
`)
	added, err := Equalize(p)
	if err != nil {
		t.Fatal(err)
	}
	// Inner else needs 1, outer else needs 2.
	if len(added) != 3 {
		t.Errorf("added = %d checkpoints, want 3", len(added))
	}
	if err := cfg.EnumerateInto(p, new(cfg.Enumeration)); err != nil {
		t.Errorf("still ambiguous: %v", err)
	}
}

func TestEqualizeNoOpOnBalanced(t *testing.T) {
	p := corpus.JacobiFig2(2)
	added, err := Equalize(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 0 {
		t.Errorf("added %v to a balanced program", added)
	}
}

func TestEqualizeFreshIDsUnique(t *testing.T) {
	p := mustParse(t, `
program amb2
var x
proc {
    if rank == 0 {
        chkpt
        chkpt
    }
    x = 1
}
`)
	if _, err := Equalize(p); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	mpl.Walk(p.Body, func(s mpl.Stmt) bool {
		if seen[s.ID()] {
			t.Errorf("duplicate statement id %d after equalize", s.ID())
		}
		seen[s.ID()] = true
		return true
	})
}

func TestCoalesce(t *testing.T) {
	p := mustParse(t, `
program dup
var x
proc {
    chkpt
    chkpt
    x = 1
    chkpt
    while x < 3 {
        chkpt
        chkpt
        x = x + 1
    }
}
`)
	removed := Coalesce(p)
	if removed != 2 {
		t.Fatalf("removed = %d, want 2", removed)
	}
	if got := countChkptStmts(p); got != 3 {
		t.Errorf("remaining checkpoints = %d, want 3", got)
	}
	// Idempotent.
	if again := Coalesce(p); again != 0 {
		t.Errorf("second coalesce removed %d", again)
	}
}

// TestCoalesceUndoable: undo puts back exactly the statements Coalesce
// dropped, where they were — three in a row, at a list's end, in nested
// lists — and the same statement values, not copies. The while and if
// above a shortened list are the edit's copies, with the same ids.
func TestCoalesceUndoable(t *testing.T) {
	p := mustParse(t, `
program dup
var x
proc {
    chkpt
    chkpt
    chkpt
    x = 1
    while x < 3 {
        if x == 1 {
            x = x + 1
            chkpt
            chkpt
        } else {
            chkpt
        }
        chkpt
        chkpt
    }
    chkpt
}
`)
	before := mpl.Format(p)
	var stmts []mpl.Stmt
	mpl.Walk(p.Body, func(s mpl.Stmt) bool { stmts = append(stmts, s); return true })

	removed, undo := CoalesceUndoable(p)
	if removed != 4 || countChkptStmts(p) != 5 {
		t.Fatalf("removed %d, %d checkpoints left; want 4 and 5", removed, countChkptStmts(p))
	}
	undo()
	if got := mpl.Format(p); got != before {
		t.Fatalf("undo did not restore the program\ngot:\n%s\nwant:\n%s", got, before)
	}
	i := 0
	mpl.Walk(p.Body, func(s mpl.Stmt) bool {
		switch s.(type) {
		case *mpl.While, *mpl.If:
			if s.ID() != stmts[i].ID() {
				t.Errorf("statement %d is %s, was %s", i, mpl.DescribeStmt(s), mpl.DescribeStmt(stmts[i]))
			}
		default:
			if s != stmts[i] {
				t.Errorf("statement %d is %s, was %s", i, mpl.DescribeStmt(s), mpl.DescribeStmt(stmts[i]))
			}
		}
		i++
		return true
	})

	// With nothing to coalesce there is nothing to take back, and no
	// allocation.
	clean := corpus.JacobiFig1(2)
	if n := testing.AllocsPerRun(10, func() {
		if removed, undo := CoalesceUndoable(clean); removed != 0 || undo != nil {
			t.Fatalf("a clean program: removed %d, undo %v; want 0 and nil", removed, undo != nil)
		}
	}); n != 0 {
		t.Errorf("CoalesceUndoable of a clean program allocates %v times, want 0", n)
	}
}

func TestCoalesceKeepsSeparatedCheckpoints(t *testing.T) {
	p := corpus.JacobiFig1(2)
	if removed := Coalesce(p); removed != 0 {
		t.Errorf("coalesce removed %d from a clean program", removed)
	}
}

func BenchmarkInsertCheckpoints(b *testing.B) {
	src := `
program bench
var x, i
proc {
    i = 0
    while i < 10 {
        x = x + 1
        i = i + 1
    }
}
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := mpl.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := InsertCheckpoints(p, DefaultCostModel); err != nil {
			b.Fatal(err)
		}
	}
}
