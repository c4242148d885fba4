package mpl_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/insert"
	"repro/internal/mpl"
)

// Slab safety. A parsed program's nodes are cut from shared chunks and its
// block bodies from one shared []Stmt (DESIGN decision 26), so the hazards
// are the ones sharing always has: a body whose spare capacity is a
// sibling's storage, and a chunk that is reused while nodes in it are live.
// This test appends to a parsed body and rewrites a parsed node, then
// clones the program and edits the clone as the transforms do — an Edit,
// Phase I — and requires that nothing else moves.

// stmtsPerGroup is the number of top-level statements slabSource emits per
// group; the offsets name them.
const (
	stmtsPerGroup = 9
	offAssign     = 0
	offWhile      = 7
	offIf         = 8
)

// slabSource returns a program of the given number of groups, each holding
// every statement and expression node type at least once, a while body, and
// an if whose arms carry different checkpoint counts (so Phase I's
// equalization has work to do in every group).
func slabSource(groups int) string {
	var sb strings.Builder
	sb.WriteString("program slabs\nvar x, y\nproc {\n")
	for g := 0; g < groups; g++ {
		fmt.Fprintf(&sb, "x = -input(%d) + !y\n", g)
		sb.WriteString("work(x)\nsend(rank + 1, x)\nrecv(rank - 1, y)\nbcast(0, x)\nreduce(0, y)\nchkpt\n")
		fmt.Fprintf(&sb, "while x < %d { x = x + 1 }\n", g)
		fmt.Fprintf(&sb, "if x == %d { chkpt\n y = 1 } else { y = 2 }\n", g)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// describe renders one top-level statement with everything the AST holds
// about it: ids and positions of it and its nested statements, and its
// text.
func describe(s mpl.Stmt) string {
	var sb strings.Builder
	mpl.Walk([]mpl.Stmt{s}, func(s mpl.Stmt) bool {
		fmt.Fprintf(&sb, "#%d@%v ", s.ID(), s.Pos())
		return true
	})
	sb.WriteString(mpl.Format(&mpl.Program{Name: "s", Body: []mpl.Stmt{s}}))
	return sb.String()
}

func describeAll(p *mpl.Program) []string {
	out := make([]string, len(p.Body))
	for i, s := range p.Body {
		out[i] = describe(s)
	}
	return out
}

// requireSame fails unless got equals want everywhere but at the indices
// in changed, where it must differ.
func requireSame(t *testing.T, what string, got, want []string, changed ...int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d top-level statements, want %d", what, len(got), len(want))
	}
	isChanged := make(map[int]bool)
	for _, i := range changed {
		isChanged[i] = true
	}
	for i := range want {
		if isChanged[i] && got[i] == want[i] {
			t.Errorf("%s: statement %d did not change:\n%s", what, i, got[i])
		}
		if !isChanged[i] && got[i] != want[i] {
			t.Errorf("%s: statement %d changed\n got: %s\nwant: %s", what, i, got[i], want[i])
		}
	}
}

// TestCloneSharesExpressions pins what Clone copies: the header. The
// clone's Consts, Vars and Quiet are its own; its Body is the original's,
// and so is every block, statement and expression under it — statements
// and blocks are immutable once built, as expressions are, so nothing is
// gained by copying them.
func TestCloneSharesExpressions(t *testing.T) {
	p, err := mpl.Parse(slabSource(5))
	if err != nil {
		t.Fatal(err)
	}
	p.Quiet.Add(2, 0, 1)
	c := mpl.Clone(p)
	if fmt.Sprint(c.Name, c.Consts, c.Vars, c.Quiet) != fmt.Sprint(p.Name, p.Consts, p.Vars, p.Quiet) {
		t.Fatalf("clone's header %q %v %v %v, original's %q %v %v %v", c.Name, c.Consts, c.Vars, c.Quiet, p.Name, p.Consts, p.Vars, p.Quiet)
	}
	if &c.Vars[0] == &p.Vars[0] || &c.Quiet[0] == &p.Quiet[0] {
		t.Error("the clone's Vars or Quiet is the original's")
	}
	c.Vars[0] = "z"
	c.Quiet.Add(2, 1, 0)
	if p.Vars[0] != "x" || p.Quiet.Has(2, 1, 0) {
		t.Error("a write to the clone's Vars or Quiet reached the original")
	}
	if len(c.Body) != len(p.Body) || &c.Body[0] != &p.Body[0] {
		t.Error("the clone's Body is a copy")
	}
}

func TestSlabSafety(t *testing.T) {
	// 40 groups put at least 40 nodes of every type in the program: with
	// chunks of 4, 8, 16, 32 … every type crosses at least three chunk
	// boundaries, bodies and call arguments included.
	const groups = 40
	src := slabSource(groups)
	p, err := mpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// A second parse of the same text shares no memory with the first and
	// is never touched: what every untouched statement must keep reading.
	pristine, err := mpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want := describeAll(pristine)
	if len(want) != groups*stmtsPerGroup {
		t.Fatalf("%d top-level statements, want %d", len(want), groups*stmtsPerGroup)
	}
	requireSame(t, "fresh parse", describeAll(p), want)

	// Append to one parsed body. Its sibling blocks (this group's if arms)
	// were cut right behind it from the same chunk.
	const g1, g2 = 0, 17
	w := p.Body[g1*stmtsPerGroup+offWhile].(*mpl.While)
	w.Body = append(w.Body, &mpl.Chkpt{StmtBase: mpl.StmtBase{StmtID: 100000}})
	requireSame(t, "append to a parsed body", describeAll(p), want, g1*stmtsPerGroup+offWhile)

	// Rewrite one statement node and one expression node.
	a := p.Body[g2*stmtsPerGroup+offAssign].(*mpl.Assign)
	a.Name = "y"
	a.X.(*mpl.Binary).L.(*mpl.Unary).Op = mpl.OpNot
	requireSame(t, "rewrite a parsed node", describeAll(p), want, g1*stmtsPerGroup+offWhile, g2*stmtsPerGroup+offAssign)
	if got := describe(a); !strings.Contains(got, "y = !input(17) + !y") {
		t.Errorf("rewritten assignment reads %q", got)
	}

	// Clone, then do to the clone what the pipeline does: an insert
	// through an Edit and Phase I (which equalizes every group's if). The
	// parsed program must not notice, and in the clone only the statements
	// edited may differ.
	mutated := describeAll(p)
	c := mpl.Clone(p)
	requireSame(t, "clone", describeAll(c), mutated)
	cw := c.Body[g2*stmtsPerGroup+offWhile].(*mpl.While)
	e := c.Edit()
	e.Insert(mpl.Block{Owner: cw.ID()}, len(cw.Body), e.Chkpt(100001))
	e.Close()
	plan, err := insert.InsertCheckpoints(c, insert.DefaultCostModel)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Equalized) != groups {
		t.Fatalf("Phase I equalized %d ifs, want %d", len(plan.Equalized), groups)
	}
	changed := []int{g2*stmtsPerGroup + offWhile}
	for g := 0; g < groups; g++ {
		changed = append(changed, g*stmtsPerGroup+offIf)
	}
	requireSame(t, "clone after append and Phase I", describeAll(c), mutated, changed...)
	requireSame(t, "parsed program after its clone was rewritten", describeAll(p), mutated)
}

// TestCloneEditsConcurrent: eight goroutines clone one parsed program and
// edit their clones at once — a checkpoint put at the front of every while
// body and then list, and one assignment taken out — and each gets what
// it edited. Run under -race, no edit writes what the clones share; the
// parsed program prints as before.
func TestCloneEditsConcurrent(t *testing.T) {
	const workers = 8
	p, err := mpl.Parse(slabSource(workers))
	if err != nil {
		t.Fatal(err)
	}
	want := mpl.Format(p)
	var owners []int
	mpl.Walk(p.Body, func(s mpl.Stmt) bool {
		switch s.(type) {
		case *mpl.While, *mpl.If:
			owners = append(owners, s.ID())
		}
		return true
	})
	counts := make([]int, workers)
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := mpl.Clone(p)
			e := c.Edit()
			next := c.MaxStmtID() + 1
			for _, id := range owners {
				e.Insert(mpl.Block{Owner: id}, 0, e.Chkpt(next))
				next++
			}
			e.Remove(p.Body[g*stmtsPerGroup+offAssign].ID())
			e.Close()
			counts[g] = c.StmtCount()
		}()
	}
	wg.Wait()
	if mpl.Format(p) != want {
		t.Error("the parsed program changed under its clones' edits")
	}
	for g, n := range counts {
		if want := p.StmtCount() + len(owners) - 1; n != want {
			t.Errorf("clone %d has %d statements, want %d", g, n, want)
		}
	}
}
