package mpl_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/insert"
	"repro/internal/mpl"
)

// Slab safety. A parsed or cloned program's nodes are cut from shared
// chunks and its block bodies from one shared []Stmt (DESIGN decision 26),
// so the hazards are the ones sharing always has: a body whose spare
// capacity is a sibling's storage, and a chunk that is reused while nodes
// in it are live. This test does to a parsed program what the transforms do
// — append to a body, rewrite a node, Clone, run Phase I on the clone — and
// requires that nothing else moves.

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

// stmtParts returns a statement's expression fields and nested blocks.
func stmtParts(s mpl.Stmt) (exprs []mpl.Expr, blocks [][]mpl.Stmt) {
	switch st := s.(type) {
	case *mpl.Assign:
		return []mpl.Expr{st.X}, nil
	case *mpl.Work:
		return []mpl.Expr{st.Amount}, nil
	case *mpl.Send:
		return []mpl.Expr{st.Dest}, nil
	case *mpl.Recv:
		return []mpl.Expr{st.Src}, nil
	case *mpl.Bcast:
		return []mpl.Expr{st.Root}, nil
	case *mpl.Reduce:
		return []mpl.Expr{st.Root}, nil
	case *mpl.While:
		return []mpl.Expr{st.Cond}, [][]mpl.Stmt{st.Body}
	case *mpl.If:
		return []mpl.Expr{st.Cond}, [][]mpl.Stmt{st.Then, st.Else}
	}
	return nil, nil
}

// TestCloneSharesExpressions pins what Clone copies: every statement and
// every non-empty block of the clone is new memory, with the original's id,
// and every expression field points at the original's node — expressions
// are immutable, so nothing is gained by copying them.
func TestCloneSharesExpressions(t *testing.T) {
	p, err := mpl.Parse(slabSource(5))
	if err != nil {
		t.Fatal(err)
	}
	c := mpl.Clone(p)
	stmts, exprs := 0, 0
	var compare func(orig, clone []mpl.Stmt)
	compare = func(orig, clone []mpl.Stmt) {
		if len(orig) != len(clone) || (orig == nil) != (clone == nil) {
			t.Fatalf("block of %d statements cloned as %d", len(orig), len(clone))
		}
		if len(orig) > 0 && &orig[0] == &clone[0] {
			t.Errorf("block at #%d is shared with the original", orig[0].ID())
		}
		for i, o := range orig {
			k := clone[i]
			stmts++
			if o == k || o.ID() != k.ID() {
				t.Errorf("%s cloned as %s (the same node: %v)", mpl.DescribeStmt(o), mpl.DescribeStmt(k), o == k)
			}
			oe, ob := stmtParts(o)
			ke, kb := stmtParts(k)
			for j := range oe {
				exprs++
				if oe[j] != ke[j] {
					t.Errorf("%s: expression %d copied, not shared", mpl.DescribeStmt(o), j)
				}
			}
			for j := range ob {
				compare(ob[j], kb[j])
			}
		}
	}
	compare(p.Body, c.Body)
	if want := p.StmtCount(); stmts != want || exprs == 0 {
		t.Errorf("compared %d statements and %d expressions, program has %d statements", stmts, exprs, want)
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
	a.X.(*mpl.Binary).L.(*mpl.Unary).Op = "!"
	requireSame(t, "rewrite a parsed node", describeAll(p), want, g1*stmtsPerGroup+offWhile, g2*stmtsPerGroup+offAssign)
	if got := describe(a); !strings.Contains(got, "y = !input(17) + !y") {
		t.Errorf("rewritten assignment reads %q", got)
	}

	// Clone, then do to the clone what the pipeline does: an in-place
	// append and Phase I (which equalizes every group's if). The parsed
	// program must not notice, and in the clone only the statements
	// written to may differ.
	mutated := describeAll(p)
	c := mpl.Clone(p)
	requireSame(t, "clone", describeAll(c), mutated)
	cw := c.Body[g2*stmtsPerGroup+offWhile].(*mpl.While)
	cw.Body = append(cw.Body, &mpl.Chkpt{StmtBase: mpl.StmtBase{StmtID: 100001}})
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
