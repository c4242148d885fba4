package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/insert"
	"repro/internal/mpl"
	"repro/internal/mpmd"
	"repro/internal/verify"
)

// This file holds core.Transform to DESIGN decision 31's statement rule:
// statements and blocks are immutable once built, so a transform copies
// only the blocks it changes and the While and If nodes above them, shares
// everything else with its input, and no later edit of its output reaches
// the input.

// sharingInputs returns the programs the rule is checked on: the corpus,
// the eight analysis-large shapes, five hundred generated programs and the
// Phase II witnesses.
func sharingInputs(t *testing.T) map[string]*mpl.Program {
	t.Helper()
	progs := corpus.All()
	for seed := int64(1); seed <= 8; seed++ {
		progs[fmt.Sprintf("large_%d", seed)] = verify.GenerateLarge(seed, 6)
	}
	for seed := int64(1); seed <= 500; seed++ {
		progs[fmt.Sprintf("gen_%d", seed)] = verify.Generate(seed)
	}
	files, err := filepath.Glob(filepath.Join("..", "verify", "testdata", "witness", "*.mpl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no witnesses: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := mpl.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		progs[strings.TrimSuffix(filepath.Base(f), ".mpl")] = p
	}
	return progs
}

// block is a statement list as a slice header: where its statements are,
// how many, and how many fit.
type block struct {
	data     *mpl.Stmt
	len, cap int
}

func blockOf(b []mpl.Stmt) block { return block{unsafe.SliceData(b), len(b), cap(b)} }

type whileFields struct {
	mpl.StmtBase
	Cond mpl.Expr
	Body block
}

type ifFields struct {
	mpl.StmtBase
	Cond       mpl.Expr
	Then, Else block
}

// snapshot is a program field by field: its text, its declarations, and
// each statement in walk order as its pointer and a copy of its fields,
// lists as slice headers. Two snapshots are equal when nothing was written.
type snapshot struct {
	format    string
	consts    []mpl.Const
	vars      []string
	constsHdr unsafe.Pointer
	varsHdr   unsafe.Pointer
	body      block
	stmts     []mpl.Stmt
	fields    []any
}

func snap(p *mpl.Program) *snapshot {
	s := &snapshot{
		format: mpl.Format(p), consts: append([]mpl.Const(nil), p.Consts...), vars: append([]string(nil), p.Vars...),
		constsHdr: unsafe.Pointer(unsafe.SliceData(p.Consts)), varsHdr: unsafe.Pointer(unsafe.SliceData(p.Vars)),
		body: blockOf(p.Body),
	}
	mpl.Walk(p.Body, func(st mpl.Stmt) bool {
		var f any
		switch x := st.(type) {
		case *mpl.Assign:
			f = *x
		case *mpl.Work:
			f = *x
		case *mpl.Send:
			f = *x
		case *mpl.Recv:
			f = *x
		case *mpl.Bcast:
			f = *x
		case *mpl.Reduce:
			f = *x
		case *mpl.Chkpt:
			f = *x
		case *mpl.While:
			f = whileFields{x.StmtBase, x.Cond, blockOf(x.Body)}
		case *mpl.If:
			f = ifFields{x.StmtBase, x.Cond, blockOf(x.Then), blockOf(x.Else)}
		}
		s.stmts, s.fields = append(s.stmts, st), append(s.fields, f)
		return true
	})
	return s
}

// diff returns what differs between two snapshots of one program, "" when
// nothing does.
func (s *snapshot) diff(o *snapshot) string {
	switch {
	case s.format != o.format:
		return "its text changed"
	case fmt.Sprint(s.consts, s.vars) != fmt.Sprint(o.consts, o.vars) || s.constsHdr != o.constsHdr || s.varsHdr != o.varsHdr:
		return "its declarations changed"
	case s.body != o.body:
		return "its body list was written"
	case len(s.stmts) != len(o.stmts):
		return fmt.Sprintf("it has %d statements, had %d", len(o.stmts), len(s.stmts))
	}
	for i := range s.stmts {
		if s.stmts[i] != o.stmts[i] || s.fields[i] != o.fields[i] {
			return fmt.Sprintf("statement %d (%s) was written", i, mpl.DescribeStmt(s.stmts[i]))
		}
	}
	return ""
}

// TestTransformDoesNotMutateInput (a): after Transform the input prints
// as before, and every statement and list of it holds what it held.
func TestTransformDoesNotMutateInput(t *testing.T) {
	for name, p := range sharingInputs(t) {
		before := snap(p)
		core.Transform(p, core.DefaultConfig) // a refusal must leave it too
		if d := before.diff(snap(p)); d != "" {
			t.Errorf("%s: Transform wrote into its input: %s", name, d)
		}
	}
}

// TestTransformSharesWhatItKeeps (b): the output's declarations are the
// input's, and every output statement and list that Phase I–III left as it
// was is the input's, pointer for pointer: only the lists they changed and
// the While and If nodes above them are copies. A list with two adjacent
// checkpoints may be a copy that reads as the input's: Phase III's
// cleanup coalesced it, and took that back (insert.CoalesceUndoable).
func TestTransformSharesWhatItKeeps(t *testing.T) {
	copied, total := 0, 0
	for name, p := range sharingInputs(t) {
		rep, err := core.Transform(p, core.DefaultConfig)
		if err != nil {
			continue
		}
		q := rep.Program
		if unsafe.SliceData(q.Consts) != unsafe.SliceData(p.Consts) || unsafe.SliceData(q.Vars) != unsafe.SliceData(p.Vars) {
			t.Errorf("%s: the output's declarations are copies", name)
		}
		in := map[int]mpl.Stmt{}
		mpl.Walk(p.Body, func(s mpl.Stmt) bool { in[s.ID()] = s; return true })
		c := &sharing{t: t, name: name, in: in}
		c.list(p.Body, q.Body)
		copied, total = copied+c.copied, total+len(in)
	}
	t.Logf("%d of %d input statements have a copy in the output", copied, total)
}

// sharing compares an output with its input.
type sharing struct {
	t      *testing.T
	name   string
	in     map[int]mpl.Stmt
	copied int
}

// list reports whether output list out differs from input list in (nil
// when there is none): in length, or in a statement that is not the
// input's or differs. A list that does not must be in's.
func (c *sharing) list(in, out []mpl.Stmt) (changed bool) {
	changed = len(in) != len(out)
	coalesced := false
	for k, o := range out {
		if c.stmt(o) || k >= len(in) || in[k] != o {
			changed = true
		}
		if _, ok := o.(*mpl.Chkpt); ok && k > 0 {
			_, prev := out[k-1].(*mpl.Chkpt)
			coalesced = coalesced || prev
		}
	}
	if !changed && len(out) > 0 && unsafe.SliceData(in) != unsafe.SliceData(out) {
		if !coalesced {
			c.t.Errorf("%s: a list of %s is a copy of the input's it equals", c.name, mpl.DescribeStmt(out[0]))
		}
		return true
	}
	return changed
}

// stmt reports whether output statement o differs from the input's with
// its id: it is new, or a While or If with a list that differs. One that
// does not must be the input's.
func (c *sharing) stmt(o mpl.Stmt) (changed bool) {
	i, ok := c.in[o.ID()]
	switch x := o.(type) {
	case *mpl.While:
		var body []mpl.Stmt
		if w, ok := i.(*mpl.While); ok {
			body = w.Body
		}
		changed = c.list(body, x.Body)
	case *mpl.If:
		var then, els []mpl.Stmt
		if f, ok := i.(*mpl.If); ok {
			then, els = f.Then, f.Else
		}
		changed = c.list(then, x.Then)
		changed = c.list(els, x.Else) || changed
	}
	if !ok {
		return true
	}
	if o != i {
		if changed {
			c.copied++
		} else {
			c.t.Errorf("%s: output statement %s is a copy of the input's it equals", c.name, mpl.DescribeStmt(o))
		}
	}
	return changed
}

// TestOutputEditsLeaveInput (c): the editors that follow a transform —
// Phase I's InsertCheckpoints and Equalize, Coalesce, a Phase III move (a
// checkpoint taken out of its list and put back in front of the program,
// as place's moveChkptBefore does it), verify's mutants and mpmd's merge —
// applied to the output leave the input, which shares its statements, as
// it was.
func TestOutputEditsLeaveInput(t *testing.T) {
	for name, p := range sharingInputs(t) {
		before := snap(p)
		rep, err := core.Transform(p, core.DefaultConfig)
		if err != nil {
			continue
		}
		q := rep.Program
		check := func(editor string) {
			if d := before.diff(snap(p)); d != "" {
				t.Fatalf("%s: the input changed under %s: %s", name, editor, d)
			}
		}
		check("Transform")
		if _, err := insert.InsertCheckpoints(q, insert.DefaultCostModel); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check("InsertCheckpoints")

		// Unbalance every if by one checkpoint in front of its then list,
		// and put a second checkpoint behind every checkpoint, then let
		// Equalize and Coalesce repair that.
		var ifs, cks []int
		mpl.Walk(q.Body, func(s mpl.Stmt) bool {
			switch s.(type) {
			case *mpl.If:
				ifs = append(ifs, s.ID())
			case *mpl.Chkpt:
				cks = append(cks, s.ID())
			}
			return true
		})
		e := q.Edit()
		next := q.MaxStmtID() + 1
		for _, id := range ifs {
			e.Insert(mpl.Block{Owner: id}, 0, e.Chkpt(next))
			next++
		}
		e.Close()
		check("Edit.Insert")
		if added, err := insert.Equalize(q); err != nil || len(added) == 0 && len(ifs) > 0 {
			t.Fatalf("%s: Equalize added %v (%v) to balance %d ifs", name, added, err, len(ifs))
		}
		check("Equalize")
		e = q.Edit()
		next = q.MaxStmtID() + 1
		for _, id := range cks {
			b, i, _ := e.Locate(id)
			e.Insert(b, i+1, e.Chkpt(next))
			next++
		}
		e.Close()
		if removed := insert.Coalesce(q); removed < len(cks) {
			t.Fatalf("%s: Coalesce removed %d, want at least %d", name, removed, len(cks))
		}
		check("Coalesce")

		for _, id := range cks {
			e := q.Edit()
			if ck := e.Remove(id); ck != nil { // Coalesce may have taken it
				e.Insert(mpl.Block{Owner: mpl.TopLevel}, 0, ck)
			}
			e.Close()
		}
		check("a Phase III move")

		mutants := append(verify.AllMutants(q), verify.RankShiftMutants(q)...)
		check(fmt.Sprintf("%d mutants of the output", len(mutants)))
		rest := &mpl.Binary{Op: mpl.OpGe, L: mpl.Rank(), R: mpl.Int(1)}
		if _, err := mpmd.Merge("merged", []mpmd.Role{
			{Name: "first", Guard: mpl.Eq(mpl.Rank(), mpl.Int(0)), Program: q},
			{Name: "rest", Guard: rest, Program: q},
		}); err != nil {
			t.Fatalf("%s: mpmd.Merge: %v", name, err)
		}
		check("mpmd.Merge")
	}
}

// TestMutantsLeaveTheirInput: verify's mutation operators, run over
// transformed programs, leave the program they mutate as it was — its text
// and every statement, field by field — and a delete mutant shares with it
// every top-level statement that does not hold the deleted checkpoint
// (the operators edit a Clone, mpl.Edit). Prune-drop mutants carry no
// program.
func TestMutantsLeaveTheirInput(t *testing.T) {
	progs := corpus.All()
	for seed := int64(1); seed <= 200; seed++ {
		progs[fmt.Sprintf("gen_%d", seed)] = verify.Generate(seed)
	}
	for seed := int64(1); seed <= 4; seed++ {
		progs[fmt.Sprintf("large_%d", seed)] = verify.GenerateLarge(seed, 6)
	}
	crossing := map[verify.Channel]bool{{N: 2, From: 0, To: 1}: true, {N: 3, From: 2, To: 0}: true}
	size := func(s mpl.Stmt) int { // statements in s, s included; 0 for none
		n := 0
		if s != nil {
			mpl.Walk([]mpl.Stmt{s}, func(mpl.Stmt) bool { n++; return true })
		}
		return n
	}
	deletes := 0
	for name, p := range progs {
		rep, err := core.Transform(p, core.DefaultConfig)
		if err != nil {
			continue
		}
		q := rep.Program
		before := snap(q)
		mutants := verify.AllMutants(q)
		mutants = append(mutants, verify.CrossClearMutants(q, crossing)...)
		mutants = append(mutants, verify.RankShiftMutants(q)...)
		mutants = append(mutants, verify.LoopExitMutants(q)...)
		mutants = append(mutants, verify.TripShiftMutants(q)...)
		if d := before.diff(snap(q)); d != "" {
			t.Fatalf("%s: %d mutants changed the program they mutate: %s", name, len(mutants), d)
		}
		for _, m := range mutants {
			if m.Kind != verify.MutDelete {
				continue
			}
			deletes++
			kept := map[int]mpl.Stmt{}
			for _, s := range m.Prog.Body {
				kept[s.ID()] = s
			}
			for _, s := range q.Body {
				if size(s) != size(kept[s.ID()]) {
					continue // it holds the deleted checkpoint, or is it
				}
				if kept[s.ID()] != s {
					t.Fatalf("%s: %s: top-level %s is a copy", name, m.Desc, mpl.DescribeStmt(s))
				}
			}
		}
	}
	if deletes == 0 {
		t.Fatal("no delete mutants")
	}
}
