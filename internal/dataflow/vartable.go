package dataflow

import (
	"slices"

	"repro/internal/mpl"
)

// VarTable is the dense variable indexing the analyses share: every
// declared variable (in declaration order) plus every undeclared
// assignment/receive target reachable in the body (possible in hand-built
// test programs that skip mpl.Check). The forward rank analysis uses it for
// its abstract state slots; the backward liveness analysis
// (internal/liveness) uses the same table so both passes agree on the
// variable universe.
//
// Constants, rank, nproc, and input(...) are not variables and get no
// slots.
type VarTable struct {
	Index map[string]int // name -> dense slot
	Names []string       // slot -> name
}

// NewVarTable builds the table for a program.
func NewVarTable(p *mpl.Program) *VarTable {
	t := &VarTable{}
	t.fill(p)
	return t
}

// fill builds the table for p in t's memory, whatever t held before.
func (t *VarTable) fill(p *mpl.Program) {
	if t.Index == nil {
		t.Index = make(map[string]int, len(p.Vars))
	}
	clear(t.Index)
	t.Names = slices.Grow(t.Names[:0], len(p.Vars))
	for _, v := range p.Vars {
		t.Slot(v)
	}
	t.collectTargets(p.Body)
}

// Len returns the number of slots.
func (t *VarTable) Len() int { return len(t.Names) }

// Slot returns the slot for a variable name, assigning one if new.
func (t *VarTable) Slot(name string) int {
	if i, ok := t.Index[name]; ok {
		return i
	}
	i := len(t.Names)
	t.Index[name] = i
	t.Names = append(t.Names, name)
	return i
}

// collectTargets assigns slots to undeclared assignment/receive targets so
// the dense state is total.
func (t *VarTable) collectTargets(body []mpl.Stmt) {
	for _, st := range body {
		switch n := st.(type) {
		case *mpl.Assign:
			t.Slot(n.Name)
		case *mpl.Recv:
			t.Slot(n.Var)
		case *mpl.Bcast:
			t.Slot(n.Var)
		case *mpl.Reduce:
			t.Slot(n.Var)
		case *mpl.If:
			t.collectTargets(n.Then)
			t.collectTargets(n.Else)
		case *mpl.While:
			t.collectTargets(n.Body)
		}
	}
}
