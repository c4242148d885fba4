package verify

import (
	"fmt"
	"sort"

	"repro/internal/mpl"
)

// MutationKind enumerates the checkpoint-sabotage operators.
type MutationKind int

// The operators. Each breaks a transformed program in a way the checker
// pipeline must notice — statically, by contract, or dynamically.
const (
	// MutDelete removes one checkpoint statement.
	MutDelete MutationKind = iota
	// MutMove swaps one checkpoint with an adjacent communication
	// statement, dragging it across a send/recv boundary.
	MutMove
	// MutSkew wraps one checkpoint and the communication statement after
	// it in a rank-parity branch — even ranks checkpoint before the
	// communication, odd ranks after. This is the paper's Figure 2 shape:
	// statically well-formed (both branches hold one checkpoint, so the
	// enumeration stays balanced) but dynamically unsafe.
	MutSkew
	// MutPruneDrop deletes one variable from one checkpoint site's liveness
	// manifest, so pruned snapshots taken at that site silently lose a live
	// variable. The program itself is untouched; only the restore-equivalence
	// axis can catch this class (the four trace deciders never look at
	// snapshot contents).
	MutPruneDrop
)

// String names the kind.
func (k MutationKind) String() string {
	switch k {
	case MutDelete:
		return "delete"
	case MutMove:
		return "move"
	case MutSkew:
		return "skew"
	case MutPruneDrop:
		return "prune-drop"
	default:
		return fmt.Sprintf("mutation(%d)", int(k))
	}
}

// Mutant is one sabotaged program.
type Mutant struct {
	Prog *mpl.Program
	Kind MutationKind
	Site int // index into the program's checkpoint sites, in body order
	Desc string

	// Prune-drop mutants leave Prog nil and instead name the manifest entry
	// to sabotage: the variable DropVar at the checkpoint with statement id
	// DropStmt.
	DropStmt int
	DropVar  string
}

// chkptSites returns the location of every checkpoint statement, in body
// order: (*slot.list)[slot.pos] is the *mpl.Chkpt.
func chkptSites(p *mpl.Program) []bodySlot {
	var out []bodySlot
	var walk func(list *[]mpl.Stmt)
	walk = func(list *[]mpl.Stmt) {
		for pos := range *list {
			if _, ok := (*list)[pos].(*mpl.Chkpt); ok {
				out = append(out, bodySlot{list: list, pos: pos})
			}
		}
		for _, s := range *list {
			switch st := s.(type) {
			case *mpl.While:
				walk(&st.Body)
			case *mpl.If:
				walk(&st.Then)
				walk(&st.Else)
			}
		}
	}
	walk(&p.Body)
	return out
}

// isComm reports whether s is a communication statement.
func isComm(s mpl.Stmt) bool {
	switch s.(type) {
	case *mpl.Send, *mpl.Recv, *mpl.Bcast, *mpl.Reduce:
		return true
	}
	return false
}

// DeleteMutants returns one mutant per checkpoint statement, each with
// that single checkpoint removed.
func DeleteMutants(p *mpl.Program) []Mutant {
	n := len(chkptSites(p))
	out := make([]Mutant, 0, n)
	for site := 0; site < n; site++ {
		cp := mpl.Clone(p)
		s := chkptSites(cp)[site]
		id := (*s.list)[s.pos].ID()
		*s.list = append((*s.list)[:s.pos], (*s.list)[s.pos+1:]...)
		out = append(out, Mutant{
			Prog: cp, Kind: MutDelete, Site: site,
			Desc: fmt.Sprintf("delete checkpoint stmt #%d (site %d)", id, site),
		})
	}
	return out
}

// MoveMutants returns one mutant per checkpoint that has a communication
// statement as an immediate neighbour, with the two swapped (preferring
// the following neighbour).
func MoveMutants(p *mpl.Program) []Mutant {
	n := len(chkptSites(p))
	var out []Mutant
	for site := 0; site < n; site++ {
		cp := mpl.Clone(p)
		s := chkptSites(cp)[site]
		list := *s.list
		other := -1
		if s.pos+1 < len(list) && isComm(list[s.pos+1]) {
			other = s.pos + 1
		} else if s.pos > 0 && isComm(list[s.pos-1]) {
			other = s.pos - 1
		}
		if other < 0 {
			continue
		}
		id := list[s.pos].ID()
		list[s.pos], list[other] = list[other], list[s.pos]
		out = append(out, Mutant{
			Prog: cp, Kind: MutMove, Site: site,
			Desc: fmt.Sprintf("move checkpoint stmt #%d across %T (site %d)", id, list[s.pos], site),
		})
	}
	return out
}

// SkewMutants returns one mutant per checkpoint immediately followed by a
// communication statement: the pair is rewrapped as
//
//	if rank % 2 == 0 { chkpt; comm } else { comm; chkpt }
//
// so the checkpoint lands on opposite sides of the communication on even
// and odd ranks — Figure 2 reconstructed inside a verified program.
func SkewMutants(p *mpl.Program) []Mutant {
	n := len(chkptSites(p))
	var out []Mutant
	for site := 0; site < n; site++ {
		cp := mpl.Clone(p)
		s := chkptSites(cp)[site]
		list := *s.list
		if s.pos+1 >= len(list) || !isComm(list[s.pos+1]) {
			continue
		}
		ck, comm := list[s.pos], list[s.pos+1]
		nextID := cp.MaxStmtID() + 1
		ifStmt := &mpl.If{
			StmtBase: mpl.StmtBase{StmtID: nextID},
			Cond:     mpl.Eq(mpl.Mod(mpl.Rank(), mpl.Int(2)), mpl.Int(0)),
			Then:     []mpl.Stmt{ck, comm},
			Else: []mpl.Stmt{
				cloneWithID(comm, nextID+1),
				cloneWithID(ck, nextID+2),
			},
		}
		rest := append([]mpl.Stmt{ifStmt}, list[s.pos+2:]...)
		*s.list = append(list[:s.pos:s.pos], rest...)
		out = append(out, Mutant{
			Prog: cp, Kind: MutSkew, Site: site,
			Desc: fmt.Sprintf("skew checkpoint stmt #%d around %T into rank-parity branches (site %d)", ck.ID(), comm, site),
		})
	}
	return out
}

// AllMutants concatenates every operator's mutants.
func AllMutants(p *mpl.Program) []Mutant {
	out := DeleteMutants(p)
	out = append(out, MoveMutants(p)...)
	out = append(out, SkewMutants(p)...)
	return out
}

// PruneDropMutants returns one mutant per (checkpoint site, live variable)
// pair where the clean run's restore log recorded a non-initial value —
// profile, built by liveNonZero over the explored executions. Dropping a
// variable that held its initial value at every recorded instance is an
// equivalent mutant (the pruned restore reconstructs the value exactly), so
// such pairs are skipped rather than counted as escapes.
func PruneDropMutants(manifests map[int][]string, profile map[int]map[string]bool) []Mutant {
	stmts := make([]int, 0, len(manifests))
	for id := range manifests {
		stmts = append(stmts, id)
	}
	sort.Ints(stmts)
	var out []Mutant
	for _, id := range stmts {
		for _, name := range manifests[id] {
			if !profile[id][name] {
				continue
			}
			out = append(out, Mutant{
				Kind: MutPruneDrop, DropStmt: id, DropVar: name,
				Desc: fmt.Sprintf("drop live variable %q from checkpoint stmt #%d manifest", name, id),
			})
		}
	}
	return out
}

// cloneWithID copies a statement and assigns it a fresh id, for
// duplicating statements into a second branch.
func cloneWithID(s mpl.Stmt, id int) mpl.Stmt {
	cp := cloneOne(s)
	switch st := cp.(type) {
	case *mpl.Send:
		st.StmtID = id
	case *mpl.Recv:
		st.StmtID = id
	case *mpl.Bcast:
		st.StmtID = id
	case *mpl.Reduce:
		st.StmtID = id
	case *mpl.Chkpt:
		st.StmtID = id
	default:
		panic(fmt.Sprintf("verify: cloneWithID: unexpected statement %T", cp))
	}
	return cp
}

// cloneOne copies one statement via a throwaway program clone.
func cloneOne(s mpl.Stmt) mpl.Stmt {
	tmp := &mpl.Program{Body: []mpl.Stmt{s}}
	return mpl.Clone(tmp).Body[0]
}
