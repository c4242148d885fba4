package verify

import (
	"cmp"
	"fmt"
	"slices"
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
	// MutCrossClear adds to the program's quiet channels one channel, at
	// one process count, that an explored run saw a message in flight on
	// across a straight cut: its messages get no send-log record. The
	// execution is untouched; the restore-equivalence axis catches it,
	// because the cut it crossed can no longer be rebuilt.
	MutCrossClear
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
	case MutCrossClear:
		return "cross-clear"
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

	// A cross-clear mutant's Prog differs from the program in one channel
	// of Quiet, at Channel.N processes only.
	Channel Channel
}

// Channel is channel From→To of a run of N processes.
type Channel struct{ N, From, To int }

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

// CrossClearMutants returns one mutant per channel the clean runs saw a
// message in flight on across a straight cut — crossing, built by
// crossingChannels over the explored executions — that p does not hold
// quiet, with that channel added to Quiet, in process count then channel
// order. A channel no explored cut had a message in flight on is skipped:
// marking it quiet changes nothing any replay reads.
func CrossClearMutants(p *mpl.Program, crossing map[Channel]bool) []Mutant {
	chans := make([]Channel, 0, len(crossing))
	for c := range crossing {
		if !p.Quiet.Has(c.N, c.From, c.To) {
			chans = append(chans, c)
		}
	}
	slices.SortFunc(chans, func(a, b Channel) int {
		return cmp.Or(cmp.Compare(a.N, b.N), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	out := make([]Mutant, 0, len(chans))
	for _, c := range chans {
		cp := mpl.Clone(p)
		cp.Quiet.Add(c.N, c.From, c.To)
		out = append(out, Mutant{
			Prog: cp, Kind: MutCrossClear, Channel: c,
			Desc: fmt.Sprintf("unlog channel %d->%d at n=%d, seen in flight across a straight cut", c.From, c.To, c.N),
		})
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
