// Package mpmd extends the analysis to Multiple Program Multiple Data
// applications. The paper's offline phases assume SPMD ("the whole program
// is represented in one source file") but note that MPMD works "if all the
// files of the source code of a message-passing program are presented for
// offline analysis" (§3). This package implements that: it merges a set of
// role programs — each guarding a disjoint set of ranks — into one SPMD
// program whose top-level structure is an ID-dependent if/else chain. The
// merged program flows through phases I–III unchanged: the role guards are
// exactly the ID-dependent branches Algorithm 3.1 keys on.
package mpmd

import (
	"errors"
	"fmt"

	"repro/internal/attr"
	"repro/internal/mpl"
)

// Role is one MPMD component: a program executed by the ranks satisfying
// Guard. Guards must be closed expressions over (rank, nproc).
type Role struct {
	// Name labels the role in diagnostics.
	Name string
	// Guard selects the ranks that run this role (e.g. rank == 0, or
	// rank >= nproc/2).
	Guard mpl.Expr
	// Program is the role's code. Its Consts/Vars are merged into the
	// combined program; name collisions across roles must agree on
	// constant values and are shared for variables.
	Program *mpl.Program
}

// ErrOverlap reports two roles claiming the same rank.
var ErrOverlap = errors.New("mpmd: role guards overlap")

// ErrUncovered reports ranks no role claims.
var ErrUncovered = errors.New("mpmd: some ranks match no role")

// Merge combines MPMD roles into a single SPMD program named name. It
// verifies with the attribute solver that the guards are pairwise disjoint
// and jointly cover every rank for every process count within the solver's
// bounds.
func Merge(name string, roles []Role, solver attr.Solver) (*mpl.Program, error) {
	if len(roles) == 0 {
		return nil, errors.New("mpmd: no roles")
	}
	for _, r := range roles {
		if r.Program == nil || r.Guard == nil {
			return nil, fmt.Errorf("mpmd: role %q missing guard or program", r.Name)
		}
		if err := attr.Validate(r.Guard); err != nil {
			return nil, fmt.Errorf("mpmd: role %q: %w", r.Name, err)
		}
	}
	if err := checkPartition(roles, solver); err != nil {
		return nil, err
	}

	merged := &mpl.Program{Name: name}
	seenConst := make(map[string]int)
	seenVar := make(map[string]bool)
	for _, r := range roles {
		for _, c := range r.Program.Consts {
			if v, ok := seenConst[c.Name]; ok {
				if v != c.Value {
					return nil, fmt.Errorf("mpmd: constant %q has conflicting values %d and %d",
						c.Name, v, c.Value)
				}
				continue
			}
			seenConst[c.Name] = c.Value
			merged.Consts = append(merged.Consts, c)
		}
		for _, v := range r.Program.Vars {
			if !seenVar[v] {
				seenVar[v] = true
				merged.Vars = append(merged.Vars, v)
			}
		}
	}

	// Build the guard chain: if g1 { body1 } else if g2 { body2 } ... The
	// final role still gets an explicit guard so the analysis sees its
	// attribute (coverage was verified above, so the final else is dead).
	nextID := 0
	assignIDs := func(body []mpl.Stmt) {
		mpl.Walk(body, func(s mpl.Stmt) bool {
			setStmtID(s, nextID)
			nextID++
			return true
		})
	}
	var chain []mpl.Stmt
	tail := &chain
	for _, r := range roles {
		body := mpl.Clone(r.Program).Body
		assignIDs(body)
		guard := mpl.CloneExpr(r.Guard)
		ifStmt := &mpl.If{
			StmtBase: mpl.StmtBase{StmtID: nextID},
			Cond:     guard,
			Then:     body,
		}
		nextID++
		*tail = append(*tail, ifStmt)
		tail = &ifStmt.Else
	}
	merged.Body = chain
	if err := mpl.Check(merged); err != nil {
		return nil, fmt.Errorf("mpmd: merged program invalid: %w", err)
	}
	return merged, nil
}

// setStmtID rewrites a statement's id (the merged program needs globally
// unique ids across roles).
func setStmtID(s mpl.Stmt, id int) {
	switch st := s.(type) {
	case *mpl.Assign:
		st.StmtID = id
	case *mpl.Work:
		st.StmtID = id
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
	case *mpl.While:
		st.StmtID = id
	case *mpl.If:
		st.StmtID = id
	}
}

// checkPartition verifies disjointness and coverage of the role guards
// over the solver's process-count bounds.
func checkPartition(roles []Role, solver attr.Solver) error {
	lo, hi := solverBounds(solver)
	for n := lo; n <= hi; n++ {
		for rank := 0; rank < n; rank++ {
			matches := 0
			var names []string
			for _, r := range roles {
				pred := attr.Predicate{{Cond: r.Guard, Want: true}}
				if pred.HoldsAt(rank, n) {
					matches++
					names = append(names, r.Name)
				}
			}
			switch {
			case matches == 0:
				return fmt.Errorf("%w: rank %d of %d", ErrUncovered, rank, n)
			case matches > 1:
				return fmt.Errorf("%w: rank %d of %d matches %v", ErrOverlap, rank, n, names)
			}
		}
	}
	return nil
}

func solverBounds(s attr.Solver) (int, int) {
	lo, hi := s.MinProcs, s.MaxProcs
	if lo < 1 {
		lo = 2
	}
	if hi < lo {
		hi = 17
	}
	return lo, hi
}
