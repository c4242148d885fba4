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
// verifies that the guards are pairwise disjoint and jointly cover every
// rank for every process count within attr.DefaultSolver's bounds, the
// ones Phase II matches over. The merged program shares the roles'
// expressions, their guards included; its statements are new.
func Merge(name string, roles []Role) (*mpl.Program, error) {
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
	if err := checkPartition(roles); err != nil {
		return nil, err
	}

	var consts []mpl.Const
	var vars []string
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
			consts = append(consts, c)
		}
		for _, v := range r.Program.Vars {
			if !seenVar[v] {
				seenVar[v] = true
				vars = append(vars, v)
			}
		}
	}

	merged := &mpl.Program{Name: name, Consts: consts, Vars: vars, Body: chain(roles, new(int))}
	if err := mpl.Check(merged); err != nil {
		return nil, fmt.Errorf("mpmd: merged program invalid: %w", err)
	}
	return merged, nil
}

// chain returns the guard chain of roles: if g1 { body1 } else if g2 {
// body2 } ... The final role still gets an explicit guard so the analysis
// sees its attribute (Merge verified coverage, so the final else is dead).
// Ids run from *next on through the roles in order, each body's before its
// guard's.
func chain(roles []Role, next *int) []mpl.Stmt {
	if len(roles) == 0 {
		return nil
	}
	body := mpl.Renumber(roles[0].Program.Body, next)
	id := *next
	*next++
	return []mpl.Stmt{&mpl.If{StmtBase: mpl.StmtBase{StmtID: id}, Cond: roles[0].Guard, Then: body, Else: chain(roles[1:], next)}}
}

// checkPartition verifies disjointness and coverage of the role guards
// over the default solver's process-count bounds.
func checkPartition(roles []Role) error {
	lo, hi := attr.DefaultSolver.Bounds()
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
