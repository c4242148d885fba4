// Package attr implements the attribute algebra of the paper's §3.2. A
// control path out of an ID-dependent branch is characterized by an
// attribute — here a predicate over (rank, nproc) formed from the branch
// conditions along the path. Send/receive parameters (destination/source)
// resolve to integer expressions over (rank, nproc), or to wildcards when
// they are irregular (data-dependent) patterns.
//
// "SA and DA do not contradict" (Algorithm 3.1) becomes a satisfiability
// question: do there exist a process count n and two distinct ranks p, q
// such that the sender's path attribute holds at p, the receiver's at q,
// the send destination evaluates to q, and the receive source to p? The
// Solver decides this by exact bounded enumeration over n, which is
// complete for the modular-arithmetic rank patterns SPMD programs use.
package attr

import (
	"fmt"
	"strings"

	"repro/internal/mpl"
)

// Param is a resolved communication parameter: a closed integer expression
// over rank and nproc, or a wildcard when the parameter is irregular
// (depends on input data or on values not statically derivable).
type Param struct {
	Expr     mpl.Expr // nil iff Wildcard
	Wildcard bool
}

// WildcardParam is the irregular parameter.
var WildcardParam = Param{Wildcard: true}

// ExprParam wraps a closed expression as a parameter.
func ExprParam(e mpl.Expr) Param { return Param{Expr: e} }

// EvalAt evaluates the parameter for a process. ok is false for wildcards
// and for evaluation errors (e.g. division by zero at this rank).
func (p Param) EvalAt(rank, nproc int) (v int, ok bool) {
	if p.Wildcard || p.Expr == nil {
		return 0, false
	}
	env := &mpl.Env{Rank: rank, Nproc: nproc}
	val, err := mpl.Eval(p.Expr, env)
	if err != nil {
		return 0, false
	}
	return val, true
}

// String renders the parameter.
func (p Param) String() string {
	if p.Wildcard {
		return "*"
	}
	return mpl.ExprString(p.Expr)
}

// Constraint is one branch condition with the polarity the path took.
type Constraint struct {
	Cond mpl.Expr // closed expression over rank/nproc
	Want bool     // true for the True edge, false for the False edge
}

// String renders the constraint.
func (c Constraint) String() string {
	if c.Want {
		return mpl.ExprString(c.Cond)
	}
	return "!(" + mpl.ExprString(c.Cond) + ")"
}

// Predicate is a conjunction of constraints — the attribute of a control
// path (§3.2). The nil Predicate is "true" (no ID-dependent branches
// taken).
type Predicate []Constraint

// And returns the predicate extended with one more constraint. The receiver
// is not mutated.
func (pr Predicate) And(c Constraint) Predicate {
	out := make(Predicate, len(pr)+1)
	copy(out, pr)
	out[len(pr)] = c
	return out
}

// HoldsAt reports whether every constraint holds for the given process.
// Evaluation errors make the predicate false at that rank (such a process
// would crash before communicating).
func (pr Predicate) HoldsAt(rank, nproc int) bool {
	env := &mpl.Env{Rank: rank, Nproc: nproc}
	for _, c := range pr {
		v, err := mpl.Eval(c.Cond, env)
		if err != nil {
			return false
		}
		if (v != 0) != c.Want {
			return false
		}
	}
	return true
}

// String renders the conjunction.
func (pr Predicate) String() string {
	if len(pr) == 0 {
		return "true"
	}
	parts := make([]string, len(pr))
	for i, c := range pr {
		parts[i] = c.String()
	}
	return strings.Join(parts, " && ")
}

// Solver decides attribute satisfiability by enumerating process counts in
// [MinProcs, MaxProcs] and rank pairs within each. It is complete only
// inside that range: a match that exists only at some n outside it is
// missed. The default bound, n ≤ 17, covers the SPMD rank arithmetic the
// corpus and generators use (parity, halves, ring neighbors, small
// constants); ROADMAP item 24 has a program it misses and a bound derived
// from the program.
type Solver struct {
	MinProcs int
	MaxProcs int
}

// DefaultSolver is the solver with the standard bounds.
var DefaultSolver = Solver{MinProcs: 2, MaxProcs: 17}

// bounds returns the effective enumeration range.
func (s Solver) bounds() (int, int) {
	lo, hi := s.MinProcs, s.MaxProcs
	if lo < 1 {
		lo = 2
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// CanMatch decides whether a send with path attribute sendPath and
// destination parameter dest can deliver a message to a receive with path
// attribute recvPath and source parameter src: ∃ n, ∃ p ≠ q with
// sendPath(p), recvPath(q), dest(p) = q, src(q) = p. Wildcard parameters
// impose no equation (the paper's irregular-pattern rule: match unless the
// attributes contradict). A destination that evaluates at p names the one
// receiver to test, so a regular send costs O(n) per n; only a wildcard or
// erroring destination scans every receiver.
func (s Solver) CanMatch(sendPath Predicate, dest Param, recvPath Predicate, src Param) bool {
	lo, hi := s.bounds()
	// feeds reports whether q may receive p's message at n.
	feeds := func(p, q, n int) bool {
		if q == p || !recvPath.HoldsAt(q, n) {
			return false
		}
		sv, ok := src.EvalAt(q, n)
		return !ok || sv == p
	}
	for n := lo; n <= hi; n++ {
		for p := 0; p < n; p++ {
			if !sendPath.HoldsAt(p, n) {
				continue
			}
			if d, ok := dest.EvalAt(p, n); ok {
				if d >= 0 && d < n && feeds(p, d, n) {
					return true
				}
				continue
			}
			for q := range n {
				if feeds(p, q, n) {
					return true
				}
			}
		}
	}
	return false
}

// Validate checks that predicate constraints and parameters are closed
// (mention only rank/nproc and literals); analysis code uses it to guard
// against passing unresolved expressions into the solver.
func Validate(e mpl.Expr) error {
	var bad string
	mpl.WalkExpr(e, func(x mpl.Expr) bool {
		switch n := x.(type) {
		case *mpl.Ident:
			if n.Name != mpl.BuiltinRank && n.Name != mpl.BuiltinNproc {
				bad = n.Name
				return false
			}
		case *mpl.Call:
			bad = n.Name + "(...)"
			return false
		}
		return true
	})
	if bad != "" {
		return fmt.Errorf("attr: expression %q is not closed over (rank, nproc): contains %s",
			mpl.ExprString(e), bad)
	}
	return nil
}
