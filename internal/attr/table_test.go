package attr

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/mpl"
)

// randExpr builds a random closed expression over rank/nproc, including
// shapes that err at some ranks (division/mod by rank-dependent values).
func randExpr(r *rand.Rand, depth int) mpl.Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			return mpl.Rank()
		case 1:
			return mpl.Nproc()
		default:
			return mpl.Int(r.Intn(7) - 2)
		}
	}
	l, rr := randExpr(r, depth-1), randExpr(r, depth-1)
	switch r.Intn(7) {
	case 0:
		return mpl.Add(l, rr)
	case 1:
		return mpl.Sub(l, rr)
	case 2:
		return mpl.Mul(l, rr)
	case 3:
		return mpl.Div(l, rr)
	case 4:
		return mpl.Mod(l, rr)
	case 5:
		return mpl.Eq(l, rr)
	default:
		return mpl.Lt(l, rr)
	}
}

func randPredicate(r *rand.Rand) Predicate {
	var pr Predicate
	for k := r.Intn(3); k > 0; k-- {
		pr, _ = pr.And(nil, Constraint{Cond: randExpr(r, 2), Want: r.Intn(2) == 0})
	}
	return pr
}

func randParam(r *rand.Rand) Param {
	if r.Intn(4) == 0 {
		return WildcardParam
	}
	return ExprParam(randExpr(r, 2))
}

// TestTableEquivalence is the contract of the memoized fast path: for any
// predicate/parameter pair, CanMatchTables must agree with CanMatch.
// copyExpr returns a structural copy of e: equal to it, sharing no node.
func copyExpr(e mpl.Expr) mpl.Expr {
	switch x := e.(type) {
	case *mpl.IntLit:
		return mpl.Int(x.Value)
	case *mpl.Ident:
		return mpl.V(x.Name)
	case *mpl.Input:
		return mpl.InputAt(copyExpr(x.X))
	case *mpl.Unary:
		return &mpl.Unary{Op: x.Op, X: copyExpr(x.X)}
	case *mpl.Binary:
		return &mpl.Binary{Op: x.Op, L: copyExpr(x.L), R: copyExpr(x.R)}
	}
	return e
}

func TestTableEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	solvers := []Solver{DefaultSolver, {MinProcs: 1, MaxProcs: 5}, {MinProcs: 3, MaxProcs: 3}}
	for trial := 0; trial < 2000; trial++ {
		s := solvers[trial%len(solvers)]
		checkTables(t, s, randPredicate(r), randParam(r), randPredicate(r), randParam(r))
	}
	t.Run("off-range", tableEquivalenceOffRange)
	t.Run("batch", tableEquivalenceBatch)
}

// tableEquivalenceBatch builds tables the way the matcher does — one batch,
// equal predicates and parameters sharing rows — from a pool with repeats
// (the same node twice, and distinct nodes of equal structure).
func tableEquivalenceBatch(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		var prs []Predicate
		var params []Param
		for i := 0; i < 6; i++ {
			prs, params = append(prs, randPredicate(r)), append(params, randParam(r))
		}
		for i := 0; i < 6; i++ { // structural copies
			var pr Predicate
			for _, c := range prs[i] {
				pr = append(pr, Constraint{Cond: copyExpr(c.Cond), Want: c.Want})
			}
			prs, params = append(prs, pr), append(params, Param{Expr: copyExpr(params[5-i].Expr), Wildcard: params[5-i].Wildcard})
		}
		nodes := r.Perm(len(prs))
		nodes = append(nodes, nodes[:4]...)
		ts := DefaultSolver.Tables(prs, params, nodes)
		for i, a := range nodes {
			for j, b := range nodes {
				want := DefaultSolver.CanMatch(prs[a], params[a], prs[b], params[b])
				if got := CanMatchTables(&ts[i], &ts[j]); got != want {
					t.Fatalf("trial %d: tables %d→%d = %v, CanMatch = %v\nsend %s dest %s\nrecv %s src %s",
						trial, i, j, got, want, prs[a], params[a], prs[b], params[b])
				}
			}
		}
	}
}

// table is the Table of one (predicate, parameter) pair, nil where Tables
// declines the bounds.
func table(s Solver, pr Predicate, param Param) *Table {
	ts := s.Tables([]Predicate{pr}, []Param{param}, []int{0})
	if ts == nil {
		return nil
	}
	return &ts[0]
}

func checkTables(t *testing.T, s Solver, sendPath Predicate, dest Param, recvPath Predicate, src Param) {
	t.Helper()
	want := s.CanMatch(sendPath, dest, recvPath, src)
	st := table(s, sendPath, dest)
	rt := table(s, recvPath, src)
	if st == nil || rt == nil {
		t.Fatal("Table returned nil within 64-rank bounds")
	}
	if got := CanMatchTables(st, rt); got != want {
		t.Fatalf("solver %+v: CanMatchTables = %v, CanMatch = %v\nsend %s dest %s\nrecv %s src %s",
			s, got, want, sendPath, dest, recvPath, src)
	}
}

// tableEquivalenceOffRange covers the values an int8 row cannot hold
// as themselves: parameters that evaluate to −1 (rank-1 at rank 0), to n,
// to ≥ 64, to ≤ −2 and to large negatives. Each is an equation no rank
// satisfies (tableNever), which is not the absence of an equation
// (tableNoValue): folding the first into the second makes the "only rank 0
// sends, to rank −1" cases below match everything and fails this test.
//
// The int64 rows this replaces marked "no equation" with −1<<62 and so
// mistook a parameter that evaluates to exactly that for a wildcard; the
// int8 codes cannot collide, because only values in [0, 64) are stored as
// themselves and both codes are negative. The last parameter pins it.
func tableEquivalenceOffRange(t *testing.T) {
	rank, nproc := mpl.Rank(), mpl.Nproc()
	params := []Param{
		WildcardParam,
		ExprParam(mpl.Sub(rank, mpl.Int(1))),              // −1 at rank 0
		ExprParam(mpl.Add(rank, mpl.Int(1))),              // n at rank n−1
		ExprParam(nproc),                                  // n everywhere
		ExprParam(mpl.Int(64)),                            // first value past the mask
		ExprParam(mpl.Add(rank, mpl.Int(64))),             // ≥ 64 everywhere
		ExprParam(mpl.Int(63)),                            // last rank of a 64-wide solver
		ExprParam(mpl.Sub(rank, mpl.Int(3))),              // ≤ −2 at rank 0
		ExprParam(mpl.Int(-2)),                            // the "never" code's own value
		ExprParam(mpl.Mul(mpl.Int(-1<<40), mpl.Int(256))), // large negative
		ExprParam(mpl.Int(-1 << 62)),                      // the old int64 sentinel
		ExprParam(mpl.Div(mpl.Int(1), rank)),              // errs at rank 0: no equation there
	}
	preds := []Predicate{
		nil,
		{{Cond: mpl.Eq(rank, mpl.Int(0)), Want: true}},
		{{Cond: mpl.Eq(rank, mpl.Int(0)), Want: false}},
		{{Cond: mpl.Eq(rank, mpl.Sub(nproc, mpl.Int(1))), Want: true}},
	}
	solvers := []Solver{DefaultSolver, {MinProcs: 1, MaxProcs: 5}, {MinProcs: 2, MaxProcs: 64}}
	for _, s := range solvers {
		for _, sendPath := range preds {
			for _, dest := range params {
				for _, recvPath := range preds {
					for _, src := range params {
						checkTables(t, s, sendPath, dest, recvPath, src)
					}
				}
			}
		}
	}
	// The decisive case by hand: rank 0 alone sends, to rank −1.
	only0 := preds[1]
	if DefaultSolver.CanMatch(only0, params[1], nil, WildcardParam) {
		t.Fatal("CanMatch lets rank 0 send to rank -1")
	}
	if CanMatchTables(table(DefaultSolver, only0, params[1]), table(DefaultSolver, nil, WildcardParam)) {
		t.Error("CanMatchTables lets rank 0 send to rank -1: never was folded into no-equation")
	}
}

// TestTableWideBoundsFallback pins the nil fallback above 64 ranks.
func TestTableWideBoundsFallback(t *testing.T) {
	s := Solver{MinProcs: 2, MaxProcs: 65}
	if table(s, nil, WildcardParam) != nil {
		t.Error("Tables should decline MaxProcs > 64")
	}
	if table(Solver{MinProcs: 2, MaxProcs: 64}, nil, WildcardParam) == nil {
		t.Error("Tables should accept MaxProcs = 64")
	}
}

// CanMatchTables is CanMatch over precomputed tables: ∃ n, ∃ p ≠ q with
// send's attribute at p, recv's at q, send's parameter (the destination)
// evaluating to q at p, and recv's parameter (the source) evaluating to p
// at q — where a wildcard or erroring parameter imposes no equation. Both
// tables must come from the same Solver bounds.
func CanMatchTables(send, recv *Table) bool {
	for i, sh := range send.hold {
		rh := recv.hold[i]
		if sh == 0 || rh == 0 {
			continue
		}
		sv, rv := send.valRow(i), recv.valRow(i)
		for sw := sh; sw != 0; sw &= sw - 1 {
			p := bits.TrailingZeros64(sw)
			d := sv[p]
			for rw := rh; rw != 0; rw &= rw - 1 {
				q := bits.TrailingZeros64(rw)
				if q == p {
					continue
				}
				if d != tableNoValue && d != int8(q) {
					continue
				}
				if src := rv[q]; src != tableNoValue && src != int8(p) {
					continue
				}
				return true
			}
		}
	}
	return false
}

// Tables is TablesInto on a fresh Batch.
func (s Solver) Tables(prs []Predicate, params []Param, nodes []int) []Table {
	return s.TablesInto(&Batch{}, prs, params, nodes)
}
