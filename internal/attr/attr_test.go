package attr

import (
	"testing"
	"testing/quick"

	"repro/internal/mpl"
)

func even() Constraint {
	return Constraint{Cond: mpl.Eq(mpl.Mod(mpl.Rank(), mpl.Int(2)), mpl.Int(0)), Want: true}
}

func odd() Constraint {
	return Constraint{Cond: mpl.Eq(mpl.Mod(mpl.Rank(), mpl.Int(2)), mpl.Int(0)), Want: false}
}

func TestPredicateHoldsAt(t *testing.T) {
	pEven := Predicate{even()}
	pOdd := Predicate{odd()}
	if !pEven.HoldsAt(2, 8) || pEven.HoldsAt(3, 8) {
		t.Error("even predicate wrong")
	}
	if !pOdd.HoldsAt(3, 8) || pOdd.HoldsAt(2, 8) {
		t.Error("odd predicate wrong")
	}
	if !(Predicate)(nil).HoldsAt(0, 2) {
		t.Error("empty predicate must be true")
	}
}

func TestPredicateAndDoesNotMutate(t *testing.T) {
	p := Predicate{even()}
	q := p.And(Constraint{Cond: mpl.Lt(mpl.Rank(), mpl.Int(4)), Want: true})
	if len(p) != 1 || len(q) != 2 {
		t.Fatalf("lens = %d, %d", len(p), len(q))
	}
	if !q.HoldsAt(2, 8) || q.HoldsAt(6, 8) {
		t.Error("And result wrong")
	}
}

func TestPredicateEvalErrorIsFalse(t *testing.T) {
	p := Predicate{{Cond: mpl.Eq(mpl.Div(mpl.Int(1), mpl.Sub(mpl.Rank(), mpl.Int(1))), mpl.Int(1)), Want: true}}
	// At rank 1 the condition divides by zero: predicate must be false, not
	// crash.
	if p.HoldsAt(1, 4) {
		t.Error("eval error should make predicate false")
	}
	if !p.HoldsAt(2, 4) { // 1/(2-1) == 1
		t.Error("predicate should hold at rank 2")
	}
}

func TestParamEval(t *testing.T) {
	p := ExprParam(mpl.Add(mpl.Rank(), mpl.Int(1)))
	v, ok := p.EvalAt(3, 8)
	if !ok || v != 4 {
		t.Errorf("EvalAt = %d, %v", v, ok)
	}
	if _, ok := WildcardParam.EvalAt(0, 2); ok {
		t.Error("wildcard must not evaluate")
	}
	if WildcardParam.String() != "*" {
		t.Errorf("wildcard String = %q", WildcardParam.String())
	}
}

func TestCanMatchEvenOddNeighbors(t *testing.T) {
	s := DefaultSolver
	// Even sends to rank+1; odd receives from rank-1. Compatible.
	if !s.CanMatch(
		Predicate{even()}, ExprParam(mpl.Add(mpl.Rank(), mpl.Int(1))),
		Predicate{odd()}, ExprParam(mpl.Sub(mpl.Rank(), mpl.Int(1)))) {
		t.Error("even->odd neighbor match should succeed")
	}
	// Even sends to rank+1; even receives from rank-1: receiver would be
	// odd, contradicting the receiver's even attribute.
	if s.CanMatch(
		Predicate{even()}, ExprParam(mpl.Add(mpl.Rank(), mpl.Int(1))),
		Predicate{even()}, ExprParam(mpl.Sub(mpl.Rank(), mpl.Int(1)))) {
		t.Error("even->even with +1/-1 must contradict")
	}
}

func TestCanMatchContradictingEquations(t *testing.T) {
	s := DefaultSolver
	// Sender targets rank+1 but receiver expects source rank+1 (i.e. its
	// own successor): needs q = p+1 and p = q+1 simultaneously.
	if s.CanMatch(
		nil, ExprParam(mpl.Add(mpl.Rank(), mpl.Int(1))),
		nil, ExprParam(mpl.Add(mpl.Rank(), mpl.Int(1)))) {
		t.Error("p+1=q && q+1=p must be unsatisfiable")
	}
	// Sender targets rank+1, receiver expects rank-1: q = p+1 and p = q-1.
	if !s.CanMatch(
		nil, ExprParam(mpl.Add(mpl.Rank(), mpl.Int(1))),
		nil, ExprParam(mpl.Sub(mpl.Rank(), mpl.Int(1)))) {
		t.Error("p+1=q && q-1=p must be satisfiable")
	}
}

func TestCanMatchWildcard(t *testing.T) {
	s := DefaultSolver
	// Irregular destination matches any receive whose attributes are
	// satisfiable.
	if !s.CanMatch(nil, WildcardParam, nil, ExprParam(mpl.Int(0))) {
		t.Error("wildcard dest should match")
	}
	// But a contradictory receiver path still blocks the match.
	never := Predicate{{Cond: mpl.Lt(mpl.Rank(), mpl.Int(0)), Want: true}}
	if s.CanMatch(nil, WildcardParam, never, WildcardParam) {
		t.Error("unsatisfiable receiver path must block match")
	}
}

func TestCanMatchFixedRanks(t *testing.T) {
	s := DefaultSolver
	// Rank 0 sends to rank 1, rank 1 receives from 0.
	zero := Predicate{{Cond: mpl.Eq(mpl.Rank(), mpl.Int(0)), Want: true}}
	one := Predicate{{Cond: mpl.Eq(mpl.Rank(), mpl.Int(1)), Want: true}}
	if !s.CanMatch(zero, ExprParam(mpl.Int(1)), one, ExprParam(mpl.Int(0))) {
		t.Error("0->1 fixed match should succeed")
	}
	// Rank 0 sends to rank 2, but receiver claims to be rank 1.
	if s.CanMatch(zero, ExprParam(mpl.Int(2)), one, ExprParam(mpl.Int(0))) {
		t.Error("dest 2 cannot match receiver rank 1")
	}
}

func TestCanMatchExcludesSelf(t *testing.T) {
	s := DefaultSolver
	// dest = rank means self-send; no distinct pair can satisfy it.
	if s.CanMatch(nil, ExprParam(mpl.Rank()), nil, WildcardParam) {
		t.Error("self-send must not match (p != q required)")
	}
}

func TestCanMatchOutOfRangeDest(t *testing.T) {
	s := Solver{MinProcs: 2, MaxProcs: 4}
	// dest = nproc is always out of range: a guarded-boundary no-op, so no
	// receive can observe it.
	if s.CanMatch(nil, ExprParam(mpl.Nproc()), nil, WildcardParam) {
		t.Error("out-of-range destination must never match")
	}
}

func TestSolverBoundsDefaults(t *testing.T) {
	var s Solver // zero value: bounds default sensibly
	if !s.CanMatch(nil, WildcardParam, nil, WildcardParam) {
		t.Error("zero-value solver should work")
	}
	lo, hi := s.bounds()
	if lo < 1 || hi < lo {
		t.Errorf("bounds = %d, %d", lo, hi)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(mpl.Add(mpl.Rank(), mpl.Nproc())); err != nil {
		t.Errorf("closed expr rejected: %v", err)
	}
	if err := Validate(mpl.V("x")); err == nil {
		t.Error("variable accepted as closed")
	}
	if err := Validate(mpl.InputAt(mpl.Int(0))); err == nil {
		t.Error("input accepted as closed")
	}
}

func TestQuickCanMatchSymmetryWitness(t *testing.T) {
	// Whenever CanMatch succeeds with concrete fixed-rank params, an
	// explicit witness exists; cross-check the solver against brute force.
	f := func(a, b uint8) bool {
		s := Solver{MinProcs: 2, MaxProcs: 9}
		pa, pb := int(a%9), int(b%9)
		got := s.CanMatch(nil, ExprParam(mpl.Int(pb)), nil, ExprParam(mpl.Int(pa)))
		// Brute force: need n in [2,9], p=pa, q=pb distinct, both < n.
		want := pa != pb && pa < 9 && pb < 9
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkCanMatch(b *testing.B) {
	s := DefaultSolver
	sendPath := Predicate{even()}
	recvPath := Predicate{odd()}
	dest := ExprParam(mpl.Add(mpl.Rank(), mpl.Int(1)))
	src := ExprParam(mpl.Sub(mpl.Rank(), mpl.Int(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !s.CanMatch(sendPath, dest, recvPath, src) {
			b.Fatal("match failed")
		}
	}
}
