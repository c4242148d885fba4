package mpl

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func simp(t *testing.T, expr string) string {
	t.Helper()
	p, err := Parse("program t\nvar a, b, x\nproc { x = " + expr + " }")
	if err != nil {
		t.Fatal(err)
	}
	return ExprString(Simplify(p.Body[0].(*Assign).X))
}

func TestSimplifyFolding(t *testing.T) {
	tests := []struct{ in, want string }{
		{"1 + 2", "3"},
		{"2 * 3 + 4", "10"},
		{"10 / 2", "5"},
		{"7 % 3", "1"},
		{"-5 % 3", "1"}, // Euclidean, matching Eval
		{"1 < 2", "1"},
		{"2 == 3", "0"},
		{"1 && 0", "0"},
		{"0 || 2", "1"},
		{"!0", "1"},
		{"!7", "0"},
		{"-(3)", "-3"},
		{"a + 0", "a"},
		{"0 + a", "a"},
		{"a - 0", "a"},
		{"1 * a", "a"},
		{"a * 1", "a"},
		{"a / 1", "a"},
		{"0 && a", "0"},
		{"1 || a", "1"},
		{"-(-a)", "a"},
		{"rank + (2 - 2)", "rank"},
		{"(1 + 1) * rank", "2 * rank"},
	}
	for _, tt := range tests {
		if got := simp(t, tt.in); got != tt.want {
			t.Errorf("Simplify(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestSimplifyPreservesErrors(t *testing.T) {
	// Division/modulo by a constant zero must NOT fold away: the runtime
	// error is part of the semantics.
	tests := []string{"1 / 0", "1 % 0", "a + 1 / 0"}
	for _, in := range tests {
		got := simp(t, in)
		p, err := Parse("program t\nvar a, b, x\nproc { x = " + got + " }")
		if err != nil {
			t.Fatalf("%q simplified to unparseable %q", in, got)
		}
		env := &Env{Vars: map[string]int{"a": 1, "b": 2, "x": 0}}
		if _, err := Eval(p.Body[0].(*Assign).X, env); err == nil {
			t.Errorf("Simplify(%q) = %q lost the division-by-zero error", in, got)
		}
	}
	// x*0 keeps x's potential errors too.
	if got := simp(t, "(1 / (a - 1)) * 0"); got == "0" {
		t.Error("x*0 folded despite potential evaluation error in x")
	}
}

func TestSimplifyDoesNotEvaluateInput(t *testing.T) {
	got := simp(t, "input(1 + 1)")
	if got != "input(2)" {
		t.Errorf("got %q", got)
	}
}

// binaryOpList and unaryOpList are MPL's binary and prefix operators,
// read off the operator table so that no test can leave one out.
var binaryOpList, unaryOpList = func() (binary, unary []Op) {
	for op := OpAdd; op < opCount; op++ {
		if binaryPrec(op) > 0 {
			binary = append(binary, op)
		}
		if ops[op].unary {
			unary = append(unary, op)
		}
	}
	return binary, unary
}()

// randomExpr builds a random expression over a small grammar.
func randomExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(4) {
		case 0:
			return Int(r.Intn(7) - 3)
		case 1:
			return Rank()
		case 2:
			return Nproc()
		default:
			return V("a")
		}
	}
	op := binaryOpList[r.Intn(len(binaryOpList))]
	return &Binary{Op: op, L: randomExpr(r, depth-1), R: randomExpr(r, depth-1)}
}

// TestQuickSimplifyEquivalence is the core property: for every
// environment, Simplify(e) evaluates exactly like e — same value or same
// error-ness.
func TestQuickSimplifyEquivalence(t *testing.T) {
	f := func(seed int64, rank8, n8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 4)
		s := Simplify(e)
		env := &Env{
			Rank:  int(rank8 % 16),
			Nproc: int(n8%16) + 1,
			Vars:  map[string]int{"a": int(seed % 11)},
		}
		v1, err1 := Eval(e, env)
		v2, err2 := Eval(s, env)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 == nil && v1 != v2 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestQuickSimplifyIdempotent: Simplify(Simplify(e)) == Simplify(e).
func TestQuickSimplifyIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 4)
		once := Simplify(e)
		twice := Simplify(once)
		return ExprString(once) == ExprString(twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSimplify(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	e := randomExpr(r, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Simplify(e)
	}
}
