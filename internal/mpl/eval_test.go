package mpl

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func evalStr(t *testing.T, expr string, env *Env) (int, error) {
	t.Helper()
	src := "program t\nvar a, b, x\nproc { x = " + expr + " }"
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	return Eval(p.Body[0].(*Assign).X, env)
}

func testEnv() *Env {
	return &Env{
		Rank:  3,
		Nproc: 8,
		Vars:  map[string]int{"a": 10, "b": 4, "x": 0},
		Input: func(i int) int { return i * 100 },
	}
}

func TestEvalArithmetic(t *testing.T) {
	tests := []struct {
		expr string
		want int
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"a - b", 6},
		{"a / b", 2},
		{"a % b", 2},
		{"-a + 1", -9},
		{"rank", 3},
		{"nproc", 8},
		{"rank + 1", 4},
		{"(rank - 1 + nproc) % nproc", 2},
		{"(rank - 5) % nproc", 6}, // Euclidean modulo: -2 mod 8 = 6
		{"input(2)", 200},
		{"input(rank)", 300},
	}
	for _, tt := range tests {
		got, err := evalStr(t, tt.expr, testEnv())
		if err != nil {
			t.Errorf("%s: %v", tt.expr, err)
			continue
		}
		if got != tt.want {
			t.Errorf("%s = %d, want %d", tt.expr, got, tt.want)
		}
	}
}

func TestEvalComparisonsAndLogic(t *testing.T) {
	tests := []struct {
		expr string
		want int
	}{
		{"a == 10", 1},
		{"a != 10", 0},
		{"a < b", 0},
		{"a <= 10", 1},
		{"a > b", 1},
		{"b >= 5", 0},
		{"1 && 2", 1},
		{"1 && 0", 0},
		{"0 || 3", 1},
		{"0 || 0", 0},
		{"!0", 1},
		{"!7", 0},
		{"rank % 2 == 1 && rank < nproc", 1},
	}
	for _, tt := range tests {
		got, err := evalStr(t, tt.expr, testEnv())
		if err != nil {
			t.Errorf("%s: %v", tt.expr, err)
			continue
		}
		if got != tt.want {
			t.Errorf("%s = %d, want %d", tt.expr, got, tt.want)
		}
	}
}

func TestEvalShortCircuit(t *testing.T) {
	// Division by zero on the right side must not be evaluated.
	if got, err := evalStr(t, "0 && 1 / 0", testEnv()); err != nil || got != 0 {
		t.Errorf("&& did not short-circuit: %d, %v", got, err)
	}
	if got, err := evalStr(t, "1 || 1 / 0", testEnv()); err != nil || got != 1 {
		t.Errorf("|| did not short-circuit: %d, %v", got, err)
	}
}

func TestEvalErrors(t *testing.T) {
	if _, err := evalStr(t, "1 / 0", testEnv()); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("1/0 err = %v", err)
	}
	if _, err := evalStr(t, "1 % 0", testEnv()); err == nil {
		t.Error("1%0 should fail")
	}
	env := testEnv()
	env.Input = nil
	if _, err := evalStr(t, "input(1)", env); err == nil {
		t.Error("input with nil binding should fail")
	}
	// Unknown identifier via a hand-built expression (checker bypassed).
	if _, err := Eval(V("ghost"), env); err == nil {
		t.Error("unknown identifier should fail")
	}
	var ee *EvalError
	_, err := Eval(V("ghost"), env)
	if !errors.As(err, &ee) {
		t.Errorf("error type = %T, want *EvalError", err)
	}
}

func TestNewEnvInitializesVars(t *testing.T) {
	p, err := Parse("program t\nconst K = 7\nvar u, v\nproc { u = K }")
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(p, 2, 4, nil)
	if env.Rank != 2 || env.Nproc != 4 {
		t.Errorf("env = %+v", env)
	}
	if v, ok := env.Vars["u"]; !ok || v != 0 {
		t.Errorf("u = %d, %v", v, ok)
	}
	if env.Consts["K"] != 7 {
		t.Errorf("K = %d", env.Consts["K"])
	}
	got, err := Eval(V("K"), env)
	if err != nil || got != 7 {
		t.Errorf("Eval(K) = %d, %v", got, err)
	}
}

func TestTruthy(t *testing.T) {
	env := testEnv()
	b, err := Truthy(Int(0), env)
	if err != nil || b {
		t.Errorf("Truthy(0) = %v, %v", b, err)
	}
	b, err = Truthy(Int(-5), env)
	if err != nil || !b {
		t.Errorf("Truthy(-5) = %v, %v", b, err)
	}
}

func TestQuickEuclideanModulo(t *testing.T) {
	// For positive divisors the result is always in [0, divisor).
	f := func(l int16, r uint8) bool {
		div := int(r%31) + 1
		env := &Env{Vars: map[string]int{}}
		got, err := Eval(Mod(Int(int(l)), Int(div)), env)
		if err != nil {
			return false
		}
		if got < 0 || got >= div {
			return false
		}
		// Congruence: (got - l) divisible by div.
		return (got-int(l))%div == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickEvalMatchesGo(t *testing.T) {
	// +, -, * agree with Go's arithmetic.
	f := func(a, b int16) bool {
		env := &Env{Vars: map[string]int{}}
		sum, err1 := Eval(Add(Int(int(a)), Int(int(b))), env)
		diff, err2 := Eval(Sub(Int(int(a)), Int(int(b))), env)
		prod, err3 := Eval(Mul(Int(int(a)), Int(int(b))), env)
		return err1 == nil && err2 == nil && err3 == nil &&
			sum == int(a)+int(b) && diff == int(a)-int(b) && prod == int(a)*int(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuilderProducesCheckedProgram(t *testing.T) {
	p := NewBuilder("ring").
		Const("STEPS", 3).
		Vars("tok", "i").
		Assign("i", Int(0)).
		While(Lt(V("i"), V("STEPS")), func(b *Builder) {
			b.Chkpt()
			b.IfElse(Eq(Mod(Rank(), Int(2)), Int(0)),
				func(b *Builder) {
					b.Send(Add(Rank(), Int(1)), "tok")
				},
				func(b *Builder) {
					b.Recv(Sub(Rank(), Int(1)), "tok")
				})
			b.Assign("i", Add(V("i"), Int(1)))
		}).
		MustProgram()
	if p.StmtCount() != 7 {
		t.Errorf("StmtCount = %d, want 7", p.StmtCount())
	}
	// Round trip through the printer and parser.
	p2, err := Parse(Format(p))
	if err != nil {
		t.Fatalf("builder output does not reparse: %v\n%s", err, Format(p))
	}
	if Format(p2) != Format(p) {
		t.Error("builder/parser round trip mismatch")
	}
}

func TestBuilderRejectsBadProgram(t *testing.T) {
	_, err := NewBuilder("bad").Assign("nowhere", Int(1)).Program()
	if err == nil {
		t.Fatal("undeclared assignment accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustProgram did not panic")
		}
	}()
	NewBuilder("bad2").Assign("nowhere", Int(1)).MustProgram()
}

func BenchmarkParseJacobi(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(jacobiSrc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalExpr(b *testing.B) {
	p, err := Parse("program t\nvar x\nproc { x = (rank - 1 + nproc) % nproc * 2 + 1 }")
	if err != nil {
		b.Fatal(err)
	}
	e := p.Body[0].(*Assign).X
	env := &Env{Rank: 3, Nproc: 8, Vars: map[string]int{"x": 0}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(e, env); err != nil {
			b.Fatal(err)
		}
	}
}
