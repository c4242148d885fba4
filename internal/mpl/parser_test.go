package mpl

import (
	"strings"
	"testing"
)

const jacobiSrc = `
program jacobi

const MAXITER = 4

var x, y, iter

proc {
    iter = 0
    while iter < MAXITER {
        chkpt
        send(rank + 1, x)
        recv(rank - 1, y)
        x = x + y
        iter = iter + 1
    }
}
`

func TestParseJacobi(t *testing.T) {
	p, err := Parse(jacobiSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "jacobi" {
		t.Errorf("Name = %q", p.Name)
	}
	if len(p.Consts) != 1 || p.Consts[0] != (Const{Name: "MAXITER", Value: 4}) {
		t.Errorf("Consts = %v", p.Consts)
	}
	if len(p.Vars) != 3 {
		t.Errorf("Vars = %v", p.Vars)
	}
	if len(p.Body) != 2 {
		t.Fatalf("Body len = %d, want 2", len(p.Body))
	}
	w, ok := p.Body[1].(*While)
	if !ok {
		t.Fatalf("Body[1] = %T, want *While", p.Body[1])
	}
	if len(w.Body) != 5 {
		t.Fatalf("loop body len = %d, want 5", len(w.Body))
	}
	if _, ok := w.Body[0].(*Chkpt); !ok {
		t.Errorf("loop body[0] = %T, want *Chkpt", w.Body[0])
	}
	if s, ok := w.Body[1].(*Send); !ok || ExprString(s.Dest) != "rank + 1" || s.Var != "x" {
		t.Errorf("loop body[1] wrong: %+v", w.Body[1])
	}
}

func TestParseAssignsUniqueIDs(t *testing.T) {
	p, err := Parse(jacobiSrc)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	Walk(p.Body, func(s Stmt) bool {
		if seen[s.ID()] {
			t.Errorf("duplicate id %d", s.ID())
		}
		seen[s.ID()] = true
		return true
	})
	if len(seen) != p.StmtCount() {
		t.Errorf("StmtCount = %d, distinct ids = %d", p.StmtCount(), len(seen))
	}
	if p.MaxStmtID() != p.StmtCount()-1 {
		t.Errorf("MaxStmtID = %d, want %d", p.MaxStmtID(), p.StmtCount()-1)
	}
}

func TestParseIfElse(t *testing.T) {
	src := `
program evenodd
var x
proc {
    if rank % 2 == 0 {
        send(rank + 1, x)
    } else {
        recv(rank - 1, x)
    }
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ifs, ok := p.Body[0].(*If)
	if !ok {
		t.Fatalf("Body[0] = %T", p.Body[0])
	}
	if ExprString(ifs.Cond) != "rank % 2 == 0" {
		t.Errorf("Cond = %q", ExprString(ifs.Cond))
	}
	if len(ifs.Then) != 1 || len(ifs.Else) != 1 {
		t.Errorf("then/else lens = %d/%d", len(ifs.Then), len(ifs.Else))
	}
}

func TestParseElseIfChain(t *testing.T) {
	src := `
program chain
var x
proc {
    if rank == 0 {
        x = 1
    } else if rank == 1 {
        x = 2
    } else {
        x = 3
    }
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	outer := p.Body[0].(*If)
	if len(outer.Else) != 1 {
		t.Fatalf("outer else len = %d", len(outer.Else))
	}
	inner, ok := outer.Else[0].(*If)
	if !ok {
		t.Fatalf("else-if not nested: %T", outer.Else[0])
	}
	if len(inner.Else) != 1 {
		t.Errorf("inner else missing")
	}
}

func TestParseBcastAndWork(t *testing.T) {
	src := `
program coll
var v
proc {
    work(100)
    bcast(0, v)
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Body[0].(*Work); !ok {
		t.Errorf("Body[0] = %T, want *Work", p.Body[0])
	}
	bc, ok := p.Body[1].(*Bcast)
	if !ok || ExprString(bc.Root) != "0" || bc.Var != "v" {
		t.Errorf("Body[1] = %+v", p.Body[1])
	}
}

func TestParsePrecedence(t *testing.T) {
	tests := []struct {
		expr string
		want string
	}{
		{"1 + 2 * 3", "1 + 2 * 3"},
		{"(1 + 2) * 3", "(1 + 2) * 3"},
		{"rank % 2 == 0 && rank < nproc", "rank % 2 == 0 && rank < nproc"},
		{"a || b && c", "a || b && c"},
		{"(a || b) && c", "(a || b) && c"},
		{"!a && b", "!a && b"},
		{"-(a + b)", "-(a + b)"},
		{"1 - 2 - 3", "1 - 2 - 3"},
		{"1 - (2 - 3)", "1 - (2 - 3)"},
		{"input(rank + 1) % 4", "input(rank + 1) % 4"},
	}
	for _, tt := range tests {
		src := "program t\nvar a, b, c, x\nproc { x = " + tt.expr + " }"
		p, err := Parse(src)
		if err != nil {
			t.Errorf("%s: %v", tt.expr, err)
			continue
		}
		got := ExprString(p.Body[0].(*Assign).X)
		if got != tt.want {
			t.Errorf("expr %q round-tripped to %q, want %q", tt.expr, got, tt.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string // substring of the error
		pos  string // exact "line:col" of the error, when it matters
	}{
		{"missing program", "var x\nproc {}", `expected "program"`, ""},
		{"missing proc", "program p\nvar x", "expected declaration or proc", ""},
		{"unclosed block", "program p\nproc { x = 1", "unexpected end of input", ""},
		{"bad stmt", "program p\nproc { 42 }", "expected statement", ""},
		{"missing paren", "program p\nvar x\nproc { send(1 x) }", `expected ","`, ""},
		{"trailing junk", "program p\nproc {} extra", "expected end of input", ""},
		{"missing cond", "program p\nproc { while { } }", "expected expression", ""},
		{"send needs var", "program p\nproc { send(0, 1) }", "variable name", ""},
		// The first error in source order wins, whichever layer finds it.
		{"syntax error before lexical error", "program p\nvar x\nproc { x = = 1 \n $ }", "expected expression", "3:12"},
		{"lexical error before syntax error", "program p\nvar x\nproc { x = $ \n = }", `unexpected character "$"`, "3:12"},
		// A lexical error surfaces as itself, not as whatever the parser
		// would make of the token it could not read.
		{"trailing garbage", "program p\nproc { } $", `unexpected character "$"`, "2:10"},
		{"garbage where a block must close", "program p\nproc { chkpt\n  @", `unexpected character "@"`, "3:3"},
		// A literal that does not fit an int is reported where it stands,
		// not at the token after it.
		{"bad integer", "program p\nvar x\nproc { x = 99999999999999999999\n}", `bad integer "99999999999999999999"`, "3:12"},
		{"bad integer constant", "program p\nconst K = 99999999999999999999\nvar x\nproc { }", `bad integer "99999999999999999999"`, "2:11"},
		{"bad integer before lexical error", "program p\nvar x\nproc { x = 99999999999999999999 $ }", "bad integer", "3:12"},
		{"non-ASCII digit", "program p\nvar x\nproc { x = ٣ }", `bad integer "٣"`, "3:12"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(tt.src)
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error = %q, want substring %q", err, tt.want)
			}
			if tt.pos == "" {
				return
			}
			var se *SyntaxError
			if !asSyntaxError(err, &se) {
				t.Fatalf("error type = %T, want *SyntaxError", err)
			}
			if se.Pos.String() != tt.pos {
				t.Errorf("error at %s, want %s: %v", se.Pos, tt.pos, err)
			}
		})
	}
}

func TestCheckErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"undeclared var", "program p\nproc { x = 1 }", "undeclared identifier"},
		{"undeclared in expr", "program p\nvar x\nproc { x = y + 1 }", `undeclared identifier "y"`},
		{"assign to rank", "program p\nproc { rank = 1 }", "must be a variable"},
		{"assign to const", "program p\nconst K = 1\nproc { K = 2 }", "must be a variable"},
		{"send const buffer", "program p\nconst K = 1\nvar x\nproc { send(0, K) }", "must be a variable"},
		{"redeclare builtin", "program p\nvar rank\nproc { }", "redeclares builtin"},
		{"redeclare const", "program p\nconst K = 1\nvar K\nproc { }", "redeclares constant"},
		{"bad builtin", "program p\nvar x\nproc { x = foo(1) }", `unknown builtin "foo"`},
		{"input arity", "program p\nvar x\nproc { x = input(1, 2) }", "input takes 1 argument"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(tt.src)
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error = %q, want substring %q", err, tt.want)
			}
		})
	}
}

func TestFormatRoundTrip(t *testing.T) {
	srcs := []string{jacobiSrc, `
program evenodd

const K = -2

var x, y

proc {
    if rank % 2 == 0 {
        chkpt
        send(rank + 1, x)
        recv(rank + 1, y)
    } else {
        recv(rank - 1, y)
        send(rank - 1, x)
        chkpt
    }
    work(x * K)
    bcast(0, x)
}
`}
	for _, src := range srcs {
		p1, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		out1 := Format(p1)
		p2, err := Parse(out1)
		if err != nil {
			t.Fatalf("formatted output does not reparse: %v\n%s", err, out1)
		}
		out2 := Format(p2)
		if out1 != out2 {
			t.Errorf("format not idempotent:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
		}
	}
}

// TestFormatGoldens holds Parse and Format to bytes committed before either
// was rewritten: each golden is what Format printed, at the commit before
// the in-place lexer and the single-buffer printer, for a transformed
// program (internal/core's TestPipelineOutputMatchesGoldens regenerates
// them through the whole pipeline). Parsing one and printing it again must
// give the same bytes back.
func TestFormatGoldens(t *testing.T) {
	for name, golden := range goldenSources(t) {
		p, err := Parse(golden)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := Format(p); got != golden {
			t.Errorf("%s: Format(Parse(golden)) differs from the golden\ngot:\n%s\nwant:\n%s", name, got, golden)
		}
		if got := Format(Clone(p)); got != golden {
			t.Errorf("%s: Format(Clone(Parse(golden))) differs from the golden", name)
		}
	}
}

// TestCloneIsDeep checks that Clone is deep down to the statements: a
// clone's statements are its own, so pointing one of their expression
// fields elsewhere leaves the original reading what it read. (Expression
// nodes are shared and immutable; TestCloneSharesExpressions pins that.)
func TestCloneIsDeep(t *testing.T) {
	p, err := Parse(jacobiSrc)
	if err != nil {
		t.Fatal(err)
	}
	c := Clone(p)
	// Point the clone's loop condition at a new expression.
	c.Body[1].(*While).Cond = Int(0)
	if ExprString(p.Body[1].(*While).Cond) != "iter < MAXITER" {
		t.Error("clone aliased original condition")
	}
	// IDs must be preserved.
	if c.Body[0].ID() != p.Body[0].ID() {
		t.Error("clone changed statement ids")
	}
	if Format(Clone(p)) != Format(p) {
		t.Error("clone not structurally identical")
	}
}

// TestParseDepthLimit feeds Parse the shapes that make a recursive-descent
// parser (and the recursive walkers behind it) recurse once per level, each
// at the deepest nesting it accepts and one level past it: the first must
// parse, the second must come back as a *SyntaxError — not as Go's fatal,
// unrecoverable stack overflow, which is what unbounded input used to buy.
func TestParseDepthLimit(t *testing.T) {
	stmt := func(s string) string { return "program p\nvar x\nproc { " + s + " }" }
	shapes := []struct {
		name string
		gen  func(n int) string
		// limit is the largest n Parse accepts: maxDepth less the levels
		// the shape spends outside its repeated part (the statement holding
		// an expression, the operand or condition at the bottom).
		limit int
		// walk says Format's output stays linear in n, so the walkers can
		// be run on the accepted program too.
		walk bool
	}{
		{"parentheses", func(n int) string {
			return stmt("x = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n))
		}, maxDepth - 2, true},
		{"unary operators", func(n int) string {
			return stmt("x = " + strings.Repeat("- ", n) + "1")
		}, maxDepth - 2, true},
		{"operator chain", func(n int) string {
			return stmt("x = 1" + strings.Repeat("+1", n))
		}, maxDepth - 1, true},
		{"nested while", func(n int) string {
			return stmt(strings.Repeat("while 1 { ", n) + strings.Repeat("} ", n))
		}, maxDepth - 1, false},
		{"else-if chain", func(n int) string {
			return stmt("if 1 { }" + strings.Repeat(" else if 1 { }", n-1))
		}, maxDepth - 1, false},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			p, err := Parse(sh.gen(sh.limit))
			if err != nil {
				t.Fatalf("n = %d (the limit) rejected: %v", sh.limit, err)
			}
			if sh.walk {
				x := Clone(p).Body[0].(*Assign).X
				if _, err := Eval(x, &Env{Nproc: 1}); err != nil {
					t.Errorf("Eval at the limit: %v", err)
				}
				if _, err := Parse(Format(p)); err != nil {
					t.Errorf("Format's output at the limit does not reparse: %v", err)
				}
			}
			for _, n := range []int{sh.limit + 1, 40 * maxDepth} {
				_, err := Parse(sh.gen(n))
				var se *SyntaxError
				if !asSyntaxError(err, &se) {
					t.Fatalf("n = %d: error %v (%T), want a *SyntaxError", n, err, err)
				}
				if !strings.Contains(se.Msg, "deeper than") {
					t.Errorf("n = %d: error %q does not name the depth limit", n, se)
				}
			}
		})
	}
}
