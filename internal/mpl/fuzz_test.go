package mpl

import (
	"strings"
	"testing"
)

// parseFuzzSeeds is FuzzMPLParse's seed corpus, shared with the lexer
// differential (TestLexerMatchesReference).
var parseFuzzSeeds = []string{
	"",
	"program p\nproc { }",
	"program p\nvar x\nproc { x = 1 }",
	jacobiSrc,
	"program p\nconst K = -3\nvar a, b\nproc { while a < K { chkpt } }",
	"program p\nvar v\nproc { bcast(0, v)\nif rank % 2 == 0 { send(rank + 1, v) } else { recv(rank - 1, v) } }",
	"program p\nvar x\nproc { x = input(rank) % (nproc - 1) }",
	"program p\nproc { chkpt\nchkpt\nchkpt }",
	"program p\nvar x\nproc { if rank == 0 { x = 1 } else if rank == 1 { x = 2 } else { x = 3 } }",
	"program \xff\nproc { }",
	"program p\nproc { while 1 { } }",
	"program p # comment\nproc { } # trailing",
	// Deep nesting: blocks, parentheses and unary operators together.
	"program p\nvar x\nproc { " + strings.Repeat("while 1 { ", 40) + "x = " + strings.Repeat("-(", 200) + "1" +
		strings.Repeat(")", 200) + strings.Repeat(" }", 40) + " }",
}

// FuzzMPLParse checks the parser's crash-freedom and, when parsing succeeds,
// the print/reparse fixpoint: Format(Parse(x)) must itself parse to a
// program that formats identically. Its second property is the lexer
// differential: on every input the in-place lexer yields the token stream,
// or the first error, of the []rune reference it replaced. Run with
// `go test -fuzz FuzzMPLParse`; the seed corpus runs under plain `go test`.
func FuzzMPLParse(f *testing.F) {
	for _, s := range parseFuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		assertLexesLikeReference(t, src)
		p1, err := Parse(src)
		if err != nil {
			return // rejection is fine; crashing is not
		}
		out1 := Format(p1)
		p2, err := Parse(out1)
		if err != nil {
			t.Fatalf("formatted output does not reparse: %v\ninput: %q\nformatted:\n%s", err, src, out1)
		}
		out2 := Format(p2)
		if out1 != out2 {
			t.Fatalf("format not idempotent:\nfirst:\n%s\nsecond:\n%s", out1, out2)
		}
	})
}

// FuzzEval checks the evaluator never panics on checked programs: any
// expression the checker admits either evaluates or returns an error.
func FuzzEval(f *testing.F) {
	exprs := []string{
		"1 + 2 * 3",
		"rank % (nproc - nproc)",
		"1 / (rank - 1)",
		"-(-(-x))",
		"input(input(0))",
		"a && b || !a",
		"x < 3 == 1",
	}
	for _, e := range exprs {
		f.Add(e, 3, 8)
	}
	f.Fuzz(func(t *testing.T, expr string, rank, nproc int) {
		src := "program t\nvar a, b, x\nproc { x = " + expr + " }"
		p, err := Parse(src)
		if err != nil {
			return
		}
		env := &Env{
			Rank:  rank,
			Nproc: nproc,
			Vars:  map[string]int{"a": 1, "b": 2, "x": 0},
			Input: func(i int) int { return i },
		}
		// Must not panic; errors are acceptable (division by zero).
		v, err := Eval(p.Body[0].(*Assign).X, env)
		if err != nil && !strings.Contains(err.Error(), "eval") {
			t.Fatalf("unexpected error type: %v (value %d)", err, v)
		}
	})
}
