package cfg

import (
	"errors"
	"testing"

	"repro/internal/mpl"
)

// FuzzCFGBuild checks that any program the parser and checker admit builds
// a structurally sound CFG: Build never panics, every edge stays in range,
// the exit is reachable from the entry, dominators compute and agree with
// what Build read off the AST (back edges, dominator chains, the skeleton),
// and checkpoint enumeration either succeeds with positive indexes or
// reports a well-formed ambiguity error. Run with `go test -fuzz FuzzCFGBuild`; the
// seed corpus runs under plain `go test`.
func FuzzCFGBuild(f *testing.F) {
	seeds := []string{
		"program p\nproc { }",
		"program p\nvar x\nproc { chkpt\nx = 1\nchkpt }",
		"program p\nvar a, t\nproc { while a < 3 { chkpt\nsend(rank + 1, a)\nrecv(rank - 1, t)\na = a + 1 } }",
		"program p\nvar v\nproc { if rank % 2 == 0 { chkpt\nsend(rank + 1, v) } else { recv(rank - 1, v)\nchkpt } }",
		"program p\nvar v\nproc { bcast(0, v)\nreduce(0, v)\nchkpt }",
		"program p\nvar j\nproc { while j < 2 { while j < 1 { chkpt\nj = j + 1 } } }",
		"program p\nvar x\nproc { if rank == 0 { x = 1 } else if rank == 1 { chkpt } else { x = 3 } }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := mpl.Parse(src)
		if err != nil {
			return
		}
		if err := mpl.Check(p); err != nil {
			return
		}
		g, err := Build(p)
		if err != nil {
			return // rejection is fine; crashing is not
		}
		for _, e := range g.Edges {
			if e.From < 0 || e.From >= len(g.Nodes) || e.To < 0 || e.To >= len(g.Nodes) {
				t.Fatalf("edge %+v out of node range [0, %d)", e, len(g.Nodes))
			}
		}
		if !reach(g, g.Entry, false).Has(g.Exit) {
			t.Fatal("exit not reachable from entry")
		}
		dom := g.Dominators()
		if len(dom) != len(g.Nodes) {
			t.Fatalf("dominator sets: %d, nodes: %d", len(dom), len(g.Nodes))
		}
		if !Dominates(dom, g.Entry, g.Exit) {
			t.Fatal("entry does not dominate exit")
		}
		checkStructure(t, p, g)
		enum := new(Enumeration)
		if err := EnumerateInto(p, enum); err != nil {
			var amb *AmbiguousError
			if !errors.As(err, &amb) {
				t.Fatalf("EnumerateInto failed without an ambiguity: %v", err)
			}
			return
		}
		for id, idx := range enum.Index {
			if idx < 1 || idx > enum.Count {
				t.Fatalf("stmt #%d enumerated with index %d outside [1, %d]", id, idx, enum.Count)
			}
		}
	})
}
