package cfg

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mpl"
)

func mustParse(t *testing.T, src string) *mpl.Program {
	t.Helper()
	p, err := mpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustBuild(t *testing.T, p *mpl.Program) *Graph {
	t.Helper()
	g, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func nodesOfKind(g *Graph, kind NodeKind) []int {
	var ids []int
	for _, n := range g.Nodes {
		if n.Kind == kind {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// reach returns the nodes reachable from start, start included: along
// successor edges, or along predecessor edges when backward is set.
func reach(g *Graph, start int, backward bool) Bitset {
	seen := NewBitset(len(g.Nodes))
	seen.Set(start)
	for stack := []int{start}; len(stack) > 0; {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		edges := g.Succs(v)
		if backward {
			edges = g.Preds(v)
		}
		for _, e := range edges {
			w := e.To
			if backward {
				w = e.From
			}
			if !seen.Has(w) {
				seen.Set(w)
				stack = append(stack, w)
			}
		}
	}
	return seen
}

func TestBuildStraightLine(t *testing.T) {
	p := mustParse(t, `
program straight
var x
proc {
    x = 1
    chkpt
    send(rank + 1, x)
}
`)
	g := mustBuild(t, p)
	// entry, compute, chkpt, send, exit
	if len(g.Nodes) != 5 {
		t.Fatalf("nodes = %d, want 5", len(g.Nodes))
	}
	wantKinds := []NodeKind{KindEntry, KindCompute, KindChkpt, KindSend, KindExit}
	for i, k := range wantKinds {
		if g.Nodes[i].Kind != k {
			t.Errorf("node %d kind = %v, want %v", i, g.Nodes[i].Kind, k)
		}
	}
	if len(g.Edges) != 4 {
		t.Errorf("edges = %d, want 4", len(g.Edges))
	}
	// Chain property: every non-exit node has exactly one successor.
	for _, n := range g.Nodes {
		if n.ID != g.Exit && len(g.Succs(n.ID)) != 1 {
			t.Errorf("node %d has %d successors", n.ID, len(g.Succs(n.ID)))
		}
	}
}

func TestBuildWhileLoop(t *testing.T) {
	p := mustParse(t, `
program loop
var i
proc {
    while i < 3 {
        i = i + 1
    }
}
`)
	g := mustBuild(t, p)
	branches := nodesOfKind(g, KindBranch)
	if len(branches) != 1 {
		t.Fatalf("branches = %v", branches)
	}
	w := branches[0]
	succs := g.Succs(w)
	if len(succs) != 2 {
		t.Fatalf("while successors = %d, want 2", len(succs))
	}
	kinds := map[EdgeKind]int{}
	for _, e := range succs {
		kinds[e.Kind] = e.To
	}
	if _, ok := kinds[EdgeTrue]; !ok {
		t.Error("while lacks true edge")
	}
	if to, ok := kinds[EdgeFalse]; !ok || g.Nodes[to].Kind != KindExit {
		t.Error("while false edge should go to exit")
	}
	// Back edge from loop body to while header.
	backs := g.BackEdges()
	if len(backs) != 1 || backs[0].To != w {
		t.Fatalf("back edges = %v, want one into node %d", backs, w)
	}
}

func TestBuildIfElse(t *testing.T) {
	p := mustParse(t, `
program branchy
var x
proc {
    if rank % 2 == 0 {
        send(rank + 1, x)
    } else {
        recv(rank - 1, x)
    }
    x = 0
}
`)
	g := mustBuild(t, p)
	br := nodesOfKind(g, KindBranch)[0]
	var thenTo, elseTo int
	for _, e := range g.Succs(br) {
		switch e.Kind {
		case EdgeTrue:
			thenTo = e.To
		case EdgeFalse:
			elseTo = e.To
		}
	}
	if g.Nodes[thenTo].Kind != KindSend {
		t.Errorf("then target = %v", g.Nodes[thenTo].Kind)
	}
	if g.Nodes[elseTo].Kind != KindRecv {
		t.Errorf("else target = %v", g.Nodes[elseTo].Kind)
	}
	// Both branches join at the final compute.
	joins := nodesOfKind(g, KindCompute)
	join := joins[len(joins)-1]
	if len(g.Preds(join)) != 2 {
		t.Errorf("join preds = %d, want 2", len(g.Preds(join)))
	}
	if len(g.BackEdges()) != 0 {
		t.Errorf("if/else should have no back edges")
	}
}

func TestBuildEmptyElse(t *testing.T) {
	p := mustParse(t, `
program halfif
var x
proc {
    if rank == 0 {
        x = 1
    }
    x = 2
}
`)
	g := mustBuild(t, p)
	br := nodesOfKind(g, KindBranch)[0]
	// False edge goes directly to the statement after the if.
	var falseTo int
	for _, e := range g.Succs(br) {
		if e.Kind == EdgeFalse {
			falseTo = e.To
		}
	}
	n := g.Nodes[falseTo]
	if n.Kind != KindCompute {
		t.Fatalf("false target kind = %v", n.Kind)
	}
	if as, ok := n.Stmt.(*mpl.Assign); !ok || mpl.ExprString(as.X) != "2" {
		t.Errorf("false target stmt = %v", n.Label())
	}
}

func TestDominators(t *testing.T) {
	p := corpus.JacobiFig2(2)
	g := mustBuild(t, p)
	dom := g.Dominators()
	// Entry dominates everything.
	for _, n := range g.Nodes {
		if !Dominates(dom, g.Entry, n.ID) {
			t.Errorf("entry does not dominate node %d", n.ID)
		}
		if !Dominates(dom, n.ID, n.ID) {
			t.Errorf("node %d does not dominate itself", n.ID)
		}
	}
	// The while header dominates everything inside the loop, including both
	// checkpoint nodes.
	whileID := -1
	for _, n := range g.Nodes {
		if n.Kind == KindBranch {
			if _, ok := n.Stmt.(*mpl.While); ok {
				whileID = n.ID
				break
			}
		}
	}
	if whileID < 0 {
		t.Fatal("no while node")
	}
	for _, c := range nodesOfKind(g, KindChkpt) {
		if !Dominates(dom, whileID, c) {
			t.Errorf("while does not dominate checkpoint node %d", c)
		}
	}
	// A then-branch node does not dominate the join.
	ifID := -1
	for _, n := range g.Nodes {
		if n.Kind == KindBranch {
			if _, ok := n.Stmt.(*mpl.If); ok {
				ifID = n.ID
			}
		}
	}
	var thenFirst int
	for _, e := range g.Succs(ifID) {
		if e.Kind == EdgeTrue {
			thenFirst = e.To
		}
	}
	if Dominates(dom, thenFirst, g.Exit) {
		t.Error("then-branch node should not dominate exit")
	}
}

func TestEnumerateJacobiFig1(t *testing.T) {
	p := corpus.JacobiFig1(2)
	enum := new(Enumeration)
	if err := EnumerateInto(p, enum); err != nil {
		t.Fatal(err)
	}
	if enum.Count != 1 {
		t.Fatalf("Count = %d, want 1", enum.Count)
	}
	if len(enum.Index) != 1 {
		t.Fatalf("Index = %v", enum.Index)
	}
	for _, idx := range enum.Index {
		if idx != 1 {
			t.Errorf("index = %d, want 1", idx)
		}
	}
}

func TestEnumerateJacobiFig2BothBranchesIndex1(t *testing.T) {
	p := corpus.JacobiFig2(2)
	enum := new(Enumeration)
	if err := EnumerateInto(p, enum); err != nil {
		t.Fatal(err)
	}
	if enum.Count != 1 {
		t.Fatalf("Count = %d, want 1", enum.Count)
	}
	var ids []int
	for id, idx := range enum.Index {
		if idx == 1 {
			ids = append(ids, id)
		}
	}
	if len(ids) != 2 {
		t.Fatalf("S_1 = %v, want two checkpoint statements", ids)
	}
	g := mustBuild(t, p)
	for _, nid := range nodesOfKind(g, KindChkpt) {
		if idx, ok := enum.Index[g.Nodes[nid].Stmt.ID()]; !ok || idx != 1 {
			t.Errorf("checkpoint node %d: index %d (enumerated %v), want 1", nid, idx, ok)
		}
	}
}

func TestEnumerateSequence(t *testing.T) {
	p := mustParse(t, `
program seq
var x
proc {
    chkpt
    x = 1
    chkpt
    while x < 3 {
        chkpt
        x = x + 1
    }
    chkpt
}
`)
	enum := new(Enumeration)
	if err := EnumerateInto(p, enum); err != nil {
		t.Fatal(err)
	}
	if enum.Count != 4 {
		t.Fatalf("Count = %d, want 4", enum.Count)
	}
	// Indexes should be 1..4 in order of appearance.
	var got []int
	mpl.Walk(p.Body, func(s mpl.Stmt) bool {
		if _, ok := s.(*mpl.Chkpt); ok {
			got = append(got, enum.Index[s.ID()])
		}
		return true
	})
	for i, idx := range got {
		if idx != i+1 {
			t.Errorf("checkpoint %d index = %d, want %d", i, idx, i+1)
		}
	}
}

func TestEnumerateAmbiguous(t *testing.T) {
	p := mustParse(t, `
program amb
var x
proc {
    if rank == 0 {
        chkpt
    }
    chkpt
}
`)
	err := EnumerateInto(p, new(Enumeration))
	if err == nil {
		t.Fatal("ambiguous program accepted")
	}
	var ae *AmbiguousError
	if !asAmbiguous(err, &ae) {
		t.Fatalf("error type = %T", err)
	}
	if !strings.Contains(err.Error(), "then-branch yields 1") {
		t.Errorf("error = %v", err)
	}
}

func asAmbiguous(err error, target **AmbiguousError) bool {
	ae, ok := err.(*AmbiguousError)
	if ok {
		*target = ae
	}
	return ok
}

func TestEnumerateEqualBranches(t *testing.T) {
	p := corpus.PipelineStages(1)
	enum := new(Enumeration)
	if err := EnumerateInto(p, enum); err != nil {
		t.Fatal(err)
	}
	if enum.Count != 1 || len(enum.Index) != 2 {
		t.Fatalf("enum = %+v", enum)
	}
}

func TestDOTOutput(t *testing.T) {
	p := corpus.JacobiFig2(1)
	g := mustBuild(t, p)
	dot := g.DOT("jacobi", []Edge{{From: 3, To: 4}})
	for _, want := range []string{"digraph", "ENTRY", "EXIT", "diamond", "doubleoctagon", "style=dashed", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestBuildAllCorpus(t *testing.T) {
	for name, p := range corpus.All() {
		t.Run(name, func(t *testing.T) {
			g := mustBuild(t, p)
			// Structural sanity on every corpus program.
			if g.Nodes[g.Entry].Kind != KindEntry || g.Nodes[g.Exit].Kind != KindExit {
				t.Fatal("entry/exit malformed")
			}
			fromEntry, toExit := reach(g, g.Entry, false), reach(g, g.Exit, true)
			if !fromEntry.Has(g.Exit) {
				t.Fatal("exit unreachable")
			}
			if len(g.Preds(g.Entry)) != 0 {
				t.Error("entry has predecessors")
			}
			if len(g.Succs(g.Exit)) != 0 {
				t.Error("exit has successors")
			}
			// Every node reachable from entry; every node reaches exit.
			for _, n := range g.Nodes {
				if !fromEntry.Has(n.ID) {
					t.Errorf("node %d (%s) unreachable", n.ID, n.Label())
				}
				if !toExit.Has(n.ID) {
					t.Errorf("node %d (%s) cannot reach exit", n.ID, n.Label())
				}
			}
			// Statement count matches node count minus entry/exit.
			if got, want := len(g.Nodes)-2, p.StmtCount(); got != want {
				t.Errorf("stmt nodes = %d, program stmts = %d", got, want)
			}
			checkStructure(t, p, g)
		})
	}
}

// TestPredsGroupEdgesByTarget holds the predecessor lists, built on the
// first Preds call, to Edges grouped by To in Edges order, on Build and
// BuildSkeleton of every corpus program. Several goroutines make the first
// call at once, so the race detector covers the lazy build.
func TestPredsGroupEdgesByTarget(t *testing.T) {
	for name, p := range corpus.All() {
		for _, build := range []func(*mpl.Program) (*Graph, error){Build, BuildSkeleton} {
			g, err := build(p)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]Edge, len(g.Nodes))
			for _, e := range g.Edges {
				want[e.To] = append(want[e.To], e)
			}
			var wg sync.WaitGroup
			for range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for v := range g.Nodes {
						if got := g.Preds(v); !slices.Equal(got, want[v]) {
							t.Errorf("%s: Preds(%d) = %v, want %v", name, v, got, want[v])
						}
					}
				}()
			}
			wg.Wait()
		}
	}
}

// checkStructure holds what Build reads off the AST — which edges are
// backward, which statements dominate which, what the skeleton is — to
// the independent derivations: the dominator sets, and Build on a copy of
// the program with its checkpoints deleted.
func checkStructure(t *testing.T, p *mpl.Program, g *Graph) {
	t.Helper()
	dom := g.Dominators()
	nback := 0
	for _, e := range g.Edges {
		if e.Back != Dominates(dom, e.To, e.From) {
			t.Errorf("edge %d→%d: Back = %v, target dominates source = %v", e.From, e.To, e.Back, !e.Back)
		}
		if e.Back {
			nback++
		}
	}
	if got := len(g.BackEdges()); got != nback {
		t.Errorf("BackEdges() = %d edges, %d marked Back", got, nback)
	}
	for _, n := range g.Nodes {
		if n.Stmt == nil {
			continue
		}
		// The strict dominators of n other than the entry, outermost first.
		var want []int
		for _, d := range dom[n.ID].AppendMembers(nil) {
			if d != n.ID && d != g.Entry {
				want = append(want, d)
			}
		}
		sort.Slice(want, func(i, j int) bool { return Dominates(dom, want[i], want[j]) })
		chain, ok := DomChain(nil, p.Body, n.Stmt.ID())
		if !ok || len(chain) != len(want) {
			t.Fatalf("DomChain(%s) = %d statements (found %v), dominator sets give %d", n.Label(), len(chain), ok, len(want))
		}
		for i, s := range chain {
			if g.Nodes[want[i]].Stmt.ID() != s.ID() {
				t.Fatalf("DomChain(%s)[%d] = %s, dominator sets give %s", n.Label(), i, mpl.DescribeStmt(s), g.Nodes[want[i]].Label())
			}
		}
	}

	bare := mpl.Clone(p)
	var strip func(body []mpl.Stmt) []mpl.Stmt
	strip = func(body []mpl.Stmt) []mpl.Stmt {
		out := body[:0]
		for _, s := range body {
			switch st := s.(type) {
			case *mpl.Chkpt:
				continue
			case *mpl.While:
				st.Body = strip(st.Body)
			case *mpl.If:
				st.Then, st.Else = strip(st.Then), strip(st.Else)
			}
			out = append(out, s)
		}
		return out
	}
	bare.Body = strip(bare.Body)
	want, err := Build(bare)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := BuildSkeleton(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sk.Edges, want.Edges) || len(sk.Nodes) != len(want.Nodes) {
		t.Fatalf("BuildSkeleton differs from Build without checkpoints:\n%v\n%v", sk.Edges, want.Edges)
	}
	for i, n := range sk.Nodes {
		if w := want.Nodes[i]; n.Kind != w.Kind || n.ID != w.ID || (n.Stmt != nil && n.Stmt.ID() != w.Stmt.ID()) {
			t.Fatalf("skeleton node %d = %s, want %s", i, n.Label(), w.Label())
		}
		if !reflect.DeepEqual(sk.Succs(i), want.Succs(i)) || !reflect.DeepEqual(sk.Preds(i), want.Preds(i)) {
			t.Fatalf("skeleton node %d: adjacency differs", i)
		}
	}
}

func TestBitset(t *testing.T) {
	b := NewBitset(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Has(0) || !b.Has(64) || !b.Has(129) || b.Has(1) {
		t.Fatal("set/has broken")
	}
	if b.Count() != 3 {
		t.Fatalf("Count = %d", b.Count())
	}
	members := b.AppendMembers(nil)
	if len(members) != 3 || members[0] != 0 || members[1] != 64 || members[2] != 129 {
		t.Fatalf("AppendMembers(nil) = %v", members)
	}
	o := NewBitset(130)
	o.Set(0)
	b.IntersectWith(o)
	if !b.Has(0) || b.Has(64) || b.Has(129) {
		t.Fatal("intersect broken")
	}
	o.Set(7)
	b.UnionWith(o)
	if !b.Has(7) {
		t.Fatal("union broken")
	}
	if !b.Equal(o) {
		t.Fatalf("Equal broken: %v vs %v", b.AppendMembers(nil), o.AppendMembers(nil))
	}
}

func BenchmarkBuildJacobi(b *testing.B) {
	p := corpus.JacobiFig2(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDominators(b *testing.B) {
	p := corpus.MasterWorker(4)
	g, err := Build(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dominators()
	}
}
