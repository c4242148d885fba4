// Package cfg builds and analyzes control-flow graphs of MPL programs —
// the representation the paper's offline analysis operates on (§2). A CFG
// has an entry and an exit node, branch nodes for loop and condition
// expressions, and dedicated nodes for the send, receive, bcast, and
// checkpoint statements that generate the events of the system model.
// Compute statements (assignments, work) also get nodes so the graph fully
// reflects program order.
//
// The package provides the standard analyses the paper relies on:
// dominators, backward-edge detection (loops), and enumeration of
// checkpoint indexes (the C_i of §2).
// What a structured program makes a matter of reading the AST — which edges
// are backward, which statements dominate which — is read off it (Edge.Back,
// DomChain); the dominator sets stay as the independent derivation.
package cfg

import (
	"fmt"
	"sync"

	"repro/internal/mpl"
)

// NodeKind classifies CFG nodes.
type NodeKind int

// Node kinds.
const (
	KindEntry NodeKind = iota + 1
	KindExit
	KindBranch  // while or if condition
	KindCompute // assign or work
	KindSend
	KindRecv
	KindBcast
	KindReduce
	KindChkpt
)

// String names the kind.
func (k NodeKind) String() string {
	switch k {
	case KindEntry:
		return "entry"
	case KindExit:
		return "exit"
	case KindBranch:
		return "branch"
	case KindCompute:
		return "compute"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindBcast:
		return "bcast"
	case KindReduce:
		return "reduce"
	case KindChkpt:
		return "chkpt"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// EdgeKind classifies control edges.
type EdgeKind uint8

// Edge kinds. Branch nodes emit True/False edges; everything else emits Seq.
const (
	EdgeSeq EdgeKind = iota + 1
	EdgeTrue
	EdgeFalse
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeSeq:
		return "seq"
	case EdgeTrue:
		return "true"
	case EdgeFalse:
		return "false"
	default:
		return fmt.Sprintf("edge(%d)", int(k))
	}
}

// Edge is a directed control edge. Back marks a backward edge — one from
// the end of a while body to the loop's header — and is set as the edge is
// built: in a structured program those are exactly the edges whose target
// dominates their source (§2), which BackEdges derives independently.
type Edge struct {
	From int
	To   int
	Kind EdgeKind
	Back bool
}

// Node is one CFG node.
type Node struct {
	ID   int
	Kind NodeKind
	Stmt mpl.Stmt // nil for entry/exit
}

// Label names the node for diagnostics and DOT rendering. It is computed
// on demand: labels are pure presentation, and eagerly formatting one per
// node used to dominate CFG construction cost.
func (n *Node) Label() string {
	switch n.Kind {
	case KindEntry:
		return "ENTRY"
	case KindExit:
		return "EXIT"
	default:
		return mpl.DescribeStmt(n.Stmt)
	}
}

// Graph is a control-flow graph. Nodes are indexed by ID (dense, starting
// at 0); Entry and Exit name the distinguished nodes.
type Graph struct {
	Nodes []*Node
	Edges []Edge
	Entry int
	Exit  int

	// Grouped adjacency: the edges leaving node id are
	// succs[succOff[id]:succOff[id+1]], built after construction; those
	// entering it preds[predOff[id]:predOff[id+1]], built on the first
	// Preds call (the analyses walk Succs alone). Both are allocation-free
	// to read.
	succs, preds     []Edge
	succOff, predOff []int32

	// Cached analyses. A Graph is immutable after Build, so the predecessor
	// lists, dominator sets and the back edges derived from them are
	// computed at most once; the sync.Once guards make the caches safe
	// under concurrent read-only use.
	predOnce sync.Once
	domOnce  sync.Once
	dom      []Bitset
	backOnce sync.Once
	back     []Edge
}

// Succs returns the edges leaving node id. The returned slice is shared —
// callers must not modify it.
func (g *Graph) Succs(id int) []Edge { return g.succs[g.succOff[id]:g.succOff[id+1]] }

// Preds returns the edges entering node id, in Edges order. The returned
// slice is shared — callers must not modify it.
func (g *Graph) Preds(id int) []Edge {
	g.predOnce.Do(func() {
		g.predOff, g.preds = GroupBy(len(g.Nodes), g.Edges, func(e Edge) int { return e.To })
	})
	return g.preds[g.predOff[id]:g.predOff[id+1]]
}

// builder state for Build. Nodes are carved from one slab sized to the
// statement count (every statement yields exactly one node, plus
// entry/exit), so construction performs no per-node allocation. The
// frontier — the edges waiting for the next node in sequence — is the top
// of one stack: a body's frontier is stack[base:], and an if's
// then-frontier lies directly under its else-frontier, so the two are
// merged by leaving both where they are.
type builder struct {
	g     *Graph
	slab  []Node
	stack []dangling
}

// dangling is a (node, edge-kind) pair awaiting connection to the next
// node in sequence during construction.
type dangling struct {
	from int
	kind EdgeKind
}

func (b *builder) newNode(kind NodeKind, stmt mpl.Stmt) int {
	id := len(b.g.Nodes)
	b.slab = append(b.slab, Node{ID: id, Kind: kind, Stmt: stmt})
	b.g.Nodes = append(b.g.Nodes, &b.slab[len(b.slab)-1])
	return id
}

// connect closes every dangling edge of the frontier stack[base:] on node
// to and pops them.
func (b *builder) connect(base, to int, back bool) {
	for _, d := range b.stack[base:] {
		b.g.Edges = append(b.g.Edges, Edge{From: d.from, To: to, Kind: d.kind, Back: back})
	}
	b.stack = b.stack[:base]
}

func (b *builder) push(from int, kind EdgeKind) {
	b.stack = append(b.stack, dangling{from, kind})
}

// finalize groups Edges by source, the edge order within a node's Succs
// following Edges order.
func (g *Graph) finalize() {
	g.succOff, g.succs = GroupBy(len(g.Nodes), g.Edges, func(e Edge) int { return e.From })
}

// GroupBy sorts items by key — a node id in [0, n) — keeping the order of
// equal keys (a counting sort), and returns the groups' offsets: those with
// key k are grouped[off[k]:off[k+1]].
func GroupBy[T any](n int, items []T, key func(T) int) (off []int32, grouped []T) {
	// Counted two slots up, off[k+1] is where k's group starts; filling the
	// groups advances each to its end, which is where off[k+1] has to point.
	off = make([]int32, n+2)
	for _, it := range items {
		off[key(it)+2]++
	}
	for i := 2; i < n+2; i++ {
		off[i] += off[i-1]
	}
	grouped = make([]T, len(items))
	for _, it := range items {
		k := key(it) + 1
		grouped[off[k]] = it
		off[k]++
	}
	return off[:n+1], grouped
}

// Build constructs the CFG of a program. Each statement yields exactly one
// node; while and if statements yield branch nodes whose True edge enters
// the body/then and whose False edge leaves the loop / enters the else.
func Build(p *mpl.Program) (*Graph, error) { return build(p, false) }

// BuildSkeleton is Build over the program with its checkpoint statements
// left out: the part of the CFG that inserting, moving and removing
// checkpoints cannot change. Nodes are numbered in program order, as in
// Build.
func BuildSkeleton(p *mpl.Program) (*Graph, error) { return build(p, true) }

// countNodes counts the statements of body that get a node.
func countNodes(body []mpl.Stmt, skeleton bool) int {
	n := 0
	for _, s := range body {
		switch st := s.(type) {
		case *mpl.Chkpt:
			if skeleton {
				continue
			}
		case *mpl.While:
			n += countNodes(st.Body, skeleton)
		case *mpl.If:
			n += countNodes(st.Then, skeleton) + countNodes(st.Else, skeleton)
		}
		n++
	}
	return n
}

func build(p *mpl.Program, skeleton bool) (*Graph, error) {
	nstmt := countNodes(p.Body, skeleton) + 2
	b := &builder{
		g: &Graph{
			Nodes: make([]*Node, 0, nstmt),
			Edges: make([]Edge, 0, nstmt+nstmt/2),
		},
		slab:  make([]Node, 0, nstmt),
		stack: make([]dangling, 0, 16),
	}
	entry := b.newNode(KindEntry, nil)
	b.g.Entry = entry
	b.push(entry, EdgeSeq)

	// buildBody adds body's nodes and edges; the frontier is stack[base:]
	// on entry and on return.
	var buildBody func(body []mpl.Stmt, base int) error
	buildBody = func(body []mpl.Stmt, base int) error {
		for _, s := range body {
			var kind NodeKind
			switch s.(type) {
			case *mpl.Assign, *mpl.Work:
				kind = KindCompute
			case *mpl.Send:
				kind = KindSend
			case *mpl.Recv:
				kind = KindRecv
			case *mpl.Bcast:
				kind = KindBcast
			case *mpl.Reduce:
				kind = KindReduce
			case *mpl.Chkpt:
				if skeleton {
					continue
				}
				kind = KindChkpt
			case *mpl.While, *mpl.If:
				kind = KindBranch
			default:
				return fmt.Errorf("cfg: unknown statement type %T", s)
			}
			id := b.newNode(kind, s)
			b.connect(base, id, false)
			switch st := s.(type) {
			case *mpl.While:
				b.push(id, EdgeTrue)
				if err := buildBody(st.Body, base); err != nil {
					return err
				}
				// Backward edges to the loop header.
				b.connect(base, id, true)
				b.push(id, EdgeFalse)
			case *mpl.If:
				b.push(id, EdgeTrue)
				if err := buildBody(st.Then, base); err != nil {
					return err
				}
				b.push(id, EdgeFalse)
				if err := buildBody(st.Else, len(b.stack)-1); err != nil {
					return err
				}
			default:
				b.push(id, EdgeSeq)
			}
		}
		return nil
	}

	if err := buildBody(p.Body, 0); err != nil {
		return nil, err
	}
	exit := b.newNode(KindExit, nil)
	b.g.Exit = exit
	b.connect(0, exit, false)
	b.g.finalize()
	return b.g, nil
}

// Dominators computes the immediate-dominator-free dominator sets: dom[v]
// is the set (as a bitset indexed by node id) of nodes that dominate v. A
// node a dominates b when every path from entry to b includes a (§2).
//
// The result is computed once and cached — the Graph is immutable after
// Build — with all rows carved from one backing array, so repeated queries
// (back-edge tests, Phase III dominator chains) cost nothing. Callers must
// not modify the returned sets.
func (g *Graph) Dominators() []Bitset {
	g.domOnce.Do(g.computeDominators)
	return g.dom
}

func (g *Graph) computeDominators() {
	n := len(g.Nodes)
	words := (n + 63) / 64
	backing := make([]uint64, n*words)
	dom := make([]Bitset, n)
	meet := NewBitset(n)
	for v := range dom {
		dom[v] = Bitset(backing[v*words : (v+1)*words])
		if v == g.Entry {
			dom[v].Set(g.Entry)
		} else {
			for i := 0; i < n; i++ {
				dom[v].Set(i)
			}
		}
	}
	changed := true
	for changed {
		changed = false
		for v := 0; v < n; v++ {
			if v == g.Entry {
				continue
			}
			preds := g.Preds(v)
			if len(preds) == 0 {
				// Unreachable node: dominated by everything (vacuous).
				continue
			}
			meet.CopyFrom(dom[preds[0].From])
			for _, e := range preds[1:] {
				meet.IntersectWith(dom[e.From])
			}
			meet.Set(v)
			if !meet.Equal(dom[v]) {
				dom[v].CopyFrom(meet)
				changed = true
			}
		}
	}
	g.dom = dom
}

// Dominates reports whether a dominates b under the given dominator sets.
func Dominates(dom []Bitset, a, b int) bool { return dom[b].Has(a) }

// BackEdges returns the edges ⟨a,b⟩ where b dominates a — the loop edges of
// the graph (§2's backward edges), derived from the dominator sets. The
// analyses read Edge.Back instead; this is the independent derivation the
// tests hold that flag to, and what DOT renders. The result is cached;
// callers must not modify it.
func (g *Graph) BackEdges() []Edge {
	g.backOnce.Do(func() {
		dom := g.Dominators()
		for _, e := range g.Edges {
			if Dominates(dom, e.To, e.From) {
				g.back = append(g.back, e)
			}
		}
	})
	return g.back
}

// DomChain appends to dst the statements of body whose nodes dominate the
// node of statement target, outermost first, and reports whether target
// was found. In a structured program that is a walk, not a data-flow
// problem: a statement is dominated by the statements in front of it in its
// list — checkpoints included — then by the while or if that encloses the
// list, and so on outward. (A branch's inner statements dominate nothing
// behind the branch.) Graph.Dominators is the independent derivation.
func DomChain(dst []mpl.Stmt, body []mpl.Stmt, target int) ([]mpl.Stmt, bool) {
	mark := len(dst)
	for _, s := range body {
		if s.ID() == target {
			return dst, true
		}
		dst = append(dst, s)
		var found bool
		switch st := s.(type) {
		case *mpl.While:
			dst, found = DomChain(dst, st.Body, target)
		case *mpl.If:
			if dst, found = DomChain(dst, st.Then, target); !found {
				dst, found = DomChain(dst, st.Else, target)
			}
		}
		if found {
			return dst, true
		}
	}
	return dst[:mark], false
}
