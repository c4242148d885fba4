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

	// Grouped adjacency, built once after construction: the edges leaving
	// node id are succs[succOff[id]:succOff[id+1]], those entering it
	// preds[predOff[id]:predOff[id+1]], so Succs and Preds are
	// allocation-free.
	succs, preds     []Edge
	succOff, predOff []int32

	// Cached analyses. A Graph is immutable after Build, so dominator sets
	// and the back edges derived from them are computed at most once; the
	// sync.Once guards make the caches safe under concurrent read-only use.
	domOnce  sync.Once
	dom      []Bitset
	backOnce sync.Once
	back     []Edge
}

// Succs returns the edges leaving node id. The returned slice is shared —
// callers must not modify it.
func (g *Graph) Succs(id int) []Edge { return g.succs[g.succOff[id]:g.succOff[id+1]] }

// Preds returns the edges entering node id. The returned slice is shared —
// callers must not modify it.
func (g *Graph) Preds(id int) []Edge { return g.preds[g.predOff[id]:g.predOff[id+1]] }

// builder state for Build. Nodes are carved from one slab sized to the
// statement count (every statement yields exactly one node, plus
// entry/exit), so construction performs no per-node allocation. spare
// recycles dead frontier backings (see Build) so nested control flow
// stops allocating once the deepest nesting has been visited.
type builder struct {
	g     *Graph
	slab  []Node
	spare [][]dangling
}

// dangling is a (node, edge-kind) pair awaiting connection to the next
// node in sequence during construction.
type dangling struct {
	from int
	kind EdgeKind
}

// take returns a length-1 frontier holding d, reusing a recycled backing
// when one is available. An empty freelist is refilled in bulk: one slab
// carved into fixed-capacity slots, so deep if/while nests cost one
// allocation per eight frontiers instead of one each. The slots use
// three-index slices, so a frontier outgrowing its slot reallocates
// normally rather than bleeding into a sibling.
func (b *builder) take(d dangling) []dangling {
	if len(b.spare) == 0 {
		// Slots lost to un-recyclable frontiers (merges, the final frontier)
		// drain the freelist a little every build; 32 slots per refill keeps
		// the cached-build steady state at one slab per several rounds.
		const slots, slotCap = 32, 4
		slab := make([]dangling, slots*slotCap)
		for i := 0; i < slots; i++ {
			lo := i * slotCap
			b.spare = append(b.spare, slab[lo:lo:lo+slotCap])
		}
	}
	k := len(b.spare)
	s := b.spare[k-1][:0]
	b.spare = b.spare[:k-1]
	return append(s, d)
}

// recycle donates a dead frontier's backing to later take calls. Callers
// must guarantee no live slice shares it.
func (b *builder) recycle(f []dangling) {
	if cap(f) > 0 {
		b.spare = append(b.spare, f[:0])
	}
}

func (b *builder) newNode(kind NodeKind, stmt mpl.Stmt) int {
	id := len(b.g.Nodes)
	b.slab = append(b.slab, Node{ID: id, Kind: kind, Stmt: stmt})
	b.g.Nodes = append(b.g.Nodes, &b.slab[len(b.slab)-1])
	return id
}

// connect closes every dangling edge of frontier on node to.
func (b *builder) connect(frontier []dangling, to int, back bool) {
	for _, d := range frontier {
		b.g.Edges = append(b.g.Edges, Edge{From: d.from, To: to, Kind: d.kind, Back: back})
	}
}

// finalize builds the grouped adjacency: Edges by source and by target,
// the edge order within a node's Succs/Preds following Edges order.
func (g *Graph) finalize() {
	n := len(g.Nodes)
	g.succOff, g.succs = GroupBy(n, g.Edges, func(e Edge) int { return e.From })
	g.predOff, g.preds = GroupBy(n, g.Edges, func(e Edge) int { return e.To })
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
		slab: make([]Node, 0, nstmt),
	}
	entry := b.newNode(KindEntry, nil)
	b.g.Entry = entry

	var buildBody func(body []mpl.Stmt, frontier []dangling) ([]dangling, error)
	buildBody = func(body []mpl.Stmt, frontier []dangling) ([]dangling, error) {
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
				return nil, fmt.Errorf("cfg: unknown statement type %T", s)
			}
			id := b.newNode(kind, s)
			b.connect(frontier, id, false)
			switch st := s.(type) {
			case *mpl.While:
				bodyEnd, err := buildBody(st.Body, b.take(dangling{id, EdgeTrue}))
				if err != nil {
					return nil, err
				}
				// Backward edges to the loop header.
				b.connect(bodyEnd, id, true)
				b.recycle(bodyEnd)
				frontier = append(frontier[:0], dangling{id, EdgeFalse})
			case *mpl.If:
				thenEnd, err := buildBody(st.Then, b.take(dangling{id, EdgeTrue}))
				if err != nil {
					return nil, err
				}
				elseEnd, err := buildBody(st.Else, b.take(dangling{id, EdgeFalse}))
				if err != nil {
					return nil, err
				}
				merged := append(thenEnd, elseEnd...)
				// elseEnd's backing was copied out; thenEnd's was either
				// extended in place (now owned by merged) or, if append
				// grew, also left dead — only the provably dead one is safe
				// to recycle.
				b.recycle(elseEnd)
				frontier = merged
			default:
				// The incoming frontier's entries were just consumed by
				// connect, so its backing can host the successor frontier —
				// the straight-line common case allocates nothing.
				frontier = append(frontier[:0], dangling{id, EdgeSeq})
			}
		}
		return frontier, nil
	}

	frontier, err := buildBody(p.Body, []dangling{{entry, EdgeSeq}})
	if err != nil {
		return nil, err
	}
	exit := b.newNode(KindExit, nil)
	b.g.Exit = exit
	b.connect(frontier, exit, false)
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
