// Package match implements Phase II of the paper (§3.2): matching every
// receive node of a program's CFG with its candidate send node(s) and
// adding message edges, producing the extended CFG Ĝ (Algorithm 3.1).
//
// A send feeds a receive when, at some process count n of the solver's
// range, the FIFO channel between their ranks pairs them (pairs.go). Path
// attributes and destination/source parameters say which endpoints a rank
// runs and on which channel; irregular (data-dependent) parameters match
// liberally. A collective (bcast, reduce) is its own correspondent: a
// self message edge.
//
// Nothing here looks at checkpoint statements, so g may equally be the
// program's skeleton (cfg.BuildSkeleton): Phase III matches once on that
// and keeps the result for all of its rounds.
package match

import (
	"fmt"
	"slices"

	"repro/internal/attr"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/mpl"
)

// MessageEdge is one matched send→receive pair in the extended CFG. For
// bcast nodes Send == Recv (the collective is its own correspondent).
type MessageEdge struct {
	Send int // CFG node id of the send (or bcast) node
	Recv int // CFG node id of the recv (or bcast) node
}

// Extended is the extended CFG Ĝ: the control-flow graph plus message
// edges and the attribute information used to derive them.
type Extended struct {
	G        *cfg.Graph
	Messages []MessageEdge
	// PathAttr holds, indexed by CFG node id, the attribute (conjunction
	// of the resolved branch constraints, ID-dependent or over nproc alone)
	// of the control context the node executes under. Entry/exit nodes
	// hold the nil ("true") predicate.
	PathAttr []attr.Predicate
	// Params holds, indexed by CFG node id, the resolved parameter of
	// send/recv/bcast/reduce nodes (the zero Param elsewhere).
	Params []attr.Param

	// Messages grouped by sender: those of send s are
	// bySend[sendOff[s]:sendOff[s+1]], in Messages order.
	sendOff []int32
	bySend  []MessageEdge

	// tables[i] is the attribute table of comm[i]: the send nodes, then the
	// receive nodes, each in node order; nil when the solver's bounds
	// exceed the table representation.
	tables []attr.Table
	comm   []int
	nsend  int
	batch  attr.Batch        // the tables' memory
	cons   []attr.Constraint // the predicates are carved from it
	lo, hi int               // the solver's process counts

	// The program's model, read by the pairing and Phase III's send-log
	// rule: per node, its innermost loop (0: none; loopUp[l] encloses loop
	// l) and whether a data-dependent if encloses it; the loops that vary,
	// not uniform or inside one that is not; the scope of each list a
	// branch opens. pairs has bit r*nsend+s when Ĝ pairs receive position r
	// with send position s; the rest is the pass's scratch (pairs.go).
	loopOf         []int32
	loopUp         []int32
	opaque, varies cfg.Bitset
	arms           []scope
	pairs, into    cfg.Bitset
	off            []int32
	ents, chS, chR []Endpoint

	arena *cfg.Arena   // optional scratch and closure-set source (may be nil)
	reach []*reachSets // memoized per-source causal closures
	spare []reachSets  // where reach's sets are carved from
	bfs   bfsScratch   // closureBFS's buffers, carved on first use
}

// Options configures the matcher.
type Options struct {
	// Solver decides attribute satisfiability; the zero value uses
	// attr.DefaultSolver.
	Solver attr.Solver
	// Arena, when non-nil, supplies the scratch buffers and closure sets of
	// the path searches over the result. The Extended is then only valid
	// until the arena's next Reset. A nil arena means plain allocation.
	Arena *cfg.Arena
}

func (o Options) solver() attr.Solver {
	if o.Solver == (attr.Solver{}) {
		return attr.DefaultSolver
	}
	return o.Solver
}

// BuildExtended runs Phase II on a program: constructs the CFG, analyzes
// data flow, computes path attributes, and matches sends with receives.
func BuildExtended(p *mpl.Program, opts Options) (*Extended, error) {
	g, err := cfg.Build(p)
	if err != nil {
		return nil, err
	}
	df := dataflow.Analyze(p)
	return Match(p, g, df, opts)
}

// Match matches sends and receives on an already-built CFG using an
// existing data-flow result.
func Match(p *mpl.Program, g *cfg.Graph, df *dataflow.Result, opts Options) (*Extended, error) {
	x := &Extended{}
	if err := MatchInto(p, g, df, opts, x); err != nil {
		return nil, err
	}
	return x, nil
}

// MatchInto is Match building Ĝ in x's memory: whatever x held is gone.
func MatchInto(p *mpl.Program, g *cfg.Graph, df *dataflow.Result, opts Options, x *Extended) error {
	x.Reset()
	n := len(g.Nodes)
	x.G, x.arena = g, opts.Arena
	x.PathAttr = slices.Grow(x.PathAttr, n)[:n]
	x.Params = slices.Grow(x.Params, n)[:n]
	x.loopOf = slices.Grow(x.loopOf, n)[:n]
	x.opaque, x.varies = zeroBits(x.opaque, n), zeroBits(x.varies, n)
	x.loopUp = append(x.loopUp, 0)
	// Path attributes from the structured AST: every statement inherits
	// the resolved branch constraints of its enclosing conditionals.
	// Nodes are in program order, so one walk fills them; a statement g has
	// no node for (a checkpoint, when g is a skeleton) is passed over.
	if next := x.walkAttrs(p.Body, scope{}, df, g.Entry+1); next != g.Exit {
		return fmt.Errorf("match: graph has %d statement nodes, program %q matched %d", g.Exit-1, p.Name, next-1)
	}
	// comm holds the sends, then the receives, each in node order.
	x.comm = x.comm[:0]
	for _, kind := range [2]cfg.NodeKind{cfg.KindSend, cfg.KindRecv} {
		for _, nd := range g.Nodes {
			if nd.Kind == kind {
				x.comm = append(x.comm, nd.ID)
			}
		}
		if kind == cfg.KindSend {
			x.nsend = len(x.comm)
		}
	}
	for _, nd := range g.Nodes { // the resolved parameter of each communication node
		switch nd.Kind {
		case cfg.KindSend, cfg.KindRecv, cfg.KindBcast, cfg.KindReduce:
			param, ok := df.Params[nd.Stmt.ID()]
			if !ok {
				return fmt.Errorf("match: no resolved parameter for %s", nd.Label())
			}
			x.Params[nd.ID] = param
		}
	}

	// The pairing reads endpoints off the attribute tables, one per entry
	// of comm, or evaluates them when the bounds exceed the tables.
	solver, nsend, nrecv := opts.solver(), x.nsend, len(x.comm)-x.nsend
	x.tables = solver.TablesInto(&x.batch, x.PathAttr, x.Params, x.comm)
	x.lo, x.hi = solver.Bounds()
	x.pairs = zeroBits(x.pairs, nrecv*nsend)
	for np := x.lo; np <= x.hi; np++ {
		x.pairAt(np, x.pairs)
	}
	x.Messages = slices.Grow(x.Messages, nrecv+8)
	for k := range nrecv * nsend {
		if x.pairs.Has(k) {
			x.addMessage(x.comm[k%nsend], x.comm[nsend+k/nsend])
		}
	}

	// Collectives: a bcast or reduce is its own correspondent, the
	// causality between processes at the same statement.
	for _, nd := range g.Nodes {
		if nd.Kind == cfg.KindBcast || nd.Kind == cfg.KindReduce {
			x.addMessage(nd.ID, nd.ID)
		}
	}

	x.sendOff, x.bySend = cfg.GroupBy(x.sendOff, x.bySend, n, x.Messages, func(m MessageEdge) int { return m.Send })
	return nil
}

// Reset empties x, keeping its memory for the next MatchInto: it drops the
// graph, the arena and every expression x refers to, so the memory keeps no
// program alive.
func (x *Extended) Reset() {
	clear(x.PathAttr)
	clear(x.Params)
	clear(x.cons)
	clear(x.reach)
	clear(x.spare)
	clear(x.arms)
	*x = Extended{
		Messages: x.Messages[:0], PathAttr: x.PathAttr[:0], Params: x.Params[:0],
		sendOff: x.sendOff, bySend: x.bySend, comm: x.comm[:0], batch: x.batch,
		cons: x.cons[:0], reach: x.reach[:0], spare: x.spare[:0],
		loopOf: x.loopOf[:0], loopUp: x.loopUp[:0], opaque: x.opaque, varies: x.varies, arms: x.arms[:0],
		pairs: x.pairs, off: x.off, ents: x.ents, chS: x.chS, chR: x.chR,
	}
}

func (x *Extended) addMessage(s, r int) {
	x.Messages = append(x.Messages, MessageEdge{Send: s, Recv: r})
}

// Comm returns the send nodes, then the receive nodes, each in node order,
// and how many are sends: an Endpoint's Pos indexes it.
func (x *Extended) Comm() (nodes []int, sends int) { return x.comm, x.nsend }

// Bounds returns the process counts the pairing ran over, lo ≤ n ≤ hi.
func (x *Extended) Bounds() (lo, hi int) { return x.lo, x.hi }

// Scope returns node v's innermost loop (0: none) and whether a
// data-dependent if encloses it.
func (x *Extended) Scope(v int) (loop int32, opaque bool) { return x.loopOf[v], x.opaque.Has(v) }

// Arm returns the path attribute and the innermost loop of the k-th
// statement list a branch opens, in program order: a while's body, an
// if's then list and its else list.
func (x *Extended) Arm(k int) (attr.Predicate, int32) { return x.arms[k].path, x.arms[k].loop }

// Loops returns how many loops the program has, its body (loop 0)
// included.
func (x *Extended) Loops() int { return len(x.loopUp) }

// Loop returns the loop directly around loop l and whether l and every
// loop around it have a uniform condition, so that every process entering
// l runs it equally often. Loop(0), the body, is (0, true).
func (x *Extended) Loop(l int32) (up int32, uniform bool) { return x.loopUp[l], !x.varies.Has(int(l)) }

// Holds sets hold[n−lo], for each n of Bounds, to the ranks where pr holds
// at n. It reads the table of a communication node whose path attribute is
// pr where there is one, and evaluates pr elsewhere.
func (x *Extended) Holds(pr attr.Predicate, hold []uint64) {
	i := slices.IndexFunc(x.comm, func(v int) bool { return x.PathAttr[v].Equal(pr) })
	for n := x.lo; n <= x.hi; n++ {
		hold[n-x.lo] = 0
		for p := range n {
			runs := i < 0 && pr.HoldsAt(p, n)
			if i >= 0 {
				runs, _, _ = x.endpoint(i, p, n)
			}
			if runs {
				hold[n-x.lo] |= 1 << p
			}
		}
	}
}

// msgFrom returns the message edges leaving send node s. The slice is
// shared; callers must not modify it.
func (x *Extended) msgFrom(s int) []MessageEdge { return x.bySend[x.sendOff[s]:x.sendOff[s+1]] }

// MessageEdgesAsCFG converts the message edges to cfg.Edge values for DOT
// rendering.
func (x *Extended) MessageEdgesAsCFG() []cfg.Edge {
	out := make([]cfg.Edge, len(x.Messages))
	for i, m := range x.Messages {
		out[i] = cfg.Edge{From: m.Send, To: m.Recv}
	}
	return out
}

// scope is what a statement inherits from the statements around it: its
// path attribute, its innermost loop, and whether a data-dependent if
// encloses it.
type scope struct {
	path   attr.Predicate
	loop   int32
	opaque bool
}

// walkAttrs sets the scope of every statement of body that g has a node
// for, in program order from node next on, and returns the node after the
// last; sc is the scope of body itself.
func (x *Extended) walkAttrs(body []mpl.Stmt, sc scope, df *dataflow.Result, next int) int {
	nodes := x.G.Nodes
	for _, s := range body {
		if next < len(nodes) && nodes[next].Stmt != nil && nodes[next].Stmt.ID() == s.ID() {
			x.PathAttr[next], x.loopOf[next] = sc.path, sc.loop
			if sc.opaque {
				x.opaque.Set(next)
			}
			next++
		}
		switch st := s.(type) {
		case *mpl.While:
			inner, bi := sc, df.Branches[st.ID()]
			inner.loop = int32(len(x.loopUp))
			x.loopUp = append(x.loopUp, sc.loop)
			if !bi.Uniform || x.varies.Has(int(sc.loop)) {
				x.varies.Set(int(inner.loop))
			}
			if bi.Resolved != nil {
				inner.path, x.cons = sc.path.And(x.cons, attr.Constraint{Cond: bi.Resolved, Want: true})
			}
			x.arms = append(x.arms, inner)
			next = x.walkAttrs(st.Body, inner, df, next)
		case *mpl.If:
			then, els := sc, sc
			if bi := df.Branches[st.ID()]; bi.Resolved != nil {
				then.path, x.cons = sc.path.And(x.cons, attr.Constraint{Cond: bi.Resolved, Want: true})
				els.path, x.cons = sc.path.And(x.cons, attr.Constraint{Cond: bi.Resolved, Want: false})
			} else {
				then.opaque, els.opaque = true, true
			}
			x.arms = append(x.arms, then, els)
			next = x.walkAttrs(st.Then, then, df, next)
			next = x.walkAttrs(st.Else, els, df, next)
		}
	}
	return next
}
