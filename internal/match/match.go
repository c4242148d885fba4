// Package match implements Phase II of the paper (§3.2): matching every
// receive node of a program's CFG with its candidate send node(s) and
// adding message edges, producing the extended CFG Ĝ (Algorithm 3.1).
//
// A send can feed a receive when their path attributes (from ID-dependent
// branches) and their destination/source parameters present no
// contradiction — decided exactly by the attr.Solver over bounded process
// counts. Irregular parameters (the paper's data-dependent patterns) match
// liberally. Collective statements (bcast) reduce to send/receive pairs at
// the same node, represented as a self message edge.
//
// The matcher follows the paper's DFS one-to-one rule by default: scanning
// receives in program order, each regular (non-irregular) send is matched
// at most once, mirroring Algorithm 3.1's "if the corresponding send node
// has not yet been matched". This order-respecting pairing is what FIFO
// channels produce at runtime; matching every compatible pair instead
// (Options.Liberal) creates causally-impossible backward edges between
// repeated identical patterns (a later send "feeding" an earlier receive),
// which Phase III can neither satisfy nor repair. As a soundness net for
// Lemma 3.1, any receive left unmatched after the one-to-one pass is
// re-matched liberally against all compatible sends.
//
// Compatibility is decided through precomputed attr.Tables — one per
// communication node, built once per Match call — so the send×receive
// scan performs no expression evaluation (see internal/attr/table.go).
//
// Nothing here looks at checkpoint statements, so g may equally be the
// program's skeleton (cfg.BuildSkeleton): Phase III matches once on that
// and keeps the result for all of its rounds.
package match

import (
	"fmt"

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
	// of ID-dependent branch constraints) of the control context the node
	// executes under. Entry/exit nodes hold the nil ("true") predicate.
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

	arena *cfg.Arena   // optional scratch and closure-set source (may be nil)
	reach []*reachSets // memoized per-source causal closures
	bfs   *bfsScratch  // closureBFS's buffers, built on first use
}

// Options configures the matcher.
type Options struct {
	// Solver decides attribute satisfiability; the zero value uses
	// attr.DefaultSolver.
	Solver attr.Solver
	// Liberal matches every compatible send/receive pair instead of the
	// paper's one-to-one DFS rule. Useful for worst-case analyses; see the
	// package comment for why it is not the default.
	Liberal bool
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
	n := len(g.Nodes)
	x := &Extended{
		G:        g,
		PathAttr: make([]attr.Predicate, n),
		Params:   make([]attr.Param, n),
		arena:    opts.Arena,
	}
	// Path attributes from the structured AST: every statement inherits
	// the ID-dependent branch constraints of its enclosing conditionals.
	// Nodes are in program order, so one walk fills them; a statement g has
	// no node for (a checkpoint, when g is a skeleton) is passed over.
	next := g.Entry + 1
	walkAttrs(p.Body, nil, df, func(s mpl.Stmt, ctx attr.Predicate) {
		if next < n && g.Nodes[next].Stmt != nil && g.Nodes[next].Stmt.ID() == s.ID() {
			x.PathAttr[next] = ctx
			next++
		}
	})
	if next != g.Exit {
		return nil, fmt.Errorf("match: graph has %d statement nodes, program %q matched %d", g.Exit-1, p.Name, next-1)
	}
	// Resolved parameters per node; sends then receives, in node order.
	nsend, nrecv := 0, 0
	for _, nd := range g.Nodes {
		switch nd.Kind {
		case cfg.KindSend:
			nsend++
		case cfg.KindRecv:
			nrecv++
		}
	}
	comm := make([]int, nsend+nrecv)
	x.Messages = make([]MessageEdge, 0, nrecv+8)
	sends, recvs := comm[:0:nsend], comm[nsend:nsend]
	for _, nd := range g.Nodes {
		switch nd.Kind {
		case cfg.KindSend, cfg.KindRecv, cfg.KindBcast, cfg.KindReduce:
			param, ok := df.Params[nd.Stmt.ID()]
			if !ok {
				return nil, fmt.Errorf("match: no resolved parameter for %s", nd.Label())
			}
			x.Params[nd.ID] = param
			if nd.Kind == cfg.KindSend {
				sends = append(sends, nd.ID)
			} else if nd.Kind == cfg.KindRecv {
				recvs = append(recvs, nd.ID)
			}
		}
	}

	// Precompute the per-node satisfiability tables, one per entry of comm;
	// the pair scan below then runs without a single expression evaluation.
	// There are none when the solver bounds exceed the table
	// representation, in which case canMatch falls back to the exact
	// enumeration.
	solver := opts.solver()
	tables := solver.Tables(x.PathAttr, x.Params, comm)
	x.tables, x.comm = tables, comm
	// canMatch takes positions in sends and recvs, not node ids.
	canMatch := func(si, ri int) bool {
		if tables != nil {
			return attr.CanMatchTables(&tables[si], &tables[nsend+ri])
		}
		s, r := sends[si], recvs[ri]
		return solver.CanMatch(x.PathAttr[s], x.Params[s], x.PathAttr[r], x.Params[r])
	}

	matchedSends := opts.Arena.Bits(n)

	// Algorithm 3.1: scan receives (DFS order ≈ node id order for our
	// structured builder), and for each, find candidate sends whose
	// attributes do not contradict. Regular sends match at most once
	// unless Liberal; irregular endpoints always match freely.
	for ri, r := range recvs {
		src := x.Params[r]
		for si, s := range sends {
			dest := x.Params[s]
			if !canMatch(si, ri) {
				continue
			}
			if !opts.Liberal && !dest.Wildcard && !src.Wildcard {
				// Regular pair: one-to-one in program order on both sides.
				if matchedSends.Has(s) {
					continue
				}
				matchedSends.Set(s)
				x.addMessage(s, r)
				break
			}
			// Irregular endpoint (or Liberal): match every compatible pair.
			matchedSends.Set(s)
			x.addMessage(s, r)
		}
	}

	// Soundness fallback (Lemma 3.1 requires every receive to be matched
	// with at least its true sender): re-match any receive the one-to-one
	// pass left bare, ignoring the matched-once rule.
	if !opts.Liberal {
		matchedRecvs := opts.Arena.Bits(n)
		for _, m := range x.Messages {
			matchedRecvs.Set(m.Recv)
		}
		for ri, r := range recvs {
			if matchedRecvs.Has(r) {
				continue
			}
			for si, s := range sends {
				if canMatch(si, ri) {
					x.addMessage(s, r)
				}
			}
		}
	}

	// Collectives: every bcast/reduce node is a matched send/recv pair
	// with itself (bcast: root → all others; reduce: all others → root —
	// either way the causality is between processes at the same
	// statement).
	for _, nd := range g.Nodes {
		if nd.Kind == cfg.KindBcast || nd.Kind == cfg.KindReduce {
			x.addMessage(nd.ID, nd.ID)
		}
	}

	x.sendOff, x.bySend = cfg.GroupBy(n, x.Messages, func(m MessageEdge) int { return m.Send })
	return x, nil
}

func (x *Extended) addMessage(s, r int) {
	x.Messages = append(x.Messages, MessageEdge{Send: s, Recv: r})
}

// Tables returns the send nodes, then the receive nodes, each in node
// order, and beside them their attribute tables: path attribute and
// parameter at every process of every count the solver enumerates. The
// tables are nil when the bounds exceed the table representation.
func (x *Extended) Tables() (nodes []int, tables []attr.Table) { return x.comm, x.tables }

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

// walkAttrs calls visit with every statement of body, in program order, and
// the path attribute it executes under; ctx is the attribute of body itself.
func walkAttrs(body []mpl.Stmt, ctx attr.Predicate, df *dataflow.Result, visit func(mpl.Stmt, attr.Predicate)) {
	for _, s := range body {
		visit(s, ctx)
		switch st := s.(type) {
		case *mpl.While:
			inner := ctx
			if bi := df.Branches[st.ID()]; bi.IDDependent {
				inner = ctx.And(attr.Constraint{Cond: bi.Resolved, Want: true})
			}
			walkAttrs(st.Body, inner, df, visit)
		case *mpl.If:
			thenCtx, elseCtx := ctx, ctx
			if bi := df.Branches[st.ID()]; bi.IDDependent {
				thenCtx = ctx.And(attr.Constraint{Cond: bi.Resolved, Want: true})
				elseCtx = ctx.And(attr.Constraint{Cond: bi.Resolved, Want: false})
			}
			walkAttrs(st.Then, thenCtx, df, visit)
			walkAttrs(st.Else, elseCtx, df, visit)
		}
	}
}
