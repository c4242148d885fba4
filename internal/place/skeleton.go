package place

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/attr"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/match"
	"repro/internal/mpl"
)

// skeleton is the part of Ĝ that Phase III cannot change, built once per
// call: the CFG of the non-checkpoint statements, its message edges, and —
// memoised inside ext for as long as the call lasts — the causal closure of
// every node a round asks about. Rounds only add, move or remove checkpoint
// statements, which carry no assignments, branches, parameters or message
// edges, so none of that depends on where the checkpoints are.
//
// A checkpoint is then a position: the gap between skeleton statements it
// sits in. Checkpoint nodes have one way out and no message edges, so
// whatever Ĝ says about one follows from its gap — what is reachable from
// it is what is reachable from the skeleton node behind the gap, and it is
// reached from wherever a skeleton node flowing into the gap is.
//
// A skeleton is also the call's whole workspace, lent by a pool: its graph,
// data flow, Ĝ, arena, gap layout and round buffers are rebuilt in the
// memory the previous call left, and release clears every slot that refers
// to a program before giving it back. The pool lends memory, never results:
// nothing a call reads was written by another, and what a call returns is
// copied out of the workspace first.
type skeleton struct {
	ext   match.Extended
	df    dataflow.Result
	g     cfg.Graph
	arena cfg.Arena // the closures' bitsets, then noCross's scratch
	cur   analysis  // the rounds' view, each overwriting the last
	// nodeOf maps a statement id to its skeleton node; 0 (the entry, which
	// is no statement's) for checkpoints and unknown ids.
	nodeOf []int32
	// gaps[v] for a node v is the gap in front of statement v in its list
	// (or, for the exit, at the end of the program); the gaps at the ends
	// of while bodies and if branches follow. endGap[v] is the gap at the
	// end of while v's body or if v's then list; the else list's is the
	// next one.
	gaps   []gap
	endGap []int32
	preds  []int32 // backing of every gap's pred list
	// whiles[l] is the while node of loop l (Ĝ numbers loops in program
	// order, as the skeleton numbers nodes); whiles[0], the body's, is 0.
	whiles []int32

	next  int32      // place: the skeleton node the walk expects next
	chain []mpl.Stmt // applyMoves: dominator chain scratch
}

var skeletons = sync.Pool{New: func() any { return new(skeleton) }}

// gap is one position a checkpoint can take.
type gap struct {
	in span // in preds: the skeleton nodes control flows into the gap from
	// node is the skeleton node control reaches next from the gap, back
	// whether it crosses a backward edge on the way (the gap ends a while
	// body, or an if branch that does).
	node int32
	back bool
	// outer is, for the gap at the end of an if branch, the gap behind the
	// if, which control passes through first and node and back are copied
	// from once the layout is complete; −1 elsewhere.
	outer int32
	// What the send-log rule reads of a checkpoint there (crossing.go): the
	// first skeleton node numbered after the gap, its innermost loop and
	// its path attribute, from Ĝ's scopes.
	pos, loop int32
	guard     attr.Predicate
}

// ckpt is one checkpoint statement of the program a round looks at.
type ckpt struct {
	stmt  int // statement id
	index int // straight-cut index
	gap   int32
}

// newSkeleton takes a workspace from the pool, and in it analyses data
// flow, builds the skeleton CFG of p, runs Phase II on it and lays out the
// gaps. The caller gives it back with release.
func newSkeleton(p *mpl.Program) (*skeleton, error) {
	sk := skeletons.Get().(*skeleton)
	if err := sk.build(p); err != nil {
		sk.release()
		return nil, err
	}
	return sk, nil
}

// release clears every slot of the workspace that refers to a program and
// puts it back in the pool. Nothing may use sk afterwards.
func (sk *skeleton) release() {
	sk.ext.Reset()
	sk.df.Reset()
	sk.g.Reset()
	clear(sk.gaps)                  // the guards
	clear(sk.chain[:cap(sk.chain)]) // DomChain leaves what it backed out of past the end
	sk.chain = sk.chain[:0]
	skeletons.Put(sk)
}

func (sk *skeleton) build(p *mpl.Program) error {
	sk.arena.Reset()
	g := &sk.g
	if err := cfg.BuildSkeletonInto(p, g); err != nil {
		return err
	}
	dataflow.AnalyzeInto(p, &sk.df)
	if err := match.MatchInto(p, g, &sk.df, match.Options{Arena: &sk.arena}, &sk.ext); err != nil {
		return err
	}
	n := len(g.Nodes)
	ends := 0
	sk.whiles = append(sk.whiles[:0], 0)
	for _, nd := range g.Nodes {
		switch nd.Stmt.(type) {
		case *mpl.While:
			ends++
			sk.whiles = append(sk.whiles, int32(nd.ID))
		case *mpl.If:
			ends += 2
		}
	}
	sk.nodeOf = zeroed(sk.nodeOf, p.MaxStmtID()+1)
	sk.gaps = slices.Grow(zeroed(sk.gaps, n), ends)
	sk.endGap = zeroed(sk.endGap, n)
	sk.preds = slices.Grow(sk.preds[:0], 2*n)
	sk.next = 1
	in := sk.layout(p.Body, sk.flow(int32(g.Entry)), int32(g.Exit))
	sk.gaps[g.Exit] = gap{in: in, node: int32(g.Exit), outer: -1, pos: int32(g.Exit)}
	// The end of an if branch leads where the gap behind the if leads.
	for i := n; i < len(sk.gaps); i++ {
		o := sk.gaps[i].outer
		if o < 0 {
			continue
		}
		for sk.gaps[o].outer >= 0 {
			o = sk.gaps[o].outer
		}
		sk.gaps[i].node, sk.gaps[i].back = sk.gaps[o].node, sk.gaps[o].back
	}
	return nil
}

// zeroed returns s resized to n zero elements, in its own memory when that
// is large enough.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// span is a range of skeleton.preds.
type span struct{ lo, hi int32 }

// into returns the skeleton nodes that flow into gap g.
func (sk *skeleton) into(g int32) []int32 { return sk.preds[sk.gaps[g].in.lo:sk.gaps[g].in.hi] }

// flow appends nodes to preds as one gap's pred list.
func (sk *skeleton) flow(nodes ...int32) span {
	lo := int32(len(sk.preds))
	sk.preds = append(sk.preds, nodes...)
	return span{lo, int32(len(sk.preds))}
}

// layout records the gaps of one statement list, skeleton nodes numbered in
// program order as cfg.BuildSkeleton numbers them. in is what flows into
// the list's first gap; end is the list's end gap, or the gap that takes
// its place (the program's list ends in front of the exit). It returns
// what flows into that end gap.
func (sk *skeleton) layout(body []mpl.Stmt, in span, end int32) span {
	// pending is the then-end gap of the if just laid out: its branch ends
	// lead into this list's next gap, known once the next statement is.
	pending := int32(-1)
	for _, s := range body {
		if _, ok := s.(*mpl.Chkpt); ok {
			continue
		}
		v := sk.next
		sk.next++
		sk.nodeOf[s.ID()] = v
		loop, _ := sk.ext.Scope(int(v))
		sk.gaps[v] = gap{in: in, node: v, outer: -1, pos: v, loop: loop, guard: sk.ext.PathAttr[v]}
		if pending >= 0 {
			sk.gaps[pending].outer, sk.gaps[pending+1].outer = v, v
			pending = -1
		}
		switch st := s.(type) {
		case *mpl.While:
			e := int32(len(sk.gaps))
			sk.endGap[v] = e
			sk.gaps = append(sk.gaps, gap{node: v, back: true, outer: -1})
			sk.gaps[e].in = sk.layout(st.Body, sk.flow(v), e)
			sk.scope(e)
			in = sk.flow(v)
		case *mpl.If:
			e := int32(len(sk.gaps))
			sk.endGap[v] = e
			sk.gaps = append(sk.gaps, gap{}, gap{})
			t := sk.layout(st.Then, sk.flow(v), e)
			sk.scope(e)
			f := sk.layout(st.Else, sk.flow(v), e+1)
			sk.scope(e + 1)
			sk.gaps[e].in, sk.gaps[e+1].in = t, f
			// Behind the if, both branches' ends flow in.
			in = sk.flow(sk.preds[t.lo:t.hi]...)
			in.hi = sk.flow(sk.preds[f.lo:f.hi]...).hi
			pending = e
		default:
			in = sk.flow(v)
		}
	}
	if pending >= 0 {
		sk.gaps[pending].outer, sk.gaps[pending+1].outer = end, end
	}
	return in
}

// scope gives end gap e, laid out just now, what the send-log rule reads:
// Ĝ numbers the statement lists branches open as the layout adds their
// end gaps, in program order.
func (sk *skeleton) scope(e int32) {
	g := &sk.gaps[e]
	g.pos = sk.next
	g.guard, g.loop = sk.ext.Arm(int(e) - len(sk.g.Nodes))
}

// place puts every checkpoint statement of p, in program order, into a.cks
// with its straight-cut index and its gap. The walk renumbers the skeleton
// statements as it passes them, so a program that is not the skeleton's
// plus checkpoints — a statement added, dropped or reordered — is an
// error here, every round, rather than a stale closure later.
func (sk *skeleton) place(p *mpl.Program, a *analysis) error {
	if a.cks == nil {
		a.cks = make([]ckpt, 0, len(a.enum.Index)+4) // room for equalization's
	}
	a.cks = a.cks[:0]
	sk.next = 1
	exit := int32(sk.g.Exit)
	if !sk.placeList(p.Body, a, exit) || sk.next != exit {
		return fmt.Errorf("place: program %q is no longer its skeleton plus checkpoints (at skeleton node %d of %d)",
			p.Name, sk.next, exit)
	}
	return nil
}

func (sk *skeleton) placeList(body []mpl.Stmt, a *analysis, end int32) bool {
	first := len(a.cks) // the checkpoints since the last skeleton statement
	for _, s := range body {
		if ck, ok := s.(*mpl.Chkpt); ok {
			a.cks = append(a.cks, ckpt{stmt: ck.ID(), index: a.enum.Index[ck.ID()]})
			continue
		}
		v := sk.next
		if int(v) >= sk.ext.G.Exit || sk.ext.G.Nodes[v].Stmt.ID() != s.ID() {
			return false
		}
		sk.next++
		for i := first; i < len(a.cks); i++ {
			a.cks[i].gap = v
		}
		switch st := s.(type) {
		case *mpl.While:
			if !sk.placeList(st.Body, a, sk.endGap[v]) {
				return false
			}
		case *mpl.If:
			if !sk.placeList(st.Then, a, sk.endGap[v]) || !sk.placeList(st.Else, a, sk.endGap[v]+1) {
				return false
			}
		}
		first = len(a.cks)
	}
	for i := first; i < len(a.cks); i++ {
		a.cks[i].gap = end
	}
	return true
}

// causal reports whether Ĝ has a causal path (≥ 1 message edge) from
// checkpoint from to checkpoint to, and whether one of them is acyclic
// (crosses no backward control edge). The message edge lies between
// skeleton nodes, so such a path leaves from's gap, reaches a node that
// flows into to's gap having used one, and steps in; the backward edge
// that ends a while body is the last step out of a gap, never one into it.
func (sk *skeleton) causal(from, to *ckpt) (reaches, acyclic bool) {
	f := &sk.gaps[from.gap]
	for _, u := range sk.into(to.gap) {
		if sk.ext.CausallyReaches(int(f.node), int(u)) {
			if !f.back && !sk.ext.CausalNeedsBack(int(f.node), int(u)) {
				return true, true
			}
			reaches = true
		}
	}
	return reaches, false
}

// preserved reports whether a pair every causal path of which crosses a
// backward edge may stay as it is, an Ordering: both checkpoints lie in a
// uniform loop L, their innermost common one (Ĝ's loop facts), and no
// causal path leaves L through its exit and reaches to without a backward
// edge. A path from inside L reaches the exit by control alone, so that is
// whether to's gap is reached from the exit without a backward edge.
func (sk *skeleton) preserved(from, to *ckpt) bool {
	l := sk.commonUniformLoop(sk.gaps[from.gap].loop, sk.gaps[to.gap].loop)
	if l == 0 {
		return false
	}
	exit := -1
	for _, e := range sk.g.Succs(int(sk.whiles[l])) {
		if e.Kind == cfg.EdgeFalse {
			exit = e.To
		}
	}
	beyond := sk.ext.ReachableExtended(exit, true)
	for _, u := range sk.into(to.gap) {
		if beyond.Has(int(u)) {
			return false
		}
	}
	return true
}

// commonUniformLoop returns the innermost loop enclosing both loop a and
// loop b (each encloses itself) that Ĝ's Loop calls uniform; 0, the body,
// when no loop is.
func (sk *skeleton) commonUniformLoop(a, b int32) int32 {
	depth := func(l int32) (d int) {
		for ; l != 0; l, _ = sk.ext.Loop(l) {
			d++
		}
		return d
	}
	for da, db := depth(a), depth(b); da != db; {
		if da > db {
			a, _ = sk.ext.Loop(a)
			da--
		} else {
			b, _ = sk.ext.Loop(b)
			db--
		}
	}
	for a != b {
		a, _ = sk.ext.Loop(a)
		b, _ = sk.ext.Loop(b)
	}
	for {
		up, uniform := sk.ext.Loop(a)
		if uniform {
			return a
		}
		a = up
	}
}

// reaches reports whether control and message edges of Ĝ lead from
// checkpoint c, a member of the violated straight cut, to s, a statement of
// another member's dominator chain — acyclic: crossing no backward edge.
//
// Paths over checkpoint nodes alone (c to the checkpoints behind it in its
// gap and in the gaps that one continues into) need no looking at: a
// checkpoint they lead to is enumerated after c, one in the chain before
// the member it dominates, and the two members carry the same index.
// Every other path passes f.node — over a backward edge only when asked
// for cyclic reach: an acyclic violation's source has none to cross.
func (sk *skeleton) reaches(a *analysis, c *ckpt, s mpl.Stmt, acyclic bool) bool {
	beyond := sk.ext.ReachableExtended(int(sk.gaps[c.gap].node), acyclic)
	if _, ok := s.(*mpl.Chkpt); !ok {
		return beyond.Has(int(sk.nodeOf[s.ID()]))
	}
	// A checkpoint is reached from whatever flows into its gap.
	xi := 0
	for a.cks[xi].stmt != s.ID() {
		xi++
	}
	for _, u := range sk.into(a.cks[xi].gap) {
		if beyond.Has(int(u)) {
			return true
		}
	}
	return false
}
