package match

import "repro/internal/cfg"

// This file implements path search over the extended CFG Ĝ — the engine
// behind Condition 1 and Algorithm 3.2 (§3.3). A *causal path* between two
// checkpoint nodes is a path over control and message edges that uses at
// least one message edge: only such paths can create the happened-before
// relation between checkpoints of DIFFERENT processes (a pure control path
// cannot cross process boundaries). Requiring a message edge refines the
// paper's Condition 1 into an exact test; see DESIGN.md.
//
// The search distinguishes paths that traverse a backward control edge
// from those that do not: the paper's loop-preservation optimization
// (end of §3.3) applies only when every violating path needs a back edge
// (Figure 6), so each source's closure is taken twice, with and without them.
//
// All searches run over the product graph of (node, used-a-message-edge)
// states, encoded as node<<1|msg, with bitset visited sets and index
// arrays instead of maps. Phase III's quadratic pair queries are answered
// from memoized per-source closures (reachSets) computed by one BFS per
// (source, back-edge policy) — the "memoized graph queries" of the
// pipeline optimization — rather than a fresh search per pair.

// reachSets is the memoized closure of one source node over Ĝ:
//
//	any   — nodes reachable via control+message edges;
//	msg   — nodes reachable having used ≥1 message edge (causal);
//	anyNB — any, with backward control edges forbidden;
//	msgNB — msg, with backward control edges forbidden.
type reachSets struct {
	any, msg, anyNB, msgNB cfg.Bitset
}

// ---- memoized closures ----

// bfsScratch is closureBFS's visited set and queue over the product graph.
type bfsScratch struct {
	seen  cfg.Bitset
	queue []int
}

func (x *Extended) newBFSScratch() *bfsScratch {
	n := 2 * len(x.G.Nodes)
	return &bfsScratch{seen: x.arena.Bits(n), queue: x.arena.Ints(n)}
}

// reachFor returns the memoized closure of source node a, computing it on
// first use. Not safe for concurrent callers on a cache miss.
func (x *Extended) reachFor(a int) *reachSets {
	if x.reach == nil || x.reach[a] == nil {
		x.PrecomputeReach([]int{a})
	}
	return x.reach[a]
}

// carveReach gives rs its four sets.
func (x *Extended) carveReach(rs *reachSets) *reachSets {
	n := len(x.G.Nodes)
	rs.any, rs.msg, rs.anyNB, rs.msgNB = x.arena.Bits(n), x.arena.Bits(n), x.arena.Bits(n), x.arena.Bits(n)
	return rs
}

// fillReach runs the two closure passes for one source.
func (x *Extended) fillReach(a int, rs *reachSets) {
	sc := x.bfs
	sc.seen.Zero()
	x.closureBFS(a, true, sc.seen, sc.queue, rs.any, rs.msg)
	sc.seen.Zero()
	x.closureBFS(a, false, sc.seen, sc.queue, rs.anyNB, rs.msgNB)
}

// closureBFS floods the product graph from (a, no-message-yet) and writes
// the node projections of the visited states into any (either product
// state) and msg (the used-a-message-edge state).
func (x *Extended) closureBFS(a int, allowBack bool, seen cfg.Bitset, queue []int, anySet, msgSet cfg.Bitset) {
	g := x.G
	start := a << 1
	seen.Set(start)
	queue = append(queue[:0], start)
	anySet.Set(a)
	for qi := 0; qi < len(queue); qi++ {
		st := queue[qi]
		node, msg := st>>1, st&1
		for _, e := range g.Succs(node) {
			if e.Back && !allowBack {
				continue
			}
			nst := e.To<<1 | msg
			if !seen.Has(nst) {
				seen.Set(nst)
				anySet.Set(e.To)
				if msg == 1 {
					msgSet.Set(e.To)
				}
				queue = append(queue, nst)
			}
		}
		for _, m := range x.msgFrom(node) {
			nst := m.Recv<<1 | 1
			if !seen.Has(nst) {
				seen.Set(nst)
				anySet.Set(m.Recv)
				msgSet.Set(m.Recv)
				queue = append(queue, nst)
			}
		}
	}
}

// CausallyReaches reports whether a causal path (≥1 message edge) from a
// to b exists, answered from the memoized closure without a per-pair search.
func (x *Extended) CausallyReaches(a, b int) bool {
	return x.reachFor(a).msg.Has(b)
}

// CausalNeedsBack reports whether every causal path from a to b traverses
// a backward control edge. Only meaningful when CausallyReaches(a, b).
func (x *Extended) CausalNeedsBack(a, b int) bool {
	return !x.reachFor(a).msgNB.Has(b)
}

// ReachableExtended returns the set of nodes reachable from a via control
// and message edges, message-edge use not required (including a itself).
// With acyclic set, backward control edges are excluded — reachability
// within a single "iteration unrolling", the notion Phase III's
// loop-preservation mode uses. The returned bitset is the memoized cache
// entry; callers must not modify it.
func (x *Extended) ReachableExtended(a int, acyclic bool) cfg.Bitset {
	rs := x.reachFor(a)
	if acyclic {
		return rs.anyNB
	}
	return rs.any
}

// PrecomputeReach fills the closure cache for those of the given source
// nodes it does not hold yet, in one allocation for all of their sets.
func (x *Extended) PrecomputeReach(sources []int) {
	if x.reach == nil {
		x.reach = make([]*reachSets, len(x.G.Nodes))
	}
	missing := 0
	for _, src := range sources {
		if x.reach[src] == nil {
			missing++
		}
	}
	if missing == 0 {
		return
	}
	if x.bfs == nil {
		x.bfs = x.newBFSScratch()
	}
	slab := make([]reachSets, missing)
	for _, src := range sources {
		if x.reach[src] == nil {
			x.reach[src] = x.carveReach(&slab[0])
			slab = slab[1:]
			x.fillReach(src, x.reach[src])
		}
	}
}
