package match

import (
	"context"

	"repro/internal/cfg"
	"repro/internal/par"
)

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
// (Figure 6), so the search prefers back-edge-free witnesses.
//
// All searches run over the product graph of (node, used-a-message-edge)
// states, encoded as node<<1|msg, with bitset visited sets and index
// arrays instead of maps. Phase III's quadratic pair queries are answered
// from memoized per-source closures (reachSets) computed by one BFS per
// (source, back-edge policy) — the "memoized graph queries" of the
// pipeline optimization — rather than a fresh search per pair.

// PathStep is one traversed edge in a causal path.
type PathStep struct {
	From, To  int
	IsMessage bool
	IsBack    bool // backward control edge
}

// CausalPath is a witness path between two nodes of Ĝ.
type CausalPath struct {
	Nodes []int
	Steps []PathStep
	// HasBackEdge reports whether the witness traverses a backward control
	// edge. The search returns a back-edge-free witness whenever one
	// exists, so HasBackEdge==true means EVERY causal path between the
	// endpoints needs a back edge.
	HasBackEdge bool
}

// reachSets is the memoized closure of one source node over Ĝ:
//
//	any   — nodes reachable via control+message edges;
//	msg   — nodes reachable having used ≥1 message edge (causal);
//	anyNB — any, with backward control edges forbidden;
//	msgNB — msg, with backward control edges forbidden.
type reachSets struct {
	any, msg, anyNB, msgNB cfg.Bitset
}

// witnessScratch holds the reusable state of the witness-path BFS. Sized
// to the product graph (2 states per node); serial use only.
type witnessScratch struct {
	seen  cfg.Bitset
	queue []int
	prev  []int // predecessor state per state
	step  []PathStep
}

func (x *Extended) getScratch() *witnessScratch {
	n := 2 * len(x.G.Nodes)
	if x.scratch == nil {
		x.scratch = &witnessScratch{
			seen:  x.arena.Bits(n),
			queue: x.arena.Ints(n),
			prev:  x.arena.Ints(n),
			step:  make([]PathStep, n),
		}
	}
	return x.scratch
}

// FindCausalPath returns a causal path (≥1 message edge) from a to b in the
// extended graph, or nil when none exists. Among existing paths it prefers
// one without backward control edges, then fewer steps.
func (x *Extended) FindCausalPath(a, b int) *CausalPath {
	if x.reach != nil && x.reach[a] != nil && !x.reach[a].msg.Has(b) {
		return nil // memoized closure already knows there is no path
	}
	// Two-pass BFS: first forbid back edges entirely; if that fails, allow
	// them. This guarantees the back-edge-free preference.
	for _, allowBack := range []bool{false, true} {
		if p := x.witnessBFS(a, b, allowBack); p != nil {
			return p
		}
	}
	return nil
}

// witnessBFS is a breadth-first search over product states recording
// predecessor links for path reconstruction.
func (x *Extended) witnessBFS(a, b int, allowBack bool) *CausalPath {
	g := x.G
	sc := x.getScratch()
	sc.seen.Zero()
	queue := sc.queue[:0]
	start := a << 1
	sc.seen.Set(start)
	sc.prev[start] = -1
	queue = append(queue, start)
	goal := b<<1 | 1
	for qi := 0; qi < len(queue); qi++ {
		st := queue[qi]
		if st == goal {
			return x.buildPath(sc, st)
		}
		node, msg := st>>1, st&1
		for _, e := range g.Succs(node) {
			isBack := e.Back
			if isBack && !allowBack {
				continue
			}
			nst := e.To<<1 | msg
			if sc.seen.Has(nst) {
				continue
			}
			sc.seen.Set(nst)
			sc.prev[nst] = st
			sc.step[nst] = PathStep{From: e.From, To: e.To, IsBack: isBack}
			queue = append(queue, nst)
		}
		for _, m := range x.msgFrom(node) {
			nst := m.Recv<<1 | 1
			if sc.seen.Has(nst) {
				continue
			}
			sc.seen.Set(nst)
			sc.prev[nst] = st
			sc.step[nst] = PathStep{From: node, To: m.Recv, IsMessage: true}
			queue = append(queue, nst)
		}
	}
	return nil
}

func (x *Extended) buildPath(sc *witnessScratch, end int) *CausalPath {
	var steps []PathStep
	for st := end; sc.prev[st] != -1; st = sc.prev[st] {
		steps = append(steps, sc.step[st])
	}
	// Reverse into forward order.
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	p := &CausalPath{Steps: steps}
	if len(steps) > 0 {
		p.Nodes = append(p.Nodes, steps[0].From)
		for _, s := range steps {
			p.Nodes = append(p.Nodes, s.To)
			if s.IsBack {
				p.HasBackEdge = true
			}
		}
	}
	return p
}

// ContainsNode reports whether the path visits node id.
func (p *CausalPath) ContainsNode(id int) bool {
	for _, n := range p.Nodes {
		if n == id {
			return true
		}
	}
	return false
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
// first use. Not safe for concurrent callers on a cache miss; parallel
// users warm the cache through PrecomputeReach first.
func (x *Extended) reachFor(a int) *reachSets {
	if x.reach == nil || x.reach[a] == nil {
		x.PrecomputeReach([]int{a}, 1) // serial: cannot fail
	}
	return x.reach[a]
}

// carveReach gives rs its four sets.
func (x *Extended) carveReach(rs *reachSets) *reachSets {
	n := len(x.G.Nodes)
	rs.any, rs.msg, rs.anyNB, rs.msgNB = x.arena.Bits(n), x.arena.Bits(n), x.arena.Bits(n), x.arena.Bits(n)
	return rs
}

// fillReach runs the two closure passes for one source. It touches only rs
// and sc (plus the immutable graph), so PrecomputeReach may call it from
// parallel workers.
func (x *Extended) fillReach(a int, rs *reachSets, sc *bfsScratch) {
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
// to b exists — FindCausalPath(a, b) != nil, answered from the memoized
// closure without a per-pair search.
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

// reachJob is one source's pre-carved closure buffers: the arena is not
// concurrent-safe, so PrecomputeReach carves serially and the workers only
// fill disjoint buffers.
type reachJob struct {
	src int
	rs  *reachSets
	sc  *bfsScratch
}

// PrecomputeReach fills the closure cache for those of the given source
// nodes it does not hold yet, fanning the per-source BFS passes across at
// most workers goroutines (par.Workers semantics: 0 = GOMAXPROCS, 1 =
// serial). Each source's closure is deterministic, so the cache — and
// everything answered from it — is identical for every worker count.
func (x *Extended) PrecomputeReach(sources []int, workers int) error {
	n := len(x.G.Nodes)
	if x.reach == nil {
		x.reach = make([]*reachSets, n)
	}
	missing := 0
	for _, src := range sources {
		if x.reach[src] == nil {
			missing++
		}
	}
	if missing == 0 {
		return nil
	}
	// Below this much BFS work the goroutine fan-out costs more than the
	// closures themselves; run serially (the result is identical either
	// way — closures are keyed by source node, not worker).
	const parallelReachThreshold = 1 << 14
	if workers != 1 && missing*2*n < parallelReachThreshold {
		workers = 1
	}
	slab := make([]reachSets, missing)
	if workers == 1 {
		if x.bfs == nil {
			x.bfs = x.newBFSScratch()
		}
		for _, src := range sources {
			if x.reach[src] == nil {
				x.reach[src] = x.carveReach(&slab[0])
				slab = slab[1:]
				x.fillReach(src, x.reach[src], x.bfs)
			}
		}
		return nil
	}
	jobs := make([]reachJob, 0, missing)
	for _, src := range sources {
		if x.reach[src] == nil {
			x.reach[src] = x.carveReach(&slab[0])
			slab = slab[1:]
			jobs = append(jobs, reachJob{src: src, rs: x.reach[src], sc: x.newBFSScratch()})
		}
	}
	return par.ForEach(context.Background(), workers, jobs, func(_ context.Context, _ int, j reachJob) error {
		x.fillReach(j.src, j.rs, j.sc)
		return nil
	})
}
