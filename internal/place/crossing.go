package place

import (
	"slices"

	"repro/internal/attr"
	"repro/internal/cfg"
	"repro/internal/mpl"
)

// This file decides which sends need a send-log record (DESIGN decision 30).
// Recovery under the coordination-free scheme only ever rolls back to a
// straight cut R_i, and rebuilds a channel from its log only for the
// messages in flight across that cut: sent before the sender's C_i, received
// after the receiver's. A send none of whose messages can be in flight at
// any straight cut needs no record.
//
// The analysis proves channels empty. Channel p→q is empty at R_i when the
// sends p made to q before its C_i number exactly the receives q made from p
// before its own C_i. That count is a path question on the skeleton Ĝ's
// communication nodes, answered per (n, p, q) over the solver's bounded
// process counts, the same bound Phase II's matching rests on, with each
// node's path attribute and peer read off its attribute table:
//
//   - every loop holding a communication or a checkpoint runs as often on
//     every process that enters it: its condition is neither ID-dependent
//     nor reads a value that differs between processes (uniformVars);
//   - every if holding a communication is ID-dependent, so which of a
//     loop body's communications a process executes is the same in every
//     iteration and is its path attribute;
//   - for every such loop and channel, one iteration sends as many messages
//     as it receives — so whole iterations, and whole loops, leave a
//     channel's balance as they found it;
//   - for every index i and channel p→q, the sends p makes to q before its
//     C_i, counting only the part of each loop iteration on C_i's own chain
//     of loops, number the receives q makes from p before its C_i.
//
// Together these say the balance of p→q at the k-th instance of every
// straight cut is the last sum, 0: nothing is in flight, whatever k. The
// result is the set of channels, per process count, the counts prove empty
// (mpl.Program.Quiet): a send on one of them writes no record. Every other
// send logs — on a channel the counts leave unproved, at a process count
// past the solver's bound, and in a program outside the first two
// conditions or with a collective or a wildcard peer, which proves nothing.

// noCross returns the channels that no straight cut of p (the program of
// the skeleton's final round, whose nck checkpoints enum numbers) can have
// a message in flight on, at each process count of the solver's bound —
// nil when it proves none — and how many send statements some process runs
// there and only ever on those channels. It is the skeleton's last use: it recycles the arena.
func (sk *skeleton) noCross(p *mpl.Program, enum *cfg.Enumeration, nck int) (quiet mpl.ChannelSet, quietSends int) {
	g := sk.ext.G
	// comm and tabs: the send nodes, then the receive nodes, and their tables.
	comm, tabs := sk.ext.Tables()
	sends, branches := 0, 0
	for _, nd := range g.Nodes {
		switch nd.Kind {
		case cfg.KindBcast, cfg.KindReduce:
			return nil, 0
		case cfg.KindSend:
			sends++
		case cfg.KindBranch:
			branches++
		}
	}
	uniform, ok := uniformVars(p)
	if sends == 0 || tabs == nil || !ok {
		return nil, 0
	}
	for _, v := range comm {
		if sk.ext.Params[v].Wildcard {
			return nil, 0
		}
	}
	lo, hi := tabs[0].Bounds()
	// The fixpoint is over and nothing reads its closures again: the scratch
	// below reuses their memory.
	arena := &sk.arena
	arena.Reset()
	w := crossWalk{
		sk: sk, p: p, enum: enum, uniform: uniform, comm: comm, sends: sends,
		lo: lo, hi: hi, tabs: tabs,
		loopOf: arena.Ints(len(comm)),
		ck:     arena.Ints(3 * nck),
		ckHold: arena.Bits(64 * (hi - lo + 1) * nck),
		next:   1,
	}
	// Loops are branch nodes, so their number fits the reservation.
	w.parent = append(arena.Ints(branches + 1)[:0], 0)
	if _, _, ok := w.list(p.Body, 0); !ok || w.nck != nck || w.next != g.Exit {
		return nil, 0
	}
	// A straight cut's members sit in one chain of loops: instance k of
	// index i is then the same iteration on every process.
	for a := 0; a < nck; a++ {
		for b := 0; b < a; b++ {
			if w.ck[3*a] == w.ck[3*b] && w.ck[3*a+1] != w.ck[3*b+1] {
				return nil, 0
			}
		}
	}
	nloops := len(w.parent)
	// onChain[l*nloops+m]: loop l encloses loop m, or is it (0 is the body).
	onChain := arena.Bits(nloops * nloops)
	for m := 0; m < nloops; m++ {
		for l := m; ; l = w.parent[l] {
			onChain.Set(l*nloops + m)
			if l == 0 {
				break
			}
		}
	}
	balance := arena.Ints(nloops)
	sum := arena.Ints(2 * nck)  // per checkpoint: sends by from before it, receives by to
	used := arena.Bits(hi * hi) // channels from*hi+to some message takes
	logged := arena.Bits(sends)
	executed := arena.Bits(sends) // a process of some count runs it
	for n := lo; n <= hi; n++ {
		used.Zero()
		for i := range comm {
			for x := 0; x < n; x++ {
				if !tabs[i].Holds(x, n) {
					continue
				}
				q, ok := tabs[i].Peer(x, n)
				if !ok {
					return nil, 0 // evaluation error: the run fails, say nothing
				}
				if q >= 0 && q < n && q != x {
					if i < sends {
						executed.Set(i)
						used.Set(x*hi + q)
					} else {
						used.Set(q*hi + x)
					}
				}
			}
		}
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if !used.Has(from*hi + to) {
					continue
				}
				clear(balance)
				clear(sum)
				for i, v := range comm {
					at, peer, d, s := from, to, 1, 0
					if i >= sends {
						at, peer, d, s = to, from, -1, 1
					}
					if q, _ := tabs[i].Peer(at, n); !tabs[i].Holds(at, n) || q != peer {
						continue
					}
					l := w.loopOf[i]
					balance[l] += d
					for c := 0; c < nck; c++ {
						if v < w.ck[3*c+2] && onChain.Has(l*nloops+w.ck[3*c+1]) {
							sum[2*c+s]++
						}
					}
				}
				bad := slices.ContainsFunc(balance[1:], func(b int) bool { return b != 0 })
				for c := 0; c < nck && !bad; c++ {
					for d := 0; d < nck && !bad && w.holds(c, from, n); d++ {
						bad = w.ck[3*d] == w.ck[3*c] && w.holds(d, to, n) && sum[2*c] != sum[2*d+1]
					}
				}
				if !bad {
					if quiet == nil {
						quiet = mpl.NewChannelSet(hi)
					}
					quiet.Add(n, from, to)
					continue
				}
				for i := 0; i < sends; i++ {
					if q, _ := tabs[i].Peer(from, n); tabs[i].Holds(from, n) && q == to {
						logged.Set(i) // it may use the channel the counts left unproved
					}
				}
			}
		}
	}
	for i := 0; i < sends; i++ {
		if executed.Has(i) && !logged.Has(i) {
			quietSends++
		}
	}
	return quiet, quietSends
}

// crossWalk is noCross's walk over the program, skeleton nodes numbered as
// cfg.BuildSkeleton numbers them: it records each communication node's
// innermost loop and each checkpoint's index, loop, position and path
// attribute, and refuses the shapes the counting cannot speak for.
type crossWalk struct {
	sk      *skeleton
	p       *mpl.Program
	enum    *cfg.Enumeration
	uniform uint64
	comm    []int // the send nodes, then the receive nodes (match.Extended.Tables)
	sends   int
	tabs    []attr.Table
	lo, hi  int

	next   int   // the skeleton node the walk expects next
	parent []int // parent[l] encloses loop l; loop 0 is the program body
	loopOf []int // by position in comm: the node's innermost loop
	// ck holds three ints per checkpoint in program order — index, loop,
	// the first skeleton node after it — and ckHold its path attribute: bit
	// p of word (c·rows + n−lo) when it holds at process p of n.
	ck     []int
	ckHold cfg.Bitset
	nck    int
	// path[:depth] is the enclosing ID-dependent constraints: an if nested
	// deeper than path holds is refused rather than allocated for.
	path  [8]attr.Constraint
	depth int
}

func (w *crossWalk) holds(c, p, n int) bool {
	return w.ckHold.Has((c*(w.hi-w.lo+1)+n-w.lo)*64 + p)
}

// list walks body inside loop, reporting whether it holds a communication
// or a checkpoint; ok is false for a shape noCross refuses.
func (w *crossWalk) list(body []mpl.Stmt, loop int) (comm, chkpt, ok bool) {
	for _, s := range body {
		if _, isCk := s.(*mpl.Chkpt); isCk {
			if w.nck == len(w.ck)/3 {
				return false, false, false
			}
			c := w.nck
			w.nck++
			w.ck[3*c], w.ck[3*c+1], w.ck[3*c+2] = w.enum.Index[s.ID()], loop, w.next
			// Its path attribute holds where a communication node's with the
			// same one does: read that node's table rather than evaluate.
			path := attr.Predicate(w.path[:w.depth])
			var same *attr.Table
			for i, v := range w.comm {
				if w.sk.ext.PathAttr[v].Equal(path) {
					same = &w.tabs[i]
					break
				}
			}
			for n := w.lo; n <= w.hi; n++ {
				for p := 0; p < n; p++ {
					if same != nil && same.Holds(p, n) || same == nil && path.HoldsAt(p, n) {
						w.ckHold.Set((c*(w.hi-w.lo+1)+n-w.lo)*64 + p)
					}
				}
			}
			chkpt = true
			continue
		}
		v := w.next
		if v >= w.sk.ext.G.Exit || w.sk.ext.G.Nodes[v].Stmt.ID() != s.ID() {
			return false, false, false
		}
		w.next++
		var c, k bool
		switch st := s.(type) {
		case *mpl.Send, *mpl.Recv:
			first, end := 0, w.sends
			if _, isRecv := st.(*mpl.Recv); isRecv {
				first, end = w.sends, len(w.comm)
			}
			i, _ := slices.BinarySearch(w.comm[first:end], v)
			w.loopOf[first+i] = loop
			c = true
		case *mpl.While:
			l := len(w.parent)
			w.parent = append(w.parent, loop)
			if c, k, ok = w.list(st.Body, l); !ok {
				return false, false, false
			}
			if (c || k) && (w.sk.df.Branches[st.ID()].IDDependent || !uniformExpr(w.p, st.Cond, w.uniform)) {
				return false, false, false
			}
		case *mpl.If:
			bi := w.sk.df.Branches[st.ID()]
			if bi.IDDependent && w.depth == len(w.path) {
				return false, false, false
			}
			for arm, body := range [2][]mpl.Stmt{st.Then, st.Else} {
				if bi.IDDependent {
					w.path[w.depth] = attr.Constraint{Cond: bi.Resolved, Want: arm == 0}
					w.depth++
				}
				ac, ak, aok := w.list(body, loop)
				if bi.IDDependent {
					w.depth--
				}
				if !aok {
					return false, false, false
				}
				c, k = c || ac, k || ak
			}
			if c && !bi.IDDependent {
				return false, false, false
			}
		}
		comm, chkpt = comm || c, chkpt || k
	}
	return comm, chkpt, true
}

// uniformVars returns the variables of p (bit i for p.Vars[i]) that hold
// the same value on every process wherever it reads them: assigned only
// from constants, nproc and such variables, under conditions of only those,
// and never received into. ok is false when p has more than 64 variables.
func uniformVars(p *mpl.Program) (uniform uint64, ok bool) {
	if len(p.Vars) > 64 {
		return 0, false
	}
	uniform = 1<<len(p.Vars) - 1
	for changed := true; changed; {
		before := uniform
		taintList(p, p.Body, false, &uniform)
		changed = uniform != before
	}
	return uniform, true
}

func taintList(p *mpl.Program, body []mpl.Stmt, varying bool, uniform *uint64) {
	taint := func(name string) {
		if i := slices.Index(p.Vars, name); i >= 0 {
			*uniform &^= 1 << i
		}
	}
	for _, s := range body {
		switch st := s.(type) {
		case *mpl.Assign:
			if varying || !uniformExpr(p, st.X, *uniform) {
				taint(st.Name)
			}
		case *mpl.Recv:
			taint(st.Var)
		case *mpl.Bcast:
			taint(st.Var)
		case *mpl.Reduce:
			taint(st.Var)
		case *mpl.While:
			taintList(p, st.Body, varying || !uniformExpr(p, st.Cond, *uniform), uniform)
		case *mpl.If:
			v := varying || !uniformExpr(p, st.Cond, *uniform)
			taintList(p, st.Then, v, uniform)
			taintList(p, st.Else, v, uniform)
		}
	}
}

// uniformExpr reports whether e has one value on every process: it reads
// no rank, no input and no variable outside uniform.
func uniformExpr(p *mpl.Program, e mpl.Expr, uniform uint64) bool {
	switch x := e.(type) {
	case *mpl.IntLit:
		return true
	case *mpl.Ident:
		if x.Name == mpl.BuiltinRank {
			return false
		}
		i := slices.Index(p.Vars, x.Name)
		return i < 0 || uniform&(1<<i) != 0 // a constant or nproc, or a variable
	case *mpl.Unary:
		return uniformExpr(p, x.X, uniform)
	case *mpl.Binary:
		return uniformExpr(p, x.L, uniform) && uniformExpr(p, x.R, uniform)
	default: // input(…)
		return false
	}
}
