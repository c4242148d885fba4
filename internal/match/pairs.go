package match

import (
	"math/bits"
	"slices"

	"repro/internal/cfg"
)

// This file is Phase II's pairing. Channels are FIFO: at a process count
// n, the k-th send p executes to q feeds the k-th receive q posts from p,
// both in program order, and Ĝ's message edges are these pairs over every
// n of the solver's range. A while is one block of a channel's list; two
// blocks pair only when they are the same loop, its condition is uniform
// (both ranks run it as often) and their contents pair exactly. Where
// order is unknown — an endpoint under a data-dependent if, a loop that is
// not uniform, or blocks that do not pair — the rest of the channel pairs
// as a cross product. An endpoint
// whose peer has no value at a rank (a wildcard, or an evaluation error)
// is free: it is on every channel of its rank, and such a channel pairs
// whole.

// An Endpoint is one entry of a rank's list: a send or receive the rank
// runs, (peer+1)<<entPeer | its position in Comm, where peer+1 is 0 for a
// free endpoint.
type Endpoint uint64

const (
	entPeer = 24
	entPos  = 1<<entPeer - 1
)

// Pos returns e's position in Comm.
func (e Endpoint) Pos() int { return int(e & entPos) }

// endpoint reports whether comm position i runs at process p of n and the
// peer it names there (ok false: none): off the tables when they cover n,
// evaluated otherwise.
func (x *Extended) endpoint(i, p, n int) (runs bool, peer int, ok bool) {
	if t := x.tables; t != nil && n >= x.lo && n <= x.hi {
		if !t[i].Holds(p, n) {
			return false, 0, false
		}
		peer, ok = t[i].Peer(p, n)
		return true, peer, ok
	}
	if v := x.comm[i]; x.PathAttr[v].HoldsAt(p, n) {
		peer, ok = x.Params[v].EvalAt(p, n)
		return true, peer, ok
	}
	return false, 0, false
}

// pairAt sets, in into, bit r*nsend+s for every send position s the pass
// pairs with receive position r at process count n.
func (x *Extended) pairAt(n int, into cfg.Bitset) {
	free := x.Lists(n)
	x.into = into
	for p := range n {
		sends := x.list(p, 0)
		for k, e := range sends {
			if e>>entPeer != 0 && !slices.ContainsFunc(sends[:k], func(d Endpoint) bool { return d>>entPeer == e>>entPeer }) {
				x.pairChannel(p, int(e>>entPeer)-1)
			}
		}
		for q := 0; q < n && free; q++ {
			if q != p && (freeIn(sends) || freeIn(x.list(q, 1))) {
				x.pairChannel(p, q)
			}
		}
	}
}

// Lists lists, for every rank at process count n, the sends and the
// receives it runs there, and reports whether one of them is free: the
// lists Channel reads until the next call.
func (x *Extended) Lists(n int) (free bool) {
	// Each rank's list holds its sends, then its receives, each in node
	// order; off[2p], off[2p+1] and off[2p+2] bound them. The last pass,
	// at (len(off)-1)/2 processes, sizes this one's lists.
	ents := x.ents[:0]
	if last := (len(x.off) - 1) / 2; last > 0 {
		ents = slices.Grow(ents, len(x.ents)*n/last)
	}
	x.off = slices.Grow(x.off[:0], 2*n+1)[:2*n+1]
	off := x.off
	for p := range n {
		off[2*p], off[2*p+1] = int32(len(ents)), int32(len(ents))
		for i := range x.comm {
			switch runs, peer, ok := x.endpoint(i, p, n); {
			case !runs:
			case !ok:
				ents, free = append(ents, Endpoint(i)), true
			case peer >= 0 && peer < n && peer != p:
				ents = append(ents, Endpoint(peer+1)<<entPeer|Endpoint(i))
			}
			if i < x.nsend {
				off[2*p+1] = int32(len(ents))
			}
		}
	}
	off[2*n] = int32(len(ents))
	x.ents = ents
	return free
}

// list returns rank p's sends (side 0) or receives (side 1).
func (x *Extended) list(p, side int) []Endpoint {
	return x.ents[x.off[2*p+side]:x.off[2*p+side+1]]
}

func freeIn(l []Endpoint) bool {
	return slices.ContainsFunc(l, func(e Endpoint) bool { return e>>entPeer == 0 })
}

// Channel returns channel p→q's sends and receives as the last Lists
// listed them, each in FIFO order: the sends p runs to q and the receives
// q runs from p, free ones included. Both are valid until its next call.
func (x *Extended) Channel(p, q int) (sends, recvs []Endpoint) {
	x.chS, x.chR = x.chS[:0], x.chR[:0]
	for _, e := range x.list(p, 0) {
		if e>>entPeer == 0 || int(e>>entPeer) == q+1 {
			x.chS = append(x.chS, e)
		}
	}
	for _, e := range x.list(q, 1) {
		if e>>entPeer == 0 || int(e>>entPeer) == p+1 {
			x.chR = append(x.chR, e)
		}
	}
	return x.chS, x.chR
}

// pairChannel pairs the sends of p and the receives of q on channel p→q.
func (x *Extended) pairChannel(p, q int) {
	s, r := x.Channel(p, q)
	if len(s) == 1 && len(r) == 1 || freeIn(s) || freeIn(r) {
		x.cross(s, r) // one pair, aligned or not, or a channel that pairs whole
	} else if i, j, ok := x.align(s, r, 0); !ok {
		x.cross(s[i:], r[j:])
	}
}

// align pairs sends s with receives r in FIFO order, all inside loop ctx,
// and returns how many of each it paired. ok is false where it stopped at
// an endpoint under a data-dependent if, at a loop that is not uniform or
// at blocks that do not pair; inside a loop, an endpoint left over is a
// misalignment too.
func (x *Extended) align(s, r []Endpoint, ctx int32) (i, j int, ok bool) {
	for i < len(s) && j < len(r) {
		a, b := s[i].Pos(), r[j].Pos()
		la := x.block(a, ctx)
		if x.opaque.Has(x.comm[a]) || x.opaque.Has(x.comm[b]) || la != x.block(b, ctx) || x.varies.Has(int(la)) {
			return i, j, false
		}
		if la == ctx {
			x.into.Set((b-x.nsend)*x.nsend + a)
			i, j = i+1, j+1
			continue
		}
		ie, je := i+1, j+1
		for ie < len(s) && x.block(s[ie].Pos(), ctx) == la {
			ie++
		}
		for je < len(r) && x.block(r[je].Pos(), ctx) == la {
			je++
		}
		if di, dj, ok := x.align(s[i:ie], r[j:je], la); !ok || di != ie-i || dj != je-j {
			return i, j, false
		}
		i, j = ie, je
	}
	return i, j, ctx == 0 || i == len(s) && j == len(r)
}

// block returns the loop directly inside ctx that encloses comm position
// i, or ctx when none does.
func (x *Extended) block(i int, ctx int32) int32 {
	l := x.loopOf[x.comm[i]]
	for l != ctx && x.loopUp[l] != ctx {
		l = x.loopUp[l]
	}
	return l
}

// cross pairs every send of s with every receive of r.
func (x *Extended) cross(s, r []Endpoint) {
	for _, se := range s {
		for _, re := range r {
			x.into.Set((re.Pos()-x.nsend)*x.nsend + se.Pos())
		}
	}
}

// Unproved returns the first pair, in receive-then-send node order, that
// the pass makes at process count n and Ĝ lacks; ok is false when Ĝ has
// every one.
func (x *Extended) Unproved(n int) (send, recv int, ok bool) {
	at := zeroBits(nil, len(x.pairs)*64)
	x.pairAt(n, at)
	for w := range at {
		if d := at[w] &^ x.pairs[w]; d != 0 {
			k := w*64 + bits.TrailingZeros64(d)
			return x.comm[k%x.nsend], x.comm[x.nsend+k/x.nsend], true
		}
	}
	return 0, 0, false
}

// zeroBits returns b emptied and able to hold n bits.
func zeroBits(b cfg.Bitset, n int) cfg.Bitset {
	b = slices.Grow(b[:0], (n+63)/64)[:(n+63)/64]
	clear(b)
	return b
}
