package place

import (
	"slices"

	"repro/internal/cfg"
	"repro/internal/match"
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
// process counts, the same bound Phase II's matching rests on, and read off
// the same model of the program: Ĝ's loop tree, its scopes and each rank's
// sends and receives at n (match.Extended.Lists), and the final round's
// checkpoints in their gaps. It holds when
//
//   - every loop holding a communication or a checkpoint runs as often on
//     every process that enters it: its condition, and that of every loop
//     around it, is uniform (match.Extended.Loop);
//   - no data-dependent if holds a communication, so which of a loop
//     body's communications a process executes is the same in every
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

// noCross returns the channels that no straight cut of the final round's
// program, whose checkpoints are cks, can have a message in flight on, at
// each process count of the solver's bound — nil when it proves none — and
// how many send statements some process runs there and only ever on those
// channels. It is the skeleton's last use: it recycles the arena.
func (sk *skeleton) noCross(cks []ckpt) (quiet mpl.ChannelSet, quietSends int) {
	x := &sk.ext
	comm, nsend := x.Comm()
	if nsend == 0 {
		return nil, 0
	}
	for _, nd := range x.G.Nodes {
		if nd.Kind == cfg.KindBcast || nd.Kind == cfg.KindReduce {
			return nil, 0
		}
	}
	for _, v := range comm {
		loop, opaque := x.Scope(v)
		if _, uniform := x.Loop(loop); opaque || x.Params[v].Wildcard || !uniform {
			return nil, 0
		}
	}
	// A straight cut's members sit in one chain of loops: instance k of
	// index i is then the same iteration on every process.
	for a, c := range cks {
		l := sk.gaps[c.gap].loop
		if _, uniform := x.Loop(l); !uniform || slices.ContainsFunc(cks[:a], func(d ckpt) bool { return d.index == c.index && sk.gaps[d.gap].loop != l }) {
			return nil, 0
		}
	}
	lo, hi := x.Bounds()
	rows, nloops := hi-lo+1, x.Loops()
	// The fixpoint is over and nothing reads its closures again: the scratch
	// below reuses their memory.
	arena := &sk.arena
	arena.Reset()
	// hold[c·rows + n−lo] holds the ranks of n that run checkpoint c.
	hold := arena.Bits(64 * rows * len(cks))
	for c, ck := range cks {
		x.Holds(sk.gaps[ck.gap].guard, hold[c*rows:])
	}
	// onChain[l*nloops+m]: loop l encloses loop m, or is it (0 is the body).
	onChain := arena.Bits(nloops * nloops)
	for m := range nloops {
		for l := int32(m); ; l, _ = x.Loop(l) {
			onChain.Set(int(l)*nloops + m)
			if l == 0 {
				break
			}
		}
	}
	balance := arena.Ints(nloops)
	sum := arena.Ints(2 * len(cks)) // per checkpoint: sends by from before it, receives by to
	logged := arena.Bits(nsend)     // a subset of executed
	executed := arena.Bits(nsend)   // a process of some count runs it
	for n := lo; n <= hi; n++ {
		if x.Lists(n) {
			return nil, 0 // a peer with no value: an evaluation error, the run fails
		}
		for from := range n {
			for to := range n {
				s, r := x.Channel(from, to)
				if len(s)+len(r) == 0 {
					continue
				}
				clear(balance)
				clear(sum)
				for side, list := range [2][]match.Endpoint{s, r} {
					for _, e := range list {
						v := comm[e.Pos()]
						l, _ := x.Scope(v)
						balance[l] += 1 - 2*side
						for c, ck := range cks {
							if g := &sk.gaps[ck.gap]; v < int(g.pos) && onChain.Has(int(l)*nloops+int(g.loop)) {
								sum[2*c+side]++
							}
						}
					}
				}
				bad := slices.ContainsFunc(balance[1:], func(b int) bool { return b != 0 })
				for c := 0; c < len(cks) && !bad; c++ {
					for d := 0; d < len(cks) && !bad && hold[c*rows+n-lo]>>from&1 != 0; d++ {
						bad = cks[d].index == cks[c].index && hold[d*rows+n-lo]>>to&1 != 0 && sum[2*c] != sum[2*d+1]
					}
				}
				for _, e := range s {
					executed.Set(e.Pos())
					if bad {
						logged.Set(e.Pos()) // it may use the channel the counts left unproved
					}
				}
				if !bad {
					if quiet == nil {
						quiet = mpl.NewChannelSet(hi)
					}
					quiet.Add(n, from, to)
				}
			}
		}
	}
	return quiet, executed.Count() - logged.Count()
}
