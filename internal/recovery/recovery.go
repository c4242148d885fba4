// Package recovery chooses recovery lines from stable storage after a
// failure, and takes the storage back to the chosen line (Rollback).
//
// For the paper's application-driven scheme the recovery line is a
// straight cut R_i^k: the k-th instance of checkpoint i on every process
// (Definition 2.2/2.3). StraightCut picks the most advanced straight cut
// the store holds and can load, and verifies its consistency from the
// channel counters every snapshot carries — the runtime manifestation of
// Theorem 3.2 (the verification never fails for programs transformed by
// Phase III; for untransformed programs it is how tests demonstrate the
// domino-prone alternative).
//
// For the uncoordinated baseline the package implements the classic
// rollback-dependency algorithm: start from every process's latest
// checkpoint and roll processes back until the cut is consistent. The
// number of rollback steps measures the domino effect; the algorithm can
// cascade all the way to the initial state (unbounded rollback
// propagation, §1).
//
// Both read a process's history one way, storage.Keys then Get, and a
// checkpoint or cut that fails to load is skipped and counted in
// Line.Degraded.
package recovery

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/storage"
)

// ErrNoRecoveryLine means no consistent cut exists in storage; the
// application must restart from its initial state.
var ErrNoRecoveryLine = errors.New("recovery: no recovery line available")

// ErrInconsistentCut reports that a cut expected to be consistent is not —
// for straight cuts this would falsify Theorem 3.2 for the given program.
var ErrInconsistentCut = errors.New("recovery: straight cut is not consistent")

// Line is a chosen recovery line: one snapshot per process, indexed by
// process id.
type Line struct {
	Snapshots []storage.Snapshot
	// Rollbacks counts how many saved checkpoints were skipped below the
	// latest ones (0 for a straight cut at everyone's newest index;
	// positive values for uncoordinated recovery measure the domino
	// effect).
	Rollbacks int
	// Degraded counts what selection skipped because it failed to load
	// (corrupt, quarantined, or unreadable snapshots): candidate straight
	// cuts, each an (index, instance) every process holds, for StraightCut;
	// checkpoints for LatestConsistent. 0 means the line is the best one
	// stable storage claims to hold; positive values measure how far
	// recovery had to degrade because storage misbehaved.
	Degraded int
}

// Consistent reports whether no member of the full cut happened before
// another (Definition 2.1), else the least pair (p, q) with cut[p] before
// cut[q]. On reliable FIFO channels a causal path between members holds
// an orphan, and vice versa: q received a message p had not yet sent at its
// checkpoint, Recvd_q(p) > Sent_p(q). It walks each member's entries.
func Consistent(cut []storage.Snapshot) (p, q int, ok bool) {
	p, ok = len(cut), true
	for r, s := range cut {
		for _, e := range s.Peers {
			if e.Peer < p && e.Peer != r && e.Recvd > cut[e.Peer].Peers.At(r).Sent {
				p, q, ok = e.Peer, r, false
			}
		}
	}
	return p, q, ok
}

// Progress is how far a snapshot's process had come, by its own counts:
// messages sent and received, and checkpoints taken (its own included).
func Progress(s storage.Snapshot) int {
	sum := 0
	for _, e := range s.Peers {
		sum += e.Sent + e.Recvd
	}
	for _, c := range s.Instances {
		sum += c.N
	}
	return sum
}

// StraightCut returns the recovery line for the application-driven scheme:
// a straight cut R_i^k, the k-th instance of checkpoint i on every process
// (Definition 2.3). Its candidates are storage.StraightCuts, the (i, k) that
// every process 0…n−1 holds, read off storage.Keys; for each index,
// ascending, the newest candidate that loads is that index's cut, and the
// cut with the greatest total progress (sum of its members' Progress) wins,
// the lowest index on a tie. The chosen cut's consistency is verified; an inconsistent straight
// cut is reported as ErrInconsistentCut.
//
// Selection degrades gracefully when stable storage misbehaves: a candidate
// with a member that fails to load (storage.ErrCorrupt from a damaged record
// or delta chain, storage.ErrNotFound after quarantine, or a persistent read
// fault) is skipped for the next older candidate of its index, and counted
// in Line.Degraded, so callers can report how far recovery fell below the
// best cut storage claimed to hold. The walk is bounded by the keys held:
// Memory and the WAL keep at most two complete cuts of an index. Only when
// no candidate loads at all does StraightCut return ErrNoRecoveryLine,
// telling the runtime to restart from the initial state — the bottom of the
// degradation ladder.
func StraightCut(st storage.Store, n int) (*Line, error) {
	cands, err := storage.StraightCuts(st, n)
	if err != nil {
		return nil, err
	}
	return straightCut(st, n, cands)
}

// straightCut is StraightCut choosing among the candidates cands, ordered as
// storage.StraightCuts orders them.
func straightCut(st storage.Store, n int, cands []storage.Key) (*Line, error) {
	// cut is the candidate being loaded; it becomes best by trading places
	// with it, so selection allocates two cuts however many it tries.
	var best, cut []storage.Snapshot
	bestScore, degraded := 0, 0
	for i := 0; i < len(cands); {
		c := cands[i]
		i++
		if cut == nil {
			cut = make([]storage.Snapshot, n)
		}
		ok := true
		for p := 0; p < n && ok; p++ {
			var err error
			cut[p], err = st.Get(p, c.CFGIndex, c.Instance)
			ok = err == nil
		}
		if !ok {
			degraded++
			continue
		}
		for i < len(cands) && cands[i].CFGIndex == c.CFGIndex {
			i++ // an older instance of an index that loaded is no candidate
		}
		score := 0
		for _, s := range cut {
			score += Progress(s)
		}
		if best == nil || score > bestScore {
			best, cut = cut, best
			bestScore = score
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: %d candidate cut(s) failed to load", ErrNoRecoveryLine, degraded)
	}
	if i, j, ok := Consistent(best); !ok {
		return nil, fmt.Errorf("%w: C_{p%d,i%d}#%d happened before C_{p%d,i%d}#%d",
			ErrInconsistentCut,
			best[i].Proc, best[i].CFGIndex, best[i].Instance,
			best[j].Proc, best[j].CFGIndex, best[j].Instance)
	}
	return &Line{Snapshots: best, Degraded: degraded}, nil
}

// LatestConsistent implements uncoordinated recovery: start from each
// process's newest snapshot and repeatedly roll back any process whose
// snapshot received a message another's had not yet sent, until the cut is
// consistent or some process runs out of snapshots (ErrNoRecoveryLine — the
// domino effect consumed everything). Rollbacks in the result counts the total
// roll-back steps.
//
// Time order is Progress order, ties by key: every checkpoint counts itself
// in Instances, the rows never fall, and Rollback deletes everything above
// the line, so along a retained history Progress strictly increases. Key
// order is not time: a rolled-back incarnation takes the same CFG indexes
// again.
func LatestConsistent(st storage.Store, n int) (*Line, error) {
	all := make([][]storage.Snapshot, n) // all[p] is p's history in time order
	pos := make([]int, n)                // current candidate = all[p][pos[p]]
	degraded := 0
	for p := 0; p < n; p++ {
		keys, err := storage.Keys(st, p)
		if err != nil {
			return nil, err
		}
		storage.SortKeys(keys)
		for _, k := range keys {
			s, err := st.Get(p, k.CFGIndex, k.Instance)
			if err != nil {
				degraded++
				continue
			}
			all[p] = append(all[p], s)
		}
		if len(all[p]) == 0 {
			return nil, fmt.Errorf("%w: process %d has no checkpoint that loads (%d skipped)",
				ErrNoRecoveryLine, p, degraded)
		}
		slices.SortStableFunc(all[p], func(a, b storage.Snapshot) int {
			return cmp.Compare(Progress(a), Progress(b))
		})
		pos[p] = len(all[p]) - 1
	}
	rollbacks := 0
	for {
		cut := make([]storage.Snapshot, n)
		for p := 0; p < n; p++ {
			cut[p] = all[p][pos[p]]
		}
		_, j, ok := Consistent(cut)
		if ok {
			return &Line{Snapshots: cut, Rollbacks: rollbacks, Degraded: degraded}, nil
		}
		// j received a message sent after cut[i], not covered by i's
		// checkpoint: j's checkpoint is an orphan state — roll back j.
		if pos[j] == 0 {
			return nil, fmt.Errorf("%w: process %d rolled back to its first checkpoint (domino)",
				ErrNoRecoveryLine, j)
		}
		pos[j]--
		rollbacks++
	}
}
