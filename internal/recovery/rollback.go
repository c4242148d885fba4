package recovery

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/storage"
)

// Rolled is the state a rollback leaves behind: stable storage holds
// nothing newer than Line, whose members' Peers say which messages were in
// flight across it.
type Rolled struct {
	// Line is the chosen recovery line; nil restarts from the initial state.
	Line *Line
	// Scrub reports what the pre-discard scrub quarantined.
	Scrub storage.ScrubReport
}

// Rollback is the whole post-failure sequence of the coordination-free
// scheme over the n-process application whose checkpoints st holds, with
// every store call made through st, the caller's one handle:
//
//  1. choose the line (choose; nil means StraightCut) — before scrubbing,
//     so that snapshots which fail to load count in Line.Degraded.
//     ErrNoRecoveryLine is not an error here: it selects the initial state.
//  2. scrub, so damaged keys stop colliding with what replay regenerates;
//  3. discard every checkpoint taken after the line — every checkpoint when
//     there is no line — by key. Without choose, the keys are each
//     process's as step 1 read them, less what step 2 quarantined; with
//     it, they are read again after the scrub.
//
// "After the line" is read off the line itself: the member at of process p
// carries p's per-index instance counters including its own checkpoint
// (storage.Snapshot.Instances), so key k of p is doomed exactly when
// k.Instance >= at.Instances.At(k.CFGIndex), and no other snapshot is loaded.
// A line whose member lacks those counters is refused before the store is
// touched: discarding by it would take the line itself. So is one saved by
// an application of another size, or with a peer not below n: a count read
// as another process's, or as none, re-injects delivered messages. This is
// the one place a restart checks that width.
//
// It needs no crashed incarnation in front of it: called on a populated
// store it is the entry point of a cold-start resume.
func Rollback(st storage.Store, n int, choose func(storage.Store, int) (*Line, error)) (*Rolled, error) {
	var keys [][]storage.Key // read once for the choice and the discard, without choose
	var line *Line
	var err error
	if choose == nil {
		keys = make([][]storage.Key, n)
		for p := range keys {
			if keys[p], err = storage.Keys(st, p); err != nil {
				return nil, err
			}
		}
		line, err = straightCut(st, n, storage.CommonKeys(keys))
	} else {
		line, err = choose(st, n)
	}
	if errors.Is(err, ErrNoRecoveryLine) {
		line = nil
	} else if err != nil {
		return nil, err
	}
	if line != nil {
		for _, at := range line.Snapshots {
			if at.N != n || slices.ContainsFunc(at.Peers, func(e storage.PeerSeq) bool { return e.Peer < 0 || e.Peer >= n }) {
				return nil, fmt.Errorf("recovery: line member %s carries a row of %d processes, peers %v, want %d",
					at.Key(), at.N, at.Peers, n)
			}
			if c := at.Instances.At(at.CFGIndex); c != at.Instance+1 {
				return nil, fmt.Errorf("recovery: line member %s carries instance counter %d, want %d",
					at.Key(), c, at.Instance+1)
			}
		}
	}
	out := &Rolled{Line: line}
	if out.Scrub, err = storage.Scrub(st); err != nil {
		return nil, err
	}
	for p := 0; p < n; p++ {
		var kept storage.Counts // nil, without a line, keeps nothing
		if line != nil {
			kept = line.Snapshots[p].Instances
		}
		var held []storage.Key
		if keys != nil {
			held = keys[p]
		} else if held, err = storage.Keys(st, p); err != nil {
			return nil, err
		}
		for _, k := range held {
			if k.Instance < kept.At(k.CFGIndex) || keys != nil && slices.ContainsFunc(out.Scrub.Quarantined,
				func(q storage.SnapshotRef) bool { return q.Key == k }) {
				continue // kept, or gone with the scrub after keys was read
			}
			if err := st.Delete(p, k.CFGIndex, k.Instance); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
