package recovery

import (
	"errors"

	"repro/internal/storage"
)

// Rolled is the state a rollback leaves behind: stable storage holds
// nothing newer than Line, and the sequence matrices say which messages
// were in flight across it.
type Rolled struct {
	// Line is the chosen recovery line; nil restarts from the initial state.
	Line *Line
	// Scrub reports what the pre-discard scrub quarantined.
	Scrub storage.ScrubReport
	// SendSeq[p][q] and RecvSeq[q][p] are the channel p→q sequence numbers
	// at the line (all zero from scratch).
	SendSeq, RecvSeq [][]int
}

// Rollback is the whole post-failure sequence of the coordination-free
// scheme over the n-process application whose checkpoints st holds, with
// every store call made through st, the caller's one handle:
//
//  1. choose the line (choose; nil means StraightCut) — before scrubbing,
//     so that snapshots which fail to load count in Line.Degraded.
//     ErrNoRecoveryLine is not an error here: it selects the initial state.
//  2. scrub, so damaged keys stop colliding with what replay regenerates;
//  3. discard every snapshot taken after the line — every snapshot when
//     there is no line — newest first per process.
//
// It needs no crashed incarnation in front of it: called on a populated
// store it is the entry point of a cold-start resume.
func Rollback(st storage.Store, n int, choose func(storage.Store, int) (*Line, error)) (*Rolled, error) {
	if choose == nil {
		choose = StraightCut
	}
	line, err := choose(st, n)
	if errors.Is(err, ErrNoRecoveryLine) {
		line = nil
	} else if err != nil {
		return nil, err
	}
	out := &Rolled{Line: line, SendSeq: make([][]int, n), RecvSeq: make([][]int, n)}
	if out.Scrub, err = storage.Scrub(st); err != nil {
		return nil, err
	}
	for p := 0; p < n; p++ {
		out.SendSeq[p], out.RecvSeq[p] = make([]int, n), make([]int, n)
		snaps, err := st.List(p)
		if err != nil {
			return nil, err
		}
		doomed := snaps
		if line != nil {
			// "After the line" is decided on p's own clock component, which
			// orders its local events totally.
			at := line.Snapshots[p]
			copy(out.SendSeq[p], at.SendSeqs)
			copy(out.RecvSeq[p], at.RecvSeqs)
			doomed = snaps[:0]
			for _, s := range snaps {
				if s.Clock[p] > at.Clock[p] {
					doomed = append(doomed, s)
				}
			}
		}
		storage.SortNewestFirst(p, doomed)
		for _, s := range doomed {
			if err := st.Delete(p, s.CFGIndex, s.Instance); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
