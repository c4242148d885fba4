// Package trace records distributed executions as collections of local
// histories (the paper's §2 system model) and decides the properties the
// checkpointing theory is about: the happened-before relation between
// events, consistency of cuts of checkpoints (Definition 2.1), and
// straight cuts of the i-th checkpoints (Definitions 2.2/2.3).
//
// The package offers two independent implementations of happened-before:
// vector clocks (stamped by the producer or by StampClocks), and a transitive
// closure over the raw event structure. Tests cross-check them so a bug in
// one cannot silently validate the other.
package trace

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/vclock"
)

// Kind enumerates the event kinds of the system model (§2): computation,
// send, receive, and checkpoint.
type Kind int

// Event kinds. They start at one so the zero Kind is invalid and cannot be
// recorded accidentally.
const (
	KindCompute Kind = iota + 1
	KindSend
	KindRecv
	KindCheckpoint
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one entry of a process's local history.
type Event struct {
	Proc  int        // process id, 0-based
	Seq   int        // position within the process's local history
	Kind  Kind       //
	Clock vclock.VC  // vector clock after the event
	Msg   MessageID  // set for send/recv events
	Peer  int        // destination (send) or source (recv)
	Chkpt Checkpoint // set for checkpoint events

	// Label carries an optional human-readable tag (e.g. the program
	// statement that produced the event).
	Label string
}

// MessageID uniquely identifies an application message within an execution.
// Sender plus a per-sender sequence number is unique because channels are
// FIFO and reliable.
type MessageID struct {
	From int
	To   int
	Seq  int // per (From,To) pair sequence number, starting at 0
}

// Checkpoint identifies one checkpoint event. CFGIndex is the checkpoint's
// enumeration index i in the CFG (the C_i of §2); Instance counts the
// invocations of that same checkpoint statement by this process (a
// statement inside a loop yields several checkpoints with the same
// CFGIndex, per Definition 2.3).
type Checkpoint struct {
	Proc     int
	CFGIndex int
	Instance int
	EventSeq int // position of the checkpoint event in the local history
	Clock    vclock.VC
}

// String renders the checkpoint as C_{p,i}#inst.
func (c Checkpoint) String() string {
	return fmt.Sprintf("C{p%d,i%d}#%d", c.Proc, c.CFGIndex, c.Instance)
}

// Trace is a thread-safe recorder of an execution: one local history per
// process. The zero value is not usable; construct with NewTrace.
type Trace struct {
	mu        sync.Mutex
	n         int
	histories [][]Event
}

// NewTrace creates a trace for n processes.
func NewTrace(n int) *Trace {
	return &Trace{
		n:         n,
		histories: make([][]Event, n),
	}
}

// N returns the number of processes.
func (t *Trace) N() int { return t.n }

// Append records an event at the end of proc's local history, assigning its
// Seq. It returns the recorded event. Append copies the clock so callers may
// keep mutating theirs.
func (t *Trace) Append(e Event) Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.Seq = len(t.histories[e.Proc])
	e.Clock = e.Clock.Clone()
	if e.Kind == KindCheckpoint {
		e.Chkpt.Proc = e.Proc
		e.Chkpt.EventSeq = e.Seq
		e.Chkpt.Clock = e.Clock
	}
	t.histories[e.Proc] = append(t.histories[e.Proc], e)
	return e
}

// StampClocks gives every event the vector clock of its place in the
// histories: an event ticks its process's component, and a receive merges
// the clock of its send, matched by MessageID. A receive whose send the trace
// lacks (sent before the recovery line the recorded incarnation started
// from) merges nothing, which leaves happened-before among the events as is.
func (t *Trace) StampClocks() {
	t.mu.Lock()
	defer t.mu.Unlock()
	sent := make(map[MessageID]vclock.VC) // nil until the send is stamped
	for _, h := range t.histories {
		for _, e := range h {
			if e.Kind == KindSend {
				sent[e.Msg] = nil
			}
		}
	}
	pos := make([]int, t.n)
	for progress := true; progress; {
		progress = false
		for p, h := range t.histories {
			for ; pos[p] < len(h); pos[p], progress = pos[p]+1, true {
				e := &h[pos[p]]
				from, known := sent[e.Msg]
				if e.Kind == KindRecv && known && from == nil {
					break // its send is not stamped yet
				}
				if e.Clock = vclock.New(t.n); pos[p] > 0 {
					copy(e.Clock, h[pos[p]-1].Clock)
				}
				if e.Clock.Tick(p); e.Kind == KindRecv && from != nil {
					e.Clock.Merge(from)
				}
				switch e.Kind {
				case KindSend:
					sent[e.Msg] = e.Clock
				case KindCheckpoint:
					e.Chkpt.Clock = e.Clock
				}
			}
		}
	}
}

// Events returns a copy of all local histories.
func (t *Trace) Events() [][]Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	all := make([][]Event, t.n)
	for p := range t.histories {
		all[p] = make([]Event, len(t.histories[p]))
		copy(all[p], t.histories[p])
	}
	return all
}

// Len returns the total number of recorded events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0
	for _, h := range t.histories {
		total += len(h)
	}
	return total
}

// Checkpoints returns every checkpoint event in the trace, ordered by
// process then local sequence.
func (t *Trace) Checkpoints() []Checkpoint {
	var cps []Checkpoint
	for _, h := range t.Events() {
		for _, e := range h {
			if e.Kind == KindCheckpoint {
				cps = append(cps, e.Chkpt)
			}
		}
	}
	return cps
}

// Cut is a set of checkpoints, at most one per process (§2: "a set of
// checkpoints consisting of one checkpoint from each process").
type Cut []Checkpoint

// ErrNoCheckpoint is returned by StraightCut when some process has no i-th
// checkpoint, so the straight cut R_i does not exist.
var ErrNoCheckpoint = errors.New("trace: process has no checkpoint with requested index")

// StraightCut returns R_i of Definition 2.3: for each process, the LATEST
// checkpoint whose CFGIndex is i. It fails with ErrNoCheckpoint if some
// process never took an i-th checkpoint.
func (t *Trace) StraightCut(i int) (Cut, error) {
	cut := make(Cut, 0, t.n)
	for p, h := range t.Events() {
		latest := Checkpoint{Proc: -1}
		found := false
		for _, e := range h {
			if e.Kind == KindCheckpoint && e.Chkpt.CFGIndex == i {
				latest = e.Chkpt
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: process %d, index %d", ErrNoCheckpoint, p, i)
		}
		cut = append(cut, latest)
	}
	return cut, nil
}

// CheckpointIndexes returns the sorted set of CFG checkpoint indexes that
// appear anywhere in the trace.
func (t *Trace) CheckpointIndexes() []int {
	set := make(map[int]bool)
	for _, cp := range t.Checkpoints() {
		set[cp.CFGIndex] = true
	}
	idx := make([]int, 0, len(set))
	for i := range set {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// IsRecoveryLine decides Definition 2.1 using the vector clocks captured at
// checkpoint time: the cut is a recovery line iff no checkpoint in it
// happened before another.
func IsRecoveryLine(cut Cut) bool {
	_, _, violated := FirstViolation(cut)
	return !violated
}

// FirstViolation returns a pair (a, b) of checkpoints in the cut with
// a happened-before b, or ok=false when the cut is a recovery line. It is
// the diagnostic companion of IsRecoveryLine, and the one loop both run.
func FirstViolation(cut Cut) (a, b Checkpoint, ok bool) {
	for i := range cut {
		for j := range cut {
			if i != j && cut[i].Clock.Before(cut[j].Clock) {
				return cut[i], cut[j], true
			}
		}
	}
	return Checkpoint{}, Checkpoint{}, false
}
