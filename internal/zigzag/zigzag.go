// Package zigzag implements Netzer & Xu's zigzag-path analysis on recorded
// executions. A checkpoint is USEFUL iff it belongs to some consistent
// global snapshot, and the classic characterization is: a checkpoint is
// useless iff it lies on a Z-cycle (a zigzag path from itself to itself).
//
// The analysis complements the paper's guarantees: checkpoints of a
// program transformed by Phase III always belong to their straight cut —
// a recovery line — so none can be on a Z-cycle; uncoordinated placements
// routinely produce Z-cycles (the domino effect's root cause). Tests
// verify both directions on real traces.
//
// Definitions (intervals are 1-based: I_{p,i} is the span between p's
// (i−1)-th and i-th checkpoints, matching the paper's §2):
//
//   - A zigzag path from checkpoint c_{p,i} to c_{q,j} is a message
//     sequence m₁,…,m_k where m₁ is sent by p in an interval > i, each
//     m_{l+1} is sent by m_l's receiver in the same or a later interval
//     than the one m_l was received in (possibly earlier in real time —
//     the "zig"), and m_k is received by q in an interval ≤ j.
//   - c is on a Z-cycle iff there is a zigzag path from c to c.
package zigzag

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// message is a recorded message with its interval endpoints.
type message struct {
	from, to int
	sendIntv int // interval at the sender (1-based)
	recvIntv int // interval at the receiver
}

// Analysis holds the preprocessed execution.
type Analysis struct {
	n int
	// counts[p] is the number of checkpoints process p took.
	counts []int
	// chkpts[p][k] is p's (k+1)-th checkpoint (ordinal k+1).
	chkpts [][]trace.Checkpoint
	// msgsBySender[p] lists messages sent by p, sorted by send interval.
	msgsBySender [][]message
}

// FromTrace preprocesses a finished trace. Unmatched sends (messages never
// received) are ignored: they cannot appear on a zigzag path.
func FromTrace(tr *trace.Trace) (*Analysis, error) {
	if err := trace.Validate(tr); err != nil {
		return nil, fmt.Errorf("zigzag: %w", err)
	}
	events := tr.Events()
	a := &Analysis{
		n:            tr.N(),
		counts:       make([]int, tr.N()),
		chkpts:       make([][]trace.Checkpoint, tr.N()),
		msgsBySender: make([][]message, tr.N()),
	}
	// interval number of each send/recv event: checkpoints-so-far + 1.
	type evKey struct{ proc, seq int }
	intervalOf := make(map[evKey]int)
	for p, hist := range events {
		intv := 1
		for _, e := range hist {
			switch e.Kind {
			case trace.KindCheckpoint:
				a.chkpts[p] = append(a.chkpts[p], e.Chkpt)
				a.counts[p]++
				intv++
			case trace.KindSend, trace.KindRecv:
				intervalOf[evKey{p, e.Seq}] = intv
			}
		}
	}
	// Pair sends with receives.
	recvIntv := make(map[trace.MessageID]int)
	for p, hist := range events {
		for _, e := range hist {
			if e.Kind == trace.KindRecv {
				recvIntv[e.Msg] = intervalOf[evKey{p, e.Seq}]
			}
		}
	}
	for p, hist := range events {
		for _, e := range hist {
			if e.Kind != trace.KindSend {
				continue
			}
			ri, ok := recvIntv[e.Msg]
			if !ok {
				continue // in flight at termination
			}
			a.msgsBySender[p] = append(a.msgsBySender[p], message{
				from:     p,
				to:       e.Msg.To,
				sendIntv: intervalOf[evKey{p, e.Seq}],
				recvIntv: ri,
			})
		}
	}
	for p := range a.msgsBySender {
		sort.Slice(a.msgsBySender[p], func(i, j int) bool {
			return a.msgsBySender[p][i].sendIntv < a.msgsBySender[p][j].sendIntv
		})
	}
	return a, nil
}

// zreach computes, starting from "may send a message from interval ≥ t of
// process p", the minimal receive interval reachable at every process via
// zigzag sequences. minRecv[q] = smallest interval in which some zigzag
// path's last message is received at q (n+large when unreachable).
func (a *Analysis) zreach(p, t int) []int {
	const unreachable = 1 << 30
	minRecv := make([]int, a.n)
	// minSendFloor[q] tracks the smallest "can send from interval ≥ u"
	// state reached for q; smaller u is strictly stronger.
	minSendFloor := make([]int, a.n)
	for q := 0; q < a.n; q++ {
		minRecv[q] = unreachable
		minSendFloor[q] = unreachable
	}
	type state struct{ proc, floor int }
	queue := []state{{p, t}}
	minSendFloor[p] = t
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, m := range a.msgsBySender[s.proc] {
			if m.sendIntv < s.floor {
				continue
			}
			if m.recvIntv < minRecv[m.to] {
				minRecv[m.to] = m.recvIntv
			}
			// The receiver may continue the zigzag from interval ≥
			// recvIntv.
			if m.recvIntv < minSendFloor[m.to] {
				minSendFloor[m.to] = m.recvIntv
				queue = append(queue, state{m.to, m.recvIntv})
			}
		}
	}
	return minRecv
}

// ZPath reports whether a zigzag path exists from c_{p,i} to c_{q,j}
// (checkpoint ordinals, 1-based).
func (a *Analysis) ZPath(p, i, q, j int) bool {
	if i < 1 || i > a.counts[p] || j < 1 || j > a.counts[q] {
		return false
	}
	minRecv := a.zreach(p, i+1)
	return minRecv[q] <= j
}

// OnZCycle reports whether checkpoint ordinal i of process p lies on a
// Z-cycle (and is therefore useless: it belongs to no consistent global
// snapshot).
func (a *Analysis) OnZCycle(p, i int) bool {
	return a.ZPath(p, i, p, i)
}

// Useless returns every checkpoint of the execution that lies on a
// Z-cycle.
func (a *Analysis) Useless() []trace.Checkpoint {
	var out []trace.Checkpoint
	for p := 0; p < a.n; p++ {
		for i := 1; i <= a.counts[p]; i++ {
			if a.OnZCycle(p, i) {
				out = append(out, a.chkpts[p][i-1])
			}
		}
	}
	return out
}

// Stats summarizes the analysis.
type Stats struct {
	Total   int
	Useless int
}

// Stats counts total and useless checkpoints.
func (a *Analysis) Stats() Stats {
	s := Stats{Useless: len(a.Useless())}
	for p := 0; p < a.n; p++ {
		s.Total += a.counts[p]
	}
	return s
}
