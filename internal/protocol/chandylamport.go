package protocol

import (
	"fmt"
	"runtime"

	"repro/internal/sim"
)

const tagMarker = "cl-marker"

// clProc is per-process Chandy-Lamport state. Rounds may overlap (a fast
// neighbor can reflood round r+1 before round r's markers all arrived), so
// marker bookkeeping is per round.
type clProc struct {
	initiator  bool
	stmtHits   int // checkpoint statements executed = rounds expected
	started    map[int]bool
	markerFrom map[int][]bool
	markersIn  map[int]int
	nproc      int
}

// CL returns the hooks factory for Chandy-Lamport distributed snapshots.
// Rank 0 initiates a snapshot round at each of its checkpoint statements;
// all other processes ignore their checkpoint statements and checkpoint on
// first marker receipt. Checkpoints of round r are saved with straight-cut
// index r, so the trace/storage verifiers can check the snapshot's
// consistency directly. The channel state the classic algorithm records
// between a process's checkpoint and its last marker is not kept: recovery
// rebuilds in-flight messages from the senders' logs for every protocol.
func CL() sim.HooksFactory {
	return func(rank, nproc int) sim.Hooks {
		return &clHooks{state: &clProc{
			initiator:  rank == 0,
			started:    make(map[int]bool),
			markerFrom: make(map[int][]bool),
			markersIn:  make(map[int]int),
			nproc:      nproc,
		}}
	}
}

type clHooks struct {
	sim.NoHooks
	state *clProc
}

var _ sim.Hooks = (*clHooks)(nil)

// startRound checkpoints locally and floods markers.
func (h *clHooks) startRound(p *sim.Proc, round int) error {
	st := h.state
	st.started[round] = true
	st.markerFrom[round] = make([]bool, st.nproc)
	if err := p.TakeCheckpoint(round); err != nil {
		return err
	}
	for q := 0; q < p.N(); q++ {
		if q != p.Rank() {
			if err := p.SendMarker(q, tagMarker, []int{round}); err != nil {
				return err
			}
		}
	}
	return nil
}

// AtChkptStmt: the initiator starts a round; everyone else defers to the
// marker flood.
func (h *clHooks) AtChkptStmt(p *sim.Proc, _ int) (bool, error) {
	st := h.state
	st.stmtHits++
	if st.initiator {
		if err := h.startRound(p, st.stmtHits-1); err != nil {
			return false, err
		}
	}
	return false, nil
}

// OnMarker implements the classic rules: the first marker of a round takes
// the local checkpoint and refloods; a round completes when markers
// arrived on all inbound channels.
func (h *clHooks) OnMarker(p *sim.Proc, m sim.Message) error {
	st := h.state
	round := m.Piggyback[0]
	if !st.started[round] {
		if err := h.startRound(p, round); err != nil {
			return err
		}
	}
	if st.markerFrom[round][m.From] {
		return fmt.Errorf("protocol: CL process %d: duplicate marker from %d round %d",
			p.Rank(), m.From, round)
	}
	st.markerFrom[round][m.From] = true
	st.markersIn[round]++
	return nil
}

// roundsDone reports whether all expected rounds started and completed.
func (st *clProc) roundsDone() bool {
	for r := 0; r < st.stmtHits; r++ {
		if !st.started[r] || st.markersIn[r] < st.nproc-1 {
			return false
		}
	}
	return true
}

// OnHalt drains outstanding markers so late rounds complete: the process
// has executed all its checkpoint statements, so it knows how many rounds
// exist and spins (yielding) until their markers arrive.
func (h *clHooks) OnHalt(p *sim.Proc) error {
	st := h.state
	const spinBudget = 1 << 22
	for spins := 0; !st.roundsDone(); spins++ {
		progress := false
		for from := 0; from < p.N(); from++ {
			if from == p.Rank() {
				continue
			}
			if m, ok := p.PollMarker(from); ok {
				if err := h.OnMarker(p, m); err != nil {
					return err
				}
				progress = true
			}
		}
		if !progress {
			if spins >= spinBudget {
				return fmt.Errorf("protocol: CL process %d: rounds incomplete at halt", p.Rank())
			}
			runtime.Gosched()
		}
	}
	return nil
}
