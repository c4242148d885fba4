// Package protocol implements the checkpointing protocols the paper
// compares against (§4.1) on top of the sim runtime's hook interface:
//
//   - SaS — synchronize-and-stop coordinated checkpointing [19]: all
//     processes barrier at checkpoint statements under a coordinator that
//     exchanges 5(n−1) control messages per checkpoint round (the paper's
//     M(SaS) formula: three coordinator broadcasts, two replies each).
//   - CL — the Chandy-Lamport distributed-snapshots protocol [7]: the
//     initiator checkpoints and floods markers; every process checkpoints
//     on first marker receipt and refloods. Channel state is not recorded:
//     recovery rebuilds in-flight messages from the senders' logs.
//   - CIC — communication-induced checkpointing in the index-based (BCS)
//     style: checkpoint indexes are piggybacked on application messages
//     and a receiver whose index lags is forced to checkpoint before
//     delivery.
//   - Uncoordinated — processes checkpoint on a purely local schedule;
//     recovery must search for a consistent cut and may cascade (domino
//     effect).
//
// The application-driven scheme of the paper needs NO protocol: it is
// sim.NoProtocol.
package protocol

import (
	"fmt"

	"repro/internal/sim"
)

// sasCoordinator is the rank that runs SaS's barrier rounds.
const sasCoordinator = 0

// Control tags used by SaS.
const (
	tagInit   = "sas-init"
	tagReady  = "sas-ready"
	tagChkpt  = "sas-chkpt"
	tagDone   = "sas-done"
	tagResume = "sas-resume"
)

// sasProc is one process's SaS state (rounds are implicit: every process
// reaches every checkpoint statement in SPMD programs).
type sasProc struct {
	round int
	// stash holds control messages consumed by the runtime's boundary
	// polling before the barrier logic asked for them.
	stash []sim.Message
}

// SaS returns the hooks factory for synchronize-and-stop coordinated
// checkpointing with rank 0 as the coordinator. Checkpoint statements act
// as the coordination points: every process must reach the statement
// before anyone checkpoints, all stop, checkpoint, and resume together —
// so the n checkpoints of round r trivially form a recovery line.
//
// SaS requires every process to reach checkpoint statements in the same
// order (true for SPMD programs with uniform control flow at the
// checkpoint statements); a program where one rank communicates before
// its checkpoint while its peer has already stopped would deadlock, which
// is precisely the coordination fragility the paper's approach removes.
func SaS() sim.HooksFactory {
	return func(rank, nproc int) sim.Hooks {
		return &sasHooks{state: &sasProc{}}
	}
}

type sasHooks struct {
	sim.NoHooks
	state *sasProc
}

var _ sim.Hooks = (*sasHooks)(nil)

// OnCtrl stashes control traffic consumed by boundary polling.
func (h *sasHooks) OnCtrl(p *sim.Proc, m sim.Message) error {
	h.state.stash = append(h.state.stash, m)
	return nil
}

// waitFor blocks until a control message with the tag arrives.
func (h *sasHooks) waitFor(p *sim.Proc, tag string) (sim.Message, error) {
	for i, m := range h.state.stash {
		if m.Tag == tag {
			h.state.stash = append(h.state.stash[:i], h.state.stash[i+1:]...)
			return m, nil
		}
	}
	for {
		m, err := p.RecvCtrl()
		if err != nil {
			return sim.Message{}, err
		}
		if m.Tag == tag {
			return m, nil
		}
		h.state.stash = append(h.state.stash, m)
	}
}

// AtChkptStmt implements the stop-the-world barrier.
func (h *sasHooks) AtChkptStmt(p *sim.Proc, _ int) (bool, error) {
	st := h.state
	n := p.N()
	round := st.round
	st.round++
	if p.Rank() == sasCoordinator {
		// Broadcast 1: INIT.
		for q := 0; q < n; q++ {
			if q != p.Rank() {
				if err := p.SendCtrl(q, tagInit, []int{round}); err != nil {
					return false, err
				}
			}
		}
		// Gather READY from everyone.
		for i := 0; i < n-1; i++ {
			if _, err := h.waitFor(p, tagReady); err != nil {
				return false, err
			}
		}
		// Broadcast 2: CHKPT; checkpoint locally.
		for q := 0; q < n; q++ {
			if q != p.Rank() {
				if err := p.SendCtrl(q, tagChkpt, []int{round}); err != nil {
					return false, err
				}
			}
		}
		if err := p.TakeCheckpoint(round); err != nil {
			return false, err
		}
		// Gather DONE.
		for i := 0; i < n-1; i++ {
			if _, err := h.waitFor(p, tagDone); err != nil {
				return false, err
			}
		}
		// Broadcast 3: RESUME.
		for q := 0; q < n; q++ {
			if q != p.Rank() {
				if err := p.SendCtrl(q, tagResume, []int{round}); err != nil {
					return false, err
				}
			}
		}
		return false, nil
	}
	// Participant: READY → wait CHKPT → checkpoint → DONE → wait RESUME.
	if _, err := h.waitFor(p, tagInit); err != nil {
		return false, err
	}
	if err := p.SendCtrl(sasCoordinator, tagReady, []int{round}); err != nil {
		return false, err
	}
	if _, err := h.waitFor(p, tagChkpt); err != nil {
		return false, err
	}
	if err := p.TakeCheckpoint(round); err != nil {
		return false, err
	}
	if err := p.SendCtrl(sasCoordinator, tagDone, []int{round}); err != nil {
		return false, err
	}
	if _, err := h.waitFor(p, tagResume); err != nil {
		return false, err
	}
	return false, nil
}

// sanity check that rounds stay aligned across processes.
func (h *sasHooks) OnHalt(p *sim.Proc) error {
	if len(h.state.stash) > 0 {
		return fmt.Errorf("protocol: SaS process %d halted with %d unconsumed control messages",
			p.Rank(), len(h.state.stash))
	}
	return nil
}
