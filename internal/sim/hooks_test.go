package sim

import (
	"testing"
	"time"

	"repro/internal/corpus"
)

// probeHooks exercises the full Proc API surface from inside a protocol.
type probeHooks struct {
	NoHooks
	sawRank   int
	sawN      int
	steps     int
	sentCtrl  bool
	gotCtrl   bool
	sentMark  bool
	gotMarker bool
}

func (h *probeHooks) OnStep(p *Proc) error {
	h.steps++
	h.sawRank = p.Rank()
	h.sawN = p.N()
	_ = p.Events()
	p.Counters().Inc("probe", 1)
	// On the first step, rank 0 pings rank 1 with a control message and a
	// marker.
	if h.steps == 1 && p.Rank() == 0 && p.N() > 1 {
		if err := p.SendCtrl(1, "ping", []int{7}); err != nil {
			return err
		}
		if err := p.SendMarker(1, "mark", []int{9}); err != nil {
			return err
		}
		h.sentCtrl = true
		h.sentMark = true
	}
	return nil
}

func (h *probeHooks) OnCtrl(p *Proc, m Message) error {
	if m.Tag == "ping" && m.Piggyback[0] == 7 {
		h.gotCtrl = true
	}
	return nil
}

func (h *probeHooks) OnMarker(p *Proc, m Message) error {
	if m.Tag == "mark" && m.Piggyback[0] == 9 {
		h.gotMarker = true
	}
	return nil
}

func (h *probeHooks) OnHalt(p *Proc) error {
	// Drain any marker that raced past the last boundary.
	for from := 0; from < p.N(); from++ {
		if from == p.Rank() {
			continue
		}
		if m, ok := p.PollMarker(from); ok {
			if err := h.OnMarker(p, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestHooksAPISurface(t *testing.T) {
	hooks := make([]*probeHooks, 2)
	res, err := Run(Config{
		Program: corpus.JacobiFig1(2),
		Nproc:   2,
		Hooks: func(rank, nproc int) Hooks {
			hooks[rank] = &probeHooks{}
			return hooks[rank]
		},
		Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hooks[0].sentCtrl || !hooks[0].sentMark {
		t.Error("rank 0 did not send probes")
	}
	if !hooks[1].gotCtrl {
		t.Error("rank 1 missed the control ping")
	}
	if !hooks[1].gotMarker {
		t.Error("rank 1 missed the marker")
	}
	for r, h := range hooks {
		if h.sawRank != r || h.sawN != 2 {
			t.Errorf("hook %d observed rank=%d n=%d", r, h.sawRank, h.sawN)
		}
		if h.steps == 0 {
			t.Errorf("hook %d never stepped", r)
		}
	}
	if res.Metrics.Custom["probe"] == 0 {
		t.Error("custom counter not recorded")
	}
	if res.Metrics.CtrlMessages != 2 {
		t.Errorf("ctrl messages = %d, want 2 (ping + marker)", res.Metrics.CtrlMessages)
	}
}

// blockingCtrlHooks exercises Proc.RecvCtrl (the blocking wait). The token
// can also be consumed by the runtime's boundary polling (OnCtrl), so both
// paths mark receipt — whichever wins the race.
type blockingCtrlHooks struct {
	NoHooks
	sent bool
	got  bool
}

func (h *blockingCtrlHooks) OnCtrl(p *Proc, m Message) error {
	if m.Tag == "token" {
		h.got = true
	}
	return nil
}

func (h *blockingCtrlHooks) AtChkptStmt(p *Proc, idx int) (bool, error) {
	if p.Rank() == 0 {
		if !h.sent {
			h.sent = true
			if err := p.SendCtrl(1, "token", nil); err != nil {
				return true, err
			}
		}
		return true, nil
	}
	if p.Rank() == 1 && !h.got {
		for {
			m, err := p.RecvCtrl()
			if err != nil {
				return false, err
			}
			if m.Tag == "token" {
				h.got = true
				return true, nil
			}
		}
	}
	return true, nil
}

func TestRecvCtrlBlocks(t *testing.T) {
	var h1 *blockingCtrlHooks
	_, err := Run(Config{
		Program: corpus.JacobiFig1(2),
		Nproc:   2,
		Hooks: func(rank, nproc int) Hooks {
			h := &blockingCtrlHooks{}
			if rank == 1 {
				h1 = h
			}
			return h
		},
		Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if h1 == nil || !h1.got {
		t.Error("rank 1 never received the blocking control token")
	}
}
