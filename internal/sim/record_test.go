package sim

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// lookObserver reads an event and keeps nothing of it.
type lookObserver struct{ kinds, refSum uint64 }

func (o *lookObserver) OnEvent(e obs.Event) {
	o.kinds += uint64(e.Kind)
	o.refSum += uint64(e.Msg.Seq + e.Chkpt.Instance)
}

// Producing an event costs the runtime no allocation: the event is a flat
// value. What an observer allocates to keep one is the observer's business.
func TestProducingEventsAllocatesNothing(t *testing.T) {
	look := &lookObserver{}
	p := &Proc{rank: 1, n: 4, obsv: look, inc: 2, failAfter: -1}
	msg := trace.MessageID{From: 1, To: 2, Seq: 5}
	allocs := testing.AllocsPerRun(200, func() {
		p.record(trace.Event{Kind: trace.KindSend, Msg: msg, Peer: 2})
		p.record(trace.Event{Kind: trace.KindRecv, Msg: msg, Peer: 1})
		p.record(trace.Event{Kind: trace.KindCheckpoint, Chkpt: trace.Checkpoint{CFGIndex: 1, Instance: 4}, Label: "C_1"})
		p.emit(obs.Event{Kind: obs.KindHalt})
	})
	if allocs != 0 {
		t.Errorf("send + recv + chkpt + halt cost %v allocs, want 0", allocs)
	}
	if look.kinds == 0 || look.refSum == 0 {
		t.Fatal("the observer saw nothing")
	}
}
