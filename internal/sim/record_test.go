package sim

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// lookObserver reads an event and keeps nothing of it.
type lookObserver struct{ kinds, clockSum uint64 }

func (o *lookObserver) OnEvent(e obs.Event) {
	o.kinds += uint64(e.Kind)
	for _, c := range e.VClock {
		o.clockSum += c
	}
}

// Producing an event costs the runtime no allocation: the event is a flat
// value and the clock in it is the process's own, lent. What an observer
// allocates to keep one is the observer's business.
func TestProducingEventsAllocatesNothing(t *testing.T) {
	look := &lookObserver{}
	p := &Proc{rank: 1, n: 4, obsv: look, inc: 2, failAfter: -1, clock: vclock.VC{3, 9, 0, 7}}
	msg := trace.MessageID{From: 1, To: 2, Seq: 5}
	allocs := testing.AllocsPerRun(200, func() {
		p.clock.Tick(p.rank)
		p.record(trace.Event{Kind: trace.KindSend, Msg: msg, Peer: 2})
		p.record(trace.Event{Kind: trace.KindRecv, Msg: msg, Peer: 1})
		p.record(trace.Event{Kind: trace.KindCheckpoint, Chkpt: trace.Checkpoint{CFGIndex: 1, Instance: 4}, Label: "C_1"})
		p.emit(obs.Event{Kind: obs.KindHalt, VClock: p.clock})
	})
	if allocs != 0 {
		t.Errorf("send + recv + chkpt + halt cost %v allocs, want 0", allocs)
	}
	if look.kinds == 0 || look.clockSum == 0 {
		t.Fatal("the observer saw nothing")
	}
}
