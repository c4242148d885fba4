package trace

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vclock"
)

// builder drives a Trace with correctly-maintained vector clocks, acting as
// a miniature deterministic runtime for tests.
type builder struct {
	t      *Trace
	clocks []vclock.VC
	// pending holds the clock attached to each in-flight message.
	pending map[MessageID]vclock.VC
	seq     map[[2]int]int
	chkpts  map[[2]int]int // (proc, cfgIndex) -> next instance
}

func newBuilder(n int) *builder {
	b := &builder{
		t:       NewTrace(n),
		clocks:  make([]vclock.VC, n),
		pending: make(map[MessageID]vclock.VC),
		seq:     make(map[[2]int]int),
		chkpts:  make(map[[2]int]int),
	}
	for i := range b.clocks {
		b.clocks[i] = vclock.New(n)
	}
	return b
}

func (b *builder) compute(p int) {
	b.clocks[p].Tick(p)
	b.t.Append(Event{Proc: p, Kind: KindCompute, Clock: b.clocks[p]})
}

func (b *builder) send(from, to int) MessageID {
	key := [2]int{from, to}
	id := MessageID{From: from, To: to, Seq: b.seq[key]}
	b.seq[key]++
	b.clocks[from].Tick(from)
	b.pending[id] = b.clocks[from].Clone()
	b.t.Append(Event{Proc: from, Kind: KindSend, Clock: b.clocks[from], Msg: id, Peer: to})
	return id
}

func (b *builder) recv(id MessageID) {
	p := id.To
	b.clocks[p].Tick(p)
	b.clocks[p].Merge(b.pending[id])
	b.t.Append(Event{Proc: p, Kind: KindRecv, Clock: b.clocks[p], Msg: id, Peer: id.From})
}

func (b *builder) checkpoint(p, cfgIndex int) Checkpoint {
	key := [2]int{p, cfgIndex}
	inst := b.chkpts[key]
	b.chkpts[key]++
	b.clocks[p].Tick(p)
	e := b.t.Append(Event{
		Proc: p, Kind: KindCheckpoint, Clock: b.clocks[p],
		Chkpt: Checkpoint{CFGIndex: cfgIndex, Instance: inst},
	})
	return e.Chkpt
}

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{KindCompute, "compute"},
		{KindSend, "send"},
		{KindRecv, "recv"},
		{KindCheckpoint, "checkpoint"},
		{Kind(0), "kind(0)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.k, got, tt.want)
		}
	}
}

func TestAppendAssignsSeq(t *testing.T) {
	b := newBuilder(2)
	b.compute(0)
	b.compute(0)
	b.compute(1)
	h0 := b.t.Events()[0]
	if len(h0) != 2 || h0[0].Seq != 0 || h0[1].Seq != 1 {
		t.Fatalf("history 0 seqs wrong: %+v", h0)
	}
	if b.t.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.t.Len())
	}
}

func TestStraightCutPicksLatestInstance(t *testing.T) {
	b := newBuilder(2)
	// Both processes take checkpoint index 1 twice (loop semantics).
	b.checkpoint(0, 1)
	b.checkpoint(1, 1)
	b.checkpoint(0, 1)
	b.checkpoint(1, 1)
	cut, err := b.t.StraightCut(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range cut {
		if cp.Instance != 1 {
			t.Errorf("process %d: got instance %d, want latest (1)", cp.Proc, cp.Instance)
		}
	}
}

func TestStraightCutMissing(t *testing.T) {
	b := newBuilder(2)
	b.checkpoint(0, 1)
	if _, err := b.t.StraightCut(1); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestCheckpointIndexes(t *testing.T) {
	b := newBuilder(1)
	b.checkpoint(0, 3)
	b.checkpoint(0, 1)
	b.checkpoint(0, 3)
	got := b.t.CheckpointIndexes()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("indexes = %v, want [1 3]", got)
	}
}

// consistentScenario: both checkpoint before exchanging messages — the
// straight cut is a recovery line (paper Figure 1 behaviour).
func consistentScenario() (*builder, Cut) {
	b := newBuilder(2)
	c0 := b.checkpoint(0, 1)
	c1 := b.checkpoint(1, 1)
	m := b.send(0, 1)
	b.recv(m)
	m2 := b.send(1, 0)
	b.recv(m2)
	return b, Cut{c0, c1}
}

// inconsistentScenario: P0 checkpoints, sends to P1, and P1 checkpoints
// after receiving — C_{0,1} happened before C_{1,1} (paper Figure 3
// behaviour).
func inconsistentScenario() (*builder, Cut) {
	b := newBuilder(2)
	c0 := b.checkpoint(0, 1)
	m := b.send(0, 1)
	b.recv(m)
	c1 := b.checkpoint(1, 1)
	return b, Cut{c0, c1}
}

func TestIsRecoveryLine(t *testing.T) {
	_, goodCut := consistentScenario()
	if !IsRecoveryLine(goodCut) {
		t.Error("consistent cut rejected")
	}
	_, badCut := inconsistentScenario()
	if IsRecoveryLine(badCut) {
		t.Error("inconsistent cut accepted")
	}
	if a, bb, ok := FirstViolation(badCut); !ok || a.Proc != 0 || bb.Proc != 1 {
		t.Errorf("FirstViolation = %v,%v,%v; want P0 before P1", a, bb, ok)
	}
	if _, _, ok := FirstViolation(goodCut); ok {
		t.Error("FirstViolation reported on a recovery line")
	}
}

func TestHBStructuralAgreesOnScenarios(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() (*builder, Cut)
		want bool
	}{
		{"consistent", consistentScenario, true},
		{"inconsistent", inconsistentScenario, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, cut := tc.mk()
			h, err := NewHB(b.t)
			if err != nil {
				t.Fatal(err)
			}
			if got := h.CutConsistentStructural(cut); got != tc.want {
				t.Errorf("structural = %v, want %v", got, tc.want)
			}
			if got := h.CutConsistentByMessages(cut); got != tc.want {
				t.Errorf("by-messages = %v, want %v", got, tc.want)
			}
			if got := IsRecoveryLine(cut); got != tc.want {
				t.Errorf("vector clocks = %v, want %v", got, tc.want)
			}
			if err := h.CheckClockConsistency(); err != nil {
				t.Errorf("clock consistency: %v", err)
			}
		})
	}
}

func TestHBBeforeSameProcess(t *testing.T) {
	b := newBuilder(1)
	b.compute(0)
	b.compute(0)
	h, err := NewHB(b.t)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Before(0, 0, 0, 1) {
		t.Error("earlier local event should be before later")
	}
	if h.Before(0, 1, 0, 0) {
		t.Error("later local event cannot be before earlier")
	}
}

func TestHBTransitiveAcrossThreeProcesses(t *testing.T) {
	b := newBuilder(3)
	m01 := b.send(0, 1)
	b.recv(m01)
	m12 := b.send(1, 2)
	b.recv(m12)
	h, err := NewHB(b.t)
	if err != nil {
		t.Fatal(err)
	}
	// send on P0 (event 0,0) should be before recv on P2.
	recvSeq := len(b.t.Events()[2]) - 1
	if !h.Before(0, 0, 2, recvSeq) {
		t.Error("transitive hb across chain not detected")
	}
	if h.Before(2, recvSeq, 0, 0) {
		t.Error("reverse hb should not hold")
	}
}

func TestValidateDetectsUnsentMessage(t *testing.T) {
	tr := NewTrace(2)
	tr.Append(Event{Proc: 1, Kind: KindRecv, Clock: vclock.New(2), Msg: MessageID{From: 0, To: 1, Seq: 0}})
	if err := Validate(tr); err == nil {
		t.Error("unsent message not detected")
	}
}

func TestValidateDetectsDuplicateRecv(t *testing.T) {
	tr := NewTrace(2)
	id := MessageID{From: 0, To: 1, Seq: 0}
	tr.Append(Event{Proc: 0, Kind: KindSend, Clock: vclock.New(2), Msg: id})
	tr.Append(Event{Proc: 1, Kind: KindRecv, Clock: vclock.New(2), Msg: id})
	tr.Append(Event{Proc: 1, Kind: KindRecv, Clock: vclock.New(2), Msg: id})
	if err := Validate(tr); err == nil {
		t.Error("duplicate receive not detected")
	}
}

func TestValidateDetectsFIFOViolation(t *testing.T) {
	tr := NewTrace(2)
	id0 := MessageID{From: 0, To: 1, Seq: 0}
	id1 := MessageID{From: 0, To: 1, Seq: 1}
	tr.Append(Event{Proc: 0, Kind: KindSend, Clock: vclock.New(2), Msg: id0})
	tr.Append(Event{Proc: 0, Kind: KindSend, Clock: vclock.New(2), Msg: id1})
	tr.Append(Event{Proc: 1, Kind: KindRecv, Clock: vclock.New(2), Msg: id1})
	tr.Append(Event{Proc: 1, Kind: KindRecv, Clock: vclock.New(2), Msg: id0})
	if err := Validate(tr); err == nil {
		t.Error("FIFO violation not detected")
	}
}

func TestValidateAcceptsGoodTrace(t *testing.T) {
	b, _ := consistentScenario()
	if err := Validate(b.t); err != nil {
		t.Errorf("good trace rejected: %v", err)
	}
}

// TestRandomTraceAgreement generates random executions and asserts that the
// three consistency deciders always agree, and that clocks match structural
// happened-before — the package's core cross-check property.
func TestRandomTraceAgreement(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3)
		b := newBuilder(n)
		var inflight []MessageID
		for step := 0; step < 40; step++ {
			p := r.Intn(n)
			switch r.Intn(4) {
			case 0:
				b.compute(p)
			case 1:
				q := r.Intn(n)
				if q == p {
					q = (q + 1) % n
				}
				inflight = append(inflight, b.send(p, q))
			case 2:
				// Deliver the oldest in-flight message per FIFO.
				if len(inflight) > 0 {
					b.recv(inflight[0])
					inflight = inflight[1:]
				}
			case 3:
				b.checkpoint(p, 1)
			}
		}
		// Ensure every process has at least one checkpoint.
		for p := 0; p < n; p++ {
			b.checkpoint(p, 1)
		}
		for len(inflight) > 0 {
			b.recv(inflight[0])
			inflight = inflight[1:]
		}
		if err := Validate(b.t); err != nil {
			t.Fatalf("seed %d: invalid trace: %v", seed, err)
		}
		h, err := NewHB(b.t)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := h.CheckClockConsistency(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cut, err := b.t.StraightCut(1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		byClocks := IsRecoveryLine(cut)
		byStruct := h.CutConsistentStructural(cut)
		byMsgs := h.CutConsistentByMessages(cut)
		if byClocks != byStruct || byStruct != byMsgs {
			t.Fatalf("seed %d: deciders disagree: clocks=%v structural=%v messages=%v",
				seed, byClocks, byStruct, byMsgs)
		}
	}
}

func BenchmarkStraightCut(b *testing.B) {
	bb := newBuilder(8)
	for i := 0; i < 200; i++ {
		bb.checkpoint(i%8, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bb.t.StraightCut(1); err != nil {
			b.Fatal(err)
		}
	}
}

// StampClocks, given only the histories, gives every event the clock a
// runtime that carried clocks stamped as it went: random executions built
// with clocks are recorded again without them, and stamped. A receive of a
// message sent before the trace began merges nothing.
func TestStampClocksMatchesRecordedClocks(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for run := 0; run < 50; run++ {
		n := 2 + rng.Intn(4)
		b := newBuilder(n)
		var inFlight []MessageID
		for step := 0; step < 60; step++ {
			p := rng.Intn(n)
			switch op := rng.Intn(4); {
			case op == 0:
				b.compute(p)
			case op == 1:
				if q := rng.Intn(n); q != p {
					inFlight = append(inFlight, b.send(p, q))
				}
			case op == 2 && len(inFlight) > 0:
				i := rng.Intn(len(inFlight))
				b.recv(inFlight[i])
				inFlight = append(inFlight[:i], inFlight[i+1:]...)
			default:
				b.checkpoint(p, 1+rng.Intn(2))
			}
		}
		want := b.t.Events()
		bare := NewTrace(n)
		for _, h := range want {
			for _, e := range h {
				e.Clock, e.Chkpt.Clock = nil, nil
				bare.Append(e)
			}
		}
		bare.StampClocks()
		for p, h := range bare.Events() {
			for s, e := range h {
				if w := want[p][s].Clock; fmt.Sprint(e.Clock) != fmt.Sprint(w) ||
					(e.Kind == KindCheckpoint && fmt.Sprint(e.Chkpt.Clock) != fmt.Sprint(w)) {
					t.Fatalf("run %d: event (%d,%d) %v stamped %v / %v, recorded with %v", run, p, s, e.Kind, e.Clock, e.Chkpt.Clock, w)
				}
			}
		}
	}
	tr := NewTrace(2)
	tr.Append(Event{Proc: 1, Kind: KindRecv, Msg: MessageID{From: 0, To: 1, Seq: 3}, Peer: 0})
	tr.StampClocks()
	if got := tr.Events()[1][0].Clock; fmt.Sprint(got) != "[0 1]" {
		t.Errorf("a receive whose send the trace lacks is stamped %v, want [0 1]", got)
	}
}
