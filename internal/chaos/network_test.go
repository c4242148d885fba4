package chaos

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestNetVerdictDeterministic(t *testing.T) {
	rates := NetRates{Drop: 0.3, Dup: 0.3, Reorder: 0.3, Delay: 0.3, MaxDelay: time.Millisecond}
	a := NewNetwork(42, rates, nil, nil)
	b := NewNetwork(42, rates, nil, nil)
	for seq := 0; seq < 200; seq++ {
		for _, class := range []sim.LinkClass{sim.LinkData, sim.LinkCtrl, sim.LinkAck} {
			va := a.Verdict(class, 0, 1, seq, 0)
			vb := b.Verdict(class, 0, 1, seq, 0)
			if va != vb {
				t.Fatalf("same seed diverged: class=%v seq=%d: %+v vs %+v", class, seq, va, vb)
			}
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	if a.Stats().Total() == 0 {
		t.Fatal("30% rates injected nothing across 600 frames")
	}
}

func TestNetVerdictSeedsDiffer(t *testing.T) {
	rates := NetRates{Drop: 0.5}
	a := NewNetwork(1, rates, nil, nil)
	b := NewNetwork(2, rates, nil, nil)
	same := 0
	const frames = 400
	for seq := 0; seq < frames; seq++ {
		if a.Verdict(sim.LinkData, 0, 1, seq, 0).Drop == b.Verdict(sim.LinkData, 0, 1, seq, 0).Drop {
			same++
		}
	}
	if same == frames {
		t.Fatal("different seeds produced identical drop patterns")
	}
}

func TestNetVerdictAttemptReRolls(t *testing.T) {
	// A frame dropped on attempt k must be able to pass on a later attempt:
	// the attempt number is part of the hash input. With Drop=0.5 the odds
	// that some frame stays dropped across 20 attempts are ~1e-6 per frame.
	c := NewNetwork(7, NetRates{Drop: 0.5}, nil, nil)
	for seq := 0; seq < 50; seq++ {
		passed := false
		for attempt := 0; attempt < 20; attempt++ {
			if !c.Verdict(sim.LinkData, 0, 1, seq, attempt).Drop {
				passed = true
				break
			}
		}
		if !passed {
			t.Fatalf("seq %d dropped on all 20 attempts", seq)
		}
	}
}

func TestNetVerdictClassStreamsIndependent(t *testing.T) {
	// Data and ack decisions for the same (from,to,seq) must come from
	// independent streams — otherwise ack loss correlates with data loss
	// and retransmission livelocks become artificially likely.
	c := NewNetwork(11, NetRates{Drop: 0.5}, nil, nil)
	same := 0
	const frames = 400
	for seq := 0; seq < frames; seq++ {
		d := c.Verdict(sim.LinkData, 0, 1, seq, 0).Drop
		a := c.Verdict(sim.LinkAck, 0, 1, seq, 0).Drop
		if d == a {
			same++
		}
	}
	if same == frames {
		t.Fatal("data and ack drop streams are identical")
	}
}

func TestNetRatesZeroInjectsNothing(t *testing.T) {
	c := NewNetwork(99, NetRates{}, nil, nil)
	for seq := 0; seq < 100; seq++ {
		if v := c.Verdict(sim.LinkData, 0, 1, seq, 0); v != (sim.Verdict{}) {
			t.Fatalf("zero rates injected %+v", v)
		}
	}
	if c.Stats().Total() != 0 {
		t.Fatalf("stats = %+v, want all zero", c.Stats())
	}
}

func TestPartitionWindowAndHeal(t *testing.T) {
	// Window opens immediately and lasts 50ms; frames 0->1 drop, the
	// reverse direction flows, and the first frame after the window heals.
	c := NewNetwork(5, NetRates{}, []Partition{{From: 0, To: 1, Start: 0, Dur: 50 * time.Millisecond}}, nil)
	v := c.Verdict(sim.LinkData, 0, 1, 0, 0) // also sets the epoch
	if !v.Drop || !v.Partitioned {
		t.Fatalf("frame inside window not partitioned: %+v", v)
	}
	if v := c.Verdict(sim.LinkData, 1, 0, 0, 0); v.Drop {
		t.Fatalf("reverse direction dropped by a directed partition: %+v", v)
	}
	time.Sleep(60 * time.Millisecond)
	v = c.Verdict(sim.LinkCtrl, 0, 1, 1, 0)
	if v.Drop {
		t.Fatalf("frame after window still dropped: %+v", v)
	}
	if !v.Healed {
		t.Fatalf("first frame after window did not heal: %+v", v)
	}
	if v := c.Verdict(sim.LinkData, 0, 1, 2, 0); v.Healed {
		t.Fatalf("heal reported twice: %+v", v)
	}
	st := c.Stats()
	if st.Heals != 1 || st.PartitionDrops != 1 {
		t.Fatalf("stats = %+v, want 1 heal, 1 partition drop", st)
	}
}

func TestPartitionWildcard(t *testing.T) {
	c := NewNetwork(5, NetRates{}, []Partition{{From: -1, To: 2, Start: 0, Dur: time.Minute}}, nil)
	for from := 0; from < 2; from++ {
		if v := c.Verdict(sim.LinkData, from, 2, 0, 0); !v.Partitioned {
			t.Fatalf("wildcard source %d->2 not partitioned", from)
		}
	}
	if v := c.Verdict(sim.LinkData, 2, 0, 0, 0); v.Partitioned {
		t.Fatal("partition leaked onto a non-matching link")
	}
}

func TestParsePartitions(t *testing.T) {
	parts, err := ParsePartitions("0>1@100ms+300ms, *>2@0s+1s")
	if err != nil {
		t.Fatal(err)
	}
	want := []Partition{
		{From: 0, To: 1, Start: 100 * time.Millisecond, Dur: 300 * time.Millisecond},
		{From: -1, To: 2, Start: 0, Dur: time.Second},
	}
	if len(parts) != len(want) {
		t.Fatalf("parsed %d windows, want %d", len(parts), len(want))
	}
	for i := range want {
		if parts[i] != want[i] {
			t.Fatalf("window %d = %+v, want %+v", i, parts[i], want[i])
		}
	}
	if got := parts[0].String(); got != "0>1@100ms+300ms" {
		t.Fatalf("String() = %q", got)
	}
	if parts, err := ParsePartitions("  "); err != nil || parts != nil {
		t.Fatalf("blank spec: %v, %v", parts, err)
	}
	for _, bad := range []string{"0>1", "0@1s+1s", "0>1@1s", "x>1@1s+1s", "0>1@1s+0s", "-2>1@1s+1s"} {
		if _, err := ParsePartitions(bad); err == nil {
			t.Errorf("spec %q accepted, want error", bad)
		}
	}
}

func TestReorderDelayWithinBounds(t *testing.T) {
	maxD := 4 * time.Millisecond
	c := NewNetwork(3, NetRates{Reorder: 1, MaxDelay: maxD}, nil, nil)
	for seq := 0; seq < 50; seq++ {
		v := c.Verdict(sim.LinkData, 0, 1, seq, 0)
		if !v.Reorder {
			t.Fatalf("rate 1 did not reorder seq %d", seq)
		}
		if v.Delay < maxD/2 || v.Delay > maxD {
			t.Fatalf("reorder delay %v outside [%v, %v]", v.Delay, maxD/2, maxD)
		}
	}
}

func TestDefaultNetRates(t *testing.T) {
	r := DefaultNetRates(0.2)
	if r.Drop != 0.2 || r.Dup != 0.1 || r.Reorder != 0.1 || r.Delay != 0.05 || r.MaxDelay <= 0 {
		t.Fatalf("DefaultNetRates = %+v", r)
	}
}
