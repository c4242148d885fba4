package sim

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/netestim"
	"repro/internal/obs"
)

// eventSink collects observed events for assertions.
type eventSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *eventSink) OnEvent(e obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *eventSink) kinds() map[obs.Kind]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[obs.Kind]int)
	for _, e := range s.events {
		out[e.Kind]++
	}
	return out
}

// funcChaos adapts a function to LinkChaos.
type funcChaos func(class LinkClass, from, to, seq, attempt int) Verdict

func (f funcChaos) Verdict(class LinkClass, from, to, seq, attempt int) Verdict {
	return f(class, from, to, seq, attempt)
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// hardenedNet builds a hardened network for direct transport tests (no
// runtime, so no suspect callback) and registers cleanup of its timers.
func hardenedNet(t *testing.T, n int, cfg NetConfig, obsv obs.Observer) (*Network, *metrics.Counters) {
	t.Helper()
	net := NewNetwork(n)
	counters := &metrics.Counters{}
	net.harden(cfg, counters, obsv)
	t.Cleanup(net.tr.reset)
	return net, counters
}

// TestTransportTransparentAtZeroRates: with the hardened transport on but
// every fault rate zero, runs are behaviourally identical to the legacy
// reliable fabric — same final state, no faults, no retransmissions.
func TestTransportTransparentAtZeroRates(t *testing.T) {
	p := corpus.JacobiFig1(4)
	clean := runOK(t, p, 4)
	res := runOK(t, p, 4, func(c *Config) {
		c.Net = &NetConfig{}
	})
	if !reflect.DeepEqual(clean.FinalVars, res.FinalVars) {
		t.Errorf("hardened zero-rate run diverged:\nclean: %v\ngot:   %v", clean.FinalVars, res.FinalVars)
	}
	if res.Restarts != 0 {
		t.Errorf("restarts = %d, want 0", res.Restarts)
	}
	for _, name := range []string{MetricNetDrops, MetricNetDups, MetricNetReorders, MetricHBSuspects} {
		if got := res.Metrics.Custom[name]; got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
}

// TestTransportDeliversUnderFaults: a hardened run over aggressively lossy
// links (all classes dropped, duplicated, reordered) still converges to the
// fault-free final state, with the repair machinery visibly engaged.
func TestTransportDeliversUnderFaults(t *testing.T) {
	p := corpus.JacobiFig1(3)
	clean := runOK(t, p, 3)
	lossy := funcChaos(func(class LinkClass, from, to, seq, attempt int) Verdict {
		h := int(class)*2654435761 + from*40503 + to*65599 + seq*2246822519 + attempt*3266489917
		h ^= h >> 7
		var v Verdict
		if attempt == 0 && h%5 == 0 { // 20% first-attempt loss, all classes
			v.Drop = true
			return v
		}
		if h%4 == 1 {
			v.Duplicate = true
		}
		if h%7 == 2 {
			v.Delay = time.Duration(h%997) * time.Microsecond
			v.Reorder = true
		}
		return v
	})
	res := runOK(t, p, 3, func(c *Config) {
		c.Net = &NetConfig{Chaos: lossy} // losses here are transient; never suspect
	})
	if !reflect.DeepEqual(clean.FinalVars, res.FinalVars) {
		t.Errorf("lossy run diverged:\nclean: %v\ngot:   %v", clean.FinalVars, res.FinalVars)
	}
	if res.Restarts != 0 {
		t.Errorf("restarts = %d, want 0 (transport must absorb transient loss)", res.Restarts)
	}
	if res.Metrics.Custom[MetricNetRetransmits] == 0 {
		t.Error("no retransmissions under 20% first-attempt loss")
	}
	if res.Metrics.Custom[MetricNetRTOExpired] == 0 {
		t.Error("no RTO expiries under 20% first-attempt loss")
	}
}

// TestInflightReconstructionExactlyOnce is the golden-pinned delivery test:
// messages sent across a duplicating, reordering link, partially consumed,
// then cut by a recovery reset must be redelivered exactly once each, in
// per-channel sequence order — byte-for-byte the pinned list, regardless of
// what duplicates and delays the wire produced.
func TestInflightReconstructionExactlyOnce(t *testing.T) {
	dupReorder := funcChaos(func(class LinkClass, from, to, seq, attempt int) Verdict {
		if class != LinkData {
			return Verdict{}
		}
		v := Verdict{Duplicate: true} // every frame delivered twice
		if seq%3 == 1 {
			v.Delay = 2 * time.Millisecond // and every third frame overtaken
			v.Reorder = true
		}
		return v
	})
	net, counters := hardenedNet(t, 2, NetConfig{Chaos: dupReorder}, nil)

	const total = 10
	for seq := 0; seq < total; seq++ {
		net.Send(Message{Kind: MsgApp, From: 0, To: 1, Seq: seq, Value: 100 + seq})
	}
	// Consume the first 4 messages as the pre-failure execution did; the
	// transport must hand them over in seq order despite dup/reorder.
	for want := 0; want < 4; want++ {
		m, err := net.Recv(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m.Seq != want {
			t.Fatalf("pre-failure delivery out of order: got seq %d, want %d", m.Seq, want)
		}
	}
	if counters.Snapshot().Custom[MetricNetDups] == 0 {
		t.Fatal("injector produced no duplicates; test is vacuous")
	}

	// Recovery line: sender logged seqs [0,10), receiver consumed [0,4).
	sendSeq := [][]int{{0, total}, {0, 0}}
	recvSeq := [][]int{{0, 0}, {4, 0}}
	net.ResetForRecovery(lineOf(sendSeq, recvSeq))

	got := net.channel(0, 1).queued()
	var want []Message
	for seq := 4; seq < total; seq++ {
		want = append(want, Message{Kind: MsgApp, From: 0, To: 1, Seq: seq, Value: 100 + seq})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("in-flight reconstruction:\ngot:  %v\nwant: %v", got, want)
	}
	// The wire may still hold delayed duplicates of pre-reset frames; the
	// generation bump must keep every one of them out of the new queues.
	time.Sleep(5 * time.Millisecond)
	if now := net.channel(0, 1).queued(); len(now) != len(want) {
		t.Fatalf("stale wire frame leaked into post-reset queue: %+v", now)
	}
}

// TestKarnRuleNoSamplesFromRetransmits: when every frame needs a
// retransmission, the ambiguous acks must contribute zero RTT samples
// (Karn's rule); a clean link must accumulate them.
func TestKarnRuleNoSamplesFromRetransmits(t *testing.T) {
	dropFirst := funcChaos(func(class LinkClass, from, to, seq, attempt int) Verdict {
		return Verdict{Drop: class == LinkData && attempt == 0}
	})
	net, counters := hardenedNet(t, 2, NetConfig{Chaos: dropFirst}, nil)

	const total = 5
	for seq := 0; seq < total; seq++ {
		net.Send(Message{Kind: MsgApp, From: 0, To: 1, Seq: seq, Value: seq})
	}
	lk := net.channel(0, 1).lk
	waitUntil(t, 5*time.Second, "all frames acked", func() bool {
		lk.mu.Lock()
		defer lk.mu.Unlock()
		return len(lk.unacked) == 0
	})
	for want := 0; want < total; want++ {
		m, err := net.Recv(0, 1)
		if err != nil || m.Seq != want {
			t.Fatalf("Recv = %+v, %v; want seq %d", m, err, want)
		}
	}
	if rtt, err := lk.est.RTT(); !errors.Is(err, netestim.ErrNoSamples) {
		t.Errorf("estimator took RTT samples from retransmitted exchanges (RTT %v); Karn forbids any", rtt)
	}
	if got := counters.Snapshot().Custom[MetricNetRetransmits]; got < total {
		t.Errorf("%s = %d, want >= %d", MetricNetRetransmits, got, total)
	}

	// Control: an unmolested link must take samples.
	net2, _ := hardenedNet(t, 2, NetConfig{}, nil)
	net2.Send(Message{Kind: MsgApp, From: 0, To: 1, Seq: 0, Value: 1})
	lk2 := net2.channel(0, 1).lk
	waitUntil(t, time.Second, "clean ack", func() bool {
		lk2.mu.Lock()
		defer lk2.mu.Unlock()
		return len(lk2.unacked) == 0
	})
	if _, err := lk2.est.RTT(); err != nil {
		t.Error("clean link accumulated no RTT samples")
	}
}

// TestDetectorConvertsPartitionToRecovery: a one-way partition silences a
// peer; the link waiting on it must convert that silence into the ordinary
// crash→recovery path, and once the partition heals the run must converge
// to the fault-free final state.
func TestDetectorConvertsPartitionToRecovery(t *testing.T) {
	p := corpus.JacobiFig1(3)
	clean := runOK(t, p, 3)

	const window = 3 * SuspectAfter / 2
	var pmu sync.Mutex
	var epoch time.Time
	healed := false
	partition := funcChaos(func(class LinkClass, from, to, seq, attempt int) Verdict {
		pmu.Lock()
		defer pmu.Unlock()
		if epoch.IsZero() {
			epoch = time.Now()
		}
		if from == 0 && to == 1 {
			if time.Since(epoch) < window {
				return Verdict{Drop: true, Partitioned: true}
			}
			if !healed {
				healed = true
				return Verdict{Healed: true}
			}
		}
		return Verdict{}
	})
	sink := &eventSink{}
	res := runOK(t, p, 3, func(c *Config) {
		c.Net = &NetConfig{Chaos: partition}
		c.MaxRestarts = 30
		c.Observer = sink
	})
	if !reflect.DeepEqual(clean.FinalVars, res.FinalVars) {
		t.Errorf("post-heal run diverged:\nclean: %v\ngot:   %v", clean.FinalVars, res.FinalVars)
	}
	if res.Restarts < 1 {
		t.Errorf("restarts = %d, want >= 1 (partition must trigger recovery)", res.Restarts)
	}
	if got := res.Metrics.Custom[MetricHBSuspects]; got < 1 {
		t.Errorf("%s = %d, want >= 1", MetricHBSuspects, got)
	}
	if got := res.Metrics.Custom[MetricPartitionHealed]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricPartitionHealed, got)
	}
	kinds := sink.kinds()
	if kinds[obs.KindSuspect] < 1 {
		t.Errorf("no %s events observed (kinds: %v)", obs.KindSuspect, kinds)
	}
	if kinds[obs.KindRollback] < 1 || kinds[obs.KindRestart] < 1 {
		t.Errorf("suspicion did not flow through the rollback/restart path (kinds: %v)", kinds)
	}
}

// TestPartitionBetweenSilentPairCostsNothing: a one-way partition between
// two ranks that never exchange a message, open longer than SuspectAfter, is
// never noticed. No link waits on the pair, so no peer is suspected, nothing
// restarts, and the run ends as the clean one does. Delayed data frames
// stretch the run past the window.
func TestPartitionBetweenSilentPairCostsNothing(t *testing.T) {
	p := corpus.JacobiFig1(50) // rank r talks to r-1 and r+1 only
	clean := runOK(t, p, 4)
	const window = 3 * SuspectAfter / 2
	var pmu sync.Mutex
	var epoch time.Time
	partition := funcChaos(func(class LinkClass, from, to, seq, attempt int) Verdict {
		pmu.Lock()
		defer pmu.Unlock()
		if epoch.IsZero() {
			epoch = time.Now()
		}
		switch {
		case from == 0 && to == 2 && time.Since(epoch) < window:
			return Verdict{Drop: true, Partitioned: true}
		case class == LinkData:
			return Verdict{Delay: 8 * time.Millisecond}
		}
		return Verdict{}
	})
	sink := &eventSink{}
	start := time.Now()
	res := runOK(t, p, 4, func(c *Config) {
		c.Net = &NetConfig{Chaos: partition}
		c.MaxRestarts = 30
		c.Observer = sink
	})
	if took := time.Since(start); took <= window {
		t.Fatalf("the run took %v, no longer than the %v window: the test shows nothing", took, window)
	}
	if !reflect.DeepEqual(clean.FinalVars, res.FinalVars) {
		t.Errorf("partitioned run diverged:\nclean: %v\ngot:   %v", clean.FinalVars, res.FinalVars)
	}
	if res.Restarts != 0 {
		t.Errorf("restarts = %d, want 0", res.Restarts)
	}
	if got := res.Metrics.Custom[MetricHBSuspects]; got != 0 {
		t.Errorf("%s = %d, want 0", MetricHBSuspects, got)
	}
	if kinds := sink.kinds(); kinds[obs.KindSuspect] != 0 {
		t.Errorf("%d %s events, want none", kinds[obs.KindSuspect], obs.KindSuspect)
	}
}

// TestBacklogWatermark: flooding a channel past the watermark must raise the
// high-watermark gauge and publish one backlog event.
func TestBacklogWatermark(t *testing.T) {
	sink := &eventSink{}
	net, counters := hardenedNet(t, 2, NetConfig{}, sink)
	const total = backlogWatermark + 8
	for seq := 0; seq < total; seq++ {
		net.Send(Message{Kind: MsgApp, From: 0, To: 1, Seq: seq, Value: seq})
	}
	waitUntil(t, time.Second, "queue to fill", func() bool {
		return counters.Snapshot().Custom[MetricNetBacklogMax] >= total
	})
	if kinds := sink.kinds(); kinds[obs.KindBacklog] != 1 {
		t.Errorf("backlog events = %d, want exactly 1 (latched)", kinds[obs.KindBacklog])
	}
}

// TestRetransmitEventsTagged: transport retransmissions surface as retry
// events tagged "retransmit", distinguishable from storage retries.
func TestRetransmitEventsTagged(t *testing.T) {
	dropFirst := funcChaos(func(class LinkClass, from, to, seq, attempt int) Verdict {
		return Verdict{Drop: class == LinkData && seq == 0 && attempt == 0}
	})
	sink := &eventSink{}
	net, _ := hardenedNet(t, 2, NetConfig{Chaos: dropFirst}, sink)
	net.Send(Message{Kind: MsgApp, From: 0, To: 1, Seq: 0, Value: 7})
	if m, err := net.Recv(0, 1); err != nil || m.Value != 7 {
		t.Fatalf("Recv = %+v, %v", m, err)
	}
	waitUntil(t, time.Second, "retransmit event", func() bool {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		for _, e := range sink.events {
			if e.Kind == obs.KindRetry && e.Tag == "retransmit" {
				return true
			}
		}
		return false
	})
}

// TestTransportCountersWired spot-checks that each injected fault class
// lands in its counter.
func TestTransportCountersWired(t *testing.T) {
	cases := []struct {
		verdict Verdict
		metric  string
	}{
		{Verdict{Drop: true}, MetricNetDrops},
		{Verdict{Duplicate: true}, MetricNetDups},
		{Verdict{Reorder: true, Delay: time.Millisecond}, MetricNetReorders},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.metric, func(t *testing.T) {
			first := true
			var mu sync.Mutex
			one := funcChaos(func(class LinkClass, from, to, seq, attempt int) Verdict {
				mu.Lock()
				defer mu.Unlock()
				if class == LinkData && first {
					first = false
					return tc.verdict
				}
				return Verdict{}
			})
			net, counters := hardenedNet(t, 2, NetConfig{Chaos: one}, nil)
			net.Send(Message{Kind: MsgApp, From: 0, To: 1, Seq: 0, Value: 1})
			if _, err := net.Recv(0, 1); err != nil {
				t.Fatal(err)
			}
			waitUntil(t, time.Second, tc.metric, func() bool {
				return counters.Snapshot().Custom[tc.metric] == 1
			})
		})
	}
}

// TestTransportRoundTripAllocs pins BenchmarkTransportRoundTrip's path at
// zero objects: a frame is a value in the link's window, and the link's one
// timer is re-armed per message, not made again.
func TestTransportRoundTripAllocs(t *testing.T) {
	net, _ := hardenedNet(t, 2, NetConfig{}, nil)
	seq := 0
	roundTrip := func() {
		net.Send(Message{Kind: MsgApp, From: 0, To: 1, Seq: seq, Value: seq})
		seq++
		if _, err := net.Recv(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // the link, its timer and its window's backing array
	if got := testing.AllocsPerRun(1000, roundTrip); got != 0 {
		t.Errorf("a lossless hardened round trip allocates %.2f objects, want 0", got)
	}
}

// TestStaleTimerFireDoesNothing: a fire of a link's timer for a deadline a
// re-arm has since moved retransmits nothing and backs nothing off; the
// fire for the deadline the link armed does both.
func TestStaleTimerFireDoesNothing(t *testing.T) {
	silent := funcChaos(func(LinkClass, int, int, int, int) Verdict { return Verdict{Drop: true} })
	net, counters := hardenedNet(t, 2, NetConfig{Chaos: silent}, nil)
	net.Send(Message{Kind: MsgApp, From: 0, To: 1})
	lk := net.channel(0, 1).lk
	const shift = maxBackoffShift - 1 // the re-arm's RTO is 2 ms << 5: at least 48 ms out
	lk.mu.Lock()
	lk.boShift = shift
	lk.armLocked(time.Now())
	lk.mu.Unlock()

	lk.onTimeout() // the fire for the deadline the send armed, arriving late
	lk.mu.Lock()
	got := lk.boShift
	lk.mu.Unlock()
	if got != shift {
		t.Errorf("boShift = %d after a stale fire, want %d", got, shift)
	}
	for _, name := range []string{MetricNetRetransmits, MetricNetRTOExpired} {
		if n := counters.Snapshot().Custom[name]; n != 0 {
			t.Errorf("%s = %d after a stale fire, want 0", name, n)
		}
	}
	waitUntil(t, time.Second, "the armed deadline's fire", func() bool {
		return counters.Snapshot().Custom[MetricNetRetransmits] >= 1
	})
}

// TestSilentPeerSuspectedAtSuspectAfter: a link whose peer stops acking
// reports it, with the silence it saw, once its oldest frame has gone
// SuspectAfter unacked. Each link has seen a 50 ms round trip, so its RTO
// is 150 ms: the first fire (112–188 ms) comes before SuspectAfter and the
// backed-off one after it would come at 262 ms or later. The slack covers
// timer latency on a loaded machine.
func TestSilentPeerSuspectedAtSuspectAfter(t *testing.T) {
	const slack = 30 * time.Millisecond
	silent := funcChaos(func(LinkClass, int, int, int, int) Verdict { return Verdict{Drop: true} })
	net, _ := hardenedNet(t, 5, NetConfig{Chaos: silent}, nil)
	var mu sync.Mutex
	first := map[int]time.Duration{} // peer → silence at its first report
	net.watch(func(peer int, silence time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if _, ok := first[peer]; !ok {
			first[peer] = silence
		}
	})
	t.Cleanup(func() { net.watch(nil) })
	for to := 1; to < 5; to++ {
		net.channel(0, to).lk.est.Observe(50 * time.Millisecond) // RTO = 50 + 4·25 ms
		net.Send(Message{Kind: MsgApp, From: 0, To: to})
	}
	waitUntil(t, 2*time.Second, "every silent peer reported", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(first) == 4
	})
	mu.Lock()
	defer mu.Unlock()
	for peer, silence := range first {
		if silence < SuspectAfter || silence > SuspectAfter+slack {
			t.Errorf("peer %d reported after %v of silence, want %v to %v", peer, silence, SuspectAfter, SuspectAfter+slack)
		}
	}
}
