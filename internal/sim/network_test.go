package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/storage"
)

// BaselineProtocols are internal/protocol's hooks factories by name. That
// package imports this one, so the in-package tests cannot: wide_test.go
// (package sim_test) fills the table before any test runs.
var BaselineProtocols = map[string]func() HooksFactory{}

// Send and SendUnlogged are the runtime's send, logged and not, on the
// channel m.From→m.To, for tests that drive a Network without processes.
func (net *Network) Send(m Message)         { net.send(net.channel(m.From, m.To), m, false) }
func (net *Network) SendUnlogged(m Message) { net.send(net.channel(m.From, m.To), m, true) }

// auditProto recounts, for each destination, the markers and control messages
// queued on its channels, and requires its inbox.proto to say the same. Only
// meaningful while no process runs.
func auditProto(t *testing.T, where string, net *Network, wantZero bool) {
	t.Helper()
	recount := make([]int64, net.n)
	net.each(func(ch *channel) error {
		for _, m := range ch.queued() {
			if m.Kind != MsgApp {
				recount[ch.to]++
			}
		}
		return nil
	})
	for to := range recount {
		got := net.inbox[to].proto.Load()
		if got != recount[to] {
			t.Errorf("%s: process %d's counter reads %d, its queues hold %d markers and control messages", where, to, got, recount[to])
		}
		if wantZero && got != 0 {
			t.Errorf("%s: process %d's counter reads %d, want 0", where, to, got)
		}
		if net.quiet(to) != (got == 0) {
			t.Errorf("%s: quiet(%d) = %v with a counter of %d", where, to, net.quiet(to), got)
		}
	}
}

// incarnations is Run's loop by hand, so that the network can be looked at
// whenever no process runs: quiescent is called after every incarnation and
// after every rollback.
func incarnations(t *testing.T, r *run, quiescent func(where string, afterReset bool)) []*Proc {
	t.Helper()
	var procs []*Proc
	var line *recovery.Line
	for inc := 0; ; inc++ {
		var err error
		if procs, err = r.start(inc, procs, line, 0); err != nil {
			t.Fatal(err)
		}
		failure, err := r.wait(inc, procs)
		if err != nil {
			t.Fatalf("incarnation %d: %v", inc, err)
		}
		if failure == nil {
			quiescent(fmt.Sprintf("after the last incarnation (%d)", inc), false)
			return procs
		}
		quiescent(fmt.Sprintf("after incarnation %d crashed", inc), false)
		if line, err = r.rollback(inc, procs, 0); err != nil {
			t.Fatal(err)
		}
		quiescent(fmt.Sprintf("after rollback %d", inc), true)
	}
}

// The gate's invariant: a destination's counter is the number of markers and
// control messages queued for it — whatever crashed with some of them still
// queued, whichever fabric delivered them — and a run that ends leaves none.
// The protocols that send neither (the application-driven scheme, and CIC,
// which piggybacks) never poll: Network.Poll never reaches a channel.
func TestQuietCounterTracksQueues(t *testing.T) {
	const n = 4
	prog := corpus.JacobiFig1(4)
	code, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	clean := runOK(t, prog, n)
	for _, proto := range []struct {
		name  string
		polls bool // sends markers or control messages
		crash bool // survives a rollback (CL does not: ROADMAP item 13)
	}{{"appl", false, true}, {"cic", false, true}, {"sas", true, true}, {"cl", true, false}} {
		for _, crash := range []bool{false, true} {
			for _, hardened := range []bool{false, true} {
				if crash && !proto.crash {
					continue
				}
				t.Run(fmt.Sprintf("%s/crash=%v/hardened=%v", proto.name, crash, hardened), func(t *testing.T) {
					hooks := NoProtocol
					if proto.name != "appl" {
						hooks = BaselineProtocols[proto.name]()
					}
					counters := &metrics.Counters{}
					r := &run{
						cfg: Config{
							Nproc: n, Hooks: hooks, Timeout: 20 * time.Second,
							Counters: counters, DisableTrace: true,
						},
						code:  code,
						plan:  crashPlan{},
						net:   NewNetwork(n),
						store: newRetryStore(storage.NewMemory(), nil, counters, nil),
					}
					if crash {
						r.plan[[2]int{0, 2}] = 18
					}
					if hardened {
						r.net.harden(NetConfig{}, counters, nil)
						t.Cleanup(r.net.tr.reset)
					}
					restarts := 0
					procs := incarnations(t, r, func(where string, afterReset bool) {
						auditProto(t, where, r.net, afterReset)
						if afterReset {
							restarts++
						}
					})
					auditProto(t, "at the end", r.net, true)
					if crash != (restarts == 1) {
						t.Errorf("%d restarts with crash=%v", restarts, crash)
					}
					for p, pr := range procs {
						if !reflect.DeepEqual(pr.env.Vars, clean.FinalVars[p]) {
							t.Errorf("process %d ends with %v, a clean application-driven run with %v", p, pr.env.Vars, clean.FinalVars[p])
						}
					}
					polls := 0
					r.net.each(func(ch *channel) error {
						polls += ch.polls
						return nil
					})
					if proto.polls != (polls > 0) {
						t.Errorf("%d polls reached a channel; protocol traffic: %v", polls, proto.polls)
					}
				})
			}
		}
	}
}

// A marker queued behind an application message cannot be served yet, and one
// from the virtual future must not be: both keep the gate open, so the process
// keeps polling until it has them.
func TestQueuedMarkerKeepsGateOpen(t *testing.T) {
	net := NewNetwork(2)
	if !net.quiet(1) {
		t.Fatal("a new network is not quiet")
	}
	if _, ok := net.Poll(0, 1, math.Inf(1)); ok || net.peek(0, 1) != nil {
		t.Fatal("polling a channel nothing was sent on found a marker or created the channel")
	}
	net.Send(Message{Kind: MsgApp, From: 0, To: 1})
	if !net.quiet(1) {
		t.Fatal("an application message opened the gate")
	}
	net.SendMarker(Message{Kind: MsgMarker, From: 0, To: 1, ArriveV: 5})
	for _, step := range []struct {
		what string
		do   func() bool
		want bool // quiet afterwards
	}{
		{"polling behind the application message", func() bool { _, ok := net.Poll(0, 1, math.Inf(1)); return !ok }, false},
		{"receiving the application message", func() bool { m, err := net.Recv(0, 1); return err == nil && m.Kind == MsgApp }, false},
		{"polling before the marker's arrival", func() bool { _, ok := net.Poll(0, 1, 4); return !ok }, false},
		{"polling at the marker's arrival", func() bool { m, ok := net.Poll(0, 1, 5); return ok && m.Kind == MsgMarker }, true},
	} {
		if !step.do() {
			t.Fatalf("%s: unexpected result", step.what)
		}
		if net.quiet(1) != step.want {
			t.Fatalf("after %s: quiet = %v, want %v", step.what, !step.want, step.want)
		}
	}
	net.SendCtrl(Message{Kind: MsgCtrl, From: 0, To: 1})
	if net.quiet(1) || !net.quiet(0) {
		t.Fatalf("a control message for process 1: quiet(1) = %v, quiet(0) = %v", net.quiet(1), net.quiet(0))
	}
	if _, err := net.Recv(ctrlFrom, 1); err != nil || !net.quiet(1) {
		t.Fatalf("after receiving it: err %v, quiet(1) = %v", err, net.quiet(1))
	}
}

// Receivers open their channels while Abort runs. Whichever side gets to a
// channel second closes it: no receiver blocks, all return ErrAborted; after
// ResetForRecovery the same channels deliver again.
func TestAbortReachesChannelsCreatedLater(t *testing.T) {
	const n, rounds = 6, 40
	for round := 0; round < rounds; round++ {
		net := NewNetwork(n)
		start := make(chan struct{})
		errs := make(chan error, n*n)
		receivers := 0
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if from == to {
					continue
				}
				receivers++
				go func() {
					<-start
					var err error
					if (from+to+round)%3 == 0 {
						_, err = net.Recv(ctrlFrom, to) // shared by every receiver of process to
					} else {
						_, err = net.Recv(from, to)
					}
					errs <- err
				}()
			}
		}
		go func() {
			<-start
			net.Abort()
		}()
		close(start)
		deadline := time.After(20 * time.Second)
		for i := 0; i < receivers; i++ {
			select {
			case err := <-errs:
				if !errors.Is(err, ErrAborted) {
					t.Fatalf("round %d: a receiver returned %v, want ErrAborted", round, err)
				}
			case <-deadline:
				t.Fatalf("round %d: %d of %d receivers still blocked after Abort", round, receivers-i, receivers)
			}
		}
		net.ResetForRecovery(nil)
		net.each(func(ch *channel) error {
			if ch.from == ctrlFrom {
				net.SendCtrl(Message{Kind: MsgCtrl, From: ctrlFrom, To: ch.to, Value: 7})
			} else {
				net.Send(Message{Kind: MsgApp, From: ch.from, To: ch.to, Value: 7})
			}
			if m, err := ch.pop(); err != nil || m.Value != 7 {
				t.Fatalf("round %d: channel %d->%d after the reset: message %+v, err %v", round, ch.from, ch.to, m, err)
			}
			return nil
		})
	}
}

// What a network allocates follows the links its program opens, not n²: ring
// traffic at n = 64 costs per process what it costs at n = 4.
func TestNewNetworkAllocs(t *testing.T) {
	ring := func(n int) float64 {
		return testing.AllocsPerRun(10, func() {
			net := NewNetwork(n)
			for round := 0; round < 3; round++ {
				for p := 0; p < n; p++ {
					net.Send(Message{Kind: MsgApp, From: p, To: (p + 1) % n, Seq: round})
				}
				for p := 0; p < n; p++ {
					if _, err := net.Recv(p, (p+1)%n); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
	var kept *Network // escapes, as a network with traffic does
	empty := testing.AllocsPerRun(10, func() { kept = NewNetwork(64) })
	_ = kept
	small, large := ring(4), ring(64)
	t.Logf("NewNetwork(64) allocates %.0f objects; ring traffic %.0f at n=4, %.0f at n=64", empty, small, large)
	if empty > 3 {
		t.Errorf("an unused network of 64 processes allocates %.0f objects, want <= 3", empty)
	}
	// One link per process, two objects: the channel and its queue's backing
	// array (three records fit the log's inline bytes at any n: a record
	// carries no clock).
	if perLink := (large - empty) / 64; perLink > 3 || large-empty > 16*(small-empty)+64+1 {
		t.Errorf("ring traffic allocates %.0f objects at n=64 (%.1f per link) and %.0f at n=4: want <= 3 per link, growing with the links", large, perLink, small)
	}
}
