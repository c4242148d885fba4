package fleet

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// flakyStore fails operations transiently while `down` is set.
type flakyStore struct {
	storage.Store
	down atomic.Bool
	ops  atomic.Int64
}

func newFlaky() *flakyStore { return &flakyStore{Store: storage.NewMemory()} }

func (f *flakyStore) Save(s storage.Snapshot) error {
	f.ops.Add(1)
	if f.down.Load() {
		return fmt.Errorf("%w: injected brownout", storage.ErrTransient)
	}
	return f.Store.Save(s)
}

// state reads b's state the way its next operation would: advanced
// open→half-open once the cooldown has elapsed.
func state(b *Breaker) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	return b.state
}

func snapN(n int) storage.Snapshot {
	return storage.Snapshot{Proc: 0, CFGIndex: 1, Instance: n, Clock: vclock.VC{uint64(n)}}
}

// fakeClock is a manual time source for cooldown control.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) advance(d time.Duration) { c.now = c.now.Add(d) }

func newTestBreaker(inner storage.Store, clk *fakeClock, ctr *metrics.Counters, sink obs.Observer) *Breaker {
	return NewBreaker(inner, BreakerConfig{Counters: ctr, Obs: sink, Now: clk.Now})
}

func TestBreakerTripsShedsAndRecovers(t *testing.T) {
	inner := newFlaky()
	clk := &fakeClock{now: time.Unix(0, 0)}
	ctr := &metrics.Counters{}
	sink := obs.NewRecorder()
	b := newTestBreaker(inner, clk, ctr, sink)

	// Healthy ops keep it closed.
	if err := b.Save(snapN(1)); err != nil || state(b) != StateClosed {
		t.Fatalf("healthy save: err=%v state=%d", err, state(b))
	}

	// A brownout: breakerTrip consecutive transients trip it open.
	inner.down.Store(true)
	for i := 0; i < breakerTrip; i++ {
		if err := b.Save(snapN(10 + i)); !errors.Is(err, storage.ErrTransient) {
			t.Fatalf("brownout save %d: %v", i, err)
		}
	}
	if state(b) != StateOpen {
		t.Fatalf("state = %d after threshold failures, want open", state(b))
	}

	// Open: operations shed WITHOUT touching the store, and the shed error
	// carries both identities.
	before := inner.ops.Load()
	err := b.Save(snapN(20))
	if !errors.Is(err, ErrBreakerOpen) || !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("shed error = %v, want ErrBreakerOpen AND ErrTransient", err)
	}
	if inner.ops.Load() != before {
		t.Fatal("shed operation reached the browned-out store")
	}
	if ctr.Snapshot().Custom["breaker_shed"] == 0 {
		t.Error("breaker_shed not counted")
	}
	if ctr.Snapshot().Gauges["breaker_state"] != StateOpen {
		t.Errorf("breaker_state gauge = %v, want %d", ctr.Snapshot().Gauges["breaker_state"], StateOpen)
	}

	// Cooldown elapses; the store healed. Two probe successes close it.
	inner.down.Store(false)
	clk.advance(2 * time.Second)
	if err := b.Save(snapN(21)); err != nil {
		t.Fatalf("probe 1: %v", err)
	}
	if state(b) != StateHalfOpen {
		t.Fatalf("state = %d after one good probe, want half-open", state(b))
	}
	if err := b.Save(snapN(22)); err != nil {
		t.Fatalf("probe 2: %v", err)
	}
	if state(b) != StateClosed {
		t.Fatalf("state = %d after %d good probes, want closed", state(b), 2)
	}

	st := b.Stats()
	if st.Opened != 1 || st.Shed == 0 {
		t.Errorf("stats = %+v, want opened=1 and some shed", st)
	}
	// The transition trail landed in the event stream.
	var labels []string
	for _, e := range sink.Events() {
		if e.Kind == obs.KindBreaker {
			labels = append(labels, e.Label)
		}
	}
	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	if len(labels) != len(want) {
		t.Fatalf("breaker events = %v, want %v", labels, want)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Errorf("event %d = %q, want %q", i, labels[i], want[i])
		}
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	inner := newFlaky()
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := newTestBreaker(inner, clk, nil, nil)

	inner.down.Store(true)
	for i := 0; i < breakerTrip; i++ {
		_ = b.Save(snapN(i))
	}
	clk.advance(2 * time.Second)
	// Still down: the probe fails and the breaker reopens for a fresh
	// cooldown — half-open never floods a sick store.
	if err := b.Save(snapN(50)); !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("probe: %v", err)
	}
	if state(b) != StateOpen {
		t.Fatalf("state = %d after failed probe, want open", state(b))
	}
	if got := b.Stats().Opened; got != 2 {
		t.Errorf("opened = %d, want 2 (initial trip + probe reopen)", got)
	}
}

func TestBreakerIgnoresSemanticErrors(t *testing.T) {
	b := NewBreaker(storage.NewMemory(), BreakerConfig{})
	// Not-found / duplicate are results, not store-health signals: each
	// kind alone reaches the trip count and leaves the breaker closed.
	for i := 0; i < breakerTrip; i++ {
		if _, err := b.Latest(0, 1); !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("Latest: %v", err)
		}
	}
	if state(b) != StateClosed {
		t.Fatalf("state = %d after %d not-found results, want closed", state(b), breakerTrip)
	}
	if err := b.Save(snapN(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < breakerTrip; i++ {
		if err := b.Save(snapN(1)); !errors.Is(err, storage.ErrDuplicate) {
			t.Fatalf("dup save %d: %v", i, err)
		}
	}
	if state(b) != StateClosed {
		t.Fatalf("state = %d after %d duplicate saves, want closed", state(b), breakerTrip)
	}
}

func TestBreakerHalfOpenLimitsProbes(t *testing.T) {
	inner := newFlaky()
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := newTestBreaker(inner, clk, nil, nil)
	inner.down.Store(true)
	for i := 0; i < breakerTrip; i++ {
		_ = b.Save(snapN(i))
	}
	clk.advance(2 * time.Second)

	// Hold one probe slot open by checking State (transitions to
	// half-open), then grab the only probe manually via before().
	if state(b) != StateHalfOpen {
		t.Fatal("not half-open after cooldown")
	}
	probe, err := b.before()
	if err != nil || !probe {
		t.Fatalf("first probe refused: probe=%v err=%v", probe, err)
	}
	// Second concurrent operation: probe budget exhausted, shed.
	if _, err := b.before(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second concurrent probe = %v, want shed", err)
	}
	b.after(probe, nil)
}

// scrubbableStore is a memory store that implements Scrubber by reporting
// (and clearing) injected marks — minimal stand-in for chaos/wal/file
// stores in the fleet chain.
type scrubbableStore struct {
	storage.Store
	marks []storage.SnapshotRef
}

func (s *scrubbableStore) Scrub() (storage.ScrubReport, error) {
	rep := storage.ScrubReport{Quarantined: s.marks}
	s.marks = nil
	return rep, nil
}

// TestBreakerForwardsScrubber: the fleet chain is Namespace → Breaker →
// store, so quarantine only reaches a durable backend if the breaker
// forwards Scrub. It must also shed scrubs while open, like any other op.
func TestBreakerForwardsScrubber(t *testing.T) {
	inner := &scrubbableStore{
		Store: storage.NewMemory(),
		marks: []storage.SnapshotRef{{Key: storage.Key{Proc: 3, CFGIndex: 1}, Reason: "bit flip"}},
	}
	clk := &fakeClock{}
	b := newTestBreaker(inner, clk, nil, nil)
	scr, ok := any(b).(storage.Scrubber)
	if !ok {
		t.Fatal("breaker does not forward Scrubber; fleet quarantine dead-ends at the breaker")
	}
	rep, err := scr.Scrub()
	if err != nil {
		t.Fatalf("Scrub through breaker: %v", err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Proc != 3 {
		t.Fatalf("report not forwarded: %+v", rep)
	}

	// Non-scrubber inner: clean no-op.
	b2 := newTestBreaker(newFlaky(), clk, nil, nil)
	if rep, err := b2.Scrub(); err != nil || len(rep.Quarantined) != 0 {
		t.Fatalf("Scrub over non-scrubber inner = %+v, %v; want empty, nil", rep, err)
	}

	// An open breaker sheds scrubs too.
	b3 := newTestBreaker(&scrubbableStore{Store: storage.NewMemory()}, clk, nil, nil)
	b3.mu.Lock()
	b3.trip("test")
	b3.mu.Unlock()
	if _, err := b3.Scrub(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Scrub through open breaker = %v, want ErrBreakerOpen", err)
	}
}
