package fleet

import (
	"errors"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Breaker states, exported for reports and the breaker_state gauge.
const (
	StateClosed   = 0
	StateHalfOpen = 1
	StateOpen     = 2
)

// ErrBreakerOpen marks an operation shed because the circuit breaker is
// open. The concrete error also matches storage.ErrTransient, so existing
// failure handling applies unchanged: a shed checkpoint save crashes the
// saving process into its ordinary recovery path (pacing the job off the
// store), and the retry layer backs off instead of treating the shed as
// permanent. errors.Is(err, ErrBreakerOpen) distinguishes sheds from real
// storage faults.
var ErrBreakerOpen = errors.New("fleet: circuit breaker open")

// shedError is the error every shed operation returns: one value, two
// identities (breaker-open AND transient).
type shedError struct{}

func (shedError) Error() string { return "fleet: circuit breaker open: storage load shed" }

func (shedError) Unwrap() []error { return []error{ErrBreakerOpen, storage.ErrTransient} }

// Breaker tuning: a run of breakerTrip consecutive transient failures
// opens the circuit; after breakerCooldown (a few retry-backoff caps, so a
// browned-out store gets real quiet time) at most halfOpenProbes trial
// operations run at once, and probesToClose consecutive successes close it
// again. One probe failure reopens it immediately.
const (
	breakerTrip     = 5
	breakerCooldown = 50 * time.Millisecond
	halfOpenProbes  = 1
	probesToClose   = 2
)

// BreakerConfig wires a Breaker's telemetry and clock. The zero value is a
// silent breaker on the wall clock.
type BreakerConfig struct {
	// Counters receives breaker_opened / breaker_shed counts and the
	// breaker_state gauge. Optional.
	Counters *metrics.Counters
	// Obs receives a KindBreaker event per state transition. Optional.
	Obs obs.Observer
	// Now overrides the clock (tests). Default time.Now.
	Now func() time.Time
}

// BreakerStats is a point-in-time summary for reports.
type BreakerStats struct {
	State  int   // StateClosed / StateHalfOpen / StateOpen
	Opened int64 // times the breaker tripped open (incl. half-open reopens)
	Shed   int64 // operations refused while open
}

// Breaker wraps a shared storage.Store with a half-open circuit breaker.
// Only transient faults (storage.ErrTransient) count against the circuit:
// not-found / duplicate / corrupt are semantic results, not store-health
// signals. Safe for concurrent use by every job in the fleet — that
// sharing is the point: ANY job's failures open the circuit for all, and
// any job's probe successes close it again.
type Breaker struct {
	inner storage.Store
	cfg   BreakerConfig

	mu        sync.Mutex
	state     int
	fails     int       // consecutive transient failures while closed
	successes int       // consecutive probe successes while half-open
	probes    int       // in-flight half-open probes
	openedAt  time.Time // when the breaker last opened
	opened    int64
	shed      int64
}

var _ storage.Store = (*Breaker)(nil)

// NewBreaker wraps inner. The breaker starts closed.
func NewBreaker(inner storage.Store, cfg BreakerConfig) *Breaker {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	b := &Breaker{inner: inner, cfg: cfg}
	b.setGauge()
	return b
}

// Stats returns a snapshot of the breaker's counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{State: b.state, Opened: b.opened, Shed: b.shed}
}

// setGauge publishes the state gauge; callers hold mu (or are in New).
func (b *Breaker) setGauge() {
	if b.cfg.Counters != nil {
		b.cfg.Counters.SetGauge("breaker_state", float64(b.state))
	}
}

// transition moves to state `to`, stamping telemetry. Callers hold mu.
func (b *Breaker) transition(to int, why string) {
	from := b.state
	b.state = to
	b.setGauge()
	if b.cfg.Obs != nil {
		names := [...]string{"closed", "half-open", "open"}
		b.cfg.Obs.OnEvent(obs.Event{
			Kind: obs.KindBreaker, Proc: -1,
			Label: names[from] + "->" + names[to],
			Tag:   why,
		})
	}
}

// maybeHalfOpen advances open→half-open once the cooldown elapses.
// Callers hold mu.
func (b *Breaker) maybeHalfOpen() {
	if b.state == StateOpen && b.cfg.Now().Sub(b.openedAt) >= breakerCooldown {
		b.successes = 0
		b.probes = 0
		b.transition(StateHalfOpen, "cooldown elapsed")
	}
}

// before gates one operation: it returns (probe, nil) to admit it, or a
// shed error. probe marks half-open trial operations for after().
func (b *Breaker) before() (probe bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	switch b.state {
	case StateClosed:
		return false, nil
	case StateHalfOpen:
		if b.probes < halfOpenProbes {
			b.probes++
			return true, nil
		}
	}
	b.shed++
	if b.cfg.Counters != nil {
		b.cfg.Counters.Inc("breaker_shed", 1)
	}
	return false, shedError{}
}

// after records one admitted operation's outcome.
func (b *Breaker) after(probe bool, opErr error) {
	transient := opErr != nil && errors.Is(opErr, storage.ErrTransient)
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probes--
		if b.state != StateHalfOpen {
			return // a concurrent probe already decided the verdict
		}
		if transient {
			b.trip("probe failed")
			return
		}
		b.successes++
		if b.successes >= probesToClose {
			b.fails = 0
			b.transition(StateClosed, "probes succeeded")
		}
		return
	}
	if b.state != StateClosed {
		return // raced with a transition; the new state owns accounting
	}
	if !transient {
		b.fails = 0
		return
	}
	b.fails++
	if b.fails >= breakerTrip {
		b.trip("failure threshold")
	}
}

// trip opens the breaker. Callers hold mu.
func (b *Breaker) trip(why string) {
	b.openedAt = b.cfg.Now()
	b.fails = 0
	b.opened++
	if b.cfg.Counters != nil {
		b.cfg.Counters.Inc("breaker_opened", 1)
	}
	b.transition(StateOpen, why)
}

// guard runs one store operation under the breaker protocol.
func guard[T any](b *Breaker, f func() (T, error)) (v T, err error) {
	probe, err := b.before()
	if err != nil {
		return v, err
	}
	v, err = f()
	b.after(probe, err)
	return v, err
}

// guard0 is guard for an operation that returns only an error.
func guard0(b *Breaker, f func() error) error {
	_, err := guard(b, func() (struct{}, error) { return struct{}{}, f() })
	return err
}

func (b *Breaker) Save(s storage.Snapshot) error {
	return guard0(b, func() error { return b.inner.Save(s) })
}

func (b *Breaker) Latest(proc, cfgIndex int) (storage.Snapshot, error) {
	return guard(b, func() (storage.Snapshot, error) { return b.inner.Latest(proc, cfgIndex) })
}

func (b *Breaker) Get(proc, cfgIndex, instance int) (storage.Snapshot, error) {
	return guard(b, func() (storage.Snapshot, error) { return b.inner.Get(proc, cfgIndex, instance) })
}

func (b *Breaker) List(proc int) ([]storage.Snapshot, error) { return storage.List(b, proc) }

func (b *Breaker) Indexes(n int) ([]int, error) { return storage.Indexes(b, n) }

func (b *Breaker) Delete(proc, cfgIndex, instance int) error {
	return guard0(b, func() error { return b.inner.Delete(proc, cfgIndex, instance) })
}

// Keys forwards storage.KeyLister, so a job's recovery names its keys
// without loading them.
func (b *Breaker) Keys(proc int) ([]storage.Key, error) {
	return guard(b, func() ([]storage.Key, error) { return storage.Keys(b.inner, proc) })
}

// Scrub forwards storage.Scrubber when the wrapped store implements it, so
// quarantine reaches durable backends through the fleet's full wrapper
// chain (Namespace → Breaker → chaos/store). It runs under the breaker
// protocol like any other operation: a browned-out store sheds scrubs too.
func (b *Breaker) Scrub() (storage.ScrubReport, error) {
	return guard(b, func() (storage.ScrubReport, error) { return storage.Scrub(b.inner) })
}

var _ storage.Scrubber = (*Breaker)(nil)
