package metrics

import (
	"sort"
	"sync"
	"time"
)

// Registry is a named-timer registry in the style of OPA's metrics
// package: callers ask for a timer by name, lazily creating it, and export
// a consistent snapshot at the end of a run. Command-line tools use it to
// time pipeline stages (parse, transform, run) alongside the runtime's
// counters. The zero value is not usable; construct with
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	timers map[string]*Timer
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{timers: make(map[string]*Timer)}
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Snapshot exports every timer, sorted by name.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RegistrySnapshot{}
	for name, t := range r.timers {
		elapsed, count := t.Value(), t.Count()
		s.Timers = append(s.Timers, TimerSnapshot{Name: name, Elapsed: elapsed, Count: count})
	}
	sort.Slice(s.Timers, func(i, j int) bool { return s.Timers[i].Name < s.Timers[j].Name })
	return s
}

// RegistrySnapshot is a consistent export of a Registry.
type RegistrySnapshot struct {
	Timers []TimerSnapshot
}

// TimerSnapshot is one exported timer.
type TimerSnapshot struct {
	Name    string
	Elapsed time.Duration
	Count   int64
}

// Timer accumulates wall-clock time over Start/Stop intervals and counts
// the intervals. The zero value is ready to use and safe for concurrent
// use (each goroutine should use its own Start/Stop pairing, or guard
// externally — overlapping intervals on one timer lose the overlap).
type Timer struct {
	mu      sync.Mutex
	started time.Time
	running bool
	elapsed time.Duration
	count   int64
}

// Start begins an interval and returns the timer for chaining.
func (t *Timer) Start() *Timer {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.started = time.Now()
	t.running = true
	return t
}

// Stop ends the current interval, adds it to the total, and returns the
// interval's duration. Stop without a matching Start is a no-op.
func (t *Timer) Stop() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.running {
		return 0
	}
	d := time.Since(t.started)
	t.elapsed += d
	t.count++
	t.running = false
	return d
}

// Value returns the accumulated duration across completed intervals.
func (t *Timer) Value() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.elapsed
}

// Count returns the number of completed intervals.
func (t *Timer) Count() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}
