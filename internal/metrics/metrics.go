// Package metrics provides the overhead accounting used to compare
// checkpointing protocols on the runtime: counts of application messages,
// protocol control messages, checkpoints (voluntary and forced), rollbacks,
// and blocked time. These are the quantities the paper's §4 analysis folds
// into the M (message overhead) and C (coordination overhead) parameters.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counters accumulates protocol-relevant event counts for one run. The zero
// value is ready to use and all methods are safe for concurrent use.
//
// The fixed fields are plain atomics and everything named — custom
// counters, gauges, distributions — is a cell of one append-only list that
// lookups walk without a lock, so the hot paths (every message send and
// every checkpoint save in the simulator goes through one) take no lock and
// a sink costs the names it records. Each field is individually exact; a
// Snapshot taken while writers are active may interleave fields from
// slightly different moments (the runtime snapshots at quiescent points).
type Counters struct {
	appMessages     atomic.Int64
	ctrlMessages    atomic.Int64
	ctrlBytes       atomic.Int64
	checkpoints     atomic.Int64
	forced          atomic.Int64
	rollbacks       atomic.Int64
	restartedEvents atomic.Int64
	blocked         atomic.Int64 // nanoseconds

	named  atomic.Pointer[cell] // newest name first
	insert sync.Mutex           // serialises new names only
}

// cellKind separates the three namespaces sharing the list, so a counter,
// a gauge and a distribution may carry the same name.
type cellKind uint8

const (
	kindCounter cellKind = iota
	kindGauge
	kindDist
)

// cell is one named slot and list node. Counters and gauges use n (a gauge
// stores its float64 bits), distributions dist; the rest is set before the
// cell is published and never written again.
type cell struct {
	n    atomic.Int64
	dist *Sketch
	next *cell
	name string
	key  uint64 // keyOf(kind, name)
}

// keyOf packs the kind (low byte), a name's first and last byte and its
// length: a walk compares names only where keys match, as names of one
// family mostly differ at the end.
func keyOf(kind cellKind, name string) uint64 {
	k := uint64(kind) | uint64(len(name))<<24
	if name != "" {
		k |= uint64(name[0])<<8 | uint64(name[len(name)-1])<<16
	}
	return k
}

// find walks the list from v to the cell of key and name, or nil.
func find(v *cell, key uint64, name string) *cell {
	for v != nil && (v.key != key || v.name != name) {
		v = v.next
	}
	return v
}

// lookup returns the cell for (kind, name), creating it on first use. A run
// records a handful of names and a fleet batch ten: a walk beats a hash.
func (c *Counters) lookup(kind cellKind, name string) *cell {
	key := keyOf(kind, name)
	if v := find(c.named.Load(), key, name); v != nil {
		return v
	}
	c.insert.Lock()
	defer c.insert.Unlock()
	// Names join only under the lock: this walk sees a racing caller's.
	head := c.named.Load()
	if v := find(head, key, name); v != nil {
		return v
	}
	v := &cell{next: head, name: name, key: key}
	if kind == kindDist {
		v.dist = NewSketch()
	}
	c.named.Store(v)
	return v
}

// IncAppMessages records n application (payload) messages.
func (c *Counters) IncAppMessages(n int) { c.appMessages.Add(int64(n)) }

// IncCtrlMessages records n protocol control messages of size bytes each
// (markers, stop/resume broadcasts, acks — anything the application did not
// send).
func (c *Counters) IncCtrlMessages(n, bytes int) {
	c.ctrlMessages.Add(int64(n))
	c.ctrlBytes.Add(int64(n) * int64(bytes))
}

// IncCheckpoints records n voluntary checkpoints.
func (c *Counters) IncCheckpoints(n int) { c.checkpoints.Add(int64(n)) }

// IncForced records n forced checkpoints (communication-induced protocols).
func (c *Counters) IncForced(n int) { c.forced.Add(int64(n)) }

// IncRollbacks records n process rollbacks.
func (c *Counters) IncRollbacks(n int) { c.rollbacks.Add(int64(n)) }

// IncRestartedEvents records n re-executed events lost to rollback.
func (c *Counters) IncRestartedEvents(n int) { c.restartedEvents.Add(int64(n)) }

// AddBlocked records wall-clock time a process spent blocked on protocol
// coordination (not on application receives).
func (c *Counters) AddBlocked(d time.Duration) { c.blocked.Add(int64(d)) }

// Inc bumps a named custom counter.
func (c *Counters) Inc(name string, n int) {
	c.lookup(kindCounter, name).n.Add(int64(n))
}

// Max raises a named custom counter to v if v exceeds its current value —
// a high-watermark gauge (queue depths, backlog peaks) exported through the
// same custom-counter channel as Inc.
func (c *Counters) Max(name string, v int64) {
	n := &c.lookup(kindCounter, name).n
	for {
		cur := n.Load()
		if v <= cur || n.CompareAndSwap(cur, v) {
			return
		}
	}
}

// SetGauge records the current value of a named gauge — a point-in-time
// reading, not a total. On an existing gauge it is a lock-free walk plus
// one atomic store, cheap enough for the runtime's instrumentation points.
func (c *Counters) SetGauge(name string, v float64) {
	c.lookup(kindGauge, name).n.Store(int64(math.Float64bits(v)))
}

// ObserveHist records one observation in the named distribution, creating
// it with DefaultSketchBounds on first use. Distributions turn the totals
// above into per-event shapes: how long each barrier stall was, not just
// their sum. It allocates only a bucket chunk's first touch.
func (c *Counters) ObserveHist(name string, v float64) {
	c.lookup(kindDist, name).dist.Observe(v)
}

// Snapshot is an immutable copy of the counters.
type Snapshot struct {
	AppMessages     int64
	CtrlMessages    int64
	CtrlBytes       int64
	Checkpoints     int64
	Forced          int64
	Rollbacks       int64
	RestartedEvents int64
	Blocked         time.Duration
	Custom          map[string]int64
	Gauges          map[string]float64
	Hists           map[string]SketchSnapshot
}

// Snapshot returns a copy of all counters; each of the three maps is nil
// when nothing of its kind was recorded. Each field is read atomically; see
// the Counters doc for the cross-field caveat under concurrent writes.
func (c *Counters) Snapshot() Snapshot {
	s := Snapshot{
		AppMessages:     c.appMessages.Load(),
		CtrlMessages:    c.ctrlMessages.Load(),
		CtrlBytes:       c.ctrlBytes.Load(),
		Checkpoints:     c.checkpoints.Load(),
		Forced:          c.forced.Load(),
		Rollbacks:       c.rollbacks.Load(),
		RestartedEvents: c.restartedEvents.Load(),
		Blocked:         time.Duration(c.blocked.Load()),
	}
	for v := c.named.Load(); v != nil; v = v.next {
		switch cellKind(v.key) {
		case kindCounter:
			put(&s.Custom, v.name, v.n.Load())
		case kindGauge:
			put(&s.Gauges, v.name, math.Float64frombits(uint64(v.n.Load())))
		case kindDist:
			put(&s.Hists, v.name, v.dist.Snapshot())
		}
	}
	return s
}

// put sets (*m)[k] = v, making the map on first use.
func put[V any](m *map[string]V, k string, v V) {
	if *m == nil {
		*m = make(map[string]V)
	}
	(*m)[k] = v
}

// FixedCounter is one fixed counter under its export name.
type FixedCounter struct {
	Name  string
	Value int64
}

// Fixed lists the fixed counters in export order. Every exporter — String,
// the metrics JSONL "counters" line, the Prometheus counter tap and its
// rates — ranges over this list, so it is the one place a fixed counter is
// named.
func (s Snapshot) Fixed() []FixedCounter {
	return []FixedCounter{
		{"app_messages", s.AppMessages},
		{"ctrl_messages", s.CtrlMessages},
		{"ctrl_bytes", s.CtrlBytes},
		{"checkpoints", s.Checkpoints},
		{"forced", s.Forced},
		{"rollbacks", s.Rollbacks},
		{"restarted_events", s.RestartedEvents},
		{"blocked_ns", int64(s.Blocked)},
	}
}

// The three distributions the runtime records through ObserveHist, named
// here once: sim writes them, and the metrics stream, /metrics (under
// chkptsim_hist_<name>) and the telemetry dashboard read them from Hists.
const (
	// HistBlockedWallMS is wall-clock milliseconds a process spent blocked
	// on protocol coordination, one observation per wait.
	HistBlockedWallMS = "blocked_wall_ms"
	// HistBarrierStallV is virtual seconds a process's clock jumped while
	// waiting for protocol control traffic — the §4 coordination cost M as
	// a per-stall distribution (only recorded when the run prices time).
	HistBarrierStallV = "barrier_stall_vs"
	// HistChkptSaveMS is wall-clock milliseconds per checkpoint persisted
	// to stable storage.
	HistChkptSaveMS = "chkpt_save_ms"
)

// TotalCheckpoints is voluntary plus forced checkpoints.
func (s Snapshot) TotalCheckpoints() int64 { return s.Checkpoints + s.Forced }

// String renders the snapshot as a single human-readable line: the fixed
// counters in export order, then custom counters, gauges and distributions,
// each group sorted by name.
func (s Snapshot) String() string {
	var sb strings.Builder
	for i, f := range s.Fixed() {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%d", f.Name, f.Value)
	}
	for _, k := range sortedNames(s.Custom) {
		fmt.Fprintf(&sb, " %s=%d", k, s.Custom[k])
	}
	for _, k := range sortedNames(s.Gauges) {
		fmt.Fprintf(&sb, " %s=%g", k, s.Gauges[k])
	}
	for _, k := range sortedNames(s.Hists) {
		fmt.Fprintf(&sb, " %s{%s}", k, s.Hists[k])
	}
	return sb.String()
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
