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
// counters, gauges, distributions — lives in one sharded map with per-shard
// RW locks, so the hot paths (every message send and every checkpoint save
// in the simulator goes through one) never contend on a single mutex. Each
// field is individually exact; a Snapshot taken while writers are active
// may interleave fields from slightly different moments (the runtime only
// snapshots at quiescent points, where the copy is exact).
type Counters struct {
	appMessages     atomic.Int64
	ctrlMessages    atomic.Int64
	ctrlBytes       atomic.Int64
	checkpoints     atomic.Int64
	forced          atomic.Int64
	rollbacks       atomic.Int64
	restartedEvents atomic.Int64
	blocked         atomic.Int64 // nanoseconds

	named cellMap
}

// cellShards is the stripe count of the named-cell map. Small powers of
// two beyond the typical core count stop cross-core updates of *different*
// names from serializing on one lock.
const cellShards = 16

// cellKind separates the three namespaces sharing the map, so a counter, a
// gauge and a distribution may carry the same name.
type cellKind uint8

const (
	kindCounter cellKind = iota
	kindGauge
	kindDist
	numKinds
)

// cell is one named slot. Counters and gauges use n (a gauge stores its
// float64 bits); distributions use dist, set once at creation.
type cell struct {
	n    atomic.Int64
	dist *Sketch
}

// cellMap is a (kind, name) → cell map striped across cellShards shards.
// The common case (the name already exists) takes a shard read-lock; the
// write-lock is only held to insert a new name. Each shard keys one plain
// string map per kind: a struct key would cost the lookup the runtime's
// string-map fast path, measured at +40% on Inc.
type cellMap struct {
	shards [cellShards]struct {
		mu sync.RWMutex
		m  [numKinds]map[string]*cell
	}
}

// get returns the cell for (kind, name), creating it on first use.
func (c *cellMap) get(kind cellKind, name string) *cell {
	h := uint32(2166136261) // FNV-1a
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	s := &c.shards[h%cellShards]
	s.mu.RLock()
	v := s.m[kind][name]
	s.mu.RUnlock()
	if v != nil {
		return v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v = s.m[kind][name]; v != nil {
		return v
	}
	if s.m[kind] == nil {
		s.m[kind] = make(map[string]*cell)
	}
	v = new(cell)
	if kind == kindDist {
		v.dist = NewSketch()
	}
	s.m[kind][name] = v
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
	c.named.get(kindCounter, name).n.Add(int64(n))
}

// Max raises a named custom counter to v if v exceeds its current value —
// a high-watermark gauge (queue depths, backlog peaks) exported through the
// same custom-counter channel as Inc.
func (c *Counters) Max(name string, v int64) {
	n := &c.named.get(kindCounter, name).n
	for {
		cur := n.Load()
		if v <= cur || n.CompareAndSwap(cur, v) {
			return
		}
	}
}

// SetGauge records the current value of a named gauge — a point-in-time
// reading, not a total. The common case (the gauge exists) is a shard
// read-lock plus one atomic store, cheap enough for instrumentation points
// inside the runtime.
func (c *Counters) SetGauge(name string, v float64) {
	c.named.get(kindGauge, name).n.Store(int64(math.Float64bits(v)))
}

// ObserveHist records one observation in the named distribution, creating
// it with DefaultSketchBounds on first use. Distributions turn the totals
// above into per-event shapes: how long each barrier stall was, not just
// their sum. On an existing name this is a shard read-lock plus the
// sketch's atomics, and allocates nothing.
func (c *Counters) ObserveHist(name string, v float64) {
	c.named.get(kindDist, name).dist.Observe(v)
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
	for i := range c.named.shards {
		sh := &c.named.shards[i]
		sh.mu.RLock()
		for name, v := range sh.m[kindCounter] {
			if s.Custom == nil {
				s.Custom = make(map[string]int64)
			}
			s.Custom[name] = v.n.Load()
		}
		for name, v := range sh.m[kindGauge] {
			if s.Gauges == nil {
				s.Gauges = make(map[string]float64)
			}
			s.Gauges[name] = math.Float64frombits(uint64(v.n.Load()))
		}
		for name, v := range sh.m[kindDist] {
			if s.Hists == nil {
				s.Hists = make(map[string]SketchSnapshot)
			}
			s.Hists[name] = v.dist.Snapshot()
		}
		sh.mu.RUnlock()
	}
	return s
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
