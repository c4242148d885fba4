// Package telemetry is the live observability layer: where internal/obs
// turns runs into post-mortem artifacts, this package answers "what is the
// run doing RIGHT NOW". An Aggregator taps the same obs.Observer fan-out
// as the flight recorder (wire it with obs.Multi) and keeps only O(1)
// online state: per-kind event totals, per-process progress and fixed-size
// rings of per-window deltas — no raw samples are retained. Distributions
// (save / block / stall latencies) are not derived from events: they come
// from the run's metrics.Counters tap, sampled every window. The exposition
// server (Server) renders that state as Prometheus text, JSON snapshots,
// and a health endpoint; the Dashboard renders it as a live ANSI view.
//
// The hot path — OnEvent, called for every runtime event from every
// process goroutine — is lock-free: atomic counters and atomic per-process
// cells. The cold path (Tick, Snapshot) takes a mutex; it runs once per
// aggregation window (default 250ms).
//
// Tick also runs the health detectors:
//
//   - stall: a process recorded no events for stallWindows (8) consecutive
//     windows and its last event was not a halt;
//   - rollback storm: at least stormRollbacks (3) rollbacks within the last
//     stormWindows (40) windows;
//   - checkpoint lag: a process's virtual clock ran LagThreshold virtual
//     seconds past its last completed save.
//
// Each verdict increments a counter, flips a gauge, and is published as an
// obs event (KindStall / KindStorm / KindLag) on the configured Sink, so
// the flight recorder and event stream capture when the run went unhealthy.
package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/storage/wal"
)

// kindOther is the slot of the per-kind arrays for an event whose Kind is
// not one: values at or past obs.NumKinds fold into it rather than index
// out of range, keeping OnEvent total against newer producers.
const kindOther obs.Kind = 0

// The ring and the detectors count in windows: the ring keeps rings of
// them (one minute at the default window), a process silent for
// stallWindows (2 s) is stalled, and stormRollbacks rollbacks within the
// last stormWindows (10 s) are a storm.
const (
	rings          = 240
	stallWindows   = 8
	stormRollbacks = 3
	stormWindows   = 40
)

// Config configures an Aggregator. The zero value of every field selects a
// sensible default.
type Config struct {
	// Nproc sizes the per-process table. Events naming ranks at or beyond
	// it fold into run-level accounting. Default 16.
	Nproc int
	// Window is the aggregation window Start ticks at. Default 250ms.
	Window time.Duration
	// Counters, when set, is sampled every window: per-counter deltas and
	// rates appear alongside the event-derived state, and the save / block
	// / stall distributions are read from its Hists. Point it at the
	// sim.Config.Counters tap.
	Counters *metrics.Counters
	// Sink receives detector verdicts as obs events. Wire the recorder
	// and stream writer here (NOT the aggregator itself) so health events
	// land in the same flight-recorder artifacts as runtime events.
	Sink obs.Observer
	// LagThreshold is the checkpoint-lag alert bar in virtual seconds;
	// 0 disables lag alerts (the gauge is always exported).
	LagThreshold float64
	// WALStats, when set, is sampled at every Snapshot: the store's
	// durability counters appear as chkptsim_wal_* series in /metrics and
	// a wal line on the dashboard. Point it at (*wal.Store).Stats.
	WALStats func() wal.Stats
}

func (c *Config) fill() {
	if c.Nproc <= 0 {
		c.Nproc = 16
	}
	if c.Window <= 0 {
		c.Window = 250 * time.Millisecond
	}
}

// procCell is one process's lock-free hot-path state.
type procCell struct {
	events    atomic.Int64  // total events observed
	inc       atomic.Int64  // highest incarnation seen
	lastKind  atomic.Int64  // kind slot of the most recent event
	vtime     atomic.Uint64 // max virtual time seen, float64 bits
	lastSaveV atomic.Uint64 // virtual time of last chkpt event, float64 bits

	// Detector bookkeeping, touched only from Tick (under mu).
	lastEvents   int64 // events at the previous tick
	quietWindows int   // consecutive windows without progress
	stalled      bool
	lagged       bool
}

// window is one ring slot: per-kind event deltas for one closed window.
type window struct {
	kinds  [obs.NumKinds]int64
	events int64
	durNS  int64
}

// Aggregator is the streaming aggregation core. Construct with New; it is
// safe for concurrent use (OnEvent from any goroutine, Tick/Snapshot from
// the ticker or servers).
type Aggregator struct {
	cfg Config

	start time.Time
	kinds [obs.NumKinds]atomic.Int64
	total atomic.Int64
	procs []procCell
	run   procCell // events with out-of-range ranks (run-level, proc -1)

	// Health counters (atomic: read by Snapshot without mu).
	stalls    atomic.Int64
	storms    atomic.Int64
	lagAlerts atomic.Int64

	mu       sync.Mutex
	ring     [rings]window
	ringLen  int // filled slots
	ringHead int // next slot to write
	ticks    int64
	lastTick time.Time
	lastCum  [obs.NumKinds]int64 // cumulative kind counts at the previous tick
	inStorm  bool
	prevCtr  metrics.Snapshot // previous counters sample
	ctrDelta map[string]int64 // last-window deltas of counter fields
}

// New builds an aggregator from cfg (zero fields take defaults).
func New(cfg Config) *Aggregator {
	cfg.fill()
	return &Aggregator{
		cfg:   cfg,
		start: time.Now(),
		procs: make([]procCell, cfg.Nproc),
	}
}

// Window returns the configured aggregation window.
func (a *Aggregator) Window() time.Duration { return a.cfg.Window }

// OnEvent implements obs.Observer — the hot path. Purely atomic: no locks,
// no allocation.
func (a *Aggregator) OnEvent(e obs.Event) {
	ki := e.Kind
	if ki >= obs.NumKinds {
		ki = kindOther
	}
	a.kinds[ki].Add(1)
	a.total.Add(1)

	cell := &a.run
	if e.Proc >= 0 && e.Proc < len(a.procs) {
		cell = &a.procs[e.Proc]
	}
	cell.events.Add(1)
	storeMaxInt(&cell.inc, int64(e.Inc))
	cell.lastKind.Store(int64(ki))
	storeMaxFloat(&cell.vtime, e.VTime)

	if ki == obs.KindChkpt {
		cell.lastSaveV.Store(floatBits(e.VTime))
	}
}

// Tick closes the current aggregation window: it pushes the window's
// per-kind deltas into the ring, samples the counters tap, and runs the
// stall / storm / lag detectors. Start calls it on a ticker; tests drive
// it directly.
func (a *Aggregator) Tick() {
	a.mu.Lock()
	defer a.mu.Unlock()

	now := time.Now()
	durNS := int64(a.cfg.Window)
	if !a.lastTick.IsZero() {
		if d := now.Sub(a.lastTick); d > 0 {
			durNS = int64(d)
		}
	}
	a.lastTick = now

	var w window
	w.durNS = durNS
	for i := range a.kinds {
		cum := a.kinds[i].Load()
		w.kinds[i] = cum - a.lastCum[i]
		a.lastCum[i] = cum
		w.events += w.kinds[i]
	}
	a.ring[a.ringHead] = w
	a.ringHead = (a.ringHead + 1) % len(a.ring)
	if a.ringLen < len(a.ring) {
		a.ringLen++
	}
	a.ticks++

	if a.cfg.Counters != nil {
		cur := a.cfg.Counters.Snapshot()
		a.ctrDelta = counterDeltas(a.prevCtr, cur)
		a.prevCtr = cur
	}

	a.detectStalls()
	a.detectStorm()
	a.detectLag()
}

// Start runs Tick on the configured window until the returned stop
// function is called.
func (a *Aggregator) Start() (stop func()) {
	stopCh := make(chan struct{})
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		t := time.NewTicker(a.cfg.Window)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				a.Tick()
			case <-stopCh:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stopCh)
			<-doneCh
		})
	}
}

// detectStalls fires a stall event for every process that made no progress
// for stallWindows consecutive windows and has not halted. One event per
// silence episode: the detector re-arms when the process moves again.
func (a *Aggregator) detectStalls() {
	for p := range a.procs {
		cell := &a.procs[p]
		ev := cell.events.Load()
		if ev == 0 {
			continue // never seen: not participating, not stalled
		}
		if ev != cell.lastEvents {
			cell.lastEvents = ev
			cell.quietWindows = 0
			cell.stalled = false
			continue
		}
		if obs.Kind(cell.lastKind.Load()) == obs.KindHalt {
			cell.quietWindows = 0
			cell.stalled = false
			continue // halted: silence is completion, not a stall
		}
		cell.quietWindows++
		if cell.quietWindows >= stallWindows && !cell.stalled {
			cell.stalled = true
			a.stalls.Add(1)
			a.emit(obs.Event{
				Kind: obs.KindStall, Proc: p, Inc: int(cell.inc.Load()),
				VTime: floatFrom(cell.vtime.Load()),
				Label: fmt.Sprintf("no forward progress in %d windows (%v)",
					cell.quietWindows, time.Duration(cell.quietWindows)*a.cfg.Window),
			})
		}
	}
}

// detectStorm fires when the rollback count over the last stormWindows
// windows reaches stormRollbacks, once per storm; it re-arms after a
// horizon with no rollbacks at all.
func (a *Aggregator) detectStorm() {
	var rollbacks int64
	for i := 0; i < a.ringLen && i < stormWindows; i++ {
		slot := (a.ringHead - 1 - i + len(a.ring)*2) % len(a.ring)
		rollbacks += a.ring[slot].kinds[obs.KindRollback]
	}
	switch {
	case rollbacks >= int64(stormRollbacks) && !a.inStorm:
		a.inStorm = true
		a.storms.Add(1)
		a.emit(obs.Event{
			Kind: obs.KindStorm, Proc: -1,
			Label: fmt.Sprintf("%d rollbacks within %d windows", rollbacks, stormWindows),
		})
	case rollbacks == 0:
		a.inStorm = false
	}
}

// detectLag fires when a process's virtual clock runs LagThreshold virtual
// seconds past its last completed checkpoint save; it re-arms when a new
// save closes the gap.
func (a *Aggregator) detectLag() {
	if a.cfg.LagThreshold <= 0 {
		return
	}
	for p := range a.procs {
		cell := &a.procs[p]
		if cell.events.Load() == 0 {
			continue
		}
		lag := floatFrom(cell.vtime.Load()) - floatFrom(cell.lastSaveV.Load())
		if lag <= a.cfg.LagThreshold {
			cell.lagged = false
			continue
		}
		if cell.lagged {
			continue
		}
		cell.lagged = true
		a.lagAlerts.Add(1)
		a.emit(obs.Event{
			Kind: obs.KindLag, Proc: p, Inc: int(cell.inc.Load()),
			VTime: floatFrom(cell.vtime.Load()), VDur: lag,
			Label: fmt.Sprintf("%.3f virtual seconds since last completed save (threshold %.3f)",
				lag, a.cfg.LagThreshold),
		})
	}
}

// emit publishes a detector verdict on the sink. Callers hold mu; the sink
// (recorder / stream writer) must not call back into the aggregator.
func (a *Aggregator) emit(e obs.Event) {
	if a.cfg.Sink != nil {
		a.cfg.Sink.OnEvent(e)
	}
}

// counterDeltas computes per-field deltas between two counter snapshots,
// folding fixed fields and custom counters into one named map.
func counterDeltas(prev, cur metrics.Snapshot) map[string]int64 {
	was := prev.Fixed()
	d := make(map[string]int64, len(was)+len(cur.Custom))
	for i, c := range cur.Fixed() {
		d[c.Name] = c.Value - was[i].Value
	}
	for k, v := range cur.Custom {
		d[k] = v - prev.Custom[k]
	}
	return d
}

// storeMaxInt raises a to v if v is larger.
func storeMaxInt(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// storeMaxFloat raises the float64 stored as bits in a to v if v is
// larger. Values are non-negative virtual times, so bit-pattern CAS with a
// float compare is exact.
func storeMaxFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if v <= floatFrom(old) || a.CompareAndSwap(old, floatBits(v)) {
			return
		}
	}
}
