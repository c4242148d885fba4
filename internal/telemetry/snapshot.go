package telemetry

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/storage/wal"
)

// ProcStatus is one process's row in a Snapshot.
type ProcStatus struct {
	Proc      int     `json:"proc"`
	Events    int64   `json:"events"`
	Inc       int     `json:"inc"`
	LastKind  string  `json:"last_kind"`
	VTime     float64 `json:"vtime"`
	LastSaveV float64 `json:"last_save_v"`
	// Lag is VTime - LastSaveV: virtual seconds of work that would be
	// lost if the process failed right now.
	Lag     float64 `json:"lag"`
	Stalled bool    `json:"stalled"`
	Halted  bool    `json:"halted"`
}

// Quantiles is the standard percentile summary of one sketch.
type Quantiles struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Health is the detector state at snapshot time.
type Health struct {
	Stalls       int64 `json:"stalls"`     // stall episodes detected so far
	Storms       int64 `json:"storms"`     // rollback storms detected so far
	LagAlerts    int64 `json:"lag_alerts"` // checkpoint-lag alerts so far
	InStorm      bool  `json:"in_storm"`   // currently inside a rollback storm
	StalledProcs int   `json:"stalled_procs"`
}

// Snapshot is a point-in-time copy of everything the aggregator knows,
// consumed by the Prometheus renderer, /snapshot.json, and the dashboard.
type Snapshot struct {
	UptimeSec float64 `json:"uptime_sec"`
	WindowSec float64 `json:"window_sec"`
	Ticks     int64   `json:"ticks"`

	Total int64            `json:"total_events"`
	Kinds map[string]int64 `json:"kinds"` // cumulative per-kind totals

	// Rates are events/sec per kind over the ring's retained horizon;
	// LastWindow holds the most recent closed window's raw deltas.
	Rates      map[string]float64 `json:"rates"`
	LastWindow map[string]int64   `json:"last_window"`

	Procs []ProcStatus `json:"procs"`

	// Percentile summaries of the tap's chkpt_save_ms, blocked_wall_ms and
	// barrier_stall_vs distributions (the distributions themselves are
	// Counters.Hists); empty without a tap.
	SaveMS  Quantiles `json:"save_ms"`
	BlockMS Quantiles `json:"block_ms"`
	StallV  Quantiles `json:"stall_v"`

	Health Health `json:"health"`

	// Counters is the most recent sample of the configured counters tap;
	// CounterRates its per-second rates over the last window. HasCounters
	// is false (and both stay empty) when no tap is configured.
	HasCounters  bool               `json:"has_counters"`
	Counters     metrics.Snapshot   `json:"counters"`
	CounterRates map[string]float64 `json:"counter_rates,omitempty"`

	// WAL is the checkpoint store's durability counters, sampled at
	// snapshot time from the configured WALStats source. HasWAL is false
	// (and WAL stays zero) when no store is attached.
	HasWAL bool      `json:"has_wal"`
	WAL    wal.Stats `json:"wal"`
}

// quantiles summarizes a sketch snapshot (all zero for the zero snapshot: a
// name the tap never recorded).
func quantiles(s metrics.SketchSnapshot) Quantiles {
	return Quantiles{
		Count: s.Count,
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
		Max:   s.Max,
	}
}

// Snapshot copies the aggregator's state. Safe to call concurrently with
// OnEvent and Tick.
func (a *Aggregator) Snapshot() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()

	s := Snapshot{
		UptimeSec:  time.Since(a.start).Seconds(),
		WindowSec:  a.cfg.Window.Seconds(),
		Ticks:      a.ticks,
		Total:      a.total.Load(),
		Kinds:      make(map[string]int64, obs.NumKinds),
		Rates:      make(map[string]float64, obs.NumKinds),
		LastWindow: make(map[string]int64, obs.NumKinds),
	}
	for i := range a.kinds {
		if v := a.kinds[i].Load(); v > 0 {
			s.Kinds[obs.Kind(i).String()] = v
		}
	}

	// Rates over the retained ring horizon.
	var horizon [obs.NumKinds]int64
	var horizonNS int64
	for i := 0; i < a.ringLen; i++ {
		slot := (a.ringHead - 1 - i + 2*len(a.ring)) % len(a.ring)
		for k := range horizon {
			horizon[k] += a.ring[slot].kinds[k]
		}
		horizonNS += a.ring[slot].durNS
	}
	if horizonNS > 0 {
		sec := float64(horizonNS) / 1e9
		for k, v := range horizon {
			if v > 0 {
				s.Rates[obs.Kind(k).String()] = float64(v) / sec
			}
		}
	}
	if a.ringLen > 0 {
		last := (a.ringHead - 1 + len(a.ring)) % len(a.ring)
		for k, v := range a.ring[last].kinds {
			if v > 0 {
				s.LastWindow[obs.Kind(k).String()] = v
			}
		}
	}

	s.Procs = make([]ProcStatus, 0, len(a.procs))
	stalled := 0
	for p := range a.procs {
		cell := &a.procs[p]
		ev := cell.events.Load()
		if ev == 0 {
			continue
		}
		ki := obs.Kind(cell.lastKind.Load())
		ps := ProcStatus{
			Proc:      p,
			Events:    ev,
			Inc:       int(cell.inc.Load()),
			LastKind:  ki.String(),
			VTime:     floatFrom(cell.vtime.Load()),
			LastSaveV: floatFrom(cell.lastSaveV.Load()),
			Stalled:   cell.stalled,
			Halted:    ki == obs.KindHalt,
		}
		ps.Lag = ps.VTime - ps.LastSaveV
		if ps.Stalled {
			stalled++
		}
		s.Procs = append(s.Procs, ps)
	}

	s.Health = Health{
		Stalls:       a.stalls.Load(),
		Storms:       a.storms.Load(),
		LagAlerts:    a.lagAlerts.Load(),
		InStorm:      a.inStorm,
		StalledProcs: stalled,
	}

	if a.cfg.Counters != nil {
		s.HasCounters = true
		s.Counters = a.prevCtr
		s.SaveMS = quantiles(s.Counters.Hists[metrics.HistChkptSaveMS])
		s.BlockMS = quantiles(s.Counters.Hists[metrics.HistBlockedWallMS])
		s.StallV = quantiles(s.Counters.Hists[metrics.HistBarrierStallV])
		if len(a.ctrDelta) > 0 {
			lastNS := int64(a.cfg.Window)
			if a.ringLen > 0 {
				last := (a.ringHead - 1 + len(a.ring)) % len(a.ring)
				if a.ring[last].durNS > 0 {
					lastNS = a.ring[last].durNS
				}
			}
			sec := float64(lastNS) / 1e9
			s.CounterRates = make(map[string]float64, len(a.ctrDelta))
			for k, v := range a.ctrDelta {
				s.CounterRates[k] = float64(v) / sec
			}
		}
	}
	if a.cfg.WALStats != nil {
		s.HasWAL = true
		s.WAL = a.cfg.WALStats()
	}
	return s
}

// Healthy reports whether the run looks healthy right now: no process
// stalled and no storm in progress. Detector history (past stalls that
// recovered) does not count against it.
func (s Snapshot) Healthy() bool {
	if s.Health.InStorm || s.Health.StalledProcs > 0 {
		return false
	}
	return true
}

var _ obs.Observer = (*Aggregator)(nil)
