package obs

import (
	"encoding/json"
	"io"
	"sort"

	"repro/internal/metrics"
)

// RunMeta describes the run a metrics stream belongs to.
type RunMeta struct {
	Program    string  `json:"program"`
	Protocol   string  `json:"protocol"`
	Nproc      int     `json:"nproc"`
	Restarts   int     `json:"restarts"`
	RolledBack int     `json:"rolled_back"`
	VTime      float64 `json:"vtime,omitempty"`
}

// metricsLine is one line of the metrics JSONL stream; Type discriminates:
// "run" (metadata), "counters", "histogram", "timer".
type metricsLine struct {
	Type string `json:"type"`

	// run
	*RunMeta `json:",omitempty"`

	// counters
	AppMessages     *int64           `json:"app_messages,omitempty"`
	CtrlMessages    *int64           `json:"ctrl_messages,omitempty"`
	CtrlBytes       *int64           `json:"ctrl_bytes,omitempty"`
	Checkpoints     *int64           `json:"checkpoints,omitempty"`
	Forced          *int64           `json:"forced,omitempty"`
	Rollbacks       *int64           `json:"rollbacks,omitempty"`
	RestartedEvents *int64           `json:"restarted_events,omitempty"`
	BlockedNS       *int64           `json:"blocked_ns,omitempty"`
	Custom          map[string]int64 `json:"custom,omitempty"`

	// histogram and timer
	Name string `json:"name,omitempty"`

	// histogram
	Count  int64     `json:"count,omitempty"`
	Sum    float64   `json:"sum,omitempty"`
	Min    float64   `json:"min,omitempty"`
	Max    float64   `json:"max,omitempty"`
	Mean   float64   `json:"mean,omitempty"`
	P50    float64   `json:"p50,omitempty"`
	P95    float64   `json:"p95,omitempty"`
	P99    float64   `json:"p99,omitempty"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"`

	// timer
	NS int64 `json:"ns,omitempty"`
}

// WriteMetricsJSONL exports a run's metrics as a JSONL stream: one "run"
// line, one "counters" line, one "histogram" line per distribution (sorted
// by name), and one "timer" line per registry timer. A nil registry
// snapshot is fine — callers without stage timers pass
// metrics.RegistrySnapshot{}.
func WriteMetricsJSONL(w io.Writer, meta RunMeta, m metrics.Snapshot, reg metrics.RegistrySnapshot) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(metricsLine{Type: "run", RunMeta: &meta}); err != nil {
		return err
	}
	blocked := m.Blocked.Nanoseconds()
	counters := metricsLine{
		Type:            "counters",
		AppMessages:     &m.AppMessages,
		CtrlMessages:    &m.CtrlMessages,
		CtrlBytes:       &m.CtrlBytes,
		Checkpoints:     &m.Checkpoints,
		Forced:          &m.Forced,
		Rollbacks:       &m.Rollbacks,
		RestartedEvents: &m.RestartedEvents,
		BlockedNS:       &blocked,
		Custom:          m.Custom,
	}
	if err := enc.Encode(counters); err != nil {
		return err
	}
	if err := writeHistLines(enc, m.Hists); err != nil {
		return err
	}
	for _, t := range reg.Timers {
		line := metricsLine{Type: "timer", Name: t.Name, NS: t.Elapsed.Nanoseconds(), Count: t.Count}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

func writeHistLines(enc *json.Encoder, hists map[string]metrics.HistSnapshot) error {
	names := make([]string, 0, len(hists))
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := hists[name]
		if h.Count == 0 {
			// Never observed: Min/Max are infinities, which JSON cannot
			// carry; emit an explicitly empty distribution instead.
			h.Min, h.Max = 0, 0
		}
		line := metricsLine{
			Type: "histogram", Name: name,
			Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
			Mean: h.Mean(), P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
			Bounds: h.Bounds, Counts: h.Counts,
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}
