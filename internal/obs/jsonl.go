package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

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

// StageTiming is one timed stage of a command-line run (parse, transform,
// run), exported as a "timer" line.
type StageTiming struct {
	Name    string
	Elapsed time.Duration
}

// metricsLine is one "run", "histogram" or "timer" line of the metrics
// JSONL stream; Type discriminates. The "counters" line is written by
// writeCountersLine.
type metricsLine struct {
	Type string `json:"type"`

	// run
	*RunMeta `json:",omitempty"`

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
// by name), and one "timer" line per stage, in the order given.
func WriteMetricsJSONL(w io.Writer, meta RunMeta, m metrics.Snapshot, stages []StageTiming) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(metricsLine{Type: "run", RunMeta: &meta}); err != nil {
		return err
	}
	if err := writeCountersLine(w, m); err != nil {
		return err
	}
	names := make([]string, 0, len(m.Hists))
	for name := range m.Hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := m.Hists[name]
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
	for _, st := range stages {
		line := metricsLine{Type: "timer", Name: st.Name, NS: st.Elapsed.Nanoseconds(), Count: 1}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

// writeCountersLine writes the "counters" line: every fixed counter under
// its metrics.Snapshot.Fixed name and in that order, zero or not, then the
// custom counters as one sorted "custom" object when there are any.
func writeCountersLine(w io.Writer, m metrics.Snapshot) error {
	var b bytes.Buffer
	b.WriteString(`{"type":"counters"`)
	for _, f := range m.Fixed() {
		fmt.Fprintf(&b, ",%q:%d", f.Name, f.Value)
	}
	if len(m.Custom) > 0 {
		custom, err := json.Marshal(m.Custom)
		if err != nil {
			return err
		}
		b.WriteString(`,"custom":`)
		b.Write(custom)
	}
	b.WriteString("}\n")
	_, err := w.Write(b.Bytes())
	return err
}
