package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// This file renders a Snapshot in the Prometheus text exposition format
// (version 0.0.4): `# HELP` / `# TYPE` headers per family, counters as
// `_total`, histograms as cumulative `_bucket{le=...}` series plus `_sum`
// and `_count`, label values escaped per the spec. The format is a
// contract with real scrapers — prometheus_conformance_test.go parses the
// output back with a strict parser.

// promFamily is one metric family being assembled: help, type, and its
// samples in emission order.
type promFamily struct {
	name, help, typ string
	samples         []promSample
}

type promSample struct {
	suffix string // appended to the family name ("", "_bucket", ...)
	labels string // rendered label set incl. braces, "" for none
	value  float64
}

// promWriter accumulates families and renders them.
type promWriter struct {
	fams []*promFamily
}

func (pw *promWriter) family(name, typ, help string) *promFamily {
	f := &promFamily{name: name, help: help, typ: typ}
	pw.fams = append(pw.fams, f)
	return f
}

func (f *promFamily) add(labels string, v float64) {
	f.samples = append(f.samples, promSample{labels: labels, value: v})
}

func (f *promFamily) addSuffixed(suffix, labels string, v float64) {
	f.samples = append(f.samples, promSample{suffix: suffix, labels: labels, value: v})
}

// render writes every non-empty family. Families with no samples are
// skipped entirely (a HELP/TYPE pair with no samples is legal but noisy).
func (pw *promWriter) render(w io.Writer) error {
	for _, f := range pw.fams {
		if len(f.samples) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.samples {
			if _, err := fmt.Fprintf(w, "%s%s%s %s\n",
				f.name, s.suffix, s.labels, formatValue(s.value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatValue renders a sample value. Integral values print without an
// exponent for readability; +Inf/-Inf/NaN use the spec spellings.
func formatValue(v float64) string {
	if v == float64(int64(v)) && v >= -1e15 && v <= 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// label renders a single-label set: {name="value"}.
func label(name, value string) string {
	return "{" + name + `="` + escapeLabel(value) + `"}`
}

// sanitizeName maps an arbitrary counter/gauge name onto the metric-name
// alphabet [a-zA-Z0-9_:]; anything else becomes '_', and a leading digit
// gains a '_' prefix. Used for names that become label VALUES here, but
// exported for callers that mint metric names from run-time strings.
func sanitizeName(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// addSketch emits a sketch as a Prometheus histogram family: cumulative
// buckets at every bound with a recorded observation (plus +Inf), _sum and
// _count. Empty interior buckets are elided — cumulative counts stay
// correct and monotone — so the default 97-bound sketch does not explode
// the exposition.
func addSketch(pw *promWriter, name, help string, s metrics.SketchSnapshot) {
	f := pw.family(name, "histogram", help)
	if s.Count > 0 {
		var cum int64
		for i, b := range s.Bounds {
			if s.Counts[i] == 0 {
				continue
			}
			cum += s.Counts[i]
			f.addSuffixed("_bucket", label("le", strconv.FormatFloat(b, 'g', -1, 64)), float64(cum))
		}
		f.addSuffixed("_bucket", label("le", "+Inf"), float64(s.Count))
	} else {
		f.addSuffixed("_bucket", label("le", "+Inf"), 0)
	}
	f.addSuffixed("_sum", "", s.Sum)
	f.addSuffixed("_count", "", float64(s.Count))
}

// WriteProm renders the snapshot in the Prometheus text exposition format.
func WriteProm(w io.Writer, s Snapshot) error {
	pw := &promWriter{}

	f := pw.family("chkptsim_uptime_seconds", "gauge", "Seconds since the aggregator started.")
	f.add("", s.UptimeSec)
	f = pw.family("chkptsim_window_seconds", "gauge", "Aggregation window length.")
	f.add("", s.WindowSec)
	f = pw.family("chkptsim_ticks_total", "counter", "Aggregation windows closed so far.")
	f.add("", float64(s.Ticks))

	f = pw.family("chkptsim_events_total", "counter", "Runtime events observed, by kind.")
	for _, k := range sortedKeys(s.Kinds) {
		f.add(label("kind", k), float64(s.Kinds[k]))
	}
	f = pw.family("chkptsim_event_rate", "gauge", "Events per second over the retained window horizon, by kind.")
	for _, k := range sortedKeys(s.Rates) {
		f.add(label("kind", k), s.Rates[k])
	}

	procEvents := pw.family("chkptsim_proc_events_total", "counter", "Events observed per process.")
	procInc := pw.family("chkptsim_proc_incarnation", "gauge", "Highest incarnation seen per process.")
	procVT := pw.family("chkptsim_proc_vtime_seconds", "gauge", "Virtual clock per process.")
	procLag := pw.family("chkptsim_proc_checkpoint_lag_vseconds", "gauge", "Virtual seconds since the process's last completed checkpoint save.")
	procStalled := pw.family("chkptsim_proc_stalled", "gauge", "1 when the stall detector currently holds the process stalled.")
	for _, p := range s.Procs {
		l := label("proc", strconv.Itoa(p.Proc))
		procEvents.add(l, float64(p.Events))
		procInc.add(l, float64(p.Inc))
		procVT.add(l, p.VTime)
		procLag.add(l, p.Lag)
		procStalled.add(l, boolGauge(p.Stalled))
	}

	f = pw.family("chkptsim_health_stalls_total", "counter", "Stall episodes detected (no forward progress for the configured windows).")
	f.add("", float64(s.Health.Stalls))
	f = pw.family("chkptsim_health_storms_total", "counter", "Rollback storms detected.")
	f.add("", float64(s.Health.Storms))
	f = pw.family("chkptsim_health_lag_alerts_total", "counter", "Checkpoint-lag alerts raised.")
	f.add("", float64(s.Health.LagAlerts))
	f = pw.family("chkptsim_health_in_storm", "gauge", "1 while a rollback storm is in progress.")
	f.add("", boolGauge(s.Health.InStorm))
	f = pw.family("chkptsim_health_stalled_procs", "gauge", "Processes currently held stalled by the detector.")
	f.add("", float64(s.Health.StalledProcs))
	f = pw.family("chkptsim_healthy", "gauge", "1 when no process is stalled and no storm is in progress.")
	f.add("", boolGauge(s.Healthy()))

	// Counters tap: fixed fields, custom counters, gauges, histograms.
	// Omitted entirely when no tap is configured.
	if s.HasCounters {
		ctr := pw.family("chkptsim_counter_total", "counter", "Protocol counters sampled from the run's metrics tap, by name.")
		fixed := s.Counters.Fixed()
		sort.Slice(fixed, func(i, j int) bool { return fixed[i].Name < fixed[j].Name })
		for _, c := range fixed {
			ctr.add(label("name", c.Name), float64(c.Value))
		}
		for _, k := range sortedKeys(s.Counters.Custom) {
			ctr.add(label("name", sanitizeName(k)), float64(s.Counters.Custom[k]))
		}
		rate := pw.family("chkptsim_counter_rate", "gauge", "Per-second counter rates over the last closed window, by name.")
		for _, k := range sortedKeys(s.CounterRates) {
			rate.add(label("name", sanitizeName(k)), s.CounterRates[k])
		}
		g := pw.family("chkptsim_gauge", "gauge", "Float gauges sampled from the run's metrics tap, by name.")
		for _, k := range sortedKeys(s.Counters.Gauges) {
			g.add(label("name", sanitizeName(k)), s.Counters.Gauges[k])
		}
		for _, k := range sortedKeys(s.Counters.Hists) {
			addSketch(pw, "chkptsim_hist_"+sanitizeName(k),
				"Run histogram "+k+" sampled from the metrics tap.",
				s.Counters.Hists[k])
		}
	}

	// Liveness-pruning accounting: dedicated families so dashboards plot
	// the payload reduction directly instead of digging it out of the
	// generic counter tap. Names mirror sim.MetricPrune* (the string keys
	// are the contract; telemetry stays below sim in the import graph).
	// Omitted when pruning never fired — NoPrune runs, runs without a
	// counters tap, or programs whose manifests keep every variable.
	if s.HasCounters {
		if full := s.Counters.Custom["prune_bytes_full"]; full > 0 {
			saved := s.Counters.Custom["prune_bytes_saved"]
			f = pw.family("chkptsim_prune_bytes_full_total", "counter", "Bytes the checkpointed environments would occupy unpruned.")
			f.add("", float64(full))
			f = pw.family("chkptsim_prune_bytes_saved_total", "counter", "Bytes excluded from checkpoints by liveness-minimized manifests.")
			f.add("", float64(saved))
			f = pw.family("chkptsim_prune_vars_dropped_total", "counter", "Dead variables excluded from checkpoint payloads.")
			f.add("", float64(s.Counters.Custom["prune_vars_dropped"]))
			f = pw.family("chkptsim_prune_ratio", "gauge", "Fraction of full-environment bytes saved by pruning (saved/full).")
			f.add("", float64(saved)/float64(full))
		}
	}

	// WAL store durability counters. Omitted entirely when no store is
	// attached (HasWAL false).
	if s.HasWAL {
		ws := s.WAL
		f = pw.family("chkptsim_wal_saves_total", "counter", "Checkpoint puts acknowledged by the WAL store.")
		f.add("", float64(ws.Saves))
		f = pw.family("chkptsim_wal_batches_total", "counter", "WAL group commits (data fsyncs).")
		f.add("", float64(ws.Batches))
		f = pw.family("chkptsim_wal_rotations_total", "counter", "WAL segment rotations.")
		f.add("", float64(ws.Rotations))
		f = pw.family("chkptsim_wal_compactions_total", "counter", "WAL compactions completed.")
		f.add("", float64(ws.Compactions))
		f = pw.family("chkptsim_wal_group_commit_ratio", "gauge", "Acknowledged puts per group commit (amortization of fsync cost).")
		ratio := float64(0)
		if ws.Batches > 0 {
			ratio = float64(ws.Saves) / float64(ws.Batches)
		}
		f.add("", ratio)
		f = pw.family("chkptsim_wal_recovered_records", "gauge", "Valid records replayed at Open.")
		f.add("", float64(ws.Recovered))
		f = pw.family("chkptsim_wal_truncated_bytes", "gauge", "Torn-tail bytes discarded at Open.")
		f.add("", float64(ws.TruncatedBytes))
		f = pw.family("chkptsim_wal_quarantined_on_open", "gauge", "Keys that entered recovery already corrupt.")
		f.add("", float64(ws.QuarantinedOnOpen))
	}

	return pw.render(w)
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// sortedKeys returns a map's keys in sorted order, for deterministic
// exposition output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
