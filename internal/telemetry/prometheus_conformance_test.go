package telemetry_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// This file is a strict Go-side parser for the Prometheus text exposition
// format (0.0.4) and a conformance test that runs the renderer's output
// through it. The parser enforces the rules a real scraper relies on:
//
//   - metric and label names match the spec alphabets;
//   - every sample belongs to a family announced by a # TYPE line, with
//     # HELP preceding # TYPE exactly once per family;
//   - histogram families expose only _bucket/_sum/_count series, buckets
//     carry an le label, le values strictly increase, cumulative counts
//     are monotone, and the +Inf bucket equals _count;
//   - label values use only the legal escapes (\\ \" \n);
//   - no duplicate (name, labelset) samples;
//   - values parse as Go floats (incl. +Inf/-Inf/NaN spellings).

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

type promParsedFamily struct {
	name, typ string
	samples   []parsedSample
}

type parsedSample struct {
	name   string            // full sample name incl. suffix
	labels map[string]string // parsed label set
	key    string            // canonical (name, labels) dedup key
	value  float64
}

// parseProm parses and validates a full exposition payload, returning the
// families keyed by name or the first violation.
func parseProm(data []byte) (map[string]*promParsedFamily, error) {
	fams := map[string]*promParsedFamily{}
	var cur *promParsedFamily
	seen := map[string]bool{}
	help := map[string]bool{}

	for n, line := range strings.Split(string(data), "\n") {
		lineno := n + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !metricNameRe.MatchString(name) {
				return nil, fmt.Errorf("line %d: malformed HELP: %q", lineno, line)
			}
			if help[name] {
				return nil, fmt.Errorf("line %d: duplicate HELP for %s", lineno, name)
			}
			help[name] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: malformed TYPE: %q", lineno, line)
			}
			name, typ := fields[0], fields[1]
			if !metricNameRe.MatchString(name) {
				return nil, fmt.Errorf("line %d: bad metric name %q", lineno, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown type %q", lineno, typ)
			}
			if fams[name] != nil {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineno, name)
			}
			if !help[name] {
				return nil, fmt.Errorf("line %d: TYPE %s without preceding HELP", lineno, name)
			}
			cur = &promParsedFamily{name: name, typ: typ}
			fams[name] = cur
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment: legal
		}

		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		if cur == nil || !sampleBelongs(cur, s.name) {
			return nil, fmt.Errorf("line %d: sample %s outside its family block", lineno, s.name)
		}
		if seen[s.key] {
			return nil, fmt.Errorf("line %d: duplicate sample %s", lineno, s.key)
		}
		seen[s.key] = true
		cur.samples = append(cur.samples, s)
	}

	for name, f := range fams {
		if f.typ == "histogram" {
			if err := validateHistogram(name, f); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

// sampleBelongs reports whether a sample name is legal inside family f:
// the bare name, or for histograms the three suffixed series.
func sampleBelongs(f *promParsedFamily, sample string) bool {
	if f.typ == "histogram" {
		return sample == f.name+"_bucket" || sample == f.name+"_sum" || sample == f.name+"_count"
	}
	return sample == f.name
}

// parseSampleLine validates one sample line: name, optional label set,
// value, optional timestamp.
func parseSampleLine(line string) (parsedSample, error) {
	var zero parsedSample
	rest := line
	brace := strings.IndexByte(rest, '{')
	var name, labelPart string
	if brace >= 0 {
		name = rest[:brace]
		end := strings.LastIndexByte(rest, '}')
		if end < brace {
			return zero, fmt.Errorf("unterminated label set: %q", line)
		}
		labelPart = rest[brace+1 : end]
		rest = strings.TrimLeft(rest[end+1:], " ")
	} else {
		var ok bool
		name, rest, ok = strings.Cut(rest, " ")
		if !ok {
			return zero, fmt.Errorf("no value: %q", line)
		}
	}
	if !metricNameRe.MatchString(name) {
		return zero, fmt.Errorf("bad sample name %q", name)
	}
	labels, err := parseLabels(labelPart)
	if err != nil {
		return zero, err
	}

	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return zero, fmt.Errorf("want value [timestamp], got %q", rest)
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return zero, fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return zero, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}

	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	key := name + "{"
	for _, k := range keys {
		key += k + "=" + strconv.Quote(labels[k]) + ","
	}
	key += "}"
	return parsedSample{name: name, labels: labels, key: key, value: v}, nil
}

// parseLabels validates a label body: name="value" pairs, comma separated,
// values escaped per the spec.
func parseLabels(body string) (map[string]string, error) {
	labels := map[string]string{}
	i := 0
	for i < len(body) {
		eq := strings.IndexByte(body[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without '=': %q", body[i:])
		}
		name := body[i : i+eq]
		if !labelNameRe.MatchString(name) {
			return nil, fmt.Errorf("bad label name %q", name)
		}
		if _, dup := labels[name]; dup {
			return nil, fmt.Errorf("duplicate label %q", name)
		}
		i += eq + 1
		if i >= len(body) || body[i] != '"' {
			return nil, fmt.Errorf("label %s value not quoted", name)
		}
		i++
		var val strings.Builder
		closed := false
		for i < len(body) {
			c := body[i]
			if c == '\\' {
				if i+1 >= len(body) {
					return nil, fmt.Errorf("dangling escape in label %s", name)
				}
				switch body[i+1] {
				case '\\', '"':
					val.WriteByte(body[i+1])
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("illegal escape \\%c in label %s", body[i+1], name)
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if !closed {
			return nil, fmt.Errorf("unterminated label value for %s", name)
		}
		labels[name] = val.String()
		if i < len(body) {
			if body[i] != ',' {
				return nil, fmt.Errorf("expected ',' after label %s, got %q", name, body[i:])
			}
			i++
		}
	}
	return labels, nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// validateHistogram enforces the histogram contract: an le label on every
// bucket, strictly increasing le values, monotone cumulative counts, a
// final +Inf bucket, and +Inf == _count.
func validateHistogram(name string, f *promParsedFamily) error {
	prevLe := math.Inf(-1)
	prevCum := -1.0
	var infCount, count float64
	var sawInf, sawSum, sawCount bool
	for _, s := range f.samples {
		switch s.name {
		case name + "_bucket":
			leStr, ok := s.labels["le"]
			if !ok {
				return fmt.Errorf("%s: bucket without le label", name)
			}
			le, err := parsePromValue(leStr)
			if err != nil {
				return fmt.Errorf("%s: bad le %q", name, leStr)
			}
			if le <= prevLe {
				return fmt.Errorf("%s: le not increasing: %g after %g", name, le, prevLe)
			}
			if s.value < prevCum {
				return fmt.Errorf("%s: bucket counts not monotone: %g after %g", name, s.value, prevCum)
			}
			prevLe, prevCum = le, s.value
			if math.IsInf(le, 1) {
				sawInf, infCount = true, s.value
			}
		case name + "_sum":
			sawSum = true
		case name + "_count":
			sawCount, count = true, s.value
		}
	}
	if !sawInf || !sawSum || !sawCount {
		return fmt.Errorf("%s: incomplete histogram (inf=%v sum=%v count=%v)", name, sawInf, sawSum, sawCount)
	}
	if infCount != count {
		return fmt.Errorf("%s: +Inf bucket %g != _count %g", name, infCount, count)
	}
	return nil
}

// mustParseProm is parseProm for tests that expect a valid payload.
func mustParseProm(t *testing.T, data []byte) map[string]*promParsedFamily {
	t.Helper()
	fams, err := parseProm(data)
	if err != nil {
		t.Fatalf("conformance violation: %v\npayload:\n%s", err, data)
	}
	return fams
}

// loadedAggregator builds an aggregator with every event-derived export
// surface populated: all kinds, multiple procs, sketches, fired detectors.
func loadedAggregator() *telemetry.Aggregator {
	a := telemetry.New(telemetry.Config{Nproc: 4, Window: time.Hour, LagThreshold: 0.5})
	kinds := []obs.Kind{
		obs.KindCompute, obs.KindSend, obs.KindRecv, obs.KindChkpt,
		obs.KindBlock, obs.KindRollback, obs.KindRestart, obs.KindHalt,
		obs.KindFault, obs.KindRetry, obs.KindScrub, obs.KindDegraded,
		obs.KindNetFault, obs.KindSuspect, obs.KindBacklog, obs.KindHeal,
		obs.NumKinds + 3, // not a kind: a newer producer's
	}
	for i, k := range kinds {
		a.OnEvent(obs.Event{Kind: k, Proc: i % 4, Inc: i % 3, VTime: float64(i), DurNS: int64(i+1) * 1e6, VDur: float64(i) / 10})
	}
	a.OnEvent(obs.Event{Kind: obs.KindRollback, Proc: 1})
	a.OnEvent(obs.Event{Kind: obs.KindRollback, Proc: 2})
	a.OnEvent(obs.Event{Kind: obs.KindChkpt, Proc: 0, VTime: 0.1, DurNS: 2e6})
	a.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: 0, VTime: 5})
	a.Tick() // storm (3 rollbacks), lag (proc 0 at 5 vs save 0.1)
	for i := 0; i < 8; i++ {
		a.Tick() // stall for quiet procs at the eighth
	}
	return a
}

// TestPromConformance renders a fully-loaded snapshot and validates every
// rule with the strict parser.
func TestPromConformance(t *testing.T) {
	a := loadedAggregator()
	var buf bytes.Buffer
	if err := telemetry.WriteProm(&buf, a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	fams := mustParseProm(t, buf.Bytes())
	for _, want := range []string{
		"chkptsim_uptime_seconds", "chkptsim_events_total", "chkptsim_event_rate",
		"chkptsim_proc_events_total", "chkptsim_proc_incarnation",
		"chkptsim_proc_vtime_seconds", "chkptsim_proc_checkpoint_lag_vseconds",
		"chkptsim_proc_stalled", "chkptsim_health_stalls_total",
		"chkptsim_health_storms_total", "chkptsim_health_lag_alerts_total",
		"chkptsim_health_in_storm", "chkptsim_healthy", "chkptsim_ticks_total",
	} {
		if fams[want] == nil {
			t.Errorf("family %s missing from exposition", want)
		}
	}
	if f := fams["chkptsim_events_total"]; f != nil {
		if f.typ != "counter" {
			t.Errorf("events_total type = %s", f.typ)
		}
		found := false
		for _, s := range f.samples {
			if s.labels["kind"] == "other" {
				found = true // the out-of-range kind folds into other
			}
		}
		if !found {
			t.Error("unknown kind not folded into kind=\"other\"")
		}
	}
	// Detectors fired: health counters visible in the exposition.
	for fam, min := range map[string]float64{
		"chkptsim_health_storms_total":     1,
		"chkptsim_health_stalls_total":     1,
		"chkptsim_health_lag_alerts_total": 1,
	} {
		if f := fams[fam]; f == nil || len(f.samples) == 0 || f.samples[0].value < min {
			t.Errorf("%s below %g: %+v", fam, min, f)
		}
	}
}

// TestPromConformanceWithCounters covers the tap families, including the
// sanitization path for hostile counter names.
func TestPromConformanceWithCounters(t *testing.T) {
	ctr := &metrics.Counters{}
	ctr.IncAppMessages(42)
	ctr.Inc("weird name\"with\\specials\n", 7)
	ctr.SetGauge("fleet_active_jobs", 3)
	ctr.ObserveHist("save ms", 3.5)
	ctr.ObserveHist(metrics.HistChkptSaveMS, 1.5)
	ctr.ObserveHist(metrics.HistBlockedWallMS, 2.5)
	ctr.ObserveHist(metrics.HistBarrierStallV, 0.5)
	a := telemetry.New(telemetry.Config{Counters: ctr, Window: time.Hour})
	a.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: 0})
	a.OnEvent(obs.Event{Kind: obs.KindChkpt, Proc: 0, DurNS: 1.5e6})
	a.OnEvent(obs.Event{Kind: obs.KindBlock, Proc: 0, DurNS: 2.5e6, VDur: 0.5})
	a.Tick()
	var buf bytes.Buffer
	if err := telemetry.WriteProm(&buf, a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	fams := mustParseProm(t, buf.Bytes())
	for _, want := range []string{
		"chkptsim_counter_total", "chkptsim_counter_rate",
		"chkptsim_gauge", "chkptsim_hist_save_ms",
	} {
		if fams[want] == nil {
			t.Errorf("family %s missing", want)
		}
	}
	// One home per distribution: the runtime's three are histogram families
	// under their tap names and nowhere else, whatever the events carried.
	var hists []string
	for name, f := range fams {
		if f.typ == "histogram" {
			hists = append(hists, name)
		}
	}
	sort.Strings(hists)
	if want := []string{
		"chkptsim_hist_" + metrics.HistBarrierStallV, "chkptsim_hist_" + metrics.HistBlockedWallMS,
		"chkptsim_hist_" + metrics.HistChkptSaveMS, "chkptsim_hist_save_ms",
	}; !reflect.DeepEqual(hists, want) {
		t.Errorf("histogram families = %v, want %v", hists, want)
	}
	var appTotal, weird float64
	for _, s := range fams["chkptsim_counter_total"].samples {
		switch s.labels["name"] {
		case "app_messages":
			appTotal = s.value
		case "weird_name_with_specials_":
			weird = s.value
		}
	}
	if appTotal != 42 {
		t.Errorf("app_messages total = %g, want 42", appTotal)
	}
	if weird != 7 {
		t.Errorf("sanitized hostile counter name missing or wrong: %g", weird)
	}
}

// TestPromConformancePruneFamilies covers the liveness-pruning families:
// present with the right arithmetic when pruning fired, absent when the
// run never pruned (full-environment checkpoints keep the exposition
// quiet rather than emitting a misleading all-zero ratio).
func TestPromConformancePruneFamilies(t *testing.T) {
	ctr := &metrics.Counters{}
	ctr.Inc("prune_bytes_full", 400)
	ctr.Inc("prune_bytes_saved", 100)
	ctr.Inc("prune_vars_dropped", 12)
	a := telemetry.New(telemetry.Config{Counters: ctr, Window: time.Hour})
	a.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: 0})
	a.Tick()
	var buf bytes.Buffer
	if err := telemetry.WriteProm(&buf, a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	fams := mustParseProm(t, buf.Bytes())
	for fam, want := range map[string]float64{
		"chkptsim_prune_bytes_full_total":   400,
		"chkptsim_prune_bytes_saved_total":  100,
		"chkptsim_prune_vars_dropped_total": 12,
		"chkptsim_prune_ratio":              0.25,
	} {
		f := fams[fam]
		if f == nil || len(f.samples) == 0 {
			t.Errorf("family %s missing", fam)
			continue
		}
		if got := f.samples[0].value; got != want {
			t.Errorf("%s = %g, want %g", fam, got, want)
		}
	}

	// A run that never pruned leaves prune_bytes_full at zero: no prune families.
	quiet := &metrics.Counters{}
	quiet.IncAppMessages(1)
	a2 := telemetry.New(telemetry.Config{Counters: quiet, Window: time.Hour})
	a2.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: 0})
	a2.Tick()
	buf.Reset()
	if err := telemetry.WriteProm(&buf, a2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	fams = mustParseProm(t, buf.Bytes())
	for _, fam := range []string{"chkptsim_prune_bytes_full_total", "chkptsim_prune_ratio"} {
		if fams[fam] != nil {
			t.Errorf("%s exported although pruning never fired", fam)
		}
	}
}

// TestPromSketchExposition pins the histogram text of two sketches byte
// for byte: one with values only in its lowest buckets and one that also
// overflows the last bound. The text was rendered while every snapshot
// copied all 98 buckets; a snapshot that stops at its last nonzero bucket
// must render the same.
func TestPromSketchExposition(t *testing.T) {
	ctr := &metrics.Counters{}
	for _, v := range []float64{0, 1e-6, 1e-6, 2e-6, 3.5e-5, 0.02, 5e7} {
		ctr.ObserveHist("low_overflow", v)
	}
	for _, v := range []float64{0, 1e-6, 2e-6, 3.5e-5} {
		ctr.ObserveHist("low_only", v)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteProm(&buf, telemetry.Snapshot{HasCounters: true, Counters: ctr.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	mustParseProm(t, buf.Bytes())
	var got strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if strings.Contains(line, "chkptsim_hist_") {
			got.WriteString(line)
		}
	}
	const want = `# HELP chkptsim_hist_low_only Run histogram low_only sampled from the metrics tap.
# TYPE chkptsim_hist_low_only histogram
chkptsim_hist_low_only_bucket{le="1e-06"} 2
chkptsim_hist_low_only_bucket{le="2.3713737056616552e-06"} 3
chkptsim_hist_low_only_bucket{le="4.2169650342858216e-05"} 4
chkptsim_hist_low_only_bucket{le="+Inf"} 4
chkptsim_hist_low_only_sum 3.7999999999999995e-05
chkptsim_hist_low_only_count 4
# HELP chkptsim_hist_low_overflow Run histogram low_overflow sampled from the metrics tap.
# TYPE chkptsim_hist_low_overflow histogram
chkptsim_hist_low_overflow_bucket{le="1e-06"} 3
chkptsim_hist_low_overflow_bucket{le="2.3713737056616552e-06"} 4
chkptsim_hist_low_overflow_bucket{le="4.2169650342858216e-05"} 5
chkptsim_hist_low_overflow_bucket{le="0.023713737056616554"} 6
chkptsim_hist_low_overflow_bucket{le="+Inf"} 7
chkptsim_hist_low_overflow_sum 5.0000000020039e+07
chkptsim_hist_low_overflow_count 7
`
	if got.String() != want {
		t.Errorf("histogram exposition:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestPromNoCountersOmitsTapFamilies: without a tap the tap families must
// not appear at all (no all-zero noise).
func TestPromNoCountersOmitsTapFamilies(t *testing.T) {
	a := telemetry.New(telemetry.Config{Window: time.Hour})
	a.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: 0})
	a.Tick()
	var buf bytes.Buffer
	if err := telemetry.WriteProm(&buf, a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	fams := mustParseProm(t, buf.Bytes())
	for _, fam := range []string{"chkptsim_counter_total", "chkptsim_gauge"} {
		if fams[fam] != nil {
			t.Errorf("%s exported without a tap", fam)
		}
	}
}

// TestPromParserRejectsViolations proves the parser has teeth: every
// malformed payload must fail.
func TestPromParserRejectsViolations(t *testing.T) {
	bad := map[string]string{
		"sample outside family": "orphan_metric 1\n",
		"type without help":     "# TYPE foo counter\nfoo 1\n",
		"bad metric name":       "# HELP 9bad x\n# TYPE 9bad counter\n9bad 1\n",
		"unknown type":          "# HELP foo x\n# TYPE foo matrix\nfoo 1\n",
		"bad value":             "# HELP foo x\n# TYPE foo counter\nfoo pizza\n",
		"duplicate sample":      "# HELP foo x\n# TYPE foo counter\nfoo 1\nfoo 2\n",
		"duplicate type":        "# HELP foo x\n# TYPE foo counter\n# TYPE foo counter\nfoo 1\n",
		"illegal escape":        "# HELP foo x\n# TYPE foo counter\nfoo{l=\"a\\tb\"} 1\n",
		"unquoted label":        "# HELP foo x\n# TYPE foo counter\nfoo{l=3} 1\n",
		"bad label name":        "# HELP foo x\n# TYPE foo counter\nfoo{0l=\"a\"} 1\n",
		"bucket without le":     "# HELP h x\n# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n",
		"le not increasing":     "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"non-monotone buckets":  "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"inf bucket != count":   "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
		"missing sum":           "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 0\nh_count 0\n",
		"foreign sample in fam": "# HELP foo x\n# TYPE foo counter\nbar 1\n",
	}
	for name, payload := range bad {
		payload := payload
		t.Run(name, func(t *testing.T) {
			if _, err := parseProm([]byte(payload)); err == nil {
				t.Errorf("parser accepted: %q", payload)
			}
		})
	}
	good := "# HELP foo a good one\n# TYPE foo counter\nfoo{l=\"a\\\\b\\\"c\\nd\"} 1 1722000000000\n"
	if fams, err := parseProm([]byte(good)); err != nil {
		t.Errorf("parser rejected a legal payload: %v", err)
	} else if v := fams["foo"].samples[0].labels["l"]; v != "a\\b\"c\nd" {
		t.Errorf("unescaped label value wrong: %q", v)
	}
}
