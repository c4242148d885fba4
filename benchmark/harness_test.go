package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/storage/wal"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {1, 1}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The reportable tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4):
// the driver computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 2.9, 3.0, 3.3, 2.7}, 2.8, 3.2},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.vals)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.vals, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// Children that overlap — concurrent saves — are counted once, and what
// sticks out of the parent is clipped.
func TestSelfTimeUsesIntervalUnion(t *testing.T) {
	parent := interval{100, 200}
	children := []interval{{110, 130}, {120, 150}, {125, 128}, {170, 180}, {190, 250}, {10, 20}}
	if got := unionLen(children, parent.Start, parent.End); got != 60 {
		t.Errorf("unionLen = %d, want 40+10+10 = 60", got)
	}
	if got := selfTime(parent, children); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want verdict
	}{
		{"unchanged", lower, steady, steady, verdictOK},
		{"slower inside the bound", lower, steady, []float64{108, 109, 107, 108, 108}, verdictOK},
		{"slower beyond the bound", lower, steady, []float64{115, 116, 114, 115, 115}, verdictBreach},
		{"faster", lower, steady, []float64{50, 51, 49, 50, 50}, verdictOK},
		{"throughput down beyond the bound", higher, steady, []float64{85, 86, 84, 85, 85}, verdictBreach},
		{"throughput up", higher, steady, []float64{150, 151, 149, 150, 150}, verdictOK},
		{"too noisy to tell", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, verdictUnresolved},
		{"noisy but every run better", lower, []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, verdictOK},
	} {
		if got := judge(c.m, c.a, c.b).Verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	row := judge(higher, []float64{100}, []float64{80})
	if !near(row.Ratio, 0.8) || !near(row.Worse, 0.2) {
		t.Errorf("ratio/worse = %v/%v, want 0.8/0.2", row.Ratio, row.Worse)
	}
}

func TestCompareFilesExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, jobsPerS float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 3; i++ {
			r := &runResult{Workload: "interp-mem", Metrics: map[string]float64{
				"jobs_per_s": jobsPerS + float64(i), "allocs_per_job": 1e6 / jobsPerS,
			}}
			if err := appendHistory(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, slow := write("a.jsonl", 1000), write("same.jsonl", 995), write("slow.jsonl", 600)
	var out strings.Builder
	if code := compareFiles(a, same, &out); code != 0 {
		t.Errorf("equal sides: exit %d, want 0\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(a, slow, &out); code != 1 {
		t.Errorf("regressed side: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), string(verdictBreach)) {
		t.Errorf("no breach row in:\n%s", out.String())
	}
}

func TestSpec(t *testing.T) {
	if err := validateSpec(workloadSpecs, endToEndSpecs, perLayerSpecs); err != nil {
		t.Fatal(err)
	}
	if n := len(perLayerSpecs); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
	dup := append([]metricSpec{{Name: "setup_s", Unit: "s", Better: "lower"}}, perLayerSpecs...)
	if err := validateSpec(workloadSpecs, endToEndSpecs, dup); err == nil {
		t.Error("a metric name used twice was accepted")
	}
	bad := []workloadSpec{{Name: "no spaces", Why: "x"}, {Name: "b", Why: "y"}}
	if err := validateSpec(bad, endToEndSpecs, perLayerSpecs); err == nil {
		t.Error("a workload name outside [A-Za-z0-9_.-] was accepted")
	}
}

// BENCHMARK.json is generated from the tables in spec.go; they must not
// drift apart.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -spec`; regenerate it")
	}
}

// describeInputs renders every generated input of a seed as text — what
// the determinism test compares byte for byte.
func describeInputs(seed int64) string {
	out := ""
	for _, s := range analysisSources(seed) {
		out += s
	}
	js, jf := jacobiInput(seed)
	ss, sc := stormInput(seed)
	return out + js + fmt.Sprint(jf) + ss + fmt.Sprint(sc) + fmt.Sprint(fleetSeed(seed, 0))
}

// Same seed, same bytes; another seed, other sources and fleet seeds. The
// crash lists are fixed on purpose (see gen.go) and must not move.
func TestInputsFollowTheSeed(t *testing.T) {
	if describeInputs(7) != describeInputs(7) {
		t.Fatal("the same seed generated different inputs")
	}
	if describeInputs(7) == describeInputs(8) {
		t.Fatal("different seeds generated the same inputs")
	}
	a, b := analysisSources(7), analysisSources(8)
	for k := range a {
		for j := range b {
			if a[k] == b[j] {
				t.Errorf("analysis source %d of seed 7 reappears under seed 8", k)
			}
		}
	}
	j7, f7 := jacobiInput(7)
	j8, f8 := jacobiInput(8)
	if j7 == j8 || len(j7) != len(j8) {
		t.Error("Jacobi sources must differ by seed and keep their length")
	}
	if f7[0] != f8[0] {
		t.Error("the Jacobi crash point moved with the seed")
	}
	if fleetSeed(7, 3) == fleetSeed(8, 3) || fleetSeed(7, 3) == fleetSeed(7, 4) {
		t.Error("fleet seeds must differ by seed and by batch")
	}
}

// The timing wrapper must be a storage.Scrubber exactly when the store it
// wraps is: sim finds Scrub by type assertion.
func TestTimedStoreKeepsScrubber(t *testing.T) {
	ws, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	for _, c := range []struct {
		name  string
		inner storage.Store
	}{
		{"memory", storage.NewMemory()},
		{"incremental", storage.NewIncremental(8)},
		{"wal", ws},
	} {
		_, want := c.inner.(storage.Scrubber)
		wrapped, _ := wrapStore(c.inner, newTracer(), 0, 0, 0)
		if _, got := wrapped.(storage.Scrubber); got != want {
			t.Errorf("%s: wrapped store is a Scrubber = %v, inner = %v", c.name, got, want)
		}
	}
}

// runShort is one run with a 0.2 s window, fast enough for go test -short.
func runShort(t *testing.T, name string, trace bool) *runResult {
	t.Helper()
	res, err := runOne(runOptions{Workload: name, Seed: 3, Window: 200 * time.Millisecond, Trace: trace, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Attempted == 0 || !res.correct() {
		t.Fatalf("%s (trace=%v): attempted %d, failed %d, leaked %d", name, trace, res.Attempted, res.Failed, res.Leaked)
	}
	return res
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames() {
		res := runShort(t, name, false)
		for _, m := range append(append([]metricSpec{}, endToEndSpecs...), timeSpecs...) {
			if v, ok := res.Metrics[m.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be present and never 0", name, m.Name, v)
			}
		}
		line := res.resultLine()
		for _, key := range []string{`"correct":true`, `"attempted":`, `"failed":0`, `"setup_s":{"value":`} {
			if !strings.Contains(line, key) {
				t.Errorf("%s: result line lacks %s: %s", name, key, line)
			}
		}
	}
}

// Tracing must observe, not steer. Every job of either run is checked
// against the set-up's reference final state and restart count (that is
// what failed counts), so the runs agree on those job by job. Message and
// checkpoint totals are compared where they are deterministic: with a
// crash, how far the surviving processes ran ahead before the abort — and
// so how much they re-send and re-save — is the scheduler's choice in any
// run, traced or not.
func TestTracedRunBehavesLikeUntraced(t *testing.T) {
	perJob := func(w workload, trace *tracer) counts {
		t.Helper()
		before := w.snapshot()
		for i := 1; i <= 3; i++ {
			if _, err := w.op(i, trace); err != nil {
				t.Fatal(err)
			}
		}
		d := w.snapshot().sub(before)
		if d.Failed != 0 {
			t.Fatalf("%d of %d jobs differ from the reference (traced=%v)", d.Failed, d.Jobs, trace != nil)
		}
		return d
	}
	for _, name := range workloadNames() {
		w, err := newWorkload(name, 3, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plain, traced := perJob(w, nil), perJob(w, newTracer())
		if err := w.close(); err != nil {
			t.Errorf("%s: close: %v", name, err)
		}
		if plain.Jobs != traced.Jobs || plain.Restarts != traced.Restarts {
			t.Errorf("%s: jobs/restarts %d/%d untraced, %d/%d traced", name, plain.Jobs, plain.Restarts, traced.Jobs, traced.Restarts)
		}
		if plain.Restarts == 0 && (plain.Msgs != traced.Msgs || plain.Chkpts != traced.Chkpts) {
			t.Errorf("%s: msgs/chkpts %d/%d untraced, %d/%d traced", name, plain.Msgs, plain.Chkpts, traced.Msgs, traced.Chkpts)
		}
	}
}

func TestTracedSmokeReportsEveryLayerMetric(t *testing.T) {
	for _, name := range []string{"analysis-large", "crash-storm-inc", "fleet-wal"} {
		dir := t.TempDir()
		res, err := runOne(runOptions{Workload: name, Seed: 3, Window: 400 * time.Millisecond, Trace: true, Dir: dir})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.correct() {
			t.Fatalf("%s: failed %d, leaked %d", name, res.Failed, res.Leaked)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".jsonl")); err != nil {
			t.Errorf("%s: no trace file: %v", name, err)
		}
		switch name {
		case "analysis-large":
			if res.Metrics["storage.saves_per_job"] != 0 || res.Metrics["core.transform_share"] < 0.5 {
				t.Errorf("%s: saves %v, transform share %v", name, res.Metrics["storage.saves_per_job"], res.Metrics["core.transform_share"])
			}
		case "crash-storm-inc":
			if res.Metrics["sim.restarts_per_job"] != stormRestarts || res.Metrics["recovery.selects_per_job"] != stormRestarts {
				t.Errorf("%s: restarts %v, selects %v, want %d", name, res.Metrics["sim.restarts_per_job"], res.Metrics["recovery.selects_per_job"], stormRestarts)
			}
		case "fleet-wal":
			if res.Metrics["fleet.admitted_per_batch"] != fleetJobs || res.Metrics["wal.saves_per_fsync"] <= 0 {
				t.Errorf("%s: admitted %v, saves per fsync %v", name, res.Metrics["fleet.admitted_per_batch"], res.Metrics["wal.saves_per_fsync"])
			}
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "interp-mem", "--seed", "4", "--seconds", "12", "--trace", "1"})
	if want := "--workload interp-mem --seed 4 --seconds 12 -trace=1"; strings.Join(got, " ") != want {
		t.Errorf("got %q, want %q", strings.Join(got, " "), want)
	}
	got = normalizeArgs([]string{"-trace", "-seed", "4"})
	if want := "-trace -seed 4"; strings.Join(got, " ") != want {
		t.Errorf("got %q, want %q", strings.Join(got, " "), want)
	}
}
