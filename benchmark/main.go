// Command benchmark is the repo's end-to-end benchmark spine: five named
// workloads driven from MPL source text to a recovered, verified final
// state through the repo's public functions only, with a traced run that
// attributes the time to layers. See README.md in this directory.
//
//	go run ./benchmark -seed 1                 every workload, end to end
//	go run ./benchmark -seed 1 -trace          ... and the per-layer run
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	                                           one run, the driver's form
//	go run ./benchmark -compare A.jsonl B.jsonl
//	go run ./benchmark -spec                   print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// A run sets its workload up several times and takes the median: at least minSetupReps times, and — a set-up can take 2 ms, far
// too little to time once — until the set-up budget (maxSetupBudget, or a
// quarter of a short window) has been spent on it. The last set-up is the
// one measured on.
// outDir, relative to the checkout's root, is the only place the harness
// writes: scratch stores, traces, and by default the history file.
var outDir = filepath.Join("benchmark", "out")

// tracedStretches is how many untraced/traced pairs a traced run's window
// is cut into.
const tracedStretches = 6

const (
	minSetupReps   = 5
	maxSetupReps   = 200
	maxSetupBudget = time.Second
)

type runOptions struct {
	Workload string
	Seed     int64
	Window   time.Duration
	Trace    bool
	// Dir receives the run's scratch stores (removed afterwards) and,
	// for a traced run, trace-<workload>.jsonl.
	Dir string
}

// runResult is one run of one workload: a line of the history file.
type runResult struct {
	Time      string    `json:"time"`
	Env       envHeader `json:"env"`
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Leaked    int       `json:"leaked_goroutines"`
	// OpTailPct is the highest percentile of the operation latency with at
	// least ten samples beyond it, OpTailMS its value: diagnostic only,
	// tail latency is too noisy on a shared box to gate on.
	OpTailPct float64            `json:"op_ms_tail_pct,omitempty"`
	OpTailMS  float64            `json:"op_ms_tail,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples,omitempty"`
}

func (r *runResult) correct() bool { return r.Failed == 0 && r.Leaked == 0 }

// runOne sets a workload up, warms it, measures one window — or, traced,
// one window split between untraced and traced stretches — and derives the
// run's metrics.
func runOne(o runOptions) (*runResult, error) {
	scratch, err := os.MkdirTemp(o.Dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var w workload
	var setups []float64
	var spent time.Duration
	setupBudget := min(maxSetupBudget, o.Window/4)
	for rep := 0; rep < minSetupReps || (spent < setupBudget && rep < maxSetupReps); rep++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(scratch, fmt.Sprintf("setup-%d", rep))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		w, err = newWorkload(o.Workload, o.Seed, dir)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.Workload, err)
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
	}
	defer w.close()

	res := &runResult{
		Time:     time.Now().UTC().Format(time.RFC3339),
		Env:      readEnv(scratch),
		Workload: o.Workload,
		Seed:     o.Seed,
		Seconds:  o.Window.Seconds(),
		Trace:    o.Trace,
		Samples:  map[string]int{},
	}

	// Warm-up: caches fill and the heap reaches its working size before
	// anything is measured. Operation 0 was the set-up's validation job.
	warmStart := time.Now()
	_, next, err := runWindow(w, min(time.Second, o.Window/4), 1, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", o.Workload, err)
	}
	// setup_s is everything before the measured window: one set-up (the
	// median of the repeats) plus the warm-up. The set-up alone, a few
	// milliseconds of CPU, follows the shared box's speed (its median over
	// ten runs moved by 29% between two sets of one commit); it is
	// reported beside it, ungated.
	setupS := median(setups) + time.Since(warmStart).Seconds()
	runtime.GC()
	goroutines := runtime.NumGoroutine()

	if !o.Trace {
		win, _, err := runWindow(w, o.Window, next, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.Workload, err)
		}
		res.Metrics = win.endToEnd()
		res.OpTailPct = tailPercentile(len(win.opMS))
		res.OpTailMS = percentile(sortedCopy(win.opMS), res.OpTailPct)
		res.Metrics["setup_s"] = setupS
		res.Metrics["setup.build_ms_p50"] = 1e3 * median(setups)
		res.Samples["setup.build_ms_p50"] = len(setups)
		res.Samples["op_ms_p50"] = len(win.opMS)
		res.Samples["jobs_per_s"] = len(win.slices)
		res.Attempted, res.Failed = win.counts.Jobs, win.counts.Failed
		res.Leaked = leakedGoroutines(goroutines)
		return res, nil
	}

	// Traced run: untraced and traced stretches alternate, so that the
	// machine's drift over the window lands on both alike and their
	// difference prices the tracing and nothing else.
	base, traced, t := &window{}, &window{}, newTracer()
	stretch := o.Window / (2 * tracedStretches)
	for k := 0; k < tracedStretches; k++ {
		for _, tr := range []*tracer{nil, t} {
			win, n, err := runWindow(w, stretch, next, tr)
			if err != nil {
				return nil, fmt.Errorf("%s (traced=%v): %w", o.Workload, tr != nil, err)
			}
			next = n
			if tr == nil {
				base.merge(win)
			} else {
				traced.merge(win)
			}
		}
	}
	res.Leaked = leakedGoroutines(goroutines)
	traced.goroutines = runtime.NumGoroutine()

	phases, err := probePhases(w.sources())
	if err != nil {
		return nil, fmt.Errorf("%s: phase probe: %w", o.Workload, err)
	}
	var stackNS float64
	if _, ok := w.(*fleetWorkload); ok {
		if stackNS, err = probeFleetStack(); err != nil {
			return nil, fmt.Errorf("%s: stack probe: %w", o.Workload, err)
		}
	}
	spans := t.spans()
	res.Metrics, res.Samples = layerMetrics(w, base, traced, t, spans, phases, stackNS)
	res.Metrics["setup.build_ms_p50"] = 1e3 * median(setups)
	res.Samples["setup.build_ms_p50"] = len(setups)
	res.Samples["obs.trace_overhead_frac"] = len(base.slices) + len(traced.slices)
	res.Attempted = base.counts.Jobs + traced.counts.Jobs
	res.Failed = base.counts.Failed + traced.counts.Failed
	if err := writeSpans(filepath.Join(o.Dir, "trace-"+o.Workload+".jsonl"), spans); err != nil {
		return nil, err
	}
	return res, nil
}

// leakedGoroutines is how many goroutines outlive the window: the count
// must return to what it was before the first measured operation.
func leakedGoroutines(before int) int {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine() - before; n > 0 {
		return n
	}
	return 0
}

// specsFor returns the metric table a run reports.
func specsFor(trace bool) []metricSpec {
	if trace {
		return perLayerSpecs
	}
	return endToEndSpecs
}

// print writes the run for a reader: every metric by name with its unit,
// and the sample count behind each figure that has one.
func (r *runResult) print() {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Printf("== %s  seed=%d  window=%gs  %s  jobs=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, kind, r.Attempted, r.Failed)
	show := func(m metricSpec, note string) {
		line := fmt.Sprintf("  %-34s %14.4f %s", m.Name, r.Metrics[m.Name], m.Unit)
		if n, ok := r.Samples[m.Name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line + note)
	}
	for _, m := range specsFor(r.Trace) {
		show(m, "")
	}
	if !r.Trace {
		for _, m := range timeSpecs {
			show(m, "  (not gated)")
		}
		fmt.Printf("  %-34s %14.4f ms  (not gated)\n", fmt.Sprintf("op_ms_p%g", r.OpTailPct), r.OpTailMS)
	}
	if r.Leaked > 0 {
		fmt.Printf("  LEAK: %d goroutine(s) outlived the window\n", r.Leaked)
	}
}

// resultLine is the driver's contract: the last line of standard output.
func (r *runResult) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]value{}}
	for _, m := range specsFor(r.Trace) {
		out.Metrics[m.Name] = value{r.Metrics[m.Name], m.Unit}
	}
	b, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	return string(b)
}

// appendHistory adds the run as one line of the history file.
func appendHistory(path string, r *runResult) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// normalizeArgs lets -trace take the driver's separate 0|1 argument while
// staying a plain boolean flag for people.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, args[i])
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run only this workload and end with the driver's result line (default: all five)")
	seed := fs.Int64("seed", 1, "input seed: same seed, same generated sources, crash lists and fleet seeds")
	seconds := fs.Float64("seconds", runSeconds, "measured window per run, seconds")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics and out/trace-<workload>.jsonl")
	out := fs.String("out", filepath.Join(outDir, "history.jsonl"), "history file to append one line per run to")
	compare := fs.Bool("compare", false, "compare two history files: -compare A.jsonl B.jsonl")
	spec := fs.Bool("spec", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if err := validateSpec(workloadSpecs, endToEndSpecs, perLayerSpecs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	switch {
	case *spec:
		b, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		os.Stdout.Write(b)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.jsonl B.jsonl")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if *seconds <= 0 || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be in (0, 60]")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	names := workloadNames()
	if *workloadName != "" {
		names = []string{*workloadName}
	}
	traces := []bool{false}
	if *trace {
		// All-workloads mode prints both tables; the driver's form asks
		// for exactly one.
		traces = []bool{false, true}
		if *workloadName != "" {
			traces = []bool{true}
		}
	}
	exit := 0
	var last *runResult
	for _, name := range names {
		for _, tr := range traces {
			res, err := runOne(runOptions{
				Workload: name, Seed: *seed, Trace: tr, Dir: outDir,
				Window: time.Duration(*seconds * float64(time.Second)),
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			res.print()
			if err := appendHistory(*out, res); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !res.correct() {
				exit = 1
			}
			last = res
		}
	}
	if *workloadName != "" {
		fmt.Println(last.resultLine())
	}
	return exit
}
