package main

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// The tables below are the benchmark's contract: BENCHMARK.json at the repo
// root is generated from them (`go run ./benchmark -spec`), and a test keeps
// the two identical. Later issues refer to these names verbatim.

// runSeconds is the measured window of one run, identical on every commit.
const runSeconds = 15

var benchCommand = []string{"go", "run", "./benchmark"}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics carry none.
	Bound float64 `json:"bound,omitempty"`
}

var workloadSpecs = []workloadSpec{
	{"analysis-large", "compiler-bound: parse, Phases I-III, compile and format of 8 generated large programs; no run, no store, so runtime and codec changes must leave it flat"},
	{"interp-mem", "runtime-bound: 4-process Jacobi with one crash on the memory store; interpreter, transport and takeCheckpoint dominate, storage-only changes must not move it"},
	{"durable-wal", "same program and crash as interp-mem on one long-lived group-commit WAL; the difference to interp-mem is the durable save path (encode, queue, fsync)"},
	{"crash-storm-inc", "5 crashes over 4 incarnations on the incremental store: recovery-line selection, delta-chain reads, deletes and restore beside saves"},
	{"fleet-wal", "batches of 32 concurrent jobs through retry, breaker, namespace and WAL: the only path with real save concurrency, where group commit and wrapper cost show"},
}

// endToEndSpecs are the gated metrics. Only what repeats on a shared box is
// gated: over eight sets of ten 15 s runs on the 2-vCPU reference VM the
// allocation figures spread by at most 1.25% of their median, the time-based
// figures by 5-35% (a pure CPU loop drifts by 10-15% there over minutes),
// which no bound the contract allows (at most 0.25, with the spread a third
// of it) can hold. setup_s, which the contract requires, holds because it
// includes the fixed warm-up. See README.md for the runs.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_job", "count", "lower", 0.04},
	{"alloc_kb_per_job", "KB", "lower", 0.05},
}

// timeSpecs are the end-to-end figures a user would see first — measured
// in the untraced window like the gated ones, printed by every run and
// compared by -compare against the advisory bound here — but reported in
// the per-layer table and never a reason to reject a change by themselves.
var timeSpecs = []metricSpec{
	{"jobs_per_s", "jobs/s", "higher", 0.10},
	{"op_ms_p50", "ms", "lower", 0.10},
	{"cpu_ms_per_job", "ms", "lower", 0.10},
	{"setup.build_ms_p50", "ms", "lower", 0.10},
}

var perLayerSpecs = append(ungated(timeSpecs), []metricSpec{
	// Demoted from the end-to-end table: both are exactly 0 on some
	// workload, and a gated metric must never be 0.
	{Name: "failed_share", Unit: "fraction", Better: "lower"},
	{Name: "stored_bytes_per_job", Unit: "B", Better: "lower"},

	{Name: "mpl.parse_us_p50", Unit: "us", Better: "lower"},
	{Name: "mpl.format_us_p50", Unit: "us", Better: "lower"},
	{Name: "mpl.source_bytes", Unit: "B", Better: "lower"},
	{Name: "mpl.share", Unit: "fraction", Better: "lower"},

	{Name: "core.transform_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.transform_share", Unit: "fraction", Better: "lower"},
	{Name: "insert.phase1_us_p50", Unit: "us", Better: "lower"},
	{Name: "insert.chkpts_inserted", Unit: "count", Better: "lower"},
	{Name: "cfg.build_us_p50", Unit: "us", Better: "lower"},
	{Name: "cfg.nodes", Unit: "count", Better: "lower"},
	{Name: "dataflow.analyze_us_p50", Unit: "us", Better: "lower"},
	{Name: "match.phase2_us_p50", Unit: "us", Better: "lower"},
	{Name: "place.phase3_us_p50", Unit: "us", Better: "lower"},
	{Name: "place.iterations", Unit: "count", Better: "lower"},
	{Name: "place.moves", Unit: "count", Better: "lower"},

	{Name: "liveness.compute_us_p50", Unit: "us", Better: "lower"},
	{Name: "liveness.vars_dropped_per_save", Unit: "count", Better: "higher"},
	{Name: "liveness.bytes_saved_per_job", Unit: "B", Better: "higher"},

	{Name: "sim.compile_us_p50", Unit: "us", Better: "lower"},
	{Name: "sim.compile_share", Unit: "fraction", Better: "lower"},
	{Name: "sim.run_us_p50", Unit: "us", Better: "lower"},
	{Name: "sim.self_us_p50", Unit: "us", Better: "lower"},
	{Name: "sim.self_share", Unit: "fraction", Better: "lower"},
	{Name: "sim.msgs_per_job", Unit: "count", Better: "lower"},
	{Name: "sim.chkpts_per_job", Unit: "count", Better: "lower"},
	{Name: "sim.restarts_per_job", Unit: "count", Better: "lower"},
	{Name: "sim.replayed_events_per_job", Unit: "count", Better: "lower"},
	{Name: "sim.restore_us_p50", Unit: "us", Better: "lower"},

	{Name: "storage.save_us_p50", Unit: "us", Better: "lower"},
	{Name: "storage.save_us_p95", Unit: "us", Better: "lower"},
	{Name: "storage.saves_per_job", Unit: "count", Better: "lower"},
	{Name: "storage.save_share", Unit: "fraction", Better: "lower"},
	{Name: "storage.read_us_p50", Unit: "us", Better: "lower"},
	{Name: "storage.reads_per_job", Unit: "count", Better: "lower"},
	{Name: "storage.read_share", Unit: "fraction", Better: "lower"},
	{Name: "storage.delete_us_p50", Unit: "us", Better: "lower"},
	{Name: "storage.deletes_per_job", Unit: "count", Better: "lower"},
	{Name: "storage.bytes_per_save", Unit: "B", Better: "lower"},
	{Name: "storage.inflight_saves_max", Unit: "count", Better: "higher"},
	{Name: "storage.errors", Unit: "count", Better: "lower"},

	{Name: "wal.saves_per_fsync", Unit: "count", Better: "higher"},
	{Name: "wal.rotations", Unit: "count", Better: "lower"},
	{Name: "wal.compactions", Unit: "count", Better: "lower"},
	{Name: "wal.open_us_p50", Unit: "us", Better: "lower"},

	{Name: "recovery.select_us_p50", Unit: "us", Better: "lower"},
	{Name: "recovery.select_share", Unit: "fraction", Better: "lower"},
	{Name: "recovery.selects_per_job", Unit: "count", Better: "lower"},
	{Name: "recovery.rollback_chkpts_per_job", Unit: "count", Better: "lower"},
	{Name: "recovery.degraded_per_job", Unit: "count", Better: "lower"},

	{Name: "fleet.batch_us_p50", Unit: "us", Better: "lower"},
	{Name: "fleet.job_us_p50", Unit: "us", Better: "lower"},
	{Name: "fleet.job_us_p95", Unit: "us", Better: "lower"},
	{Name: "fleet.admitted_per_batch", Unit: "count", Better: "higher"},
	{Name: "fleet.rejected", Unit: "count", Better: "lower"},
	{Name: "fleet.breaker_opened", Unit: "count", Better: "lower"},
	{Name: "fleet.retries", Unit: "count", Better: "lower"},
	{Name: "fleet.stack_ns_per_save", Unit: "ns", Better: "lower"},

	{Name: "obs.events_per_job", Unit: "count", Better: "lower"},
	{Name: "obs.trace_overhead_frac", Unit: "fraction", Better: "lower"},

	{Name: "job.ms_p95", Unit: "ms", Better: "lower"},
	{Name: "job.ms_max", Unit: "ms", Better: "lower"},
	{Name: "job.samples", Unit: "count", Better: "higher"},
	{Name: "proc.gc_cycles_per_kjob", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.heap_inuse_mb_end", Unit: "MB", Better: "lower"},
	{Name: "proc.goroutines_end", Unit: "count", Better: "lower"},
}...)

// ungated returns specs without their bounds.
func ungated(specs []metricSpec) []metricSpec {
	out := make([]metricSpec, len(specs))
	for i, m := range specs {
		m.Bound = 0
		out[i] = m
	}
	return out
}

// benchmarkFile is the exact shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []boundedSpec  `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// boundedSpec always writes its bound, unlike metricSpec.
type boundedSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func benchmarkJSON() ([]byte, error) {
	f := benchmarkFile{
		Command:    benchCommand,
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		PerLayer:   perLayerSpecs,
	}
	for _, m := range endToEndSpecs {
		f.EndToEnd = append(f.EndToEnd, boundedSpec(m))
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateSpec refuses duplicate metric or workload names and names or
// units outside the contract's alphabets, so a typo in the tables fails
// before a single run.
func validateSpec(workloads []workloadSpec, endToEnd, perLayer []metricSpec) error {
	seen := map[string]bool{}
	use := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("spec: %s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			return fmt.Errorf("spec: name %q is used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range workloads {
		if err := use("workload", w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("spec: workload %q needs a why of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for i, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if err := use("metric", m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("spec: metric %q has unit %q outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("spec: metric %q: better must be lower or higher", m.Name)
		}
		gated := i < len(endToEnd)
		if gated && (m.Bound <= 0 || m.Bound > 0.25) {
			return fmt.Errorf("spec: end-to-end metric %q needs a bound in (0, 0.25]", m.Name)
		}
		if !gated && m.Bound != 0 {
			return fmt.Errorf("spec: per-layer metric %q must not carry a bound", m.Name)
		}
		if gated && m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		return fmt.Errorf("spec: end-to-end metrics must include setup_s (s, lower)")
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}
