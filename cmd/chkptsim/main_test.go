package main

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cli"
)

const fig2Src = `
program jacobi
const MAXITER = 3
var x, y, iter
proc {
    iter = 0
    while iter < MAXITER {
        if rank % 2 == 0 {
            chkpt
            send(rank + 1, x)
            recv(rank + 1, y)
        } else {
            recv(rank - 1, y)
            send(rank - 1, x)
            chkpt
        }
        iter = iter + 1
    }
}
`

func writeTemp(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.mpl")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunUntransformedReportsInconsistency(t *testing.T) {
	path := writeTemp(t, fig2Src)
	var out, errb strings.Builder
	code := run([]string{"-n", "4", path}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (inconsistent cut)\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "INCONSISTENT") {
		t.Errorf("output = %q", out.String())
	}
}

func TestRunTransformedIsConsistent(t *testing.T) {
	path := writeTemp(t, fig2Src)
	var out, errb strings.Builder
	code := run([]string{"-n", "4", "-transform", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "recovery line") {
		t.Errorf("output = %q", out.String())
	}
	if !strings.Contains(out.String(), "restarts=0") {
		t.Errorf("unexpected restarts: %q", out.String())
	}
}

// TestMetricsLineCountsTheRun: the run feeds the CLI's own counters, and
// the metrics line reads them, not the Result.Metrics the runtime leaves
// zero when the caller owns the sink.
func TestMetricsLineCountsTheRun(t *testing.T) {
	path := writeTemp(t, fig2Src)
	var out, errb strings.Builder
	if code := run([]string{"-transform", path}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d\n%s%s", code, out.String(), errb.String())
	}
	counts := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "metrics: "); ok {
			for _, f := range strings.Fields(rest) {
				if k, v, ok := strings.Cut(f, "="); ok {
					counts[k] = v
				}
			}
		}
	}
	for _, name := range []string{"checkpoints", "app_messages"} {
		if v := counts[name]; v == "" || v == "0" {
			t.Errorf("metrics line has %s=%q, want a nonzero count\n%s", name, v, out.String())
		}
	}
}

func TestRunWithFailureRecovers(t *testing.T) {
	path := writeTemp(t, fig2Src)
	var out, errb strings.Builder
	code := run([]string{"-n", "4", "-transform", "-fail", "1:8", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "restarts=1") {
		t.Errorf("output = %q", out.String())
	}
}

// A program whose only exchange is between ranks 18 and 19 is certified
// by the analysis, which checks n ≤ 17, and wrong at n = 20: the run is
// refused by name before it starts, not found inconsistent at its rollback.
func TestRunRefusesUnprovedN(t *testing.T) {
	path := writeTemp(t, `
program far
var x, y, iter
proc {
    x = rank + 1
    iter = 0
    while iter < 4 {
        if rank == 18 { chkpt  send(19, x)  recv(19, y) }
        else { if rank == 19 { recv(18, y)  send(18, x)  chkpt }
               else { chkpt } }
        x = x + y
        iter = iter + 1
    }
}
`)
	var out, errb strings.Builder
	code := run([]string{"-n", "20", "-transform", "-fail", "19:5", path}, &out, &errb)
	if code == 0 || !strings.Contains(errb.String(), "outside the program's proof") || strings.Contains(errb.String(), "not consistent") {
		t.Errorf("exit = %d, want non-zero with the refusal\n%s%s", code, out.String(), errb.String())
	}
}

func TestProtocols(t *testing.T) {
	safe := strings.Replace(fig2Src,
		"recv(rank - 1, y)\n            send(rank - 1, x)\n            chkpt",
		"chkpt\n            recv(rank - 1, y)\n            send(rank - 1, x)", 1)
	path := writeTemp(t, safe)
	for _, proto := range []string{"appl", "sas", "cl", "cic", "uncoord"} {
		t.Run(proto, func(t *testing.T) {
			var out, errb strings.Builder
			// Protocol checkpoints of cl/sas/cic use their own indexes;
			// straight-cut trace verification applies to appl only.
			args := []string{"-n", "4", "-protocol", proto}
			if proto != "appl" {
				args = append(args, "-verify=false")
			}
			args = append(args, path)
			code := run(args, &out, &errb)
			if code != 0 {
				t.Fatalf("exit = %d\n%s%s", code, out.String(), errb.String())
			}
			if !strings.Contains(out.String(), "metrics:") {
				t.Errorf("output = %q", out.String())
			}
		})
	}
}

func TestStoreKinds(t *testing.T) {
	path := writeTemp(t, fig2Src)
	for _, store := range []string{"mem", "incremental", "wal:" + t.TempDir()} {
		var out, errb strings.Builder
		code := run([]string{"-n", "4", "-transform", "-store", store, "-fail", "1:8", path}, &out, &errb)
		if code != 0 {
			t.Fatalf("store %q: exit = %d\n%s%s", store, code, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), "restarts=1") {
			t.Errorf("store %q: %q", store, out.String())
		}
	}
	// The incremental store reports its footprint.
	var out, errb strings.Builder
	if code := run([]string{"-n", "2", "-transform", "-store", "incremental", path}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "incremental store:") {
		t.Errorf("no store stats: %q", out.String())
	}
	// The WAL store reports group-commit activity.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-n", "2", "-transform", "-store", "wal:" + t.TempDir(), path}, &out, &errb); code != 0 {
		t.Fatalf("wal run: exit = %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "wal store:") {
		t.Errorf("no wal store stats: %q", out.String())
	}
}

func TestBadUsage(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{}, &out, &errb); code != 2 {
		t.Errorf("no args exit = %d, want 2", code)
	}
	if code := run([]string{"-protocol", "bogus", writeTemp(t, fig2Src)}, &out, &errb); code != 2 {
		t.Errorf("bad protocol exit = %d, want 2", code)
	}
	if code := run([]string{"-fail", "nonsense", writeTemp(t, fig2Src)}, &out, &errb); code != 2 {
		t.Errorf("bad failure spec exit = %d, want 2", code)
	}
	// A bare path was the deleted file store's spelling: refused, naming wal:DIR.
	errb.Reset()
	dir := filepath.Join(t.TempDir(), "snaps")
	if code := run([]string{"-store", dir, writeTemp(t, fig2Src)}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "wal:") {
		t.Errorf("bare -store path exit = %d stderr=%q, want 2 and the wal: spelling", code, errb.String())
	}
	if _, err := os.Stat(dir); err == nil {
		t.Errorf("a refused -store spec created %s", dir)
	}
}

// Every out-of-range value is refused before anything runs, as a usage
// error naming the flag.
func TestOutOfRangeInputExitsTwo(t *testing.T) {
	path := writeTemp(t, fig2Src)
	for _, bad := range [][]string{
		{"-n", "0"},
		{"-n", "-3"},
		{"-fail", "1:-4"},
		{"-fail", "-1:4"},
		{"-storage-fault-rate", "7"},
		{"-storage-fault-rate", "-0.1"},
		{"-crash-rate", "-1"},
		{"-crash-rate", "NaN"},
		{"-net-fault-rate", "1.5"},
		{"-telemetry-lag", "-2"},
	} {
		var out, errb strings.Builder
		args := append(append([]string{"-transform"}, bad...), path)
		if code := run(args, &out, &errb); code != 2 || !strings.Contains(errb.String(), bad[0]) {
			t.Errorf("%v: exit = %d stderr=%q, want 2 naming %s", bad, code, errb.String(), bad[0])
		}
	}
}

// TestSharedFlagsDeclaredOnce: every flag chkptsim shares with chkptfleet
// is cli.Flags', so -h prints the same name, default and usage for it.
func TestSharedFlagsDeclaredOnce(t *testing.T) {
	var ref flag.FlagSet
	new(cli.Flags).Register(&ref)
	var want, help strings.Builder
	ref.SetOutput(&want)
	ref.PrintDefaults()
	run([]string{"-h"}, io.Discard, &help)
	got := usageBlocks(help.String())
	for name, block := range usageBlocks(want.String()) {
		if got[name] != block {
			t.Errorf("chkptsim %s:\n%s\nwant cli.Flags':\n%s", name, got[name], block)
		}
	}
}

// usageBlocks splits flag.PrintDefaults output into one block per flag.
func usageBlocks(s string) map[string]string {
	out := map[string]string{}
	var name string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "  -") {
			name = strings.Fields(line)[0]
		}
		if name != "" && line != "" {
			out[name] += line + "\n"
		}
	}
	return out
}

// Chandy–Lamport's round state lives in hooks that are rebuilt per
// incarnation, so after a rollback the ranks disagree on how many rounds
// exist and the run fails at halt (ROADMAP item 13). Until that state is in
// the snapshot, every crash source is refused up front.
func TestCLRefusesCrashSources(t *testing.T) {
	path := writeTemp(t, fig2Src)
	for _, crash := range [][]string{
		{"-fail", "1:8"},
		{"-crash-rate", "1"},
		{"-storage-fault-rate", "0.1"},
		{"-net-fault-rate", "0.1"},
		{"-net-partition", "0>1@0ms+50ms"},
	} {
		var out, errb strings.Builder
		args := append([]string{"-n", "4", "-transform", "-protocol", "cl"}, append(crash, path)...)
		if code := run(args, &out, &errb); code != 2 || !strings.Contains(errb.String(), "ROADMAP") {
			t.Errorf("%v: exit = %d stderr=%q, want 2 and a pointer to ROADMAP", crash, code, errb.String())
		}
	}
}

// TestObservabilityExports is the acceptance test for the observability
// flags: the trace file must be valid Chrome trace-event JSON (traceEvents
// array whose events carry ph/ts/pid/tid), the event stream must be
// parseable JSONL with the documented kinds, and the metrics stream must
// carry run metadata plus counters.
func TestObservabilityExports(t *testing.T) {
	path := writeTemp(t, fig2Src)
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "run.json")
	eventsOut := filepath.Join(dir, "run.jsonl")
	metricsOut := filepath.Join(dir, "metrics.jsonl")
	var out, errb strings.Builder
	code := run([]string{"-n", "4", "-transform", "-vtime", "-fail", "1:8",
		"-trace-out", traceOut, "-events-out", eventsOut, "-metrics-out", metricsOut,
		path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d\n%s%s", code, out.String(), errb.String())
	}

	// Chrome trace: top-level traceEvents, every event has ph/ts/pid/tid.
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace-out is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	pids := map[float64]bool{}
	for i, ev := range trace.TraceEvents {
		for _, field := range []string{"ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("traceEvents[%d] missing %q: %v", i, field, ev)
			}
		}
		pids[ev["pid"].(float64)] = true
	}
	if len(pids) != 2 {
		t.Errorf("pids = %v, want both incarnations of the failed run", pids)
	}

	// Event stream: one JSON object per line, rollback and restart present.
	kinds := map[string]int{}
	for i, line := range nonEmptyLines(t, eventsOut) {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("events-out line %d: %v", i+1, err)
		}
		kinds[ev.Kind]++
	}
	for _, want := range []string{"send", "recv", "chkpt", "rollback", "restart"} {
		if kinds[want] == 0 {
			t.Errorf("event stream has no %q events: %v", want, kinds)
		}
	}

	// Metrics stream: typed lines with run metadata first.
	lines := nonEmptyLines(t, metricsOut)
	types := map[string]int{}
	for i, line := range lines {
		var m struct {
			Type     string `json:"type"`
			Restarts *int   `json:"restarts"`
		}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("metrics-out line %d: %v", i+1, err)
		}
		types[m.Type]++
		if i == 0 {
			if m.Type != "run" || m.Restarts == nil || *m.Restarts != 1 {
				t.Errorf("first metrics line = %s", line)
			}
		}
	}
	if types["counters"] != 1 || types["timer"] == 0 {
		t.Errorf("metrics stream types = %v", types)
	}
}

// TestProfilingFlags checks -cpuprofile/-memprofile produce non-empty files.
func TestProfilingFlags(t *testing.T) {
	path := writeTemp(t, fig2Src)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errb strings.Builder
	code := run([]string{"-n", "2", "-transform", "-cpuprofile", cpu, "-memprofile", mem, path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d\n%s%s", code, out.String(), errb.String())
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestOutputErrorPathsExitNonzero: an unwritable export target must fail the
// command even when the run itself succeeds — deferred flush/close errors
// may not be swallowed.
func TestOutputErrorPathsExitNonzero(t *testing.T) {
	path := writeTemp(t, fig2Src)
	bad := filepath.Join(t.TempDir(), "no-such-dir", "out")
	for _, flag := range []string{"-trace-out", "-events-out", "-metrics-out", "-cpuprofile", "-memprofile"} {
		t.Run(flag, func(t *testing.T) {
			var out, errb strings.Builder
			code := run([]string{"-n", "2", "-transform", flag, bad, path}, &out, &errb)
			if code == 0 {
				t.Errorf("exit = 0 with unwritable %s\nstderr: %s", flag, errb.String())
			}
			if !strings.Contains(errb.String(), "chkptsim:") {
				t.Errorf("no error reported: %q", errb.String())
			}
		})
	}
}

// TestEventsOutFlushFailureExitsNonzero: an -events-out file that opens
// fine but cannot take the final flush (ENOSPC, modelled by /dev/full)
// must fail the command, not silently drop the tail of the history. The
// run itself succeeds — only the deferred Close path sees the error.
func TestEventsOutFlushFailureExitsNonzero(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/dev/full is Linux-specific")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full unavailable")
	}
	path := writeTemp(t, fig2Src)
	var out, errb strings.Builder
	code := run([]string{"-n", "2", "-transform", "-events-out", "/dev/full", path}, &out, &errb)
	if code == 0 {
		t.Errorf("exit = 0 with full events-out device\nstderr: %s", errb.String())
	}
	if !strings.Contains(errb.String(), "chkptsim:") {
		t.Errorf("flush failure not reported: %q", errb.String())
	}
	// The run's own output still happened: the failure is ONLY the flush.
	if !strings.Contains(out.String(), "metrics:") {
		t.Errorf("run output missing, flush failure masked the run: %q", out.String())
	}
}

// TestEventStreamSurvivesFailedRun: -events-out must hold the partial
// history even when the command exits non-zero (inconsistent cuts).
func TestEventStreamSurvivesFailedRun(t *testing.T) {
	path := writeTemp(t, fig2Src)
	eventsOut := filepath.Join(t.TempDir(), "run.jsonl")
	var out, errb strings.Builder
	code := run([]string{"-n", "4", "-events-out", eventsOut, path}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (untransformed program has inconsistent cuts)", code)
	}
	if lines := nonEmptyLines(t, eventsOut); len(lines) == 0 {
		t.Error("event stream empty after failed run")
	}
}

// TestChaosFlags: a seeded chaos run (crash schedule + storage faults) must
// converge to the clean run's final state and report its fault stats.
func TestChaosFlags(t *testing.T) {
	path := writeTemp(t, fig2Src)
	var clean, errb strings.Builder
	if code := run([]string{"-n", "4", "-transform", path}, &clean, &errb); code != 0 {
		t.Fatalf("clean run exit = %d: %s", code, errb.String())
	}
	var out strings.Builder
	errb.Reset()
	code := run([]string{"-n", "4", "-transform",
		"-seed", "3", "-crash-rate", "1.2", "-storage-fault-rate", "0.1",
		path}, &out, &errb)
	if code != 0 {
		t.Fatalf("chaos run exit = %d\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "chaos:") {
		t.Errorf("no chaos stats reported: %q", out.String())
	}
	// The final per-process state lines must match the clean run exactly.
	finals := func(s string) []string {
		var out []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "proc ") {
				out = append(out, strings.TrimSpace(line))
			}
		}
		return out
	}
	c, f := finals(clean.String()), finals(out.String())
	if len(c) == 0 || strings.Join(c, ";") != strings.Join(f, ";") {
		t.Errorf("chaos run diverged:\nclean: %v\nchaos: %v", c, f)
	}
	// Same seed, same outcome.
	var again strings.Builder
	errb.Reset()
	if code := run([]string{"-n", "4", "-transform",
		"-seed", "3", "-crash-rate", "1.2", "-storage-fault-rate", "0.1",
		path}, &again, &errb); code != 0 {
		t.Fatalf("repeat chaos run exit = %d: %s", code, errb.String())
	}
	if strings.Join(finals(again.String()), ";") != strings.Join(f, ";") {
		t.Error("same chaos seed produced different final state")
	}
}

// TestNetChaosFlags: a run over lossy links (drops, dups, reorders, plus a
// healing partition window) must converge to the clean run's final state
// and report network fault stats.
func TestNetChaosFlags(t *testing.T) {
	path := writeTemp(t, fig2Src)
	var clean, errb strings.Builder
	if code := run([]string{"-n", "4", "-transform", path}, &clean, &errb); code != 0 {
		t.Fatalf("clean run exit = %d: %s", code, errb.String())
	}
	var out strings.Builder
	errb.Reset()
	code := run([]string{"-n", "4", "-transform",
		"-seed", "7", "-net-fault-rate", "0.2", "-net-partition", "0>1@5ms+100ms",
		path}, &out, &errb)
	if code != 0 {
		t.Fatalf("net chaos run exit = %d\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "net chaos:") {
		t.Errorf("no net chaos stats reported: %q", out.String())
	}
	finals := func(s string) []string {
		var out []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "proc ") {
				out = append(out, strings.TrimSpace(line))
			}
		}
		return out
	}
	c, f := finals(clean.String()), finals(out.String())
	if len(c) == 0 || strings.Join(c, ";") != strings.Join(f, ";") {
		t.Errorf("net chaos run diverged:\nclean: %v\nchaos: %v", c, f)
	}
}

func TestNetPartitionSpecRejected(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-n", "2", "-net-partition", "garbage", writeTemp(t, fig2Src)}, &out, &errb)
	if code != 2 {
		t.Errorf("bad partition spec exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "partition") {
		t.Errorf("no partition error reported: %q", errb.String())
	}
}

func nonEmptyLines(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.TrimSpace(line) != "" {
			out = append(out, line)
		}
	}
	return out
}

// TestTelemetryEndpoint runs with -telemetry-addr :0 and scrapes the live
// endpoint while the run lingers: /metrics must expose the core families,
// /snapshot.json must decode, and /healthz must answer.
func TestTelemetryEndpoint(t *testing.T) {
	path := writeTemp(t, fig2Src)
	var out strings.Builder
	var errb syncWriter
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-n", "4", "-transform",
			"-telemetry-addr", "127.0.0.1:0", "-telemetry-linger", "2s", path}, &out, &errb)
	}()

	// The server URL is announced on stderr before the run starts.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no telemetry URL announced:\n%s", errb.String())
		}
		s := errb.String()
		if _, rest, ok := strings.Cut(s, "telemetry at "); ok {
			if u, _, ok := strings.Cut(rest, "/metrics"); ok {
				base = u
			}
		}
		time.Sleep(2 * time.Millisecond)
	}

	get := func(p string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + p)
		if err != nil {
			t.Fatalf("GET %s: %v", p, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 {
		t.Errorf("/metrics = %d: %s", code, body)
	} else {
		for _, want := range []string{
			"# TYPE chkptsim_events_total counter",
			"chkptsim_healthy",
			`chkptsim_counter_total{name="checkpoints"}`,
		} {
			if !strings.Contains(body, want) {
				t.Errorf("/metrics missing %q:\n%s", want, body)
			}
		}
	}
	if code, body := get("/snapshot.json"); code != 200 {
		t.Errorf("/snapshot.json = %d", code)
	} else {
		var snap struct {
			Total int64            `json:"total_events"`
			Kinds map[string]int64 `json:"kinds"`
		}
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("snapshot decode: %v", err)
		}
		if snap.Total == 0 || snap.Kinds["chkpt"] == 0 {
			t.Errorf("snapshot empty after run: %+v", snap)
		}
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q on a clean run", code, body)
	}

	if code := <-done; code != 0 {
		t.Fatalf("exit = %d\n%s", code, errb.String())
	}
}

// TestDashFlag: -dash renders at least one dashboard frame to stderr (the
// final frame fires on shutdown even for runs shorter than the refresh).
func TestDashFlag(t *testing.T) {
	path := writeTemp(t, fig2Src)
	var out strings.Builder
	var errb syncWriter
	if code := run([]string{"-n", "4", "-transform", "-dash", path}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d\n%s", code, errb.String())
	}
	se := errb.String()
	if !strings.Contains(se, "chkpt live telemetry") {
		t.Errorf("no dashboard frame on stderr:\n%q", se)
	}
	if !strings.Contains(out.String(), "recovery line") {
		t.Errorf("run summary missing from stdout: %q", out.String())
	}
}

// syncWriter is a goroutine-safe strings.Builder: the dashboard ticker and
// telemetry server announce on stderr concurrently with run() itself.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}
