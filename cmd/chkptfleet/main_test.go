package main

import (
	"flag"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/fleet"
)

func runFleet(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	sigs := make(chan os.Signal)
	code = run(args, &out, &errb, sigs)
	return code, out.String(), errb.String()
}

func TestSmallFleetConservedExitsZero(t *testing.T) {
	code, out, stderr := runFleet(t, "-jobs", "15", "-max-inflight", "16", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
	if !strings.Contains(out, "conserved          true") {
		t.Fatalf("report missing conservation line:\n%s", out)
	}
	if !regexp.MustCompile(`succeeded\s+15\b`).MatchString(out) {
		t.Fatalf("report missing 15 successes:\n%s", out)
	}
}

func TestChaosFleetStillConserved(t *testing.T) {
	code, out, stderr := runFleet(t,
		"-jobs", "30", "-max-inflight", "8", "-seed", "11",
		"-storage-fault-rate", "0.05", "-crash-rate", "0.5",
		"-business-rate", "0.2", "-tenants", "batch:4:3,interactive::1")
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
	if !strings.Contains(out, "conserved          true") {
		t.Fatalf("chaos fleet not conserved:\n%s", out)
	}
}

func TestDrainAfterTimerCutsStreamShort(t *testing.T) {
	// A paced arrival stream far larger than the test budget; the drain
	// timer (the same path a SIGTERM takes) must cut it short, and the CLI
	// must still exit 0 with the books balanced.
	code, out, stderr := runFleet(t,
		"-jobs", "1000000", "-rate", "2000", "-seed", "3",
		"-drain-after", "40ms")
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
	if !strings.Contains(stderr, "drain timer fired") {
		t.Fatalf("drain timer did not fire:\n%s", stderr)
	}
	m := regexp.MustCompile(`fleet: (\d+) arrivals`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no arrivals line:\n%s", out)
	}
	if n, _ := strconv.Atoi(m[1]); n >= 1000000 {
		t.Fatalf("drain did not stop the stream: %d arrivals", n)
	}
	if !strings.Contains(out, "conserved          true") {
		t.Fatalf("drained fleet not conserved:\n%s", out)
	}
}

func TestEventsOut(t *testing.T) {
	events := t.TempDir() + "/fleet.jsonl"
	code, out, stderr := runFleet(t, "-jobs", "5", "-seed", "2", "-events-out", events)
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
	b, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{`"admit"`, `"jobdone"`, `"drain"`} {
		if !strings.Contains(string(b), kind) {
			t.Errorf("events stream missing %s events", kind)
		}
	}
}

func TestWALStoreFlag(t *testing.T) {
	dir := t.TempDir()
	code, out, stderr := runFleet(t, "-jobs", "5", "-seed", "2", "-store", "wal:"+dir+"/log")
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
	if !strings.Contains(out, "wal store:") {
		t.Errorf("no wal store stats in output:\n%s", out)
	}
	// The log persisted segments and a manifest on disk.
	fis, err := os.ReadDir(dir + "/log")
	if err != nil || len(fis) == 0 {
		t.Fatalf("wal store dir empty: %v (%d entries)", err, len(fis))
	}
}

func TestBadFlagsExitTwo(t *testing.T) {
	if code, _, _ := runFleet(t, "-jobs", "nope"); code != 2 {
		t.Fatalf("bad flag exit = %d, want 2", code)
	}
	if code, _, _ := runFleet(t, "positional"); code != 2 {
		t.Fatalf("positional arg exit = %d, want 2", code)
	}
	if code, _, stderr := runFleet(t, "-tenants", "a:bad"); code != 2 || !strings.Contains(stderr, "bad quota") {
		t.Fatalf("bad tenants exit = %d stderr=%q, want 2", code, stderr)
	}
}

// Every out-of-range value is refused before anything runs, as a usage
// error naming what was wrong.
func TestOutOfRangeInputExitsTwo(t *testing.T) {
	for _, bad := range [][]string{
		{"-crash-rate", "-2"},
		{"-rate", "-5"},
		{"-tenants", "a:-3"},
		{"-tenants", "a::-1"},
		{"-storage-fault-rate", "7"},
		{"-net-fault-rate", "-0.1"},
		{"-business-rate", "2"},
		{"-jobs", "-1"},
		{"-max-inflight", "0"},
	} {
		code, _, stderr := runFleet(t, append([]string{"-jobs", "1"}, bad...)...)
		want := bad[0]
		if want == "-tenants" {
			want = "negative"
		}
		if code != 2 || !strings.Contains(stderr, want) {
			t.Errorf("%v: exit = %d stderr=%q, want 2 naming %s", bad, code, stderr, want)
		}
	}
}

// TestSharedFlagsDeclaredOnce: every flag chkptfleet shares with chkptsim
// is cli.Flags', so -h prints the same name, default and usage for it.
func TestSharedFlagsDeclaredOnce(t *testing.T) {
	var ref flag.FlagSet
	new(cli.Flags).Register(&ref)
	var want strings.Builder
	ref.SetOutput(&want)
	ref.PrintDefaults()
	_, _, help := runFleet(t, "-h")
	got := usageBlocks(help)
	for name, block := range usageBlocks(want.String()) {
		if got[name] != block {
			t.Errorf("chkptfleet %s:\n%s\nwant cli.Flags':\n%s", name, got[name], block)
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

// The fleet runs on the incremental store like any other, under chaos; a
// malformed wal: spec and a bare path — the deleted file store's spelling —
// open nothing: the durable store is wal:DIR.
func TestIncrementalStoreRejected(t *testing.T) {
	code, out, stderr := runFleet(t, "-jobs", "40", "-seed", "3", "-store", "incremental",
		"-storage-fault-rate", "0.08", "-crash-rate", "1")
	if code != 0 || !strings.Contains(out, "conserved          true") {
		t.Fatalf("exit = %d, want 0 and a conserved report\nstdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
	if code, _, stderr := runFleet(t, "-jobs", "2", "-store", "wal:"); code != 2 {
		t.Fatalf("malformed wal: spec exit = %d stderr=%q, want 2", code, stderr)
	}
	dir := t.TempDir() + "/snaps"
	if code, _, stderr := runFleet(t, "-jobs", "2", "-store", dir); code != 2 || !strings.Contains(stderr, "wal:") {
		t.Fatalf("bare path exit = %d stderr=%q, want 2 and the wal: spelling", code, stderr)
	}
	if _, err := os.Stat(dir); err == nil {
		t.Fatalf("a refused -store spec created %s", dir)
	}
}

func TestParseTenants(t *testing.T) {
	got, err := parseTenants("batch:8:3, interactive::0.5 ,best-effort")
	if err != nil {
		t.Fatal(err)
	}
	want := []fleet.TenantConfig{
		{Name: "batch", Quota: 8, Weight: 3},
		{Name: "interactive", Weight: 0.5},
		{Name: "best-effort"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tenant %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, err := parseTenants("a,a"); err == nil {
		t.Error("duplicate tenant accepted")
	}
	if _, err := parseTenants(":3"); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := parseTenants("a:1:2:3"); err == nil {
		t.Error("over-long spec accepted")
	}
	if ts, err := parseTenants("  "); err != nil || ts != nil {
		t.Errorf("blank spec = %v, %v", ts, err)
	}
}

func TestTelemetryServerServesFleetGauges(t *testing.T) {
	// Ephemeral-port telemetry must come up, serve the fleet gauges, and
	// shut down cleanly through the deferred close path.
	code, out, stderr := runFleet(t,
		"-jobs", "10", "-seed", "9", "-telemetry-addr", "127.0.0.1:0",
		"-telemetry-window", "20ms")
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
	if !strings.Contains(stderr, "telemetry at http://") {
		t.Fatalf("no telemetry banner:\n%s", stderr)
	}
}
