package cli

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/storage/wal"
)

func TestOpenStoreSpecs(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocked, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		spec      string
		wantType  storage.Store // nil: the open must fail
		usage     bool          // a failure must be ErrUsage
		statsLine string
	}{
		{spec: "mem", wantType: &storage.Memory{}},
		{spec: "incremental", wantType: &storage.Incremental{}, statsLine: "incremental store: "},
		{spec: "wal:" + filepath.Join(dir, "log"), wantType: &wal.Store{}, statsLine: "wal store: "},
		{spec: "wal:", usage: true},
		{spec: "", usage: true},
		{spec: "wal:" + filepath.Join(blocked, "log")},
		// A bare path was the file store's spelling: refused, never opened as a log.
		{spec: filepath.Join(dir, "snaps"), usage: true},
		{spec: "file:" + dir, usage: true},
	}
	for _, tt := range tests {
		st, err := OpenStore(tt.spec)
		if tt.wantType == nil {
			if err == nil {
				st.Close()
				t.Errorf("OpenStore(%q) succeeded, want an error", tt.spec)
			} else if got := errors.Is(err, ErrUsage); got != tt.usage {
				t.Errorf("OpenStore(%q): errors.Is(%v, ErrUsage) = %v, want %v", tt.spec, err, got, tt.usage)
			} else if tt.usage && !strings.Contains(err.Error(), "wal:") {
				t.Errorf("OpenStore(%q): %v does not name the wal: spelling", tt.spec, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("OpenStore(%q): %v", tt.spec, err)
			continue
		}
		if got, want := typeName(st.Store), typeName(tt.wantType); got != want {
			t.Errorf("OpenStore(%q) opened a %s, want %s", tt.spec, got, want)
		}
		if (st.Incremental != nil) != (tt.spec == "incremental") || (st.WAL != nil) != strings.HasPrefix(tt.spec, "wal:") {
			t.Errorf("OpenStore(%q): Incremental=%v WAL=%v", tt.spec, st.Incremental != nil, st.WAL != nil)
		}
		var out strings.Builder
		st.PrintStats(&out)
		if tt.statsLine == "" && out.Len() != 0 || !strings.HasPrefix(out.String(), tt.statsLine) {
			t.Errorf("OpenStore(%q) stats = %q, want prefix %q", tt.spec, out.String(), tt.statsLine)
		}
		if err := st.Close(); err != nil {
			t.Errorf("OpenStore(%q): Close: %v", tt.spec, err)
		}
	}
}

func typeName(st storage.Store) string {
	switch st.(type) {
	case *storage.Memory:
		return "memory"
	case *storage.Incremental:
		return "incremental"
	case *wal.Store:
		return "wal"
	}
	return "unknown"
}

func TestExitCode(t *testing.T) {
	if got := ExitCode(errors.New("disk full")); got != 1 {
		t.Errorf("ExitCode(plain) = %d, want 1", got)
	}
	_, err := OpenStore("wal:")
	if got := ExitCode(err); got != 2 {
		t.Errorf("ExitCode(%v) = %d, want 2", err, got)
	}
}

func TestOpenEventStreamUnwritablePath(t *testing.T) {
	if _, err := OpenEventStream(filepath.Join(t.TempDir(), "no", "such", "dir", "e.jsonl")); err == nil {
		t.Error("OpenEventStream created a file under a missing directory")
	}
}

// TestConfigureArmsFaults: the shared flags' values become the sim.Config
// chkptsim runs — crash schedule, lossy links at DefaultNetRates, a
// chaos-wrapped store, 25 restarts of headroom — and zero rates arm nothing.
func TestConfigureArmsFaults(t *testing.T) {
	failures := []sim.Failure{{Proc: 1, AfterEvents: 8}, {Proc: 2, AfterEvents: 3}}
	parts := []chaos.Partition{{From: 0, To: 1, Dur: time.Millisecond}}
	tests := []struct {
		args       []string
		parts      []chaos.Partition
		crashRate  float64
		netRate    float64
		lossy      bool
		chaosStore bool
	}{
		{args: nil},
		{args: []string{"-seed", "9", "-no-prune"}},
		{args: []string{"-storage-fault-rate", "0.2"}, chaosStore: true},
		{args: []string{"-seed", "5", "-crash-rate", "2.5"}, crashRate: 2.5},
		{args: []string{"-seed", "7", "-net-fault-rate", "0.1"}, netRate: 0.1, lossy: true},
		{args: nil, parts: parts, lossy: true},
		{args: []string{"-seed", "3", "-crash-rate", "1", "-storage-fault-rate", "0.3", "-net-fault-rate", "0.05"},
			crashRate: 1, netRate: 0.05, lossy: true, chaosStore: true},
	}
	for _, tt := range tests {
		var f Flags
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		f.Register(fs)
		if err := fs.Parse(tt.args); err != nil {
			t.Fatal(err)
		}
		r, err := f.Open("t", io.Discard, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{Nproc: 4, Failures: failures}
		r.Configure(&cfg, tt.parts)
		r.Close()

		var wantCrashes []sim.Crash
		if tt.crashRate > 0 {
			wantCrashes = chaos.CrashSchedule(f.Seed, chaos.ScheduleConfig{Nproc: 4, Lambda: tt.crashRate, MaxIncarnations: 3})
		}
		if !reflect.DeepEqual(cfg.Crashes, wantCrashes) {
			t.Errorf("%v: Crashes = %v, want %v", tt.args, cfg.Crashes, wantCrashes)
		}
		if !tt.lossy && cfg.Net != nil {
			t.Errorf("%v: links armed with no network fault", tt.args)
		} else if want := chaos.NewNetwork(f.Seed^0x2545f491, chaos.DefaultNetRates(tt.netRate), tt.parts, nil); tt.lossy &&
			(cfg.Net == nil || !reflect.DeepEqual(cfg.Net.Chaos, want)) {
			t.Errorf("%v: Net = %+v, want the DefaultNetRates(%g) injector", tt.args, cfg.Net, tt.netRate)
		}
		if cs, ok := cfg.Store.(*chaos.Store); ok != tt.chaosStore || !ok && cfg.Store != r.Store.Store {
			t.Errorf("%v: Store is a %T, want chaos-wrapped = %v", tt.args, cfg.Store, tt.chaosStore)
		} else if ok && cs.Stats().Total() != 0 {
			t.Errorf("%v: a fresh chaos store reports faults", tt.args)
		}
		wantMax := 0 // sim's default
		if tt.crashRate > 0 || tt.lossy || tt.chaosStore {
			wantMax = len(failures) + len(wantCrashes) + 1 + 25
		}
		if cfg.MaxRestarts != wantMax {
			t.Errorf("%v: MaxRestarts = %d, want %d", tt.args, cfg.MaxRestarts, wantMax)
		}
		if cfg.NoPrune != f.NoPrune || cfg.Counters != r.Counters {
			t.Errorf("%v: NoPrune = %v, Counters shared = %v", tt.args, cfg.NoPrune, cfg.Counters == r.Counters)
		}
	}
}

// TestSharedFlagGroup pins which flags cli.Flags declares, and that each
// range-checked one refuses what is out of range.
func TestSharedFlagGroup(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	new(Flags).Register(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := "crash-rate dash events-out net-fault-rate no-prune seed storage-fault-rate store telemetry-addr telemetry-window"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("shared flags = %s\nwant %s", got, want)
	}
	for _, bad := range []string{"-crash-rate=-1", "-crash-rate=NaN", "-storage-fault-rate=7", "-net-fault-rate=-0.5", "-net-fault-rate=x"} {
		if err := fs.Parse([]string{bad}); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
	if err := fs.Parse([]string{"-crash-rate=4", "-storage-fault-rate=1", "-net-fault-rate=0"}); err != nil {
		t.Errorf("in-range values refused: %v", err)
	}
}
