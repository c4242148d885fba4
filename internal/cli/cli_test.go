package cli

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
