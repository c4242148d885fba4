package telemetry_test

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/telemetry"
)

// TestWALStatsExposition pins the WAL → telemetry plumbing: a configured
// stats source shows up in the snapshot, the Prometheus exposition, and
// the dashboard; without one the wal families are absent entirely.
func TestWALStatsExposition(t *testing.T) {
	stats := wal.Stats{
		Saves:             120,
		Batches:           30,
		Rotations:         4,
		Compactions:       2,
		Recovered:         7,
		TruncatedBytes:    512,
		QuarantinedOnOpen: 1,
	}
	agg := telemetry.New(telemetry.Config{WALStats: func() wal.Stats { return stats }})

	s := agg.Snapshot()
	if !s.HasWAL {
		t.Fatal("HasWAL = false with a configured WALStats source")
	}
	if s.WAL != stats {
		t.Fatalf("snapshot WAL = %+v, want %+v", s.WAL, stats)
	}

	var prom strings.Builder
	if err := telemetry.WriteProm(&prom, s); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"chkptsim_wal_saves_total 120",
		"chkptsim_wal_batches_total 30",
		"chkptsim_wal_rotations_total 4",
		"chkptsim_wal_compactions_total 2",
		"chkptsim_wal_group_commit_ratio 4",
		"chkptsim_wal_recovered_records 7",
		"chkptsim_wal_truncated_bytes 512",
		"chkptsim_wal_quarantined_on_open 1",
	} {
		if !strings.Contains(prom.String(), want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, prom.String())
		}
	}

	var dash strings.Builder
	telemetry.RenderSnapshot(&dash, s, false)
	if !strings.Contains(dash.String(), "wal: saves 120") {
		t.Errorf("dashboard missing wal line:\n%s", dash.String())
	}

	// The JSON snapshot carries the stats under the stable "wal" key.
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		HasWAL bool      `json:"has_wal"`
		WAL    wal.Stats `json:"wal"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if !decoded.HasWAL || decoded.WAL != stats {
		t.Fatalf("JSON round-trip = %+v, want %+v", decoded.WAL, stats)
	}
}

// TestWALStatsAbsent: with no source configured the families never render
// (an all-zero wal section would read as a healthy-but-idle store).
func TestWALStatsAbsent(t *testing.T) {
	agg := telemetry.New(telemetry.Config{})
	s := agg.Snapshot()
	if s.HasWAL {
		t.Fatal("HasWAL = true without a WALStats source")
	}
	var prom strings.Builder
	if err := telemetry.WriteProm(&prom, s); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(prom.String(), "chkptsim_wal_") {
		t.Errorf("exposition has wal families without a source:\n%s", prom.String())
	}
	var dash strings.Builder
	telemetry.RenderSnapshot(&dash, s, false)
	if strings.Contains(dash.String(), "wal:") {
		t.Errorf("dashboard has wal line without a source:\n%s", dash.String())
	}
}

// TestWALStatsLive wires a real store through Config.WALStats — the path
// the chkptsim and chkptfleet binaries use — and checks the sampled
// counters move with store activity.
func TestWALStatsLive(t *testing.T) {
	ws, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()

	agg := telemetry.New(telemetry.Config{WALStats: ws.Stats})

	if err := ws.Save(storage.Snapshot{Proc: 1, CFGIndex: 1, Instance: 1}); err != nil {
		t.Fatal(err)
	}
	s := agg.Snapshot()
	if !s.HasWAL {
		t.Fatal("HasWAL = false with a WALStats source")
	}
	if s.WAL.Saves != 1 {
		t.Fatalf("Saves = %d after one put, want 1", s.WAL.Saves)
	}
	if s.WAL.Batches < 1 {
		t.Fatalf("Batches = %d after one acknowledged put, want >= 1", s.WAL.Batches)
	}
}
