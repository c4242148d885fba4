package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// pipelineEvents executes the transformed pipeline example — the paper's
// staged producer/consumer workload — under virtual time and returns the
// canonical JSONL event stream. Everything in the run is deterministic
// (program, inputs, virtual clock, per-process local order), so the bytes
// must be identical on every execution once the wall-clock fields are
// zeroed: wall_ns by the recorder's clock, dur_ns here.
func pipelineEvents(t *testing.T) []byte {
	t.Helper()
	rep, err := core.Transform(corpus.PipelineStages(2), core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	rec.Now = func() int64 { return 0 }
	tm := sim.PaperTimeModel
	if _, err := sim.Run(sim.Config{Program: rep.Program, Nproc: 4, Time: &tm, Observer: rec}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range rec.Events() {
		e.DurNS = 0 // a save or a wait takes wall time
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestPipelineEventStreamGolden pins the observer's JSONL schema and event
// ordering: the stream of a deterministic run must be byte-stable across
// runs and match the checked-in golden file. Regenerate with
//
//	go test ./internal/obs -run Golden -update
//
// after an INTENTIONAL schema or runtime-semantics change.
func TestPipelineEventStreamGolden(t *testing.T) {
	first := pipelineEvents(t)
	second := pipelineEvents(t)
	if !bytes.Equal(first, second) {
		t.Fatal("event stream differs between two identical runs — nondeterministic field in the schema?")
	}

	golden := filepath.Join("testdata", "pipeline_events.golden.jsonl")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, first, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(first, want) {
		gotLines := bytes.Split(first, []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w []byte
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("event stream diverges from golden at line %d:\n got: %s\nwant: %s\n(run with -update after intentional changes)", i+1, g, w)
			}
		}
		t.Fatal("event stream differs from golden")
	}
}
