package repro_test

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// maxOptions bounds the exported fields of the library's config structs. An
// option exists only while two non-test callers set it differently; a test
// re-tunes a constant by its input or through a fake (DESIGN decision 19).
const maxOptions = 49

// TestOptionSurface counts the exported fields of sim.Config, sim.NetConfig,
// fleet.Config, fleet.BreakerConfig, telemetry.Config and core.Config, and
// fails above maxOptions. scripts/loc.sh prints the count it logs.
func TestOptionSurface(t *testing.T) {
	n := 0
	for _, cfg := range []any{sim.Config{}, sim.NetConfig{}, fleet.Config{}, fleet.BreakerConfig{}, telemetry.Config{}, core.Config{}} {
		typ := reflect.TypeOf(cfg)
		for i := range typ.NumField() {
			if typ.Field(i).IsExported() {
				n++
			}
		}
	}
	t.Logf("options %d", n)
	if n > maxOptions {
		t.Errorf("the config structs have %d exported fields, more than %d", n, maxOptions)
	}
}

// docFiles are the documents ROADMAP's "Docs do not grow" rule holds to
// maxDocBytes together; a PR that adds to them cuts as much elsewhere.
var docFiles = []string{"DESIGN.md", "EXPERIMENTS.md", "TESTING.md", "README.md"}

const maxDocBytes = 264032

// TestDocsDoNotGrow fails when docFiles total more than maxDocBytes.
// scripts/loc.sh prints the same total as "docs".
func TestDocsDoNotGrow(t *testing.T) {
	n := 0
	for _, f := range docFiles {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		n += len(b)
	}
	t.Logf("docs %d", n)
	if n > maxDocBytes {
		t.Errorf("%v total %d bytes, more than %d", docFiles, n, maxDocBytes)
	}
}
