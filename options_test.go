package repro_test

import (
	"bufio"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// maxOptions bounds the exported fields of the library's config structs. An
// option exists only while two non-test callers set it differently; a test
// re-tunes a constant by its input or through a fake (DESIGN decision 19).
const maxOptions = 47

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

const maxDocBytes = 261700

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

// A CHANGES.md entry — its "- PR N" line and the FOUND and MENDED lines
// under it — from PR firstCappedEntry on is at most maxEntryBytes long:
// the log says what was done and found, and the diff says the rest.
const (
	firstCappedEntry = 56
	maxEntryBytes    = 2500
)

// TestChangesEntriesStayShort fails on a CHANGES.md entry from PR
// firstCappedEntry on that is longer than maxEntryBytes.
func TestChangesEntriesStayShort(t *testing.T) {
	f, err := os.Open("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries := map[int]int{} // PR number → bytes
	pr := -1
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "- PR "); ok {
			digits := strings.IndexFunc(rest, func(r rune) bool { return r < '0' || r > '9' })
			if digits < 0 {
				digits = len(rest)
			}
			n, err := strconv.Atoi(rest[:digits])
			if err != nil {
				t.Fatalf("CHANGES.md: an entry without a PR number: %.40q", line)
			}
			pr = n
		}
		entries[pr] += len(line) + 1
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for n, size := range entries {
		if n >= firstCappedEntry && size > maxEntryBytes {
			t.Errorf("CHANGES.md: the PR %d entry is %d bytes, more than %d", n, size, maxEntryBytes)
		}
	}
}
