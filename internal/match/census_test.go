package match_test

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/match"
	"repro/internal/verify"
)

// TestMessageEdgeCensus pins how many message edges Ĝ has per program:
// every corpus program, and the totals over the generated programs the
// harness and the analysis-large workload draw. Pairing per FIFO channel
// found one edge a one-to-one scan of statements missed (ring's chain edge
// rank q → q+1, whose receive the scan gave the wrap-around send) and
// dropped none.
func TestMessageEdgeCensus(t *testing.T) {
	edges := func(t *testing.T, name string, x *match.Extended, err error) int {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return len(x.Messages)
	}
	want := map[string]int{
		"allreduce": 2, "irregular": 1, "jacobi_fig1": 2, "jacobi_fig2": 2, "masterworker": 2,
		"pipeline": 1, "ring": 3, "stencil2d": 4, "stencilskew": 8, "zigzagprone": 2,
	}
	progs := corpus.All()
	if len(progs) != len(want) {
		t.Errorf("corpus has %d programs, the census %d", len(progs), len(want))
	}
	for name, p := range progs {
		x, err := match.BuildExtended(p, match.Options{})
		if got := edges(t, name, x, err); got != want[name] {
			t.Errorf("%s: %d message edges, want %d", name, got, want[name])
		}
	}
	large := 0
	for seed := int64(1); seed <= 8; seed++ {
		x, err := match.BuildExtended(verify.GenerateLarge(seed, 6), match.Options{})
		large += edges(t, "GenerateLarge", x, err)
	}
	if large != 206 {
		t.Errorf("GenerateLarge(1..8, 6): %d message edges, want 206", large)
	}
	gen := 0
	for seed := int64(1); seed <= 2000; seed++ {
		x, err := match.BuildExtended(verify.Generate(seed), match.Options{})
		gen += edges(t, "Generate", x, err)
	}
	if gen != 6834 {
		t.Errorf("Generate(1..2000): %d message edges, want 6834", gen)
	}
}
