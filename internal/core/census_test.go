package core_test

import (
	"math/bits"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mpl"
	"repro/internal/verify"
)

// TestQuietCensus pins what the send-log rule (DESIGN decision 30) proves
// under DefaultConfig: per corpus program, and in total over the corpus and
// the generated programs the harness and the analysis-large workload draw,
// how many channels (one bit per count and channel of Program.Quiet) it
// holds quiet and how many send statements only ever use those. A change to
// where the rule reads its facts from must leave every number as it is.
func TestQuietCensus(t *testing.T) {
	type row struct{ bits, sends int }
	want := map[string]row{
		"jacobi_fig1": {272, 2}, "jacobi_fig2": {144, 2}, "pipeline": {72, 1}, "ring": {136, 1},
		"stencil2d": {402, 4}, "stencilskew": {306, 6}, "zigzagprone": {144, 2},
		"allreduce": {}, "irregular": {}, "masterworker": {},
	}
	var programs, quiet int
	var total row
	census := func(name string, p *mpl.Program) row {
		t.Helper()
		rep, err := core.Transform(p, core.DefaultConfig)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		programs++
		r := row{sends: rep.Phase3.QuietSends}
		if rep.Program.Quiet != nil {
			quiet++
		}
		for _, w := range rep.Program.Quiet {
			r.bits += bits.OnesCount64(w)
		}
		total.bits += r.bits
		total.sends += r.sends
		return r
	}
	progs := corpus.All()
	if len(progs) != len(want) {
		t.Errorf("corpus has %d programs, the census %d", len(progs), len(want))
	}
	for name, p := range progs {
		if got := census(name, p); got != want[name] {
			t.Errorf("%s: %d quiet bits, %d quiet sends; want %d, %d", name, got.bits, got.sends, want[name].bits, want[name].sends)
		}
	}
	for seed := int64(1); seed <= 2000; seed++ {
		census("Generate", verify.Generate(seed))
	}
	for seed := int64(1); seed <= 8; seed++ {
		census("GenerateLarge", verify.GenerateLarge(seed, 6))
	}
	if programs != 2018 || quiet != 978 || total != (row{147842, 2574}) {
		t.Errorf("%d programs, %d with a non-nil Quiet, %d quiet bits, %d quiet sends; want 2018, 978, 147842, 2574",
			programs, quiet, total.bits, total.sends)
	}
}
