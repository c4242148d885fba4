package core_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math/bits"
	"sort"
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
//
// Over the same programs it also digests what the whole transform yields,
// under DefaultConfig and with the loop optimization off: the formatted
// program, its checkpoint count, quiet channels and quiet sends, and Phase
// III's orderings, move count, rounds and coalesced statements. A change
// that only moves where a rule of the pipeline is written must leave both
// digests as they are.
func TestQuietCensus(t *testing.T) {
	type row struct{ bits, sends int }
	want := map[string]row{
		"jacobi_fig1": {272, 2}, "jacobi_fig2": {144, 2}, "pipeline": {72, 1}, "ring": {136, 1},
		"stencil2d": {402, 4}, "stencilskew": {306, 6}, "zigzagprone": {144, 2},
		"allreduce": {}, "irregular": {}, "masterworker": {},
	}
	var programs, quiet int
	var total row
	modes := [2]core.Config{core.DefaultConfig, {}}
	digests := [2]hash.Hash{sha256.New(), sha256.New()}
	census := func(name string, p *mpl.Program) row {
		t.Helper()
		var rep *core.Report
		for m, conf := range modes {
			r, err := core.Transform(p, conf)
			if err != nil {
				t.Fatalf("%s (PreserveLoops %v): %v", name, conf.PreserveLoops, err)
			}
			ph := r.Phase3
			fmt.Fprintf(digests[m], "%s%d %v %d\n%v %d %d %d\n", mpl.Format(r.Program), r.CheckpointCount(),
				r.Program.Quiet, ph.QuietSends, ph.Orderings, len(ph.Moves), ph.Iterations, ph.CoalescedStmts)
			if m == 0 {
				rep = r
			}
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
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names) // the digest reads the programs in one order
	for _, name := range names {
		if got := census(name, progs[name]); got != want[name] {
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
	wantDigest := [2]string{
		"e026b08a38ccf7c3b98eed7f3b2d9be690022544120df6228afe01b58f2d4275",
		"da69deedd555ead705e63828af1f2fec69d6a98c79590c9e698b448ee2d110de",
	}
	for m, d := range digests {
		if got := fmt.Sprintf("%x", d.Sum(nil)); got != wantDigest[m] {
			t.Errorf("PreserveLoops %v: transform digest %s, want %s", modes[m].PreserveLoops, got, wantDigest[m])
		}
	}
}
