package repro_test

// Ablation studies for the design choices documented in DESIGN.md and
// EXPERIMENTS.md: placement mode (loop-preserving vs base Algorithm 3.2)
// and attribute-solver bounds.

import (
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/match"
	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/zigzag"
)

// BenchmarkAblationPlacementMode compares loop-preserving placement with
// base Algorithm 3.2 on the checkpoint granularity that survives: base
// mode moves checkpoints out of loops (the paper's noted drawback), so a
// run takes far fewer checkpoints — coarser recovery granularity for the
// same program.
func BenchmarkAblationPlacementMode(b *testing.B) {
	prog := corpus.JacobiFig2(4)
	var preserveCkpts, baseCkpts int64
	for i := 0; i < b.N; i++ {
		for _, mode := range []struct {
			preserve bool
			out      *int64
		}{{true, &preserveCkpts}, {false, &baseCkpts}} {
			rep, err := core.Transform(prog, core.Config{PreserveLoops: mode.preserve})
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Run(sim.Config{Program: rep.Program, Nproc: 4, DisableTrace: true})
			if err != nil {
				b.Fatal(err)
			}
			*mode.out = res.Metrics.Checkpoints
		}
	}
	b.ReportMetric(float64(preserveCkpts), "ckpts(preserve)")
	b.ReportMetric(float64(baseCkpts), "ckpts(base)")
	if preserveCkpts <= baseCkpts {
		b.Fatalf("loop preservation should retain checkpoint granularity: %d vs %d",
			preserveCkpts, baseCkpts)
	}
}

// BenchmarkAblationSolverBounds measures how the attribute solver's
// process-count bound affects matching cost (exactness is covered by unit
// tests; the bound is a pure cost knob for the modular patterns in SPMD
// code).
func BenchmarkAblationSolverBounds(b *testing.B) {
	prog := corpus.JacobiFig2(3)
	for _, maxN := range []int{5, 17, 33} {
		maxN := maxN
		b.Run(map[int]string{5: "maxN=5", 17: "maxN=17", 33: "maxN=33"}[maxN], func(b *testing.B) {
			opts := match.Options{Solver: attr.Solver{MinProcs: 2, MaxProcs: maxN}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := match.BuildExtended(prog, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAblationSolverBoundsAgree checks that widening the solver bound does
// not change the matching on the corpus (17 is already past the modular
// periods used).
func TestAblationSolverBoundsAgree(t *testing.T) {
	for name, prog := range corpus.All() {
		narrow, err := match.BuildExtended(prog, match.Options{Solver: attr.Solver{MinProcs: 2, MaxProcs: 17}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wide, err := match.BuildExtended(prog, match.Options{Solver: attr.Solver{MinProcs: 2, MaxProcs: 33}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(narrow.Messages) != len(wide.Messages) {
			t.Errorf("%s: edge count changed with bound: %d vs %d",
				name, len(narrow.Messages), len(wide.Messages))
		}
	}
}

// BenchmarkAblationIncrementalStore quantifies the footprint saving of
// delta-encoded checkpoints against full snapshots on a real run.
func BenchmarkAblationIncrementalStore(b *testing.B) {
	prog := corpus.JacobiFig1(8)
	var fullB, deltaB int
	for i := 0; i < b.N; i++ {
		inc := storage.NewIncremental(8)
		if _, err := sim.Run(sim.Config{Program: prog, Nproc: 4, Store: inc, DisableTrace: true}); err != nil {
			b.Fatal(err)
		}
		st := inc.Stats()
		fullB, deltaB = st.FullBytes, st.DeltaBytes
	}
	b.ReportMetric(float64(fullB), "fullB")
	b.ReportMetric(float64(deltaB), "deltaB")
}

// BenchmarkZigzagAnalysis times useless-checkpoint detection on a trace.
func BenchmarkZigzagAnalysis(b *testing.B) {
	res, err := sim.Run(sim.Config{Program: corpus.ZigzagProne(6), Nproc: 6})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := zigzag.FromTrace(res.Trace)
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Useless()) == 0 {
			b.Fatal("expected useless checkpoints")
		}
	}
}

// TestAblationBaseModeStillSafe confirms that the pessimistic base mode,
// despite coarser placement, yields safe programs across the corpus (its
// results additionally carry no loop-preserved orderings at all).
func TestAblationBaseModeStillSafe(t *testing.T) {
	for name, prog := range corpus.All() {
		res, err := place.Ensure(prog, place.Options{PreserveLoops: false})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Orderings) != 0 {
			t.Errorf("%s: base mode left orderings: %+v", name, res.Orderings)
		}
		violations, _, err := place.Check(res.Program, place.Options{PreserveLoops: false})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(violations) != 0 {
			t.Errorf("%s: base mode result unsafe: %+v", name, violations)
		}
	}
}
