package core_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/liveness"
	"repro/internal/mpl"
	"repro/internal/sim"
	"repro/internal/verify"
)

// This file tests the pipeline's two ends — mpl.Parse in front of
// core.Transform, liveness.Compute / sim.Compile / mpl.Format behind it —
// from the one package whose tests may import all of them.

// TestPipelineEndsAllocs pins what the ends allocate per call (DESIGN
// decision 26): they pay per program, not per token, node, CFG node or
// checkpoint site. The counts are exact (the ends are serial) and logged;
// the ceilings leave room for a Go release to move them, not for a
// per-element cost to come back — the parent commit's counts, in the
// comments, are what that would look like.
func TestPipelineEndsAllocs(t *testing.T) {
	cases := []struct {
		name                             string
		prog                             *mpl.Program
		parse, format, liveness, compile float64
	}{
		// Measured 62 / 1 / 28 / 39; parent 1,130 / 207 / 698 / 717.
		{"GenerateLarge(1,6)", verify.GenerateLarge(1, 6), 150, 12, 70, 90},
		// Measured 27 / 1 / 26 / 32; parent 121 / 21 / 88 / 98.
		{"JacobiFig2(64)", corpus.JacobiFig2(64), 40, 12, 50, 60},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := mpl.Format(tc.prog)
			parsed, err := mpl.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := core.Transform(parsed, core.DefaultConfig)
			if err != nil {
				t.Fatal(err)
			}
			placed := rep.Program
			pin := func(what string, max float64, fn func()) {
				t.Helper()
				got := testing.AllocsPerRun(20, fn)
				t.Logf("%-16s %4.0f allocs/call (ceiling %.0f)", what, got, max)
				if got > max {
					t.Errorf("%s allocates %.0f times per call, ceiling %.0f", what, got, max)
				}
			}
			pin("mpl.Parse", tc.parse, func() {
				if _, err := mpl.Parse(src); err != nil {
					t.Fatal(err)
				}
			})
			pin("mpl.Format", tc.format, func() { _ = mpl.Format(placed) })
			pin("liveness.Compute", tc.liveness, func() {
				if _, err := liveness.Compute(placed); err != nil {
					t.Fatal(err)
				}
			})
			pin("sim.Compile", tc.compile, func() {
				if _, err := sim.Compile(placed); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestPipelineOutputMatchesGoldens holds the whole pipeline to the bytes it
// produced at the commit before the ends were rewritten: the goldens under
// internal/mpl/testdata are that commit's Format output for these three
// transformed programs (package mpl's own tests check they are a fixpoint
// of Parse and Format).
func TestPipelineOutputMatchesGoldens(t *testing.T) {
	for name, p := range map[string]*mpl.Program{
		"jacobi_transformed":       corpus.JacobiFig2(64),
		"stencil2d_transformed":    corpus.Stencil2D(3, 2),
		"genlarge_1_6_transformed": verify.GenerateLarge(1, 6),
	} {
		want, err := os.ReadFile(filepath.Join("..", "mpl", "testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		// Through source, as chkptc does: Format → Parse → Transform →
		// Compile → Format.
		parsed, err := mpl.Parse(mpl.Format(p))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := core.Transform(parsed, core.DefaultConfig)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		code, err := sim.Compile(rep.Program)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := mpl.Format(code.Prog); got != string(want) {
			t.Errorf("%s: pipeline output differs from the golden\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
}
