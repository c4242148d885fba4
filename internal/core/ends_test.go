package core_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
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

// TestTransformAllocs pins what core.Transform allocates on the two
// programs the four runtime workloads of the benchmark compile once per
// job, where the pipeline is a fixed share of the job that may only fall.
// The ceilings are the counts before Phase III kept a skeleton (121 and
// 129); it measures 106 and 116 since.
func TestTransformAllocs(t *testing.T) {
	for _, tc := range []struct {
		prog *mpl.Program
		max  float64
	}{
		{corpus.JacobiFig2(64), 121},
		{corpus.Stencil2D(3, 2), 129},
	} {
		got := testing.AllocsPerRun(20, func() {
			if _, err := core.Transform(tc.prog, core.DefaultConfig); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("core.Transform(%s): %.0f allocs/call (ceiling %.0f)", tc.prog.Name, got, tc.max)
		if got > tc.max {
			t.Errorf("core.Transform(%s) allocates %.0f times per call, ceiling %.0f", tc.prog.Name, got, tc.max)
		}
	}
}

// update rewrites testdata/pipeline.golden from the code under test. The
// file is the parent commit's output: regenerate it only in a PR whose
// point is to change what the pipeline emits.
var update = flag.Bool("update", false, "rewrite testdata/pipeline.golden")

// TestPipelineOutputMatchesGoldens holds the whole pipeline to the bytes it
// produced before Phase III stopped rebuilding Ĝ every round: one golden
// file with, per program, a header recording the fixpoint's shape
// (iterations, moves, orderings, initial violations) and the Format output
// of the transformed, compiled program. The programs are every corpus
// program, the eight analysis-large shapes and a hundred generated ones.
// Three of them also have a golden under internal/mpl/testdata (package
// mpl's own tests check those are a fixpoint of Parse and Format).
func TestPipelineOutputMatchesGoldens(t *testing.T) {
	type named struct {
		name string
		p    *mpl.Program
	}
	var progs []named
	for name, p := range corpus.All() {
		progs = append(progs, named{name, p})
	}
	sort.Slice(progs, func(i, j int) bool { return progs[i].name < progs[j].name })
	progs = append(progs, named{"jacobi_transformed", corpus.JacobiFig2(64)})
	for seed := int64(1); seed <= 8; seed++ {
		progs = append(progs, named{fmt.Sprintf("genlarge_%d_6", seed), verify.GenerateLarge(seed, 6)})
	}
	for seed := int64(1); seed <= 100; seed++ {
		progs = append(progs, named{fmt.Sprintf("gen_%d", seed), verify.Generate(seed)})
	}
	mplGoldens := map[string]string{
		"jacobi_transformed": "jacobi_transformed",
		"stencil2d":          "stencil2d_transformed",
		"genlarge_1_6":       "genlarge_1_6_transformed",
	}

	var got strings.Builder
	for _, np := range progs {
		// Through source, as chkptc does: Format → Parse → Transform →
		// Compile → Format.
		parsed, err := mpl.Parse(mpl.Format(np.p))
		if err != nil {
			t.Fatalf("%s: %v", np.name, err)
		}
		rep, err := core.Transform(parsed, core.DefaultConfig)
		if err != nil {
			t.Fatalf("%s: %v", np.name, err)
		}
		code, err := sim.Compile(rep.Program)
		if err != nil {
			t.Fatalf("%s: %v", np.name, err)
		}
		out := mpl.Format(code.Prog)
		ph := rep.Phase3
		fmt.Fprintf(&got, "=== %s iterations=%d moves=%d orderings=%d initial_violations=%d\n%s",
			np.name, ph.Iterations, len(ph.Moves), len(ph.Orderings), len(ph.InitialViolations), out)
		if file, ok := mplGoldens[np.name]; ok {
			want, err := os.ReadFile(filepath.Join("..", "mpl", "testdata", file+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Errorf("%s: pipeline output differs from %s.golden\ngot:\n%s\nwant:\n%s", np.name, file, out, want)
			}
		}
	}

	path := filepath.Join("testdata", "pipeline.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	// Name the first program whose section differs instead of dumping 118.
	gs, ws := strings.SplitAfter(got.String(), "\n=== "), strings.SplitAfter(string(want), "\n=== ")
	for i := range gs {
		if i >= len(ws) || gs[i] != ws[i] {
			w := "(missing)"
			if i < len(ws) {
				w = ws[i]
			}
			t.Fatalf("pipeline output differs from %s at section %d\ngot:\n%s\nwant:\n%s", path, i, gs[i], w)
		}
	}
	t.Fatalf("pipeline output is a strict prefix of %s", path)
}
