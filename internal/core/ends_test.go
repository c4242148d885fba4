package core_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/cfg"
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

// ceiling caps one end's cost per call: allocations, and bytes where kb is
// not 0.
type ceiling struct{ allocs, kb float64 }

// pinCost logs what fn allocates per call, in objects and in KB
// (MemStats.TotalAlloc over the runs), and fails t past max.
func pinCost(t *testing.T, what string, max ceiling, fn func()) {
	t.Helper()
	const runs = 20
	got := testing.AllocsPerRun(runs, fn)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("%-18s %4.0f allocs/call (ceiling %.0f) %6.1f KB/call (ceiling %.0f)", what, got, max.allocs, kb, max.kb)
	if got > max.allocs {
		t.Errorf("%s allocates %.0f times per call, ceiling %.0f", what, got, max.allocs)
	}
	if max.kb > 0 && kb > max.kb {
		t.Errorf("%s allocates %.1f KB per call, ceiling %.0f", what, kb, max.kb)
	}
}

// TestPipelineEndsAllocs pins what the ends allocate per call (DESIGN
// decisions 26 and 31): they pay per program, not per token, node, CFG node
// or checkpoint site, and the analyses behind Phase III build no graph the
// AST already is. Counts are exact (the ends are serial); bytes are
// MemStats.TotalAlloc over the runs. Both are logged; the ceilings leave
// room for a Go release to move them, not for a per-element cost to come
// back — the parent commits' figures, in the comments, are what that would
// look like.
func TestPipelineEndsAllocs(t *testing.T) {
	cases := []struct {
		name                                              string
		prog                                              *mpl.Program
		parse, format, liveness, compile, clone, skeleton ceiling
	}{
		// Parse / Format / Compute / Compile / Clone / BuildSkeleton measure
		// 62 / 1 / 12 / 23 / 12 / 7 allocs and — the last four — 4.4 / 22.2 /
		// 12.5 / 17.9 KB per call. Before the liveness walk, expression
		// sharing and the frontier stack: 28 / 39 / 15 / 16 allocs and 36.0 /
		// 53.8 / 20.9 / 26.6 KB; before the ends paid per program, 1,130 /
		// 207 / 698 / 717 allocs for the first four; before predecessor
		// lists were built on demand, BuildSkeleton's 9 allocs and 23.2 KB.
		{"GenerateLarge(1,6)", verify.GenerateLarge(1, 6),
			ceiling{150, 0}, ceiling{12, 0}, ceiling{30, 8}, ceiling{50, 30}, ceiling{20, 16}, ceiling{10, 21}},
		// 27 / 1 / 10 / 16 / 10 / 7 allocs, 0.9 / 2.4 / 1.0 / 1.8 KB;
		// before: 26 / 32 / 13 / 16 allocs, 6.9 / 8.5 / 1.8 / 5.5 KB; and
		// 121 / 21 / 88 / 98 allocs; BuildSkeleton 9 allocs, 2.1 KB.
		{"JacobiFig2(64)", corpus.JacobiFig2(64),
			ceiling{40, 0}, ceiling{12, 0}, ceiling{25, 2}, ceiling{40, 4}, ceiling{20, 2}, ceiling{10, 2}},
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
			pinCost(t, "mpl.Parse", tc.parse, func() {
				if _, err := mpl.Parse(src); err != nil {
					t.Fatal(err)
				}
			})
			pinCost(t, "mpl.Format", tc.format, func() { _ = mpl.Format(placed) })
			pinCost(t, "liveness.Compute", tc.liveness, func() {
				if _, err := liveness.Compute(placed); err != nil {
					t.Fatal(err)
				}
			})
			pinCost(t, "sim.Compile", tc.compile, func() {
				if _, err := sim.Compile(placed); err != nil {
					t.Fatal(err)
				}
			})
			pinCost(t, "mpl.Clone", tc.clone, func() { _ = mpl.Clone(parsed) })
			pinCost(t, "cfg.BuildSkeleton", tc.skeleton, func() {
				if _, err := cfg.BuildSkeleton(placed); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestTransformAllocs pins what core.Transform allocates on the two
// programs the four runtime workloads of the benchmark compile once per
// job, and on the analysis-large shape, where the pipeline is a fixed share
// of the job that may only fall. Counts are exact; bytes are
// MemStats.TotalAlloc over the runs. They measure 100 / 110 / 237 allocs and
// 11.3 / 17.0 / 77.4 KB per call; the count ceilings are the counts before
// Phase III kept a skeleton (121 and 129). Before Phase II–III allocated
// only what it reads (predecessor lists on demand, data-flow records sized
// by the program, no arena floor) they measured 99 / 110 / 237 allocs and
// 15.0 / 21.8 / 93.6 KB, above the KB ceilings.
func TestTransformAllocs(t *testing.T) {
	for _, tc := range []struct {
		prog *mpl.Program
		max  ceiling
	}{
		{corpus.JacobiFig2(64), ceiling{121, 13}},
		{corpus.Stencil2D(3, 2), ceiling{129, 19}},
		{verify.GenerateLarge(1, 6), ceiling{260, 85}},
	} {
		pinCost(t, "core.Transform("+tc.prog.Name+")", tc.max, func() {
			if _, err := core.Transform(tc.prog, core.DefaultConfig); err != nil {
				t.Fatal(err)
			}
		})
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
