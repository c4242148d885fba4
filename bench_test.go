package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dataflow"
	"repro/internal/insert"
	"repro/internal/markov"
	"repro/internal/match"
	"repro/internal/montecarlo"
	"repro/internal/mpl"
	"repro/internal/place"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/verify"
)

// BenchmarkFigure8 regenerates the paper's Figure 8 (overhead ratio vs
// number of processes for appl-driven, SaS, and C-L) on every iteration
// and reports the endpoint ratios as custom metrics. Run with -v to see
// the full series printed once.
func BenchmarkFigure8(b *testing.B) {
	var pts []markov.Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = markov.Figure8Workers(markov.PaperBaseline, markov.DefaultFigure8Ns(), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.ApplDriven, "r(appl,n=1024)")
	b.ReportMetric(last.SaS, "r(SaS,n=1024)")
	b.ReportMetric(last.CL, "r(C-L,n=1024)")
	if testing.Verbose() {
		b.Logf("Figure 8 series:\n%s", formatPoints("n", pts))
	}
}

// BenchmarkFigure9 regenerates Figure 9 (overhead ratio vs message setup
// time w_m at n=64): the appl-driven curve is flat, SaS and C-L degrade.
func BenchmarkFigure9(b *testing.B) {
	var pts []markov.Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = markov.Figure9Workers(markov.PaperBaseline, 64, markov.DefaultFigure9WMs(), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.ApplDriven, "r(appl,wm=0.1)")
	b.ReportMetric(last.SaS, "r(SaS,wm=0.1)")
	b.ReportMetric(last.CL, "r(C-L,wm=0.1)")
	if testing.Verbose() {
		b.Logf("Figure 9 series (n=64):\n%s", formatPoints("w_m", pts))
	}
}

func formatPoints(x string, pts []markov.Point) string {
	out := fmt.Sprintf("%-10s %-12s %-12s %-12s\n", x, "appl-driven", "SaS", "C-L")
	for _, pt := range pts {
		out += fmt.Sprintf("%-10.4g %-12.6g %-12.6g %-12.6g\n", pt.X, pt.ApplDriven, pt.SaS, pt.CL)
	}
	return out
}

// BenchmarkFigure7Chain times the generic absorbing-chain solution of the
// paper's Figure 7 model against the closed form it must equal.
func BenchmarkFigure7Chain(b *testing.B) {
	p := markov.PaperBaseline.ParamsFor(markov.SaS, 256)
	for i := 0; i < b.N; i++ {
		if _, err := markov.GammaFromChain(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloValidation cross-validates the analytic overhead
// ratio by stochastic simulation (the "extra" experiment of DESIGN.md).
func BenchmarkMonteCarloValidation(b *testing.B) {
	base := markov.PaperBaseline
	base.Lambda1 = 1e-4 // visible failure counts at bench-scale trials
	var rows []montecarlo.ValidationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = montecarlo.ValidateFigure8Workers(base, []int{2, 64}, 20000, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rows {
		if testing.Verbose() {
			b.Logf("%v n=%d analytic=%.6g simulated=%s", row.Protocol, row.N, row.Analytic, row.Simulated)
		}
	}
}

// BenchmarkMessagesPerCheckpoint measures real coordination traffic per
// checkpoint round on the concurrent runtime for each protocol — the
// empirical counterpart of the M(SaS) and M(C-L) formulas.
func BenchmarkMessagesPerCheckpoint(b *testing.B) {
	const n, iters = 8, 2
	prog := corpus.JacobiFig1(iters)
	run := func(hooks sim.HooksFactory) int64 {
		res, err := sim.Run(sim.Config{Program: prog, Nproc: n, Hooks: hooks, DisableTrace: true})
		if err != nil {
			b.Fatal(err)
		}
		return res.Metrics.CtrlMessages / iters
	}
	var appl, sas, cl int64
	for i := 0; i < b.N; i++ {
		appl = run(nil)
		sas = run(protocol.SaS())
		cl = run(protocol.CL())
	}
	b.ReportMetric(float64(appl), "ctrl/ckpt(appl)")
	b.ReportMetric(float64(sas), "ctrl/ckpt(SaS)")
	b.ReportMetric(float64(cl), "ctrl/ckpt(C-L)")
}

// BenchmarkTransformPipeline times the full offline analysis (phases
// I-III) across the program corpus.
func BenchmarkTransformPipeline(b *testing.B) {
	progs := corpus.All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := core.Transform(p, core.DefaultConfig); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTransformPipelineLarge is BenchmarkTransformPipeline over
// generated large programs (deep loop nests, an order of magnitude more
// statements than the corpus) — the scaling story for the same pipeline.
func BenchmarkTransformPipelineLarge(b *testing.B) {
	var progs []*mpl.Program
	for seed := int64(1); seed <= 8; seed++ {
		progs = append(progs, verify.GenerateLarge(seed, 6))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := core.Transform(p, core.DefaultConfig); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Per-phase sub-benchmarks: each isolates one stage of the transform so a
// regression in the aggregate pipeline benchmark can be attributed.

// BenchmarkPipelineCFGBuild times CFG construction alone across the corpus.
func BenchmarkPipelineCFGBuild(b *testing.B) {
	progs := corpus.All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := cfg.Build(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPipelineMatch times Phase II (extended-CFG matching) across the
// corpus, with graphs and dataflow results prebuilt outside the timer.
func BenchmarkPipelineMatch(b *testing.B) {
	type input struct {
		p  *mpl.Program
		g  *cfg.Graph
		df *dataflow.Result
	}
	var inputs []input
	for _, p := range corpus.All() {
		g, err := cfg.Build(p)
		if err != nil {
			b.Fatal(err)
		}
		inputs = append(inputs, input{p: p, g: g, df: dataflow.Analyze(p)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			if _, err := match.Match(in.p, in.g, in.df, match.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPipelinePlace times Phase III (the move-reanalyze fixpoint) on
// Phase-I-applied programs, checkpoint insertion done outside the timer.
func BenchmarkPipelinePlace(b *testing.B) {
	var progs []*mpl.Program
	for _, p := range corpus.All() {
		work := mpl.Clone(p)
		if _, err := insert.InsertCheckpoints(work, insert.DefaultCostModel); err != nil {
			b.Fatal(err)
		}
		progs = append(progs, work)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			opts := place.DefaultOptions
			opts.Arena = &cfg.Arena{}
			if _, err := place.Ensure(p, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRuntimeFailureRecovery times a full run including one crash and
// a straight-cut recovery.
func BenchmarkRuntimeFailureRecovery(b *testing.B) {
	rep, err := core.Transform(corpus.JacobiFig2(4), core.DefaultConfig)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{
			Program:      rep.Program,
			Nproc:        4,
			DisableTrace: true,
			Failures:     []sim.Failure{{Proc: 1, AfterEvents: 20}},
			Timeout:      20 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
