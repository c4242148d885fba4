// Command chkptbench regenerates the paper's evaluation artifacts:
//
//	chkptbench -figure 8            # Figure 8: overhead ratio vs n
//	chkptbench -figure 9 [-n 64]    # Figure 9: overhead ratio vs w_m
//	chkptbench -figure validate     # Monte Carlo vs analytic (extra)
//	chkptbench -figure messages     # measured control messages per
//	                                # checkpoint vs the §4.1 formulas
//	chkptbench -figure domino       # useless checkpoints & rollback
//	                                # distance: uncoordinated vs ours
//	chkptbench -figure runtime      # EMPIRICAL Figure 8: overhead ratio
//	                                # measured on the runtime in virtual time
//
// Output is whitespace-separated columns suitable for plotting; "# hist"
// comment lines in the runtime figure carry stall/save distributions.
// -cpuprofile/-memprofile write pprof profiles of the benchmark itself.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/markov"
	"repro/internal/metrics"
	"repro/internal/montecarlo"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/protocol"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/zigzag"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("chkptbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var profiles cli.Profiles
	profiles.Register(fs)
	var (
		figure  = fs.String("figure", "8", `which artifact: "8", "9", "validate", "messages", "domino", "runtime"`)
		n       = fs.Int("n", 64, "process count for figure 9")
		trials  = fs.Int("trials", 100000, "Monte Carlo trials for validate")
		lambda  = fs.Float64("lambda1", markov.PaperBaseline.Lambda1, "per-process failure rate")
		wm      = fs.Float64("wm", markov.PaperBaseline.WM, "message setup time w_m (seconds)")
		work    = fs.Int("work", 300000, "runtime figure: work units per iteration (1 virtual ms each; 300000 ≈ the paper's T=300s interval)")
		wrk     = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel sweep workers (1 = serial; output is identical either way)")
		telAddr = fs.String("telemetry-addr", "", "serve live telemetry for the runtime figures on this address (/metrics, /snapshot.json, /healthz); e.g. 127.0.0.1:9464")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	closing := cli.Closer("chkptbench", stderr, &code)
	stopProfiles, err := profiles.Start()
	if err != nil {
		fmt.Fprintln(stderr, "chkptbench:", err)
		return 1
	}
	defer closing(stopProfiles)
	b := markov.PaperBaseline
	b.Lambda1 = *lambda
	b.WM = *wm
	if _, err := par.Workers(*wrk); err != nil {
		fmt.Fprintln(stderr, "chkptbench:", err)
		return 2
	}

	// Live telemetry across the runtime figures: one aggregator taps every
	// measurement run's events (the sweep's runs share it — totals and rates
	// are fleet-wide, which is exactly what a mid-sweep scrape wants). It
	// has no counters tap — each run keeps its own Counters for the figure's
	// table — and distributions come from the tap, so the endpoint serves
	// events, rates, per-process state and health, no latency histograms.
	// The analytic figures spawn no runtime: their scrapes show zero events.
	var observer obs.Observer
	if *telAddr != "" {
		agg := telemetry.New(telemetry.Config{Nproc: 64})
		stopTelemetry, err := cli.StartTelemetry("chkptbench", stderr, agg, *telAddr, false, 0)
		if err != nil {
			fmt.Fprintln(stderr, "chkptbench:", err)
			return 1
		}
		defer closing(stopTelemetry)
		observer = agg
	}

	switch *figure {
	case "8":
		pts, err := markov.Figure8Workers(b, markov.DefaultFigure8Ns(), *wrk)
		if err != nil {
			fmt.Fprintln(stderr, "chkptbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "# Figure 8: overhead ratio r vs number of processes n")
		fmt.Fprintln(stdout, "# n  appl-driven  SaS  C-L")
		for _, pt := range pts {
			fmt.Fprintf(stdout, "%-6.0f %-12.6g %-12.6g %-12.6g\n", pt.X, pt.ApplDriven, pt.SaS, pt.CL)
		}
	case "9":
		pts, err := markov.Figure9Workers(b, *n, markov.DefaultFigure9WMs(), *wrk)
		if err != nil {
			fmt.Fprintln(stderr, "chkptbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# Figure 9: overhead ratio r vs message setup time w_m (n=%d)\n", *n)
		fmt.Fprintln(stdout, "# w_m  appl-driven  SaS  C-L")
		for _, pt := range pts {
			fmt.Fprintf(stdout, "%-8.4g %-12.6g %-12.6g %-12.6g\n", pt.X, pt.ApplDriven, pt.SaS, pt.CL)
		}
	case "validate":
		rows, err := montecarlo.ValidateFigure8Workers(b, []int{2, 16, 128, 1024}, *trials, 1, *wrk)
		if err != nil {
			fmt.Fprintln(stderr, "chkptbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "# Monte Carlo validation of the analytic overhead ratio")
		fmt.Fprintln(stdout, "# protocol  n  analytic  simulated")
		for _, row := range rows {
			fmt.Fprintf(stdout, "%-12s %-6d %-12.6g %s\n",
				row.Protocol, row.N, row.Analytic, row.Simulated)
		}
	case "messages":
		return runMessages(stdout, stderr, *wrk, observer)
	case "domino":
		return runDomino(stdout, stderr, *wrk, observer)
	case "runtime":
		return runEmpirical(stdout, stderr, *work, *wrk, observer)
	default:
		fmt.Fprintf(stderr, "chkptbench: unknown figure %q\n", *figure)
		return 2
	}
	return 0
}

// sweep runs f over items on up to workers goroutines, each returning its
// fully formatted output block, and writes the blocks to stdout in input
// order — parallel sweeps print byte-identical to serial ones. On error it
// reports the first failure and returns 1.
func sweep[T any](stdout, stderr io.Writer, workers int, items []T, f func(item T) (string, error)) int {
	blocks, err := par.Map(context.Background(), workers, items,
		func(_ context.Context, _ int, item T) (string, error) {
			return f(item)
		})
	if err != nil {
		fmt.Fprintln(stderr, "chkptbench:", err)
		return 1
	}
	for _, blk := range blocks {
		io.WriteString(stdout, blk)
	}
	return 0
}

// runMessages measures real control-message counts per checkpoint round on
// the concurrent runtime and compares them with the §4.1 formulas. The
// per-scale measurements are independent full runs, so they sweep in
// parallel; each run's processes are already goroutines, so worker counts
// here multiply goroutines, not correctness concerns.
func runMessages(stdout, stderr io.Writer, workers int, o obs.Observer) int {
	const iters = 2
	fmt.Fprintln(stdout, "# measured control messages per checkpoint round vs the paper's formulas")
	fmt.Fprintln(stdout, "# n  appl  sas(meas)  sas=5(n-1)  cl(meas)  cl markers=n(n-1)")
	return sweep(stdout, stderr, workers, []int{2, 4, 8, 12}, func(n int) (string, error) {
		prog := corpus.JacobiFig1(iters)
		appl, err := sim.Run(sim.Config{Program: prog, Nproc: n, DisableTrace: true, Observer: o})
		if err != nil {
			return "", err
		}
		sas, err := sim.Run(sim.Config{Program: prog, Nproc: n, Hooks: protocol.SaS(), DisableTrace: true, Observer: o})
		if err != nil {
			return "", err
		}
		cl, err := sim.Run(sim.Config{Program: prog, Nproc: n, Hooks: protocol.CL(), DisableTrace: true, Observer: o})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%-4d %-6d %-10d %-11d %-9d %d\n",
			n,
			appl.Metrics.CtrlMessages/iters,
			sas.Metrics.CtrlMessages/iters, 5*(n-1),
			cl.Metrics.CtrlMessages/iters, n*(n-1)), nil
	})
}

// runEmpirical measures overhead ratios on the concurrent runtime in
// virtual time: the same Jacobi workload runs checkpoint-free (the
// baseline T), then under each protocol; r̂ = makespan/baseline − 1. This
// is the runtime counterpart of the analytic Figure 8 — coordination costs
// (barrier stalls, marker floods) surface as measured time rather than as
// a formula.
func runEmpirical(stdout, stderr io.Writer, workUnits, workers int, o obs.Observer) int {
	const iters = 4
	tm := sim.PaperTimeModel
	// Per-iteration computation defaults to T ≈ 300 s (the paper's
	// programmed interval): 300000 work units at 1 virtual ms each.
	fmt.Fprintf(stdout, "# empirical overhead ratio (virtual time), Jacobi workload, T≈%gs/interval\n",
		float64(workUnits)/1000)
	fmt.Fprintln(stdout, "# n  baseline(s)  appl-driven  SaS  C-L")
	return sweep(stdout, stderr, workers, []int{2, 4, 8, 16}, func(n int) (string, error) {
		prog, bare := corpus.JacobiHeavy(iters, workUnits, true), corpus.JacobiHeavy(iters, workUnits, false)

		code, err := sim.Compile(prog) // the three protocol runs share it
		if err != nil {
			return "", err
		}
		measure := func(cfg sim.Config, hooks sim.HooksFactory) (*sim.Result, error) {
			cfg.Nproc, cfg.Hooks, cfg.Time, cfg.DisableTrace, cfg.Observer = n, hooks, &tm, true, o
			return sim.Run(cfg)
		}
		base, err := measure(sim.Config{Program: bare}, nil)
		if err != nil {
			return "", err
		}
		appl, err := measure(sim.Config{Code: code}, nil)
		if err != nil {
			return "", err
		}
		sas, err := measure(sim.Config{Code: code}, protocol.SaS())
		if err != nil {
			return "", err
		}
		cl, err := measure(sim.Config{Code: code}, protocol.CL())
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "%-4d %-12.4f %-12.6f %-12.6f %-12.6f\n",
			n, base.VTime, appl.VTime/base.VTime-1, sas.VTime/base.VTime-1, cl.VTime/base.VTime-1)
		// Where the overhead comes from: per-protocol distributions. The
		// coordination-free scheme never stalls, so its stall histogram is
		// empty by construction — that asymmetry IS the result.
		printHist(&sb, n, "appl", metrics.HistBarrierStallV, appl.Metrics)
		printHist(&sb, n, "sas", metrics.HistBarrierStallV, sas.Metrics)
		printHist(&sb, n, "cl", metrics.HistBarrierStallV, cl.Metrics)
		printHist(&sb, n, "appl", metrics.HistChkptSaveMS, appl.Metrics)
		printHist(&sb, n, "sas", metrics.HistChkptSaveMS, sas.Metrics)
		return sb.String(), nil
	})
}

// printHist emits one protocol's distribution as a plot-safe comment line,
// followed by a one-line percentile summary at the precision a live scrape
// shows.
func printHist(w io.Writer, n int, proto, name string, m metrics.Snapshot) {
	h, ok := m.Hists[name]
	if !ok || h.Count == 0 {
		fmt.Fprintf(w, "# hist n=%d %s %s (empty)\n", n, proto, name)
		return
	}
	fmt.Fprintf(w, "# hist n=%d %s %s %s\n", n, proto, name, h)
	fmt.Fprintf(w, "# pXX n=%d %s %s p50=%.6g p95=%.6g p99=%.6g\n",
		n, proto, name, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
}

// runDomino contrasts the application-driven scheme with uncoordinated
// checkpointing on random workloads: useless checkpoints (Z-cycle
// analysis) and rollback steps needed at recovery.
func runDomino(stdout, stderr io.Writer, workers int, o obs.Observer) int {
	const n = 4
	input := func(rank, i int) int { return rank ^ i }
	fmt.Fprintln(stdout, "# useless checkpoints and recovery rollback distance, random workloads (n=4)")
	fmt.Fprintln(stdout, "# workload  appl-ckpts  appl-useless  uncoord-ckpts  uncoord-useless  uncoord-rollbacks")
	seeds := make([]int64, 0, 9)
	for seed := int64(-1); seed < 8; seed++ {
		seeds = append(seeds, seed)
	}
	return sweep(stdout, stderr, workers, seeds, func(seed int64) (string, error) {
		prog := corpus.Random(seed)
		label := fmt.Sprintf("seed%d", seed)
		interval := 3 // timer-driven uncoordinated checkpoints
		if seed < 0 {
			// The canonical Netzer-Xu pattern: uncoordinated checkpoints
			// at the program's own (zigzag-prone) statements.
			prog = corpus.ZigzagProne(3)
			label = "zigzag"
			interval = 0
		}
		rep, err := core.Transform(prog, core.DefaultConfig)
		if err != nil {
			return "", err
		}
		applRes, err := sim.Run(sim.Config{Program: rep.Program, Nproc: n, Input: input, Observer: o})
		if err != nil {
			return "", err
		}
		applZ, err := zigzag.FromTrace(applRes.Trace)
		if err != nil {
			return "", err
		}
		applStats := applZ.Stats()

		// Uncoordinated: timer-driven local checkpoints on the
		// UNTRANSFORMED program. The zigzag stats come from a failure-free
		// run (a post-recovery trace only covers the last incarnation);
		// the rollback distance from a separate crashed run recovered by
		// searching for the latest consistent cut.
		uncClean, err := sim.Run(sim.Config{
			Program:  prog,
			Nproc:    n,
			Input:    input,
			Hooks:    protocol.Uncoordinated(interval),
			Observer: o,
		})
		if err != nil {
			return "", err
		}
		uncZ, err := zigzag.FromTrace(uncClean.Trace)
		if err != nil {
			return "", err
		}
		uncStats := uncZ.Stats()
		victim := int(seed) % n
		if victim < 0 {
			victim += n
		}
		uncCrash, err := sim.Run(sim.Config{
			Program:      prog,
			Nproc:        n,
			Input:        input,
			Hooks:        protocol.Uncoordinated(interval),
			Failures:     []sim.Failure{{Proc: victim, AfterEvents: 14}},
			Recover:      recovery.LatestConsistent,
			DisableTrace: true,
			Observer:     o,
		})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%-10s %-11d %-13d %-14d %-16d %d\n",
			label, applStats.Total, applStats.Useless,
			uncStats.Total, uncStats.Useless, uncCrash.RolledBack), nil
	})
}
