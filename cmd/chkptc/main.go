// Command chkptc is the offline checkpoint "compiler": it runs the paper's
// three phases on an MPL program and emits the transformed program, a
// transformation report, and optionally the extended CFG in Graphviz dot
// form.
//
// Usage:
//
//	chkptc [-mode preserve|base] [-check] [-dot file] [-o file] [-report] program.mpl
//
// With -check the program is only verified against Condition 1 (exit code
// 1 when some straight cut of checkpoints is not guaranteed to be a
// recovery line); no transformation is performed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/mpl"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chkptc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode    = fs.String("mode", "preserve", `placement mode: "preserve" keeps checkpoints in loops (§3.3 optimization), "base" is plain Algorithm 3.2`)
		check   = fs.Bool("check", false, "verify Condition 1 only; do not transform")
		dotPath = fs.String("dot", "", "write the extended CFG (Graphviz dot) to this file")
		outPath = fs.String("o", "", "write the transformed program here (default stdout)")
		report  = fs.Bool("report", false, "print the transformation report to stderr")
		skipIns = fs.Bool("no-insert", false, "skip Phase I checkpoint insertion")
		runtime = fs.Bool("verify-runtime", false, "after transforming, execute the result at several process counts and verify every straight cut on the recorded traces")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: chkptc [flags] program.mpl (use - for stdin)")
		fs.PrintDefaults()
		return 2
	}

	prog, err := cli.ReadProgram(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "chkptc:", err)
		return 1
	}

	cfg := core.DefaultConfig
	cfg.SkipInsert = *skipIns
	switch *mode {
	case "preserve":
		cfg.PreserveLoops = true
	case "base":
		cfg.PreserveLoops = false
	default:
		fmt.Fprintf(stderr, "chkptc: unknown mode %q\n", *mode)
		return 2
	}

	if *check {
		violations, err := core.Verify(prog, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "chkptc:", err)
			return 1
		}
		if len(violations) == 0 {
			fmt.Fprintln(stdout, "OK: every straight cut of checkpoints is a recovery line")
			return 0
		}
		for _, v := range violations {
			fmt.Fprintf(stdout, "VIOLATION: C_%d at stmt #%d can happen before C_%d at stmt #%d\n",
				v.Index, v.FromStmt, v.Index, v.ToStmt)
		}
		return 1
	}

	rep, err := core.Transform(prog, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "chkptc:", err)
		return 1
	}
	if *report {
		printReport(stderr, rep)
	}
	if *dotPath != "" {
		dot, err := core.ExtendedDOT(rep.Program)
		if err != nil {
			fmt.Fprintln(stderr, "chkptc:", err)
			return 1
		}
		if err := os.WriteFile(*dotPath, []byte(dot), 0o644); err != nil {
			fmt.Fprintln(stderr, "chkptc:", err)
			return 1
		}
	}
	if *runtime {
		if code := verifyRuntime(rep, stdout, stderr); code != 0 {
			return code
		}
	}
	out := mpl.Format(rep.Program)
	if *outPath == "" {
		fmt.Fprint(stdout, out)
		return 0
	}
	if err := os.WriteFile(*outPath, []byte(out), 0o644); err != nil {
		fmt.Fprintln(stderr, "chkptc:", err)
		return 1
	}
	return 0
}

// verifyRuntime executes the transformed program on the concurrent runtime
// at several scales and checks every straight cut of the recorded traces —
// the empirical counterpart of the -check static proof.
func verifyRuntime(rep *core.Report, stdout, stderr io.Writer) int {
	for _, n := range []int{2, 3, 5} {
		res, err := sim.Run(sim.Config{
			Program: rep.Program,
			Nproc:   n,
			Input:   func(rank, i int) int { return rank + i },
		})
		if err != nil {
			fmt.Fprintf(stderr, "chkptc: runtime verification at n=%d: %v\n", n, err)
			return 1
		}
		ok, bad := cli.StraightCuts(stderr, res.Trace)
		if bad > 0 {
			fmt.Fprintf(stderr, "chkptc: runtime verification at n=%d: %d straight cut(s) are not recovery lines\n", n, bad)
			return 1
		}
		fmt.Fprintf(stderr, "runtime verification: n=%d ok (%d straight cut(s) checked)\n", n, ok)
	}
	return 0
}

func printReport(w io.Writer, rep *core.Report) {
	fmt.Fprintf(w, "== transformation report ==\n")
	if rep.Phase1 != nil {
		fmt.Fprintf(w, "phase I: inserted %d checkpoint(s); optimal interval %.1fs; %d iteration(s)/checkpoint recommended\n",
			len(rep.Phase1.Inserted), rep.Phase1.OptimalInterval, rep.Phase1.IterationsPerCheckpoint)
	}
	p3 := rep.Phase3
	fmt.Fprintf(w, "phase III: %d initial violation(s), %d move(s), %d equalized, %d coalesced, %d iteration(s)\n",
		len(p3.InitialViolations), len(p3.Moves), len(p3.EqualizedStmts), p3.CoalescedStmts, p3.Iterations)
	for _, m := range p3.Moves {
		fmt.Fprintf(w, "  move: %s\n", m.Reason)
	}
	for _, o := range p3.Orderings {
		fmt.Fprintf(w, "  loop-preserved: C_%d stmt #%d before stmt #%d (cross-iteration only)\n",
			o.Index, o.EarlierStmt, o.LaterStmt)
	}
	fmt.Fprintf(w, "straight-cut indexes: %d\n", rep.CheckpointCount())
	logged, sends := rep.SendsLogged()
	fmt.Fprintf(w, "sends logged %d of %d (the others only use channels no straight cut has a message in flight on, at the process counts Phase II solves for)\n", logged, sends)
}
