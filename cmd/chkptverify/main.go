// Command chkptverify is the generative correctness harness for the
// paper's central claim (Theorem 3.2): it generates random SPMD programs,
// transforms each with the three-phase pipeline, systematically explores
// the transformed program's message-delivery interleavings up to a
// branching bound, and checks that every straight cut of every explored
// execution is a recovery line — cross-validated by five independent
// deciders: four trace-consistency checks (vector clocks, structural
// happened-before, the orphan-message criterion, and Netzer-Xu zigzag
// paths) plus restore equivalence, which re-instantiates the machine from
// each cut's snapshots — both full and pruned to the per-site liveness
// manifest — and requires the completed replay to reproduce the original
// run's FinalVars exactly.
//
// Usage:
//
//	chkptverify [-seed N] [-progs N] [-depth N] [-schedules N] [-nprocs list] [-mutate] [-replay subseed] [-v]
//
// With -mutate the harness additionally sabotages each transformed
// program one checkpoint at a time (delete / move across a communication
// / skew into rank-parity branches) and each liveness manifest one live
// variable at a time (prune-drop), and each send seen crossing a straight
// cut one at a time (cross-clear: its messages lose their log records), and
// requires the checker to catch the sabotage; a clean pass additionally
// requires the delete, prune-drop and cross-clear detection rates to reach
// 95%.
//
// Every counterexample line prints the generator sub-seed and schedule
// needed to replay it deterministically; -replay regenerates one program
// from its printed sub-seed and re-verifies it with verbose output.
//
// Exit codes: 0 clean, 1 counterexample or mutation-rate failure,
// 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/mpl"
	"repro/internal/verify"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chkptverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Int64("seed", 1, "generator seed for the program stream")
		progs     = fs.Int("progs", 100, "number of random programs to generate and verify")
		depth     = fs.Int("depth", 8, "branching-decision bound per explored schedule")
		schedules = fs.Int("schedules", 64, "max explored executions per (program, nproc)")
		nprocs    = fs.String("nprocs", "2,3", "comma-separated process counts to verify at")
		mutate    = fs.Bool("mutate", false, "also run the mutation (no-vacuous-pass) mode")
		replay    = fs.Int64("replay", 0, "regenerate ONE program from this sub-seed and re-verify it verbosely")
		workers   = fs.Int("workers", 0, "parallel workers over programs (0 = GOMAXPROCS)")
		verbose   = fs.Bool("v", false, "print per-run statistics even on success")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: chkptverify [flags]")
		fs.PrintDefaults()
		return 2
	}
	ns, err := parseNprocs(*nprocs)
	if err != nil {
		fmt.Fprintln(stderr, "chkptverify:", err)
		return 2
	}

	if *replay != 0 {
		return replayOne(*replay, ns, *depth, *schedules, *mutate, stdout, stderr)
	}

	opts := verify.Options{
		Seed:         *seed,
		Programs:     *progs,
		Depth:        *depth,
		MaxSchedules: *schedules,
		Nprocs:       ns,
		Mutate:       *mutate,
		Workers:      *workers,
	}
	res, err := verify.Run(context.Background(), opts)
	if err != nil {
		fmt.Fprintln(stderr, "chkptverify:", err)
		return 1
	}
	return report(res, *mutate, *verbose, stdout, stderr)
}

// report prints the outcome and picks the exit code.
func report(res *verify.Result, mutate, verbose bool, stdout, stderr io.Writer) int {
	code := 0
	for _, c := range res.Counterexamples {
		fmt.Fprintf(stderr, "COUNTEREXAMPLE %s\n", c)
		code = 1
	}
	if mutate {
		for _, kind := range verify.MutationKinds(res.Mutation) {
			ks := res.Mutation[kind]
			fmt.Fprintf(stdout, "mutation %-6s: %3d mutants, caught %3d (static %d, cut-contract %d, dynamic %d, runtime %d), rate %.1f%%\n",
				kind, ks.Total, ks.Caught(), ks.CaughtStatic, ks.CaughtCut, ks.CaughtDynamic, ks.CaughtRuntime, 100*ks.Rate())
			for _, esc := range ks.Escaped {
				fmt.Fprintf(stdout, "  escaped: %s\n", esc)
			}
		}
		if del := res.Mutation[verify.MutDelete]; del != nil && del.Rate() < 0.95 {
			fmt.Fprintf(stderr, "chkptverify: delete-mutant detection rate %.1f%% below the 95%% bar\n", 100*del.Rate())
			code = 1
		}
		for _, kind := range []verify.MutationKind{verify.MutPruneDrop, verify.MutCrossClear} {
			if ks := res.Mutation[kind]; ks != nil && ks.Rate() < 0.95 {
				fmt.Fprintf(stderr, "chkptverify: %s detection rate %.1f%% below the 95%% bar\n", kind, 100*ks.Rate())
				code = 1
			}
		}
	}
	if code == 0 {
		fmt.Fprintf(stdout, "OK: %d programs, %d executions, %d straight cuts checked, %d cut restores replayed — every straight cut is a recovery line, full or pruned\n",
			res.Programs, res.Executions, res.CutsChecked, res.RestoresChecked)
		if verbose && res.TransformRejected > 0 {
			fmt.Fprintf(stdout, "   (%d generated programs fell outside the transformable set and were regenerated)\n",
				res.TransformRejected)
		}
	}
	return code
}

// replayOne regenerates a single program from a counterexample's printed
// sub-seed and re-verifies it with the program text shown, for debugging
// a reported failure in isolation.
func replayOne(sub int64, ns []int, depth, schedules int, mutate bool, stdout, stderr io.Writer) int {
	prog := verify.Generate(sub)
	fmt.Fprintf(stdout, "== program (sub-seed %d) ==\n%s\n", sub, mpl.Format(prog))
	rep, err := core.Transform(prog, core.DefaultConfig)
	if err != nil {
		fmt.Fprintln(stderr, "chkptverify: transform:", err)
		return 1
	}
	fmt.Fprintf(stdout, "== transformed (%d straight-cut indexes) ==\n%s\n",
		rep.CheckpointCount(), mpl.Format(rep.Program))
	res, err := verify.Run(context.Background(), verify.Options{
		Seed: sub, Programs: 1, Depth: depth, MaxSchedules: schedules,
		Nprocs: ns, Mutate: mutate, Workers: 1,
	})
	if err != nil {
		fmt.Fprintln(stderr, "chkptverify:", err)
		return 1
	}
	return report(res, mutate, true, stdout, stderr)
}

func parseNprocs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -nprocs entry %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-nprocs selects no process counts")
	}
	return out, nil
}
