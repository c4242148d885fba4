// Jacobi reproduces the paper's running example end to end:
//
//   - Figure 1: the canonical Jacobi program whose straight cuts of
//     checkpoints are recovery lines as written;
//   - Figure 2/3: the variant where even ranks checkpoint before the
//     neighbor exchange and odd ranks after, making every straight cut
//     inconsistent — demonstrated on a real execution;
//   - Figure 4: the extended CFG with message edges (printed as Graphviz
//     dot);
//   - §3.3: Algorithm 3.2 repairs the variant while keeping the
//     checkpoints inside the loop, verified on a re-run.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mpl"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	const n = 4

	fmt.Println("=== Figure 1: checkpoints at the same place ===")
	fig1 := corpus.JacobiFig1(3)
	report(fig1, n)

	fmt.Println()
	fmt.Println("=== Figure 2: odd ranks checkpoint after the exchange ===")
	fig2 := corpus.JacobiFig2(3)
	report(fig2, n)

	fmt.Println()
	fmt.Println("=== Figure 4: extended CFG of the Figure 2 program ===")
	dot, err := core.ExtendedDOT(fig2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(dot)

	fmt.Println("=== Algorithm 3.2: repairing Figure 2 ===")
	rep, err := core.Transform(fig2, core.DefaultConfig)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range rep.Phase3.Moves {
		fmt.Printf("move: %s\n", m.Reason)
	}
	fmt.Println()
	fmt.Println(mpl.Format(rep.Program))
	report(rep.Program, n)
}

// report executes the program and prints whether each straight cut of the
// recorded trace is a recovery line (Definition 2.1 via vector clocks).
func report(p *mpl.Program, n int) {
	res, err := sim.Run(sim.Config{Program: p, Nproc: n})
	if err != nil {
		log.Fatal(err)
	}
	for _, idx := range res.Trace.CheckpointIndexes() {
		cut, err := res.Trace.StraightCut(idx)
		if err != nil {
			fmt.Printf("R_%d: incomplete\n", idx)
			continue
		}
		if trace.IsRecoveryLine(cut) {
			fmt.Printf("R_%d: recovery line\n", idx)
		} else {
			a, b, _ := trace.FirstViolation(cut)
			fmt.Printf("R_%d: INCONSISTENT — %v happened before %v (the paper's Figure 3)\n", idx, a, b)
		}
	}
}
