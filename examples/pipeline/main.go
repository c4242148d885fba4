// Pipeline models the long-running staged computation the paper's
// introduction motivates (grid / massively parallel applications): the
// lower half of the machine produces data each step, the upper half
// consumes it. The untransformed checkpoint placement straddles the
// producer-consumer messages; the transformation repairs it, and the run
// then survives a cascade of injected crashes with bit-identical results
// and zero coordination messages. The crashed run checkpoints to a durable
// write-ahead log, which is compacted down to its live records at the end.
package main

import (
	"fmt"
	"log"
	"os"
	"reflect"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/sim"
	"repro/internal/storage/wal"
)

func main() {
	const n = 6
	prog := corpus.PipelineStages(5)

	rep, err := core.Transform(prog, core.DefaultConfig)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transformation: %d violation(s) repaired with %d move(s)\n",
		len(rep.Phase3.InitialViolations), len(rep.Phase3.Moves))

	clean, err := sim.Run(sim.Config{Program: rep.Program, Nproc: n})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failure-free run:  %s\n", clean.Metrics)

	dir, err := os.MkdirTemp("", "pipeline-wal")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	// Segments of 1 KB, so that even this short run rotates its log.
	ws, err := wal.Open(dir, wal.Options{MaxSegmentBytes: 1 << 10})
	if err != nil {
		log.Fatal(err)
	}
	crashed, err := sim.Run(sim.Config{
		Program: rep.Program,
		Nproc:   n,
		Store:   ws,
		Failures: []sim.Failure{
			{Proc: 1, AfterEvents: 15},
			{Proc: 4, AfterEvents: 10},
			{Proc: 0, AfterEvents: 5},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with 3 crashes:    %s (restarts=%d)\n", crashed.Metrics, crashed.Restarts)
	// A long-lived log keeps what recovery can still use: compaction copies
	// the live records of its sealed segments into one new segment.
	if err := ws.Compact(); err != nil {
		log.Fatal(err)
	}
	st := ws.Stats()
	fmt.Printf("durable log: %d save(s) over %d rotation(s), %d compaction(s)\n", st.Saves, st.Rotations, st.Compactions)
	if err := ws.Close(); err != nil {
		log.Fatal(err)
	}

	if reflect.DeepEqual(clean.FinalVars, crashed.FinalVars) {
		fmt.Println("results identical across failure schedules ✓")
	} else {
		fmt.Println("RESULTS DIVERGED ✗")
	}
	if crashed.Metrics.CtrlMessages == 0 {
		fmt.Println("zero coordination messages, as promised ✓")
	}
	for p, vars := range clean.FinalVars {
		fmt.Printf("  rank %d: data=%d\n", p, vars["data"])
	}
}
