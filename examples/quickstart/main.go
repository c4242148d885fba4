// Quickstart: write a small SPMD program, run the offline transformation
// (the paper's three phases), execute it on the concurrent runtime with a
// crash injected, and watch it recover from a straight cut of checkpoints
// with zero runtime coordination.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mpl"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
)

const src = `
program quickstart

const STEPS = 4

var sum, tmp, i

proc {
    sum = rank
    i = 0
    while i < STEPS {
        # Even ranks checkpoint before talking, odd ones after - a
        # placement where straight cuts are NOT recovery lines.
        if rank % 2 == 0 {
            chkpt
            send(rank + 1, sum)
            recv(rank + 1, tmp)
        } else {
            recv(rank - 1, tmp)
            send(rank - 1, sum)
            chkpt
        }
        sum = sum + tmp
        i = i + 1
    }
}
`

func main() {
	prog, err := mpl.Parse(src)
	if err != nil {
		log.Fatal(err)
	}

	// Offline analysis: is the original placement safe?
	violations, err := core.Verify(prog, core.DefaultConfig)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original program: %d Condition-1 violation(s)\n", len(violations))

	// Phases I-III: repair the placement.
	rep, err := core.Transform(prog, core.DefaultConfig)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transformed with %d checkpoint move(s):\n\n%s\n",
		len(rep.Phase3.Moves), mpl.Format(rep.Program))

	// Execute on 4 processes with a crash after 20 events on rank 2.
	res, err := sim.Run(sim.Config{
		Program:  rep.Program,
		Nproc:    4,
		Failures: []sim.Failure{{Proc: 2, AfterEvents: 20}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run complete: restarts=%d, metrics: %s\n", res.Restarts, res.Metrics)
	for p, vars := range res.FinalVars {
		fmt.Printf("  rank %d: sum=%d\n", p, vars["sum"])
	}

	// Every straight cut in stable storage is a recovery line, decided from
	// the channel counters its latest i-th checkpoints saved.
	indexes, err := res.Store.Indexes(4)
	if err != nil {
		log.Fatal(err)
	}
	for _, idx := range indexes {
		cut := make([]storage.Snapshot, 4)
		for p := range cut {
			if cut[p], err = res.Store.Latest(p, idx); err != nil {
				log.Fatal(err)
			}
		}
		_, _, ok := recovery.Consistent(cut)
		fmt.Printf("straight cut R_%d is a recovery line: %v\n", idx, ok)
	}
}
