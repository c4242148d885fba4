package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mpl"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Example_transform runs the full offline pipeline on the paper's Figure 2
// program shape and shows that the transformed placement is safe.
func Example_transform() {
	src := `
program example
const N = 2
var x, y, i
proc {
    i = 0
    while i < N {
        if rank % 2 == 0 {
            chkpt
            send(rank + 1, x)
            recv(rank + 1, y)
        } else {
            recv(rank - 1, y)
            send(rank - 1, x)
            chkpt
        }
        i = i + 1
    }
}
`
	prog, err := mpl.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	before, err := core.Transform(prog, core.DefaultConfig)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("violations found: %d\n", len(before.Phase3.InitialViolations))
	fmt.Printf("moves applied:    %d\n", len(before.Phase3.Moves))

	after, err := core.Verify(before.Program, core.DefaultConfig)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("violations left:  %d\n", len(after))
	// Output:
	// violations found: 1
	// moves applied:    1
	// violations left:  0
}

// Example_runtime executes a transformed program and checks the straight
// cut on the recorded trace.
func Example_runtime() {
	src := `
program example
var x
proc {
    x = rank
    chkpt
    if rank == 0 {
        send(1, x)
    }
    if rank == 1 {
        recv(0, x)
    }
}
`
	prog, err := mpl.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := core.Transform(prog, core.DefaultConfig)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(sim.Config{Program: rep.Program, Nproc: 2})
	if err != nil {
		log.Fatal(err)
	}
	cut, err := res.Trace.StraightCut(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recovery line:", trace.IsRecoveryLine(cut))
	fmt.Println("rank 1 x:", res.FinalVars[1]["x"])
	// Output:
	// recovery line: true
	// rank 1 x: 0
}

// Example_builder constructs a program with the fluent API instead of
// parsing source.
func Example_builder() {
	prog := mpl.NewBuilder("ring").
		Vars("tok").
		Chkpt().
		Send(mpl.Mod(mpl.Add(mpl.Rank(), mpl.Int(1)), mpl.Nproc()), "tok").
		Recv(mpl.Mod(mpl.Sub(mpl.Rank(), mpl.Int(1)), mpl.Nproc()), "tok").
		MustProgram()
	violations, err := core.Verify(prog, core.DefaultConfig)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("safe as written:", len(violations) == 0)
	// Output:
	// safe as written: true
}
