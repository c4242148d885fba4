package verify

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// FuzzStraightCutTheorem is the end-to-end theorem fuzz: generate a random
// program from the fuzzed sub-seed, transform it with the full three-phase
// pipeline, explore the message-delivery interleavings at the fuzzed
// process count, and require every straight cut of every explored
// execution to be a recovery line (Theorem 3.2). Programs the pipeline
// rejects (outside Phase III's repair set) are skipped — the harness
// regenerates those; the fuzzer's job is the theorem, not the repair set.
// Run with `go test -fuzz FuzzStraightCutTheorem`; the seed corpus runs
// under plain `go test`.
func FuzzStraightCutTheorem(f *testing.F) {
	f.Add(int64(1), 2, 3)
	f.Add(int64(7), 3, 4)
	f.Add(int64(-6168010883773021199), 2, 8) // once escaped a self-pair analyzer bug
	f.Add(subSeedStride, 3, 2)
	f.Add(int64(0), 4, 5)
	f.Fuzz(func(t *testing.T, seed int64, nproc, depth int) {
		// Fold arbitrary fuzzed ints into the bounded ranges the explorer
		// can afford; mod-then-abs avoids the abs(MinInt) overflow.
		if nproc < 1 || nproc > 4 {
			nproc = 1 + abs(nproc%4)
		}
		if depth < 0 || depth > 6 {
			depth = abs(depth % 7)
		}
		rep, err := core.Transform(Generate(seed), core.DefaultConfig)
		if err != nil {
			t.Skip("outside the transformable set")
		}
		code, err := sim.Compile(rep.Program)
		if err != nil {
			t.Fatalf("transformed program does not compile: %v", err)
		}
		opts := ExploreOptions{Depth: depth, MaxSchedules: 24}
		_, err = Explore(code, nproc, DefaultInput, opts, func(m *Machine) error {
			chk, err := CheckTrace(m.Trace())
			if err != nil {
				return err
			}
			for _, v := range chk.Violations {
				t.Errorf("seed=%d nproc=%d schedule=%v: %s", seed, nproc, m.Schedule(), v)
			}
			if len(chk.Missing) > 0 {
				t.Errorf("seed=%d nproc=%d schedule=%v: straight cuts %v undefined",
					seed, nproc, m.Schedule(), chk.Missing)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed=%d nproc=%d: %v", seed, nproc, err)
		}
	})
}

// FuzzLivenessPrune is the end-to-end pruning-soundness fuzz: generate and
// transform a random program, explore its interleavings with restore
// logging, and require every straight cut of every explored execution to
// restore to the original FinalVars both from the full snapshots and from
// snapshots pruned to the per-site liveness manifests (dead variables reset
// to initial values). A divergence means the backward liveness analysis
// dropped a variable recovery still needed. Run with `go test -fuzz
// FuzzLivenessPrune`; the seed corpus runs under plain `go test`.
func FuzzLivenessPrune(f *testing.F) {
	f.Add(int64(1), 2, 3)
	f.Add(int64(3419378616714001440), 3, 4) // recv-overwritten tmp: no-op path matters
	f.Add(int64(-935306948222843914), 2, 5) // reduce inside rank-parity branches
	f.Add(int64(99), 3, 2)
	f.Add(int64(-1), 4, 4)
	f.Fuzz(func(t *testing.T, seed int64, nproc, depth int) {
		if nproc < 1 || nproc > 4 {
			nproc = 1 + abs(nproc%4)
		}
		if depth < 0 || depth > 6 {
			depth = abs(depth % 7)
		}
		rep, err := core.Transform(Generate(seed), core.DefaultConfig)
		if err != nil {
			t.Skip("outside the transformable set")
		}
		code, err := sim.Compile(rep.Program)
		if err != nil {
			t.Fatalf("transformed program does not compile: %v", err)
		}
		opts := ExploreOptions{Depth: depth, MaxSchedules: 16, LogRestore: true}
		_, err = Explore(code, nproc, DefaultInput, opts, func(m *Machine) error {
			divs, _, err := m.checkRestores(nil, modeBoth)
			if err != nil {
				return err
			}
			for _, d := range divs {
				t.Errorf("seed=%d nproc=%d schedule=%v: %s", seed, nproc, m.Schedule(), d)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed=%d nproc=%d: %v", seed, nproc, err)
		}
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
