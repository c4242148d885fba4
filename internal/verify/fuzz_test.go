package verify

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mpl"
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

// FuzzTransformSource is the source-level theorem fuzz: parse the input,
// transform it — which must leave the parsed program printing as before —
// and compile it, explore its interleavings at n ∈ {2, 3, 4}
// and at the highest rank a guard names plus 2, and require every straight
// cut of every explored execution to be a recovery line. A refusal passes:
// the transform's error, or the gate's ErrUnprovedN past the checked
// range. So does input that is no program, and an exploration that ends in
// a deadlock, an evaluation error or its instruction budget. The seeds are
// the printed corpus and the witnesses a one-to-one matcher let through.
// Run with `go test -fuzz FuzzTransformSource`; the seed corpus runs under
// plain `go test`.
func FuzzTransformSource(f *testing.F) {
	for _, p := range corpus.All() {
		f.Add(mpl.Format(p))
	}
	srcs := witnesses(f)
	for _, name := range []string{"far", "gap", "gap2", "gap3"} {
		f.Add(srcs[name])
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		p, err := mpl.Parse(src)
		if err != nil {
			return
		}
		before := mpl.Format(p)
		rep, err := core.Transform(p, core.DefaultConfig)
		if after := mpl.Format(p); after != before {
			t.Fatalf("Transform changed its input, which its output shares statements with\nbefore:\n%s\nafter:\n%s", before, after)
		}
		if err != nil {
			return
		}
		code, err := sim.Compile(rep.Program)
		if err != nil {
			t.Fatalf("transformed program does not compile: %v", err)
		}
		ns := []int{2, 3, 4}
		if top := topGuardedRank(p) + 2; top > 4 && top <= 24 {
			ns = append(ns, top)
		}
		for _, n := range ns {
			if errors.Is(sim.CheckProof(rep.Program, n), sim.ErrUnprovedN) {
				continue
			}
			opts := ExploreOptions{Depth: 4, MaxSchedules: 16, Budget: 1 << 16}
			Explore(code, n, DefaultInput, opts, func(m *Machine) error {
				chk, err := CheckTrace(m.Trace())
				if err != nil {
					return err
				}
				for _, v := range chk.Violations {
					t.Errorf("n=%d schedule=%v: %s", n, m.Schedule(), v)
				}
				return nil
			})
		}
	})
}

// topGuardedRank returns the largest literal in a branch condition that
// reads rank (0 when there is none).
func topGuardedRank(p *mpl.Program) int {
	top := 0
	mpl.Walk(p.Body, func(s mpl.Stmt) bool {
		var cond mpl.Expr
		switch st := s.(type) {
		case *mpl.If:
			cond = st.Cond
		case *mpl.While:
			cond = st.Cond
		default:
			return true
		}
		rank, lit := false, 0
		mpl.WalkExpr(cond, func(e mpl.Expr) bool {
			switch x := e.(type) {
			case *mpl.Ident:
				rank = rank || x.Name == mpl.BuiltinRank
			case *mpl.IntLit:
				lit = max(lit, x.Value)
			}
			return true
		})
		if rank {
			top = max(top, lit)
		}
		return true
	})
	return top
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
