package storage_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/verify"
)

// jacobiOnStore runs the transformed Figure 1 Jacobi of iters iterations on
// four processes over st, process 2 crashing a third of the way in, and
// requires one restart and the final state verify.Machine computes. Every
// rank exchanges with both neighbours, so no process runs more than a few
// iterations ahead of the crashed one before the run stops (in Figure 2's
// pairs the other pair runs on unchecked, and what it saves above F_i is
// kept).
func jacobiOnStore(t *testing.T, iters int, st storage.Store, choose sim.RecoveryFunc) {
	t.Helper()
	const n = 4
	rep, err := core.Transform(corpus.JacobiFig1(iters), core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	code, err := sim.Compile(rep.Program)
	if err != nil {
		t.Fatal(err)
	}
	m, err := verify.RunSchedule(code, n, verify.DefaultInput, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Code: code, Nproc: n, Store: st, Input: verify.DefaultInput, Recover: choose,
		Failures:     []sim.Failure{{Proc: 2, AfterEvents: 5 * iters / 2}},
		DisableTrace: true, Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 || !reflect.DeepEqual(res.FinalVars, m.FinalVars()) {
		t.Fatalf("%d iterations: %d restarts; final state equals verify.Machine's: %v",
			iters, res.Restarts, reflect.DeepEqual(res.FinalVars, m.FinalVars()))
	}
}

// rotting fails every read of a key in bad with ErrCorrupt, as a checksum
// catches a damaged body.
type rotting struct {
	storage.Store
	bad map[storage.Key]bool
}

func (r *rotting) Get(proc, index, instance int) (storage.Snapshot, error) {
	if k := (storage.Key{Proc: proc, CFGIndex: index, Instance: instance}); r.bad[k] {
		return storage.Snapshot{}, fmt.Errorf("%w: %s", storage.ErrCorrupt, k)
	}
	return r.Store.Get(proc, index, instance)
}

func (r *rotting) Latest(proc, index int) (storage.Snapshot, error) {
	s, err := r.Store.Latest(proc, index)
	if err == nil && r.bad[s.Key()] {
		return storage.Snapshot{}, fmt.Errorf("%w: %s", storage.ErrCorrupt, s.Key())
	}
	return s, err
}

// The second retained cut is what the degradation ladder stands on. At the
// crash of a Jacobi run on Memory, process 0's member of the newest complete
// cut of every index is damaged. Keeping retainCuts = 2 cuts, recovery
// degrades to the cut below it; keeping one (d = 1, through the unexported
// path) nothing is left below and the run restarts from scratch. Either way
// it ends where verify.Machine does. Keeping one cut more or one less than
// F_i − D + 1 says fails one of the two.
func TestRetentionLadder(t *testing.T) {
	for _, d := range []int{storage.RetainCuts, 1} {
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			mem := storage.NewMemory()
			var inner storage.Store = mem
			if d != storage.RetainCuts {
				inner = storage.MemoryRetaining{Memory: mem, D: d}
			}
			st := &rotting{Store: inner}
			var line *recovery.Line
			newest := map[int]int{} // index -> F_i at the crash
			jacobiOnStore(t, 64, st, func(rst storage.Store, n int) (*recovery.Line, error) {
				indexes, err := mem.Indexes(n)
				if err != nil {
					return nil, err
				}
				st.bad = map[storage.Key]bool{}
				for _, idx := range indexes {
					for p := 0; p < n; p++ {
						s, err := mem.Latest(p, idx)
						if err != nil {
							return nil, err
						}
						if f, ok := newest[idx]; !ok || s.Instance < f {
							newest[idx] = s.Instance
						}
					}
					st.bad[storage.Key{Proc: 0, CFGIndex: idx, Instance: newest[idx]}] = true
				}
				line, err = recovery.StraightCut(rst, n)
				st.bad = nil // the discard takes the damaged keys; replay saves them anew
				return line, err
			})
			if len(newest) == 0 {
				t.Fatal("no complete cut at the crash")
			}
			if d == 1 {
				if line != nil {
					t.Fatalf("keeping one cut, recovery found a line at %s; want a restart from scratch", line.Snapshots[0].Key())
				}
				return
			}
			if line == nil || line.Degraded == 0 {
				t.Fatalf("keeping %d cuts, line %+v; want a degraded one", d, line)
			}
			for _, s := range line.Snapshots {
				if want := newest[s.CFGIndex] - 1; s.Instance != want {
					t.Errorf("member %s, want instance %d: the cut below the newest", s.Key(), want)
				}
			}
		})
	}
}

// A memory store is bounded by its program (ROADMAP item 18's claim, in
// bytes over a 10× longer run): a Jacobi job of 640 iterations with a crash
// ends holding as many checkpoints per process as one of 64, and pages
// within 1.2× — a store that kept everything would hold ten times both.
func TestMemoryBoundedByProgram(t *testing.T) {
	keys, pages := map[int][]int{}, map[int]int{}
	for _, iters := range []int{64, 640} {
		mem := storage.NewMemory()
		jacobiOnStore(t, iters, mem, nil)
		for p := 0; p < 4; p++ {
			ks, err := mem.Keys(p)
			if err != nil {
				t.Fatal(err)
			}
			keys[iters] = append(keys[iters], len(ks))
		}
		pages[iters] = storage.MemoryPages(mem)
	}
	t.Logf("keys per process %v and %v, pages %d and %d", keys[64], keys[640], pages[64], pages[640])
	if !reflect.DeepEqual(keys[64], keys[640]) {
		t.Errorf("keys per process: %v at 64 iterations, %v at 640", keys[64], keys[640])
	}
	if 5*pages[640] > 6*pages[64] {
		t.Errorf("pages: %d at 64 iterations, %d at 640; want within 1.2x", pages[64], pages[640])
	}
}
