package storage_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mpl"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/storage/wal"
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
	runOnStore(t, corpus.JacobiFig1(iters), iters, st, choose)
}

// runOnStore is jacobiOnStore for either figure's Jacobi.
func runOnStore(t *testing.T, prog *mpl.Program, iters int, st storage.Store, choose sim.RecoveryFunc) {
	t.Helper()
	const n = 4
	rep, err := core.Transform(prog, core.DefaultConfig)
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

// A store is bounded by its program (ROADMAP item 18's claim, in bytes over
// a 10× longer run): a Jacobi job of 640 iterations with a crash ends holding
// as many checkpoints per process as one of 64, and the bytes its index
// refers to — all a compaction of the WAL, or a packing of every Memory
// page, keeps — within 1.2×. A store that kept everything would hold ten
// times all of them. (Memory's pages are too coarse a measure: the eight
// bodies a Jacobi job keeps fit on one, and whether a run is caught with its
// newest bodies on a second depends on how its processes interleave. A
// Memory that stopped reusing pages fails TestMemoryPacksAStraggler and
// TestMemoryJacobiSavesAllocs.)
func TestStoreBoundedByProgram(t *testing.T) {
	for _, kind := range []string{"mem", "wal"} {
		t.Run(kind, func(t *testing.T) {
			keys, size := map[int][]int{}, map[int]int64{}
			for _, iters := range []int{64, 640} {
				var st storage.Store
				dir := t.TempDir()
				if kind == "mem" {
					st = storage.NewMemory()
				} else {
					ws, err := wal.Open(dir, wal.Options{MaxSegmentBytes: 16 << 10})
					if err != nil {
						t.Fatal(err)
					}
					defer ws.Close()
					st = ws
				}
				jacobiOnStore(t, iters, st, nil)
				for p := 0; p < 4; p++ {
					ks, err := storage.Keys(st, p)
					if err != nil {
						t.Fatal(err)
					}
					keys[iters] = append(keys[iters], len(ks))
				}
				if mem, ok := st.(*storage.Memory); ok {
					size[iters] = int64(storage.MemoryKeptBytes(mem))
				} else if size[iters] = compactedBytes(t, st.(*wal.Store), dir); size[iters] == 0 {
					t.Fatal("a compacted log of a run holds no bytes")
				}
			}
			t.Logf("keys per process %v and %v, bytes %d and %d", keys[64], keys[640], size[64], size[640])
			if !reflect.DeepEqual(keys[64], keys[640]) {
				t.Errorf("keys per process: %v at 64 iterations, %v at 640", keys[64], keys[640])
			}
			if 5*size[640] > 6*size[64] {
				t.Errorf("bytes: %d at 64 iterations, %d at 640; want within 1.2x", size[64], size[640])
			}
		})
	}
}

// bodyBytes counts what a store is handed to save, as the body the codec
// writes for it.
type bodyBytes struct {
	*storage.Memory
	saves, bytes atomic.Int64
}

func (b *bodyBytes) Save(s storage.Snapshot) error {
	b.saves.Add(1)
	b.bytes.Add(int64(len(storage.AppendSnapshot(nil, s))))
	return b.Memory.Save(s)
}

// A checkpoint body carries what a restart reads and no more: the liveness
// manifest a pruned save keeps to is the compiler's, not the body's. The
// transformed Figure 2 Jacobi of 20 iterations on four processes writes 80
// bodies; with the manifest in each, they took 3,668 bytes.
func TestJacobiBodiesCarryNoManifest(t *testing.T) {
	rep, err := core.Transform(corpus.JacobiFig2(20), core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	code, err := sim.Compile(rep.Program)
	if err != nil {
		t.Fatal(err)
	}
	st := &bodyBytes{Memory: storage.NewMemory()}
	if _, err := sim.Run(sim.Config{Code: code, Nproc: 4, Store: st, DisableTrace: true, Timeout: 30 * time.Second}); err != nil {
		t.Fatal(err)
	}
	saves, bytes := st.saves.Load(), st.bytes.Load()
	t.Logf("%d saves, %d body bytes", saves, bytes)
	if saves != 80 || bytes > 2948 {
		t.Errorf("%d saves wrote %d body bytes; want 80 saves of at most 2,948", saves, bytes)
	}
}

// compactedBytes compacts ws and returns the bytes of its segments in dir:
// once compacted, exactly the records its index refers to.
func compactedBytes(t *testing.T, ws *wal.Store, dir string) int64 {
	t.Helper()
	if err := ws.Compact(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// A reopened log holds exactly the keys it held: replay retires by the rule
// each save did, its n read from the save's body. A Figure 2 Jacobi run with
// a crash saves, rolls back and retires on a log of small segments; after it
// the log is closed and opened again, its saves replayed in their order, or
// after compactions — during the run, or one at the end — one instant's
// index in key order and what was saved since in order.
func TestWALReplayRetainsWhatTheStoreHeld(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    wal.Options
		compact bool
	}{
		{"saves in order", wal.Options{MaxSegmentBytes: 4 << 10, NoAutoCompact: true}, false},
		{"compacted as it rotates", wal.Options{MaxSegmentBytes: 4 << 10, CompactMinDeadBytes: 1}, false},
		{"compacted at the end", wal.Options{MaxSegmentBytes: 4 << 10, NoAutoCompact: true}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ws, err := wal.Open(dir, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			const iters = 64
			runOnStore(t, corpus.JacobiFig2(iters), iters, ws, nil)
			if tc.compact {
				if err := ws.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			st := ws.Stats()
			if st.Rotations == 0 || (tc.name != "saves in order") != (st.Compactions > 0) {
				t.Fatalf("%d rotations, %d compactions", st.Rotations, st.Compactions)
			}
			before := make([][]storage.Key, 4)
			for p := range before {
				if before[p], err = ws.Keys(p); err != nil {
					t.Fatal(err)
				}
				if len(before[p]) >= iters {
					t.Fatalf("process %d holds %d keys after %d iterations: nothing retired", p, len(before[p]), iters)
				}
			}
			ws.Close()
			ws, err = wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer ws.Close()
			for p, want := range before {
				if got, err := ws.Keys(p); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("process %d: reopened with %v, %v; held %v", p, got, err, want)
				}
			}
		})
	}
}
