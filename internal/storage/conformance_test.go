package storage_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/vclock"
)

// sampleSnap is the suite's fixture. The suite lives outside package
// storage so that it can open the WAL, which imports storage.
func sampleSnap(proc, index, instance int) storage.Snapshot {
	return storage.Snapshot{
		Proc:      proc,
		CFGIndex:  index,
		Instance:  instance,
		Clock:     vclock.VC{1, 2, 3},
		Vars:      map[string]int{"x": 42, "iter": instance},
		PC:        "stmt-7",
		N:         3,
		Peers:     storage.Row{{Peer: 0, Recvd: 3}, {Peer: 1, Sent: 1, Recvd: 4}, {Peer: 2, Sent: 2, Recvd: 5}},
		Instances: storage.Counts{{Index: index, N: instance}, {Index: 9, N: 1}}, // every index the tests save is below 9
	}
}

// storeUnderTest runs the same conformance suite against every Store
// implementation.
func storeUnderTest(t *testing.T, name string, mk func(t *testing.T) storage.Store) {
	t.Run(name+"/SaveGetRoundTrip", func(t *testing.T) {
		st := mk(t)
		want := sampleSnap(1, 2, 0)
		if err := st.Save(want); err != nil {
			t.Fatal(err)
		}
		got, err := st.Get(1, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run(name+"/DuplicateRejected", func(t *testing.T) {
		st := mk(t)
		s := sampleSnap(0, 1, 0)
		if err := st.Save(s); err != nil {
			t.Fatal(err)
		}
		if err := st.Save(s); !errors.Is(err, storage.ErrDuplicate) {
			t.Errorf("second save err = %v, want ErrDuplicate", err)
		}
	})

	t.Run(name+"/GetMissing", func(t *testing.T) {
		st := mk(t)
		if _, err := st.Get(9, 9, 9); !errors.Is(err, storage.ErrNotFound) {
			t.Errorf("err = %v, want ErrNotFound", err)
		}
	})

	t.Run(name+"/LatestPicksHighestInstance", func(t *testing.T) {
		st := mk(t)
		for inst := 0; inst < 4; inst++ {
			if err := st.Save(sampleSnap(2, 1, inst)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := st.Latest(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Instance != 3 {
			t.Errorf("Latest instance = %d, want 3", got.Instance)
		}
	})

	t.Run(name+"/LatestMissing", func(t *testing.T) {
		st := mk(t)
		if _, err := st.Latest(0, 0); !errors.Is(err, storage.ErrNotFound) {
			t.Errorf("err = %v, want ErrNotFound", err)
		}
	})

	t.Run(name+"/ListSorted", func(t *testing.T) {
		st := mk(t)
		order := [][2]int{{2, 0}, {1, 1}, {1, 0}, {3, 0}}
		for _, o := range order {
			if err := st.Save(sampleSnap(0, o[0], o[1])); err != nil {
				t.Fatal(err)
			}
		}
		// Another process's snapshots must not leak in.
		if err := st.Save(sampleSnap(1, 1, 0)); err != nil {
			t.Fatal(err)
		}
		got, err := st.List(0)
		if err != nil {
			t.Fatal(err)
		}
		var keys [][2]int
		for _, s := range got {
			keys = append(keys, [2]int{s.CFGIndex, s.Instance})
		}
		want := [][2]int{{1, 0}, {1, 1}, {2, 0}, {3, 0}}
		if !reflect.DeepEqual(keys, want) {
			t.Errorf("List order = %v, want %v", keys, want)
		}
	})

	t.Run(name+"/IndexesRequiresAllProcs", func(t *testing.T) {
		st := mk(t)
		// Index 1 on both procs, index 2 only on proc 0.
		for _, pi := range [][2]int{{0, 1}, {1, 1}, {0, 2}} {
			if err := st.Save(sampleSnap(pi[0], pi[1], 0)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := st.Indexes(2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, []int{1}) {
			t.Errorf("Indexes = %v, want [1]", got)
		}
	})

	t.Run(name+"/Delete", func(t *testing.T) {
		st := mk(t)
		if err := st.Save(sampleSnap(0, 1, 0)); err != nil {
			t.Fatal(err)
		}
		if err := st.Delete(0, 1, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Get(0, 1, 0); !errors.Is(err, storage.ErrNotFound) {
			t.Errorf("deleted snapshot still present: %v", err)
		}
		if err := st.Delete(0, 1, 0); !errors.Is(err, storage.ErrNotFound) {
			t.Errorf("double delete err = %v, want ErrNotFound", err)
		}
		// Save after delete must succeed (rollback re-execution).
		if err := st.Save(sampleSnap(0, 1, 0)); err != nil {
			t.Errorf("re-save after delete: %v", err)
		}
	})

	t.Run(name+"/NoAliasing", func(t *testing.T) {
		st := mk(t)
		s := sampleSnap(0, 1, 0)
		if err := st.Save(s); err != nil {
			t.Fatal(err)
		}
		s.Vars["x"] = 999 // mutate caller copy after save
		s.Clock[0] = 999
		got, err := st.Get(0, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Vars["x"] != 42 || got.Clock[0] != 1 {
			t.Errorf("store aliased caller memory: %+v", got)
		}
		got.Vars["x"] = 777 // mutate returned copy
		again, _ := st.Get(0, 1, 0)
		if again.Vars["x"] != 42 {
			t.Error("store returned aliased snapshot")
		}
	})
}

func TestMemoryStore(t *testing.T) {
	storeUnderTest(t, "memory", func(t *testing.T) storage.Store { return storage.NewMemory() })
}

func TestIncrementalStoreConformance(t *testing.T) {
	storeUnderTest(t, "incremental", func(t *testing.T) storage.Store { return storage.NewIncremental(3) })
	storeUnderTest(t, "incremental-every1", func(t *testing.T) storage.Store { return storage.NewIncremental(1) })
}

func TestWALStoreConformance(t *testing.T) {
	storeUnderTest(t, "wal", func(t *testing.T) storage.Store {
		ws, err := wal.Open(t.TempDir(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ws.Close() })
		return ws
	})
}

// Indexes reads each process's Keys once and allocates one result: on every
// store kind procs + 1 objects, whether the store holds 1k keys or 10k.
func TestIndexesAllocs(t *testing.T) {
	const procs, indexes = 4, 5
	kinds := []struct {
		name string
		mk   func(t *testing.T) storage.Store
	}{
		{"memory", func(*testing.T) storage.Store { return storage.NewMemory() }},
		{"incremental", func(*testing.T) storage.Store { return storage.NewIncremental(8) }},
		{"wal", func(t *testing.T) storage.Store {
			ws, err := wal.Open(t.TempDir(), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ws.Close() })
			return ws
		}},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			var allocs []float64
			for _, keys := range []int{1_000, 10_000} {
				st := kind.mk(t)
				// One saver per (process, index), as a run saves: the WAL's
				// group commit carries the set-up. No N, or the
				// memory store would retire all but the newest cuts.
				var wg sync.WaitGroup
				for p := 0; p < procs; p++ {
					for idx := 1; idx <= indexes; idx++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for inst := 0; inst < keys/(procs*indexes); inst++ {
								s := sampleSnap(p, idx, inst)
								s.N, s.Peers = 0, nil
								if err := st.Save(s); err != nil {
									t.Error(err)
									return
								}
							}
						}()
					}
				}
				wg.Wait()
				allocs = append(allocs, testing.AllocsPerRun(20, func() {
					if idx, err := st.Indexes(procs); err != nil || len(idx) != indexes {
						t.Fatalf("Indexes(%d) = %v, %v", procs, idx, err)
					}
				}))
			}
			t.Logf("Indexes allocates %v objects at 1k and 10k keys", allocs)
			if allocs[0] != allocs[1] || allocs[1] > procs+1 {
				t.Errorf("Indexes allocates %v objects at 1k and 10k keys, want the same and at most %d", allocs, procs+1)
			}
		})
	}
}
