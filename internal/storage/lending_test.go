package storage_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/corpus"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/vclock"
)

// lendingStores builds every Store the runtime can be handed: the three
// kinds, each also behind a Namespace, and the chaos wrapper (no faults, so
// every operation reaches the inner store).
func lendingStores(t *testing.T) map[string]storage.Store {
	t.Helper()
	newWAL := func() storage.Store {
		ws, err := wal.Open(t.TempDir(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ws.Close() })
		return ws
	}
	kinds := map[string]func() storage.Store{
		"memory":      func() storage.Store { return storage.NewMemory() },
		"incremental": func() storage.Store { return storage.NewIncremental(4) },
		"wal":         newWAL,
	}
	stores := map[string]storage.Store{
		"chaos": chaos.New(storage.NewMemory(), 1, chaos.Rates{}, nil),
	}
	for name, mk := range kinds {
		stores[name] = mk()
		ns, err := storage.NewNamespace(mk(), 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		stores["namespace/"+name] = ns
	}
	return stores
}

// lendSnap builds a fresh snapshot, every map and slice its own, so a test
// holds one copy to lend and one to compare against.
func lendSnap(instance int) storage.Snapshot {
	return storage.Snapshot{
		Proc: 1, CFGIndex: 2, Instance: instance,
		Clock:     vclock.VC{3, uint64(instance + 1), 0, 7},
		Vars:      map[string]int{"x": 10 + instance, "y": -4, "iter": instance},
		PC:        "17",
		N:         4,
		Peers:     storage.Row{{Peer: 0, Sent: instance + 1}, {Peer: 1, Recvd: instance + 1}, {Peer: 2, Sent: 2, Recvd: 1}, {Peer: 3, Sent: 1, Recvd: 1}},
		Instances: map[int]int{1: 5, 2: instance + 1},
		VTime:     0.5 * float64(instance),
	}
}

// scribble overwrites, removes and adds to every map and slice of s.
func scribble(s storage.Snapshot) {
	for i := range s.Clock {
		s.Clock[i] += 1000
	}
	for k := range s.Vars {
		s.Vars[k] = -999
	}
	delete(s.Vars, "y")
	s.Vars["intruder"] = 1
	for i := range s.Peers {
		s.Peers[i].Sent, s.Peers[i].Recvd = -1, -2
	}
	for k := range s.Instances {
		s.Instances[k] = -3
	}
	s.Instances[99] = 1
}

// Store.Save borrows its argument and reads return private copies: the
// runtime lends its live clock, counters and environment on every
// checkpoint and keeps mutating them, which is only sound if no store —
// and no wrapper on the way to one — holds on to what it was handed.
func TestSaveBorrowsAndReadsReturnCopies(t *testing.T) {
	for name, st := range lendingStores(t) {
		t.Run(name, func(t *testing.T) {
			// Two instances, so the incremental store holds a delta too.
			for inst := 0; inst < 2; inst++ {
				lent := lendSnap(inst)
				if err := st.Save(lent); err != nil {
					t.Fatal(err)
				}
				scribble(lent)
			}
			reads := map[string]func() []storage.Snapshot{
				"Get": func() []storage.Snapshot {
					s, err := st.Get(1, 2, 0)
					if err != nil {
						t.Fatal(err)
					}
					return []storage.Snapshot{s}
				},
				"Latest": func() []storage.Snapshot {
					s, err := st.Latest(1, 2)
					if err != nil {
						t.Fatal(err)
					}
					return []storage.Snapshot{s}
				},
				"List": func() []storage.Snapshot {
					all, err := st.List(1)
					if err != nil {
						t.Fatal(err)
					}
					return all
				},
			}
			want := map[string][]storage.Snapshot{
				"Get":    {lendSnap(0)},
				"Latest": {lendSnap(1)},
				"List":   {lendSnap(0), lendSnap(1)},
			}
			for op, read := range reads {
				got := read()
				if !reflect.DeepEqual(got, want[op]) {
					t.Fatalf("%s after the caller scribbled over what it saved:\n got %+v\nwant %+v", op, got, want[op])
				}
				for _, s := range got {
					scribble(s)
				}
				if again := read(); !reflect.DeepEqual(again, want[op]) {
					t.Errorf("%s after scribbling over the previous %s result:\n got %+v\nwant %+v", op, op, again, want[op])
				}
			}
		})
	}
}

// The same contract under the runtime itself: four processes checkpoint
// from lent state, one crashes, all restore, and the final state matches a
// failure-free run. Under -race this is what would catch a store reading a
// lent map after Save returned.
func TestLentStateSurvivesCrashAndRestore(t *testing.T) {
	prog := corpus.JacobiFig1(6)
	clean, err := sim.Run(sim.Config{Program: prog, Nproc: 4, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range lendingStores(t) {
		t.Run(name, func(t *testing.T) {
			res, err := sim.Run(sim.Config{
				Program: prog, Nproc: 4, Store: st, Timeout: 20 * time.Second,
				Failures: []sim.Failure{{Proc: 2, AfterEvents: 14}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Restarts != 1 {
				t.Errorf("restarts = %d, want 1", res.Restarts)
			}
			if !reflect.DeepEqual(res.FinalVars, clean.FinalVars) {
				t.Errorf("final state diverged:\n got %v\nwant %v", res.FinalVars, clean.FinalVars)
			}
		})
	}
}
