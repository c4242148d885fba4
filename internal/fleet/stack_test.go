package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/corpus"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/storage/wal"
)

// spy counts the calls that reach the bottom of a wrapper stack, and fails
// every Get of the (index, instance) in bad as a quarantined key would. Its
// List is every store's: Get of each key, through the spy.
type spy struct {
	storage.Store
	keys, lists, scrubs atomic.Int32
	bad                 atomic.Pointer[[2]int]
}

func (s *spy) List(proc int) ([]storage.Snapshot, error) {
	s.lists.Add(1)
	return storage.List(keySpy{s}, proc)
}

func (s *spy) Get(proc, cfgIndex, instance int) (storage.Snapshot, error) {
	if b := s.bad.Load(); b != nil && *b == [2]int{cfgIndex, instance} {
		return storage.Snapshot{}, fmt.Errorf("%w: spy: proc=%d index=%d instance=%d",
			storage.ErrCorrupt, proc, cfgIndex, instance)
	}
	return s.Store.Get(proc, cfgIndex, instance)
}

// keySpy is a spy over a KeyLister; scrubSpy over a store that is a
// Scrubber too. The spy implements exactly what the store under it does.
type keySpy struct{ *spy }

func (s keySpy) Keys(proc int) ([]storage.Key, error) {
	s.keys.Add(1)
	return s.Store.(storage.KeyLister).Keys(proc)
}

type scrubSpy struct{ keySpy }

func (s scrubSpy) Scrub() (storage.ScrubReport, error) {
	s.scrubs.Add(1)
	return s.Store.(storage.Scrubber).Scrub()
}

// Every optional interface the store at the bottom of a stack implements
// must be reachable from the top, or the runtime silently takes the slow or
// the no-op path: Keys degrading to List (which decodes every body and
// fails on a quarantined one), Scrub to nothing. One row per legal stack,
// each checked as built and under the runtime's retry layer, which is the
// handle sim.Run gives recovery. At every top List is Get of each key in
// SortKeys order, and one key that fails to load fails the whole listing.
func TestOptionalInterfacesVisibleThroughEveryStack(t *testing.T) {
	const n = 3
	kinds := map[string]func(t *testing.T) storage.Store{
		"memory":      func(*testing.T) storage.Store { return storage.NewMemory() },
		"incremental": func(*testing.T) storage.Store { return storage.NewIncremental(4) },
		"wal": func(t *testing.T) storage.Store {
			ws, err := wal.Open(t.TempDir(), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ws.Close() })
			return ws
		},
	}
	namespace := func(st storage.Store) storage.Store {
		ns, err := storage.NewNamespace(st, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		return ns
	}
	noFaults := func(st storage.Store) storage.Store { return chaos.New(st, 1, chaos.Rates{}, nil) }
	stacks := map[string]func(storage.Store) storage.Store{
		"bare":      func(st storage.Store) storage.Store { return st },
		"breaker":   func(st storage.Store) storage.Store { return NewBreaker(st, BreakerConfig{}) },
		"namespace": namespace,
		"chaos":     noFaults,
		// Engine.runJob's order, the retry layer on top of it.
		"fleet": func(st storage.Store) storage.Store {
			return namespace(NewBreaker(noFaults(st), BreakerConfig{}))
		},
	}
	for kind, open := range kinds {
		for name, stack := range stacks {
			t.Run(kind+"/"+name, func(t *testing.T) {
				bottom := open(t)
				sp := &spy{Store: bottom}
				var watched storage.Store = keySpy{sp}
				_, scrubs := bottom.(storage.Scrubber)
				if scrubs {
					watched = scrubSpy{keySpy{sp}}
				}
				check := func(top storage.Store, where string) {
					keys, lists, scrubbed := sp.keys.Load(), sp.lists.Load(), sp.scrubs.Load()
					if _, err := storage.Keys(top, 0); err != nil {
						t.Fatal(err)
					}
					if sp.keys.Load() == keys || sp.lists.Load() != lists {
						t.Errorf("%s: Keys at the top reached the store as %d Keys and %d List calls",
							where, sp.keys.Load()-keys, sp.lists.Load()-lists)
					}
					if _, err := storage.Scrub(top); err != nil {
						t.Fatal(err)
					}
					if scrubs && sp.scrubs.Load() == scrubbed {
						t.Errorf("%s: Scrub at the top never reached the store", where)
					}
					held, err := storage.Keys(top, 0)
					if err != nil || len(held) == 0 {
						t.Fatalf("%s: %d keys of process 0, err %v", where, len(held), err)
					}
					storage.SortKeys(held)
					want := make([]storage.Snapshot, len(held))
					for i, k := range held {
						if want[i], err = top.Get(0, k.CFGIndex, k.Instance); err != nil {
							t.Fatal(err)
						}
					}
					if got, err := top.List(0); err != nil || !reflect.DeepEqual(got, want) {
						t.Errorf("%s: List = %v, %v; want Get of each of %v", where, got, err, held)
					}
					sp.bad.Store(&[2]int{held[0].CFGIndex, held[0].Instance})
					if _, err := top.List(0); !errors.Is(err, storage.ErrCorrupt) {
						t.Errorf("%s: List with %s unreadable: err %v, want ErrCorrupt", where, held[0], err)
					}
					sp.bad.Store(nil)
				}
				top := stack(watched)
				// Checkpoints of an index the program has none of, so that
				// the store holds something to list as built; gone before
				// the run.
				for inst := range 2 {
					if err := top.Save(storage.Snapshot{Proc: 0, CFGIndex: 99, Instance: inst}); err != nil {
						t.Fatal(err)
					}
				}
				check(top, "as built")
				for inst := range 2 {
					if err := top.Delete(0, 99, inst); err != nil {
						t.Fatal(err)
					}
				}
				retried := false
				_, err := sim.Run(sim.Config{
					Program: corpus.JacobiFig1(4), Nproc: n, DisableTrace: true, Timeout: 10 * time.Second,
					Store:   top,
					Crashes: []sim.Crash{{Inc: 0, Proc: 1, AfterEvents: 14}},
					Recover: func(st storage.Store, n int) (*recovery.Line, error) {
						retried = true
						check(st, "under retry")
						return recovery.StraightCut(st, n)
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if !retried {
					t.Fatal("the run never rolled back")
				}
			})
		}
	}
}
