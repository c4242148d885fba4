package fleet

import (
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

// spy counts the calls that reach the bottom of a wrapper stack.
type spy struct {
	storage.Store
	keys, lists, scrubs atomic.Int32
}

func (s *spy) List(proc int) ([]storage.Snapshot, error) {
	s.lists.Add(1)
	return s.Store.List(proc)
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
// handle sim.Run gives recovery.
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
				}
				top := stack(watched)
				check(top, "as built")
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
