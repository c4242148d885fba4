package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/corpus"
	"repro/internal/metrics"
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

// faulty is the store at the bottom of a stack: it counts the calls each
// method receives, and fails the next left calls of method op (every one
// while left < 0) with err, of process proc only when proc >= 0.
type faulty struct {
	storage.Store
	mu    sync.Mutex
	calls map[string]int
	op    string
	proc  int
	left  int
	err   error
}

func (f *faulty) hit(op string, proc int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls[op]++
	if op != f.op || f.left == 0 || (f.proc >= 0 && proc != f.proc) {
		return nil
	}
	f.left--
	return fmt.Errorf("%w: injected %s fault", f.err, op)
}

func (f *faulty) fail(op string, err error, proc, left int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.op, f.err, f.proc, f.left = op, err, proc, left
	clear(f.calls)
}

func (f *faulty) count(op string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[op]
}

func (f *faulty) Save(s storage.Snapshot) error {
	if err := f.hit("save", s.Proc); err != nil {
		return err
	}
	return f.Store.Save(s)
}

func (f *faulty) Get(proc, cfgIndex, instance int) (storage.Snapshot, error) {
	if err := f.hit("get", proc); err != nil {
		return storage.Snapshot{}, err
	}
	return f.Store.Get(proc, cfgIndex, instance)
}

func (f *faulty) Keys(proc int) ([]storage.Key, error) {
	if err := f.hit("keys", proc); err != nil {
		return nil, err
	}
	return storage.Keys(f.Store, proc)
}

func (f *faulty) Delete(proc, cfgIndex, instance int) error {
	if err := f.hit("delete", proc); err != nil {
		return err
	}
	return f.Store.Delete(proc, cfgIndex, instance)
}

func (f *faulty) Scrub() (storage.ScrubReport, error) {
	if err := f.hit("scrub", -1); err != nil {
		return storage.ScrubReport{}, err
	}
	return storage.Scrub(f.Store)
}

// stackedJob runs a crashing 3-process job on Engine.runJob's stack — the
// runtime's retry layer over Namespace over Breaker over chaos (no faults)
// over bottom — and returns the retry layer's handle, which sim.Run gives
// recovery, once the job has finished in the state of a failure-free run.
func stackedJob(t *testing.T, bottom *faulty, now func() time.Time) (top storage.Store, m metrics.Snapshot) {
	t.Helper()
	ns, err := storage.NewNamespace(NewBreaker(chaos.New(bottom, 1, chaos.Rates{}, nil), BreakerConfig{Now: now}), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Program: corpus.JacobiFig1(4), Nproc: 3, DisableTrace: true, Timeout: 20 * time.Second}
	clean, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = ns
	cfg.Crashes = []sim.Crash{{Inc: 0, Proc: 1, AfterEvents: 14}}
	cfg.Recover = func(st storage.Store, n int) (*recovery.Line, error) {
		top = st
		return recovery.StraightCut(st, n)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if top == nil || !reflect.DeepEqual(res.FinalVars, clean.FinalVars) {
		t.Fatalf("rolled back %v; final %v, want %v", top != nil, res.FinalVars, clean.FinalVars)
	}
	return top, res.Metrics
}

// What comes out of the top of the fleet's stack when the store at its
// bottom fails, for each method recovery and the runtime call and each error
// class, and how often the bottom was called (ROADMAP 9(a)). A transient
// fault is retried: the breaker sees breakerTrip in a row, opens, and sheds
// the retry layer's last attempt, so the top reports a transient breaker
// shed, and while open the next call reaches nothing. A corrupt snapshot
// passes through unretried, and a failed fsync is never retried. A save that
// exhausts its retries crashes its process into an ordinary rollback.
func TestStackErrorClasses(t *testing.T) {
	frozen := func() time.Time { return time.Unix(0, 0) } // an open breaker stays open
	for _, op := range []string{"save", "get", "keys", "delete", "scrub"} {
		for name, class := range map[string]error{"transient": storage.ErrTransient, "corrupt": storage.ErrCorrupt, "fsync": storage.ErrFsync} {
			t.Run(op+"/"+name, func(t *testing.T) {
				bottom := &faulty{Store: storage.NewMemory(), calls: map[string]int{}}
				top, _ := stackedJob(t, bottom, frozen)
				held, err := storage.Keys(top, 0)
				if err != nil || len(held) == 0 {
					t.Fatalf("%d keys of process 0, err %v", len(held), err)
				}
				k := held[0]
				call := map[string]func() error{
					"save":   func() error { return top.Save(storage.Snapshot{Proc: 0, CFGIndex: 99}) },
					"get":    func() error { _, err := top.Get(0, k.CFGIndex, k.Instance); return err },
					"keys":   func() error { _, err := top.(storage.KeyLister).Keys(0); return err },
					"delete": func() error { return top.Delete(0, k.CFGIndex, k.Instance) },
					"scrub":  func() error { _, err := storage.Scrub(top); return err },
				}
				bottom.fail(op, class, -1, -1)
				err = call[op]()
				calls := bottom.count(op)
				if class != storage.ErrTransient {
					if !errors.Is(err, class) || errors.Is(err, storage.ErrTransient) || calls != 1 {
						t.Fatalf("%s: err %v after %d call(s) at the bottom; want %v from one", op, err, calls, class)
					}
					return
				}
				if !errors.Is(err, storage.ErrTransient) || !errors.Is(err, ErrBreakerOpen) || calls != breakerTrip {
					t.Fatalf("%s: err %v after %d call(s) at the bottom; want a transient breaker shed after %d", op, err, calls, breakerTrip)
				}
				bottom.fail("", nil, -1, 0)
				for other, f := range call {
					if err := f(); !errors.Is(err, storage.ErrTransient) || !errors.Is(err, ErrBreakerOpen) || bottom.count(other) != 0 {
						t.Errorf("%s with the breaker open: err %v, %d call(s) at the bottom; want a transient shed, none", other, err, bottom.count(other))
					}
				}
			})
		}
	}
	t.Run("save/crash", func(t *testing.T) {
		// Every save of the job's process 1 (4 at the bottom) fails until
		// the bottom has failed one attempt more than the retry layer
		// makes: one save fails every attempt, breaker shed or not. The
		// breaker's clock steps past the cooldown at each read, so that
		// the job goes on once the faults are spent.
		bottom := &faulty{Store: storage.NewMemory(), calls: map[string]int{}}
		bottom.fail("save", storage.ErrTransient, 4, 6)
		now := time.Unix(0, 0)
		step := func() time.Time { // read under the breaker's mutex only
			now = now.Add(2 * breakerCooldown)
			return now
		}
		_, m := stackedJob(t, bottom, step)
		if m.Custom[sim.MetricSaveCrashes] == 0 || m.Rollbacks < 2 {
			t.Errorf("%d save crash(es), %d rollback(s); want a save crash beside the scheduled crash", m.Custom[sim.MetricSaveCrashes], m.Rollbacks)
		}
	})
}
