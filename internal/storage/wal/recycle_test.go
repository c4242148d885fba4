package wal

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

// A steady-state Save allocates nothing of its own: the request, its frame
// buffer and its ack channel are recycled, and the committer stages the
// batch in the store's scratch. The bound leaves room for the index map's
// amortized growth and for the pool losing an entry to a GC cycle (or to
// the race detector, which drops a quarter of all Puts).
func TestSaveSteadyStateAllocs(t *testing.T) {
	w := mustOpen(t, t.TempDir(), Options{})
	s := snap(0, 1, 0)
	save := func() {
		s.Instance++
		if err := w.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		save()
	}
	if n := testing.AllocsPerRun(200, save); n > 2 {
		t.Errorf("steady-state Save allocates %v objects, want <= 2", n)
	}
}

// Writers hammer one store with Saves and Deletes while it is closed, or
// killed by an injected crash and then closed, under them. Every call must
// return; whatever was acknowledged must be exactly what a reopen finds —
// a request recycled while the committer still held it would surface here
// as a record under the wrong key, a failed CRC, or a race report.
func TestRecycledRequestsSurviveCloseAndKill(t *testing.T) {
	for _, end := range []string{"close", "kill"} {
		t.Run(end, func(t *testing.T) {
			dir := t.TempDir()
			si := &scriptInjector{anyOp: true, seq: math.MaxUint64}
			if end == "kill" {
				si = &scriptInjector{anyOp: true, seq: 60, fault: Fault{Kill: KillBefore}}
			}
			w, err := Open(dir, Options{MaxBatch: 4, Injector: si})
			if err != nil {
				t.Fatal(err)
			}
			const writers, perWriter = 8, 200
			var (
				acks     atomic.Int64
				inFlight = make(chan struct{}) // closed once a quarter of the saves are acked
				wg       sync.WaitGroup
				mu       sync.Mutex
				live     = map[storage.Key]bool{} // acked save, no delete attempted
				deleted  = map[storage.Key]bool{} // acked delete
			)
			stopped := func(err error) bool { return errors.Is(err, ErrClosed) || errors.Is(err, ErrCrashed) }
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						s := snap(g, i%3, i/3)
						if err := w.Save(s); err != nil {
							if !stopped(err) {
								t.Errorf("Save(%s) = %v", s.Key(), err)
							}
							return
						}
						if acks.Add(1) == writers*perWriter/4 {
							close(inFlight)
						}
						mu.Lock()
						live[s.Key()] = true
						mu.Unlock()
						if i%4 != 3 {
							continue
						}
						// Delete what this writer saved three saves ago.
						old := snap(g, (i-3)%3, (i-3)/3).Key()
						mu.Lock()
						delete(live, old)
						mu.Unlock()
						if err := w.Delete(old.Proc, old.CFGIndex, old.Instance); err != nil {
							if !stopped(err) {
								t.Errorf("Delete(%s) = %v", old, err)
							}
							return
						}
						mu.Lock()
						deleted[old] = true
						mu.Unlock()
					}
				}(g)
			}
			if end == "close" {
				<-inFlight
			}
			if end == "kill" {
				wg.Wait() // the injected crash stops them
				if !w.Killed() {
					t.Fatal("the injected kill never fired")
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()

			re := mustOpen(t, dir, Options{})
			for k := range live {
				s, err := re.Get(k.Proc, k.CFGIndex, k.Instance)
				want := snap(k.Proc, k.CFGIndex, k.Instance)
				if err != nil || s.PC != want.PC || fmt.Sprint(s.Vars) != fmt.Sprint(want.Vars) {
					t.Errorf("acknowledged %s reads back %+v, %v", k, s, err)
				}
			}
			for k := range deleted {
				if _, err := re.Get(k.Proc, k.CFGIndex, k.Instance); !errors.Is(err, storage.ErrNotFound) {
					t.Errorf("deleted %s reads back %v, want ErrNotFound", k, err)
				}
			}
			if len(live) == 0 || len(deleted) == 0 {
				t.Errorf("%d live and %d deleted keys: the hammer ended before it began", len(live), len(deleted))
			}
		})
	}
}
