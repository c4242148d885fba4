package sim

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/mpl"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/storage/wal"
)

// accumulateSrc never initializes a variable: acc and iter count up from the
// zero a declared variable starts at, so an incarnation that began on
// anything else ends somewhere else. Values flow down the chain 0→1→2→3 and
// each process checkpoints after passing them on, which keeps every straight
// cut consistent.
const accumulateSrc = `
program accumulate
const MAXITER = 6
var acc, got, iter
proc {
    while iter < MAXITER {
        acc = acc + rank + 1
        recv(rank - 1, got)
        acc = acc + got
        send(rank + 1, acc)
        chkpt
        iter = iter + 1
    }
}
`

// firstSends keeps the message of each process's first send of each
// incarnation, and the restart labels.
type firstSends struct {
	mu       sync.Mutex
	first    map[[2]int]obs.MsgRef // (incarnation, process)
	restarts []string
}

func (f *firstSends) OnEvent(e obs.Event) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch e.Kind {
	case obs.KindRestart:
		f.restarts = append(f.restarts, e.Label)
	case obs.KindSend:
		if k := [2]int{e.Inc, e.Proc}; !f.seen(k) {
			f.first[k] = e.Msg
		}
	}
}

func (f *firstSends) seen(k [2]int) bool { _, ok := f.first[k]; return ok }

// An incarnation inherits the memory of the one that crashed and refills it.
// Process 1 crashes at its first receive: it has no checkpoint, so there is
// no line and incarnation 1 starts from scratch, on an environment holding
// the crashed values and on advanced sequence counters. Process 3 then crashes after its
// second checkpoint, and selection is made to find nothing (the bottom of the
// degradation ladder): incarnation 2 starts from scratch on instance and
// sequence counters as well. It crashes the same way, and incarnation 3 is
// init + restore. The run must end where a failure-free one does, in its
// variables and in the checkpoints it leaves in the store: a stale instance
// counter renumbers them, a stale variable changes the sums, a stale
// sequence counter numbers a first message past 0.
func TestRestartFromScratchAfterInheritance(t *testing.T) {
	const n = 4
	prog := mustParseProg(t, accumulateSrc)
	keysOf := func(st storage.Store) [][]storage.Key {
		t.Helper()
		all := make([][]storage.Key, n)
		for p := range all {
			keys, err := storage.Keys(st, p)
			if err != nil {
				t.Fatal(err)
			}
			storage.SortKeys(keys)
			all[p] = keys
		}
		return all
	}
	clean := runOK(t, prog, n)
	// What a failure-free run leaves process 0 on each kind of store: the
	// memory store and the WAL keep the newest two of its six checkpoints.
	kept := map[string]int{"memory": 2, "incremental": 6, "wal": 2}
	stores := map[string]func() storage.Store{
		"memory":      func() storage.Store { return storage.NewMemory() },
		"incremental": func() storage.Store { return storage.NewIncremental(3) },
		"wal": func() storage.Store {
			ws, err := wal.Open(t.TempDir(), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ws.Close() })
			return ws
		},
	}
	for name, open := range stores {
		t.Run(name, func(t *testing.T) {
			cleanKeys := keysOf(runOK(t, prog, n, func(c *Config) { c.Store = open() }).Store)
			if len(cleanKeys[0]) != kept[name] {
				t.Fatalf("failure-free run left process 0 the checkpoints %v, want %d", cleanKeys[0], kept[name])
			}
			seen := &firstSends{first: map[[2]int]obs.MsgRef{}}
			res := runOK(t, prog, n, func(c *Config) {
				c.Store, c.Observer = open(), seen
				c.Crashes = []Crash{
					{Inc: 0, Proc: 1, AfterEvents: 2},  // acc = …, recv: before any checkpoint of its own
					{Inc: 1, Proc: 3, AfterEvents: 11}, // its second checkpoint: everyone has the first
					{Inc: 2, Proc: 3, AfterEvents: 11},
				}
				selections := 0
				c.Recover = func(st storage.Store, n int) (*recovery.Line, error) {
					if selections++; selections == 2 {
						return nil, recovery.ErrNoRecoveryLine
					}
					return recovery.StraightCut(st, n)
				}
			})
			if res.Restarts != 3 {
				t.Fatalf("restarts = %d, want 3", res.Restarts)
			}
			if len(seen.restarts) != 3 || seen.restarts[0] != "from scratch" || seen.restarts[1] != "from scratch" ||
				!strings.Contains(seen.restarts[2], "recovery line") {
				t.Fatalf("restarts were %q, want two from scratch, then one from a line", seen.restarts)
			}
			if !reflect.DeepEqual(res.FinalVars, clean.FinalVars) {
				t.Errorf("final state diverged:\n got %v\nwant %v", res.FinalVars, clean.FinalVars)
			}
			if got := keysOf(res.Store); !reflect.DeepEqual(got, cleanKeys) {
				t.Errorf("checkpoints left in the store:\n got %v\nwant %v", got, cleanKeys)
			}
			// From scratch means from zero counters: a process's first
			// message there is message 0 of its channel.
			for p := 0; p < n; p++ {
				for _, inc := range []int{0, 1, 2} {
					if got, ok := seen.first[[2]int{inc, p}]; ok && got.Seq != 0 {
						t.Errorf("incarnation %d: first message of process %d is %+v, want seq 0", inc, p, got)
					}
				}
			}
		})
	}
}

// builtHooks tells the Hooks of one incarnation from another's.
type builtHooks struct {
	NoHooks
	id int
}

// What init leaves of an inherited process, looked at directly: Run's loop
// by hand, stopped between start and wait. Each process is its
// predecessor's Proc, reset in place: the memory stays, and the hooks, the
// event count, the incarnation and the crash trigger are the new
// incarnation's.
func TestInitRefillsInheritedMemory(t *testing.T) {
	const n = 4
	code, err := Compile(mustParseProg(t, accumulateSrc))
	if err != nil {
		t.Fatal(err)
	}
	counters := &metrics.Counters{}
	built := 0
	r := &run{
		cfg: Config{
			Nproc: n, Timeout: 20 * time.Second, Counters: counters, DisableTrace: true,
			Hooks: func(int, int) Hooks { built++; return &builtHooks{id: built} },
		},
		code:  code,
		plan:  crashPlan{{0, 3}: 11},
		net:   NewNetwork(n),
		store: newRetryStore(storage.NewMemory(), nil, counters, nil),
	}
	procs, err := r.start(0, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if failure, err := r.wait(0, procs); err != nil || failure == nil {
		t.Fatalf("incarnation 0: failure %v, err %v; want the scheduled crash", failure, err)
	}
	type memory struct {
		env       *mpl.Env
		row       *storage.PeerSeq
		chans     *peerChans
		instances *storage.Count
	}
	old := append([]*Proc(nil), procs...)
	oldHooks, oldMem := make([]Hooks, n), make([]memory, n)
	for p, pr := range old {
		if pr.env.Vars["acc"] == 0 || len(pr.instances) == 0 || pr.row.At((p+1)%n).Sent+pr.row.At((p+n-1)%n).Recvd == 0 {
			t.Fatalf("process %d crashed with nothing to refill: vars %v instances %v", p, pr.env.Vars, pr.instances)
		}
		if pr.events == 0 || pr.inc != 0 || (p == 3) != (pr.failAfter == 11) {
			t.Fatalf("process %d ran incarnation %d for %d events, crash trigger %d", p, pr.inc, pr.events, pr.failAfter)
		}
		oldHooks[p] = pr.hooks
		oldMem[p] = memory{pr.env, &pr.row[:1][0], &pr.chans[0], &pr.instances[:1][0]}
	}
	// No line: every process starts over on what its predecessor left.
	if procs, err = r.start(1, procs, nil, 0); err != nil {
		t.Fatal(err)
	}
	zeroVars := map[string]int{"acc": 0, "got": 0, "iter": 0}
	for p, pr := range procs {
		if pr != old[p] {
			t.Fatalf("process %d is a new Proc, not its predecessor's", p)
		}
		if mem := (memory{pr.env, &pr.row[:1][0], &pr.chans[0], &pr.instances[:1][0]}); mem != oldMem[p] {
			t.Fatalf("process %d did not inherit its predecessor's memory", p)
		}
		// The row and the counters start empty; the channels stay cached.
		if len(pr.row) != 0 || slices.ContainsFunc(pr.chans, func(c peerChans) bool { return c.out == nil && c.in == nil }) {
			t.Errorf("process %d starts with row %v, channels %v", p, pr.row, pr.chans)
		}
		if len(pr.instances) != 0 || !reflect.DeepEqual(pr.env.Vars, zeroVars) {
			t.Errorf("process %d starts with instances %v, variables %v", p, pr.instances, pr.env.Vars)
		}
		if pr.hooks == nil || pr.hooks == oldHooks[p] || pr.events != 0 || pr.inc != 1 || pr.failAfter != -1 {
			t.Errorf("process %d: hooks %v (predecessor's %v), %d events, incarnation %d, crash trigger %d",
				p, pr.hooks, oldHooks[p], pr.events, pr.inc, pr.failAfter)
		}
		// Every process of every run reads the one constants map Compile built.
		if reflect.ValueOf(pr.env.Consts).UnsafePointer() != reflect.ValueOf(code.consts).UnsafePointer() || pr.env.Consts["MAXITER"] != 6 {
			t.Errorf("process %d evaluates against constants %v, not the Code's map", p, pr.env.Consts)
		}
	}
}

// One more crash costs one more incarnation: n sets of hooks, a rollback,
// and the replay's own messages and saves — not n Procs, environments,
// instance counters, clocks and sequence slices made again (174 objects
// before incarnations inherited them, 53 before they reused their Procs).
// Measured 45 (83 while selection probed a Latest frontier, 166 before
// that); the margin is for scheduling (how far the others got before the
// crash decides how much is replayed). The whole one-crash run is pinned
// beside it: 167 objects, 168 under -race (190 while each Proc held an
// instance map and each incarnation built new Procs, 356 while its network
// made n² queues up front).
func TestRestartAllocsPerIncarnation(t *testing.T) {
	prog := corpus.JacobiFig1(12)
	run := func(crashes int) float64 {
		cfg := Config{Program: prog, Nproc: 4, Timeout: 20 * time.Second, DisableTrace: true}
		for inc := 0; inc < crashes; inc++ {
			cfg.Crashes = append(cfg.Crashes, Crash{Inc: inc, Proc: 2, AfterEvents: 16})
		}
		return testing.AllocsPerRun(20, func() {
			cfg.Store = nil
			if res, err := Run(cfg); err != nil || res.Restarts != crashes {
				t.Fatalf("%d crashes: restarts %v, err %v", crashes, res, err)
			}
		})
	}
	one, four := run(1), run(4)
	marginal := (four - one) / 3
	t.Logf("a run with 1 crash allocates %.0f objects, with 4 %.0f: %.1f per additional incarnation", one, four, marginal)
	if marginal > 80 {
		t.Errorf("an additional incarnation allocates %.1f objects, want <= 80", marginal)
	}
	if one > 180 {
		t.Errorf("a run with one crash allocates %.0f objects, want <= 180", one)
	}
}
