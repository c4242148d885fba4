package storage_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// manyVars builds an environment of n variables.
func manyVars(n int) map[string]int {
	vars := make(map[string]int, n)
	for i := range n {
		vars[fmt.Sprintf("variable_%05d", i)] = i - n/2
	}
	return vars
}

// scribbleOver is scribble for any snapshot: the zero value has no map to
// write to.
func scribbleOver(s storage.Snapshot) {
	if s.Vars != nil && s.Instances != nil {
		scribble(s)
	}
}

// framed is what a body takes on a memory page: its length prefix and itself.
func framed(s storage.Snapshot) int {
	n := len(storage.AppendSnapshot(nil, s))
	return len(binary.AppendUvarint(nil, uint64(n))) + n
}

// framedAs returns lendSnap(0) with its PC padded so that its body takes
// exactly n bytes on a page.
func framedAs(n int) storage.Snapshot {
	s := lendSnap(0)
	for pad := 0; framed(s) != n; {
		if pad += n - framed(s); pad < 0 {
			panic(fmt.Sprintf("no PC pads lendSnap(0) to %d framed bytes", n))
		}
		s.PC = "17" + strings.Repeat("p", pad)
	}
	return s
}

// memFiller is a neighbour of the snapshot saved under k: the same process or
// the next one, alternating with index+instance, and CFG indexes above k's,
// so that Latest(k.Proc, k.CFGIndex) stays the snapshot under test.
func memFiller(k storage.Key, index, instance int) storage.Snapshot {
	s := lendSnap(instance)
	s.Proc, s.CFGIndex = k.Proc+(index+instance)%2, k.CFGIndex+index
	return s
}

// The memory store keeps every process's encoded bodies, each behind its
// length, on one list of shared pages. Whatever the snapshot's shape — and
// wherever its body lands: inside a page, filling its room to the byte, one
// byte too large for that room and so on a page of its own choosing, or on a
// page sized to it — every read gives back exactly what was saved, and
// nothing done to the caller's copy, to a returned copy, or to the page
// around it (another process's saves beside it, a thousand later saves,
// deleted neighbours) changes that.
func TestMemoryRetainsExactlyWhatWasSaved(t *testing.T) {
	const page = storage.MemoryPageSize
	// The first neighbour, saved before the snapshot under test, leaves this
	// much of page 0 free.
	room := page - framed(memFiller(lendSnap(0).Key(), 1, 0))
	type shape struct {
		mk         func() storage.Snapshot
		page, next int // where it lands, and the neighbour saved after it
	}
	cases := map[string]shape{
		"full": {func() storage.Snapshot { return lendSnap(0) }, 0, 0},
		"pruned": {func() storage.Snapshot {
			s := lendSnap(0)
			delete(s.Vars, "y")
			return s
		}, 0, 0},
		"zero value": {func() storage.Snapshot { return storage.Snapshot{} }, 0, 0},
		"empty, not nil": {func() storage.Snapshot {
			return storage.Snapshot{Clock: vclock.VC{}, Vars: map[string]int{}, Instances: storage.Counts{}}
		}, 0, 0},
		"fills the room left": {func() storage.Snapshot { return framedAs(room) }, 0, 1},
		// It leaves one byte less than the first neighbour took, and the
		// neighbour after it is as large: that one starts a page too.
		"one byte over the room": {func() storage.Snapshot { return framedAs(room + 1) }, 1, 2},
		"a byte over a page":     {func() storage.Snapshot { return framedAs(page + 1) }, 1, 2},
		// ~3 KB.
		"200 variables": {func() storage.Snapshot {
			s := lendSnap(0)
			s.Vars = manyVars(200)
			return s
		}, 1, 2},
		// ~50 KB: fifty pages' worth.
		"larger than a page": {func() storage.Snapshot {
			s := lendSnap(0)
			s.Vars = manyVars(3000)
			return s
		}, 1, 2},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			m := storage.NewMemory()
			mk := c.mk
			want := mk()
			k := want.Key()
			filler := func(index, instance int) storage.Snapshot { return memFiller(k, index, instance) }
			save := func(s storage.Snapshot) {
				t.Helper()
				if err := m.Save(s); err != nil {
					t.Fatal(err)
				}
			}
			check := func(when string) {
				t.Helper()
				got, err := m.Get(k.Proc, k.CFGIndex, k.Instance)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("Get %s: err %v\n got %+v\nwant %+v", when, err, got, want)
				}
				scribbleOver(got)
				latest, err := m.Latest(k.Proc, k.CFGIndex)
				if err != nil || !reflect.DeepEqual(latest, want) {
					t.Fatalf("Latest %s: err %v\n got %+v\nwant %+v", when, err, latest, want)
				}
				scribbleOver(latest)
				all, err := m.List(k.Proc)
				keys, kerr := m.Keys(k.Proc)
				if err != nil || kerr != nil || len(all) != len(keys) {
					t.Fatalf("List %s: %d snapshots of %d, err %v / %v", when, len(all), len(keys), err, kerr)
				}
				found := false
				for _, s := range all {
					if s.Key() == k {
						found = true
						if !reflect.DeepEqual(s, want) {
							t.Fatalf("List %s:\n got %+v\nwant %+v", when, s, want)
						}
					}
					scribbleOver(s)
				}
				if !found {
					t.Fatalf("List %s: %s missing", when, k)
				}
			}

			save(filler(1, 0))
			lent := mk()
			save(lent)
			save(filler(2, 0))
			for what, want := range map[storage.Key]int{k: c.page, filler(2, 0).Key(): c.next} {
				if got := storage.MemoryPage(m, what); got != want {
					t.Fatalf("%s is on page %d, want %d", what, got, want)
				}
			}
			check("after Save")
			scribbleOver(lent)
			check("after the caller scribbled over what it saved")
			check("after the previous reads were scribbled over")
			for i := 0; i < 1000; i++ {
				save(filler(3, i))
			}
			check("after 1000 later saves")

			if err := m.Save(mk()); !errors.Is(err, storage.ErrDuplicate) {
				t.Fatalf("second Save: err = %v, want ErrDuplicate", err)
			}
			for _, nb := range []storage.Key{filler(1, 0).Key(), filler(2, 0).Key(), filler(3, 0).Key()} {
				if err := m.Delete(nb.Proc, nb.CFGIndex, nb.Instance); err != nil {
					t.Fatal(err)
				}
			}
			check("after its neighbours were deleted")
			if err := m.Delete(k.Proc, k.CFGIndex, k.Instance); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Get(k.Proc, k.CFGIndex, k.Instance); !errors.Is(err, storage.ErrNotFound) {
				t.Fatalf("Get after Delete: err = %v, want ErrNotFound", err)
			}
			save(mk())
			check("after it was deleted and saved again")
		})
	}
}

// hammerSnap is lendSnap(instance) of proc without N or peers: it names no
// application, so the memory store retires nothing on its account.
func hammerSnap(proc, instance int) storage.Snapshot {
	s := lendSnap(instance)
	s.Proc, s.N, s.Peers = proc, 0, nil
	return s
}

// Savers, readers and deleters hammer one memory store, each on a process
// of its own and all on one shared process: under -race this is what
// catches an index or arena touched outside the lock, and the reads catch a
// body overwritten by a neighbour's save. Nothing is retired, so the count
// at the end is every save less every delete.
func TestMemoryConcurrentHammer(t *testing.T) {
	const workers, rounds, sharedProc = 8, 300, 1000
	m := storage.NewMemory()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, proc := range []int{w, sharedProc} {
					s := hammerSnap(proc, w*rounds+i)
					if err := m.Save(s); err != nil {
						t.Error(err)
						return
					}
					got, err := m.Get(proc, s.CFGIndex, s.Instance)
					s.Clock[0]++ // lent: the store must not be looking
					want := hammerSnap(proc, w*rounds+i)
					if err != nil || !reflect.DeepEqual(got, want) {
						t.Errorf("Get(%s): err %v\n got %+v\nwant %+v", s.Key(), err, got, want)
						return
					}
					if keys, err := m.Keys(proc); err != nil || len(keys) == 0 {
						t.Errorf("Keys(%d): %d keys, err %v", proc, len(keys), err)
						return
					}
					if i%3 == 0 {
						if err := m.Delete(proc, s.CFGIndex, s.Instance); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	held := 0
	for proc := 0; proc <= sharedProc; proc++ {
		keys, err := m.Keys(proc)
		if err != nil {
			t.Fatal(err)
		}
		held += len(keys)
	}
	if want := 2 * workers * (rounds - (rounds+2)/3); held != want {
		t.Errorf("held %d snapshots, want %d", held, want)
	}
	shared, err := m.List(sharedProc)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range shared {
		if want := hammerSnap(sharedProc, got.Instance); !reflect.DeepEqual(got, want) {
			t.Fatalf("List(%d):\n got %+v\nwant %+v", sharedProc, got, want)
		}
	}
}

// The hammer with retirement on: four workers are the four processes of one
// application and save one index in instance order, deleting every third
// save. Retirement runs inside other workers' saves and reuses pages, so
// under -race this catches a page recycled while a body still lives on it;
// every read of what a worker just saved must still give it back. At the end
// each process holds the newest two instances and nothing below them.
func TestMemoryConcurrentHammerRetiring(t *testing.T) {
	const workers, rounds = 4, 300
	m := storage.NewMemory()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s := lendSnap(i)
				s.Proc = w
				if err := m.Save(s); err != nil {
					t.Error(err)
					return
				}
				want := lendSnap(i)
				want.Proc = w
				got, err := m.Get(w, s.CFGIndex, i)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("Get(%s): err %v\n got %+v\nwant %+v", s.Key(), err, got, want)
					return
				}
				if latest, err := m.Latest(w, s.CFGIndex); err != nil || latest.Instance != i {
					t.Errorf("Latest(%d) = %s, err %v; want instance %d", w, latest.Key(), err, i)
					return
				}
				if i%3 == 0 {
					if err := m.Delete(w, s.CFGIndex, i); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		keys, err := m.Keys(w)
		if err != nil {
			t.Fatal(err)
		}
		want := []storage.Key{{Proc: w, CFGIndex: 2, Instance: rounds - 2}, {Proc: w, CFGIndex: 2, Instance: rounds - 1}}
		if !reflect.DeepEqual(keys, want) {
			t.Errorf("process %d holds %v, want %v", w, keys, want)
		}
	}
}

// A job of Figure 2's Jacobi on 4 processes saves 64 checkpoints per process,
// interleaved, of ~51 bytes each. What a fresh memory store allocates for them
// is a few shared 1 KB pages, reused as retirement empties them, and each
// process's first index run: 3.4 KB, where 4 KB pages took 9.4, keeping every
// body 24.3 and per-process arenas, their 1 → 2 → 4 KB chunks and 32-byte
// index entries 45.5.
func TestMemoryJacobiSavesAllocs(t *testing.T) {
	const procs, saves, runs = 4, 64, 20
	snaps := make([]storage.Snapshot, 0, procs*saves)
	for i := 0; i < saves; i++ {
		for p := 0; p < procs; p++ {
			snaps = append(snaps, storage.Snapshot{
				Proc: p, CFGIndex: 1, Instance: i, Clock: vclock.VC{uint64(3 * i), uint64(3*i + 1), uint64(3*i + 2), 9},
				Vars: map[string]int{"iter": i, "x": 1000 + i, "y": -i}, PC: "stmt-7",
				N: 4, Instances: storage.Counts{{Index: 1, N: i + 1}},
			})
			if i > 0 {
				snaps[len(snaps)-1].Peers = storage.Row{{Peer: 1, Sent: i, Recvd: i}}
			}
		}
	}
	if n := len(storage.AppendSnapshot(nil, snaps[len(snaps)-1])); n != 51 {
		t.Fatalf("the last body is %d bytes, want Jacobi's 51", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		m := storage.NewMemory()
		for _, s := range snaps {
			if err := m.Save(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("%d × %d interleaved saves allocate %.1f KB", procs, saves, kb)
	if kb > 5 {
		t.Errorf("%d × %d interleaved saves allocate %.1f KB, want <= 5", procs, saves, kb)
	}
}
