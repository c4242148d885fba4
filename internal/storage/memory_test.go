package storage_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// manyVars builds an environment of n variables and the manifest naming
// them.
func manyVars(n int) (map[string]int, []string) {
	vars, manifest := make(map[string]int, n), make([]string, n)
	for i := range manifest {
		manifest[i] = fmt.Sprintf("variable_%05d", i)
		vars[manifest[i]] = i - n/2
	}
	return vars, manifest
}

// scribbleOver is scribble for any snapshot: the zero value has no map to
// write to.
func scribbleOver(s storage.Snapshot) {
	if s.Vars != nil && s.Instances != nil {
		scribble(s)
	}
}

// The memory store keeps encoded bodies in per-process arenas. Whatever the
// snapshot's shape — and wherever its body lands: inside a chunk, in a chunk
// sized up for it, or in an allocation of its own — every read gives back
// exactly what was saved, and nothing done to the caller's copy, to a
// returned copy, or to the arena around it (a thousand later saves, deleted
// neighbours) changes that.
func TestMemoryRetainsExactlyWhatWasSaved(t *testing.T) {
	cases := map[string]func() storage.Snapshot{
		"full": func() storage.Snapshot {
			s := lendSnap(0)
			s.Manifest = nil
			return s
		},
		"pruned":     func() storage.Snapshot { return lendSnap(0) },
		"zero value": func() storage.Snapshot { return storage.Snapshot{} },
		"empty, not nil": func() storage.Snapshot {
			return storage.Snapshot{Clock: vclock.VC{}, Vars: map[string]int{}, SendSeqs: []int{},
				RecvSeqs: []int{}, Instances: map[int]int{}, Manifest: []string{}}
		},
		// ~6 KB: more than the first chunk, less than the largest.
		"200 variables": func() storage.Snapshot {
			s := lendSnap(0)
			s.Vars, s.Manifest = manyVars(200)
			return s
		},
		// ~90 KB: larger than any chunk.
		"larger than a chunk": func() storage.Snapshot {
			s := lendSnap(0)
			s.Vars, s.Manifest = manyVars(3000)
			return s
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			m := storage.NewMemory()
			want := mk()
			k := want.Key()
			// filler lands in the same process's arena under other indexes,
			// so Latest(k.Proc, k.CFGIndex) stays the snapshot under test.
			filler := func(index, instance int) storage.Snapshot {
				s := lendSnap(instance)
				s.Proc, s.CFGIndex = k.Proc, k.CFGIndex+index
				return s
			}
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

// Savers, readers and deleters hammer one memory store, each on a process
// of its own and all on one shared process: under -race this is what
// catches an index or arena touched outside the lock, and the reads catch a
// body overwritten by a neighbour's save.
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
					s := lendSnap(w*rounds + i)
					s.Proc = proc
					if err := m.Save(s); err != nil {
						t.Error(err)
						return
					}
					got, err := m.Get(proc, s.CFGIndex, s.Instance)
					s.Clock[0]++ // lent: the store must not be looking
					want := lendSnap(w*rounds + i)
					want.Proc = proc
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
		want := lendSnap(got.Instance)
		want.Proc = sharedProc
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("List(%d):\n got %+v\nwant %+v", sharedProc, got, want)
		}
	}
}
