package storage_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/storage"
	"repro/internal/storage/wal"
)

// refCuts is the brute force StraightCuts is held to: every (i, k) of the
// saved keys at which each of processes 0…n−1 holds a key, as a Key with
// Proc 0, by index, newest instance first.
func refCuts(saved map[storage.Key]bool, n int) []storage.Key {
	var out []storage.Key
	for k := range saved {
		all := true
		for p := 0; p < n && all; p++ {
			all = saved[storage.Key{Proc: p, CFGIndex: k.CFGIndex, Instance: k.Instance}]
		}
		if c := (storage.Key{CFGIndex: k.CFGIndex, Instance: k.Instance}); all && !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(a, b storage.Key) int {
		if a.CFGIndex != b.CFGIndex {
			return a.CFGIndex - b.CFGIndex
		}
		return b.Instance - a.Instance
	})
	return out
}

// refIndexes is the brute force Indexes is held to: each index i for which
// some instance k has (p, i, k) saved for every p < n.
func refIndexes(saved map[storage.Key]bool, n int) []int {
	var out []int
	for i := 0; i <= 4; i++ {
		for k := 0; k <= 3; k++ {
			all := true
			for p := 0; p < n && all; p++ {
				all = saved[storage.Key{Proc: p, CFGIndex: i, Instance: k}]
			}
			if all {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// Indexes and StraightCuts against the brute force, over seeded key sets on
// the three store kinds, bare and through a Namespace, with and without a
// chaos layer that marks a third of what it saves unreadable. Processes
// 0…n hold keys, so process n's change nothing, and often every process
// holds some key at an index but no instance all of them hold. A marked key
// still counts: the cut is the store's, finding it damaged is recovery's.
// Indexes is the index set of the cuts, the candidates StraightCut loads.
func TestIndexesAgainstReference(t *testing.T) {
	const n, seeds = 3, 40
	kinds := map[string]func(t *testing.T) storage.Store{
		"memory":      func(*testing.T) storage.Store { return storage.NewMemory() },
		"incremental": func(*testing.T) storage.Store { return storage.NewIncremental(3) },
		"wal": func(t *testing.T) storage.Store {
			ws, err := wal.Open(t.TempDir(), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ws.Close() })
			return ws
		},
	}
	for kind, open := range kinds {
		for _, marked := range []bool{false, true} {
			for _, ns := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/marked=%v/namespace=%v", kind, marked, ns), func(t *testing.T) {
					unreadable, split := 0, 0 // split: indexes each process holds, at no common instance
					for seed := range uint64(seeds) {
						var st storage.Store = open(t)
						if marked {
							st = chaos.New(st, int64(seed), chaos.Rates{BitFlip: 0.3}, nil)
						}
						if ns {
							var err error
							if st, err = storage.NewNamespace(st, 2, n+1); err != nil {
								t.Fatal(err)
							}
						}
						rng := rand.New(rand.NewPCG(seed, 7))
						saved := map[storage.Key]bool{}
						for range 12 + rng.IntN(24) {
							k := storage.Key{Proc: rng.IntN(n + 1), CFGIndex: rng.IntN(5), Instance: rng.IntN(4)}
							if saved[k] {
								continue
							}
							// No N: nothing retires, the store holds what was saved.
							if err := st.Save(storage.Snapshot{Proc: k.Proc, CFGIndex: k.CFGIndex, Instance: k.Instance}); err != nil {
								t.Fatal(err)
							}
							saved[k] = true
						}
						for k := range saved {
							if _, err := st.Get(k.Proc, k.CFGIndex, k.Instance); errors.Is(err, storage.ErrCorrupt) {
								unreadable++
							} else if err != nil {
								t.Fatal(err)
							}
						}
						cuts, err := storage.StraightCuts(st, n)
						if err != nil {
							t.Fatal(err)
						}
						if len(cuts) == 0 {
							cuts = nil
						}
						if want := refCuts(saved, n); !reflect.DeepEqual(cuts, want) {
							t.Fatalf("seed %d: StraightCuts = %v, want %v", seed, cuts, want)
						}
						idx, err := st.Indexes(n)
						if err != nil {
							t.Fatal(err)
						}
						want := refIndexes(saved, n)
						if !reflect.DeepEqual(idx, want) {
							t.Fatalf("seed %d: Indexes(%d) = %v, want %v over %v", seed, n, idx, want, saved)
						}
						for i := range 5 {
							some := 0 // processes below n holding a key at i
							for p := range n {
								if slices.ContainsFunc([]int{0, 1, 2, 3}, func(k int) bool { return saved[storage.Key{Proc: p, CFGIndex: i, Instance: k}] }) {
									some++
								}
							}
							if some == n && !slices.Contains(want, i) {
								split++
							}
						}
						var of []int
						for _, c := range cuts {
							if !slices.Contains(of, c.CFGIndex) {
								of = append(of, c.CFGIndex)
							}
						}
						if !reflect.DeepEqual(idx, of) {
							t.Fatalf("seed %d: Indexes(%d) = %v, the indexes of StraightCuts %v", seed, n, idx, of)
						}
					}
					if split == 0 {
						t.Fatal("no index was held by every process at different instances only")
					}
					if marked && unreadable == 0 {
						t.Fatal("no saved key was unreadable: the marked case tests nothing")
					}
				})
			}
		}
	}
}
