package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refIndex answers KeyIndex's questions from a plain map, the way every
// store did before KeyIndex.
type refIndex map[Key]int

func (r refIndex) latest(proc, index int) (int, int, bool) {
	best, found := Key{}, false
	for k := range r {
		if k.Proc == proc && k.CFGIndex == index && (!found || k.Instance > best.Instance) {
			best, found = k, true
		}
	}
	if !found {
		return 0, 0, false
	}
	return best.Instance, r[best], true
}

func (r refIndex) keys(proc int) []Key {
	keys := []Key{}
	for k := range r {
		if k.Proc == proc {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	return keys
}

func (r refIndex) indexes(n int) []int {
	procs := map[int]map[int]bool{} // index -> processes holding it
	for k := range r {
		if procs[k.CFGIndex] == nil {
			procs[k.CFGIndex] = map[int]bool{}
		}
		procs[k.CFGIndex][k.Proc] = true
	}
	var out []int
	for idx, ps := range procs {
		if len(ps) == n {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}

// KeyIndex against a map, result by result: seeded sequences of puts —
// mostly the runtime's dense, increasing instances, but also sparse and
// out-of-order ones — upserts, gets, deletes at the tail and in the middle,
// re-saves of deleted keys, and every read (Latest, Keys, Range, Indexes,
// Len) after every operation.
func TestKeyIndexAgainstMap(t *testing.T) {
	const sequences, ops, procs, indexes = 100, 150, 3, 4
	for seq := 0; seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		var ix KeyIndex[int]
		ref := refIndex{}
		next := map[[2]int]int{} // (proc, index) -> the runtime's next instance
		var deleted []Key
		var log []string
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("sequence %d after %v: %s", seq, log, fmt.Sprintf(format, args...))
		}
		someKey := func() (Key, bool) {
			if len(ref) == 0 {
				return Key{}, false
			}
			keys := make([]Key, 0, len(ref))
			for k := range ref {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
			return keys[rng.Intn(len(keys))], true
		}
		for op := 0; op < ops; op++ {
			p, i := rng.Intn(procs), rng.Intn(indexes)
			val := rng.Intn(1000)
			switch r := rng.Intn(20); {
			case r < 8: // the runtime's save: the next instance of (p, i)
				k := Key{p, i, next[[2]int{p, i}]}
				next[[2]int{p, i}]++
				log = append(log, "put "+k.String())
				ix.Put(k, val)
				ref[k] = val
			case r < 10: // sparse or out of order
				k := Key{p, i, rng.Intn(40)}
				log = append(log, "put "+k.String())
				ix.Put(k, val)
				ref[k] = val
			case r < 11: // re-save after delete
				if len(deleted) == 0 {
					continue
				}
				k := deleted[len(deleted)-1]
				deleted = deleted[:len(deleted)-1]
				log = append(log, "re-put "+k.String())
				ix.Put(k, val)
				ref[k] = val
			case r < 12: // upsert, as compaction relocates a record
				k, ok := someKey()
				if !ok {
					continue
				}
				log = append(log, "upsert "+k.String())
				ix.Put(k, val)
				ref[k] = val
			case r < 16: // delete: the tail, anywhere, or a key not there
				k, ok := someKey()
				if rng.Intn(3) == 0 {
					inst, _, found := ref.latest(p, i)
					k, ok = Key{p, i, inst}, found
				}
				if !ok || rng.Intn(5) == 0 {
					k = Key{p, i, 100 + rng.Intn(5)}
				}
				log = append(log, "del "+k.String())
				_, want := ref[k]
				if got := ix.Del(k); got != want {
					fail("Del(%s) = %v, want %v", k, got, want)
				}
				if want {
					delete(ref, k)
					deleted = append(deleted, k)
				}
			default: // get, present or not
				k := Key{p, i, rng.Intn(12)}
				got, gok := ix.Get(k)
				want, wok := ref[k]
				if got != want || gok != wok {
					fail("Get(%s) = %d, %v; want %d, %v", k, got, gok, want, wok)
				}
			}
			checkKeyIndex(t, &ix, ref, procs, indexes, fail)
		}
	}
}

func checkKeyIndex(t *testing.T, ix *KeyIndex[int], ref refIndex, procs, indexes int, fail func(string, ...any)) {
	t.Helper()
	if ix.n != len(ref) {
		fail("Len = %d, want %d", ix.n, len(ref))
	}
	for p := 0; p < procs+1; p++ {
		want := ref.keys(p)
		if got := ix.Keys(p); !reflect.DeepEqual(got, want) || cap(got) != len(got) {
			fail("Keys(%d) = %v (cap %d), want %v", p, got, cap(got), want)
		}
		if ix.LenProc(p) != len(want) {
			fail("LenProc(%d) = %d, want %d", p, ix.LenProc(p), len(want))
		}
		var ranged []Key
		ix.Range(p, func(k Key, v int) bool {
			if v != ref[k] {
				fail("Range(%d) hands %s the value %d, want %d", p, k, v, ref[k])
			}
			ranged = append(ranged, k)
			return true
		})
		if len(ranged) != len(want) || (len(want) > 0 && !reflect.DeepEqual(ranged, want)) {
			fail("Range(%d) visits %v, want %v", p, ranged, want)
		}
		for i := 0; i < indexes+1; i++ {
			gi, gv, gok := ix.Latest(p, i)
			wi, wv, wok := ref.latest(p, i)
			if gi != wi || gv != wv || gok != wok {
				fail("Latest(%d, %d) = %d, %d, %v; want %d, %d, %v", p, i, gi, gv, gok, wi, wv, wok)
			}
		}
	}
	all := 0
	ix.RangeAll(func(k Key, v int) bool {
		if w, ok := ref[k]; !ok || v != w {
			fail("RangeAll hands %s the value %d; the map holds %d, %v", k, v, w, ok)
		}
		all++
		return true
	})
	if all != len(ref) {
		fail("RangeAll visits %d keys, want %d", all, len(ref))
	}
	for n := 1; n <= procs+1; n++ {
		if got, want := ix.Indexes(n), ref.indexes(n); !reflect.DeepEqual(got, want) {
			fail("Indexes(%d) = %v, want %v", n, got, want)
		}
	}
}

// A deleted entry's slot is zeroed: the index keeps nothing a deleted value
// pointed at reachable.
func TestKeyIndexDelZeroesVacatedSlot(t *testing.T) {
	var ix KeyIndex[[]byte]
	for inst := 0; inst < 4; inst++ {
		ix.Put(Key{0, 1, inst}, []byte{byte(inst)})
	}
	ix.Del(Key{0, 1, 1}) // the middle
	ix.Del(Key{0, 1, 3}) // the tail
	ents := ix.procs[0].runs[0].ents
	for i, e := range ents[len(ents):cap(ents)] {
		if e.val != nil {
			t.Errorf("vacated slot %d still holds %v", len(ents)+i, e.val)
		}
	}
	if got := ix.Keys(0); !reflect.DeepEqual(got, []Key{{0, 1, 0}, {0, 1, 2}}) {
		t.Errorf("Keys = %v", got)
	}
}
