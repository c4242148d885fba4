package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
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

// KeyIndex against a map, result by result: seeded sequences of puts —
// mostly the runtime's dense, increasing instances, but also sparse and
// out-of-order ones — upserts, gets, deletes at the tail and in the middle,
// re-saves of deleted keys, and every read (Latest, Keys, Range, Len) after
// every operation.
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
}

// retentionSnap is what FuzzKeyIndexRetention saves under k: a member of an
// n-process application whose body is about pad bytes, so that pages fill,
// empty and overflow.
func retentionSnap(k Key, n, pad int) Snapshot {
	return Snapshot{
		Proc: k.Proc, CFGIndex: k.CFGIndex, Instance: k.Instance,
		Vars: map[string]int{"k": k.Instance}, PC: strings.Repeat("p", pad),
		N: n,
	}
}

// refLatest is the highest instance of (p, i) in held.
func refLatest(held map[Key]bool, p, i int) (int, bool) {
	latest, ok := 0, false
	for k := range held {
		if k.Proc == p && k.CFGIndex == i && (!ok || k.Instance > latest) {
			latest, ok = k.Instance, true
		}
	}
	return latest, ok
}

// refFront is F_i of block b: the least latest instance of its n processes,
// once all hold i.
func refFront(held map[Key]bool, n, b, i int) (int, bool) {
	f := 0
	for p := b * n; p < b*n+n; p++ {
		latest, ok := refLatest(held, p, i)
		if !ok {
			return 0, false
		}
		if p == b*n || latest < f {
			f = latest
		}
	}
	return f, true
}

// FuzzKeyIndexRetention drives a Memory through saves and deletes the fuzzer
// chooses and, after each, holds it to a map that applies the retention rule
// by brute force. Two applications of n = 3 processes share the store (blocks
// [0, 3) and [3, 6)) and save under two CFG indexes; the first byte picks d,
// how many complete cuts are kept, from 1 to 3. Each further byte pair is one
// operation on (p, i): the runtime's next instance, an instance below 12 out
// of order — with N or, retiring nothing, without; a held key's is
// refused and changes nothing — or a delete of the latest or of any
// instance. Checked each time:
//   - Keys, Latest and Get agree with the map: a retired key is never
//     returned, a held one reads back as saved;
//   - the ladder's promise: on an index no delete has touched, every
//     instance saved from F_i − d + 1 up is held;
//   - each page's live count is the number of held keys on it;
//   - replay: saving the held keys again, in key order, into an empty store
//     retires none of them, as a log's compacted segment replays — while
//     every save carried N (one without may leave the rule unapplied).
func FuzzKeyIndexRetention(f *testing.F) {
	const n, blocks, indexes = 3, 2, 2
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		d := 1 + int(ops[0])%3
		var m Memory
		saved := map[Key]bool{}      // saved and not deleted since
		held := map[Key]bool{}       // what the rule leaves of saved
		touched := map[[2]int]bool{} // (block, index) pairs a delete hit
		next := map[[2]int]int{}     // (proc, index) -> the runtime's next instance
		plain := false               // a save without N happened
		for at := 1; at+1 < len(ops); at += 2 {
			op, arg := int(ops[at]), int(ops[at+1])
			p, i := arg%(n*blocks), arg/(n*blocks)%indexes
			k := Key{p, i, op / 4 % 12}
			switch op % 4 {
			case 0, 1: // the runtime's save
				k.Instance = next[[2]int{p, i}]
				next[[2]int{p, i}]++
				fallthrough
			case 2: // a sparse or out-of-order save
				s := retentionSnap(k, n, 20*op)
				if op >= 128 && op%4 == 2 {
					s.N, plain = 0, true
				}
				err := m.save(s, d)
				if held[k] != (err != nil) || (err != nil && !errors.Is(err, ErrDuplicate)) {
					t.Fatalf("op %d: save %s: err %v, held %v", at, k, err, held[k])
				}
				saved[k], held[k] = true, true
				if err != nil || s.N == 0 {
					break // a refused save changes nothing
				}
				if f, ok := refFront(held, n, p/n, i); ok {
					for h := range held {
						if h.Proc/n == p/n && h.CFGIndex == i && h.Instance < f-d+1 {
							delete(held, h)
						}
					}
				}
			case 3: // delete the latest of (p, i), or any instance
				if op/4%2 == 0 {
					if latest, ok := refLatest(held, p, i); ok {
						k.Instance = latest
					}
				}
				if err := m.Delete(k.Proc, k.CFGIndex, k.Instance); (err == nil) != held[k] {
					t.Fatalf("op %d: delete %s: err %v, held %v", at, k, err, held[k])
				}
				delete(saved, k)
				delete(held, k)
				touched[[2]int{p / n, i}] = true
			}
			checkRetention(t, &m, saved, held, touched, n, blocks, indexes, d, !plain)
		}
	})
}

// checkRetention holds m to FuzzKeyIndexRetention's reference.
func checkRetention(t *testing.T, m *Memory, saved, held map[Key]bool, touched map[[2]int]bool, n, blocks, indexes, d int, replay bool) {
	t.Helper()
	for p := 0; p < n*blocks; p++ {
		var want []Key
		for k := range held {
			if k.Proc == p {
				want = append(want, k)
			}
		}
		SortKeys(want)
		if got, _ := m.Keys(p); !slices.Equal(got, want) {
			t.Fatalf("Keys(%d) = %v, want %v", p, got, want)
		}
		for i := 0; i < indexes; i++ {
			latest, ok := refLatest(held, p, i)
			if s, err := m.Latest(p, i); (err == nil) != ok || (ok && s.Instance != latest) {
				t.Fatalf("Latest(%d, %d) = %s, %v; want instance %d, %v", p, i, s.Key(), err, latest, ok)
			}
		}
	}
	for k := range saved {
		s, err := m.Get(k.Proc, k.CFGIndex, k.Instance)
		if held[k] && (err != nil || s.Key() != k || s.Vars["k"] != k.Instance) {
			t.Fatalf("Get(%s) = %s, %v", k, s.Key(), err)
		}
		if !held[k] && !errors.Is(err, ErrNotFound) {
			t.Fatalf("retired %s: Get err %v, want ErrNotFound", k, err)
		}
	}
	for b := 0; b < blocks; b++ {
		for i := 0; i < indexes; i++ {
			f, ok := refFront(held, n, b, i)
			if !ok || touched[[2]int{b, i}] {
				continue
			}
			for k := range saved {
				if k.Proc/n == b && k.CFGIndex == i && k.Instance >= f-d+1 && !held[k] {
					t.Fatalf("%s, at or above F_%d − %d + 1 = %d, was retired", k, i, d, f-d+1)
				}
			}
		}
	}
	var replayed Memory
	for p := 0; p < n*blocks && replay; p++ {
		keys, _ := m.Keys(p)
		for _, k := range keys {
			if err := replayed.save(retentionSnap(k, n, 0), d); err != nil {
				t.Fatal(err)
			}
		}
	}
	for p := 0; p < n*blocks && replay; p++ {
		want, _ := m.Keys(p)
		if got, _ := replayed.Keys(p); !slices.Equal(got, want) {
			t.Fatalf("held %v, replayed in key order %v", want, got)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	onPage := make([]int, len(m.pages))
	m.bodies.RangeAll(func(_ Key, r bodyRef) bool {
		onPage[r.page]++
		return true
	})
	if !slices.Equal(onPage, m.live) {
		t.Fatalf("pages hold %v bodies the index refers to and count %v", onPage, m.live)
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
