package storage

import (
	"cmp"
	"slices"
)

// KeyIndex is every store's key index, from a checkpoint's key to what the
// store keeps for it. It answers the Store's questions by lookup: which
// keys a process holds (Keys), the latest instance of C_{p,i} (Latest), does
// (p, i, k) exist (Get).
//
// A process maps to one run per CFG index, in index order, and a run holds
// its entries in instance order. The runtime saves one (p, i)'s instances
// in increasing order, so Put appends at the tail and Latest reads it; a
// sparse or out-of-order instance, which the Store contract allows, is
// placed by binary search. A run stays when it empties: replay saves the
// same instances again. PutRetaining retires what newer complete straight
// cuts make redundant, for every store that retires. Callers hold their
// store's lock; the zero value is ready.
type KeyIndex[V any] struct {
	procs map[int]*keyProc[V]
	slab  arena[keyProc[V]] // the headers procs points into
	n     int               // keys held
	// epoch counts the changes PutRetaining's fronts do not follow — Del
	// and Put — and so drops them all.
	epoch uint32
}

type keyProc[V any] struct {
	runs []keyRun[V] // by ascending index
	n    int
}

type keyRun[V any] struct {
	index int
	ents  []keyEnt[V] // by ascending instance
	ret   retention
}

// retention is a run's part in PutRetaining's rule: n, the application size
// its process's last retaining put carried; on a block's first process's run
// also the block's F_i (-1 while a process holds no i) and how many of its
// processes sit at it, valid while seen is the index's epoch + 1.
type retention struct {
	n, min, atMin int32
	seen          uint32
}

type keyEnt[V any] struct {
	instance int
	val      V
}

// retainCuts is D, how many of an index's newest complete straight cuts
// PutRetaining keeps: two, so that a damaged newest cut still degrades.
const retainCuts = 2

// A fleet job's processes share a header chunk; a run's first allocation
// holds a short loop's instances.
const procChunkMin, runChunkMin = 4, 8

// run returns where index's run is in p.runs, or would go.
func (p *keyProc[V]) run(index int) (int, bool) {
	return slices.BinarySearchFunc(p.runs, index, func(r keyRun[V], i int) int { return cmp.Compare(r.index, i) })
}

// ent returns where instance is in r.ents, or would go: the tail unsearched.
func (r *keyRun[V]) ent(instance int) (int, bool) {
	if n := len(r.ents); n == 0 || r.ents[n-1].instance < instance {
		return n, false
	}
	return slices.BinarySearchFunc(r.ents, instance, func(e keyEnt[V], i int) int { return cmp.Compare(e.instance, i) })
}

// find returns k's run and where its entry is, ok when it exists.
func (ix *KeyIndex[V]) find(k Key) (r *keyRun[V], at int, ok bool) {
	if p := ix.procs[k.Proc]; p != nil {
		if ri, found := p.run(k.CFGIndex); found {
			r = &p.runs[ri]
			at, ok = r.ent(k.Instance)
		}
	}
	return r, at, ok
}

// Get returns the value stored under k.
func (ix *KeyIndex[V]) Get(k Key) (v V, ok bool) {
	if r, at, found := ix.find(k); found {
		return r.ents[at].val, true
	}
	return v, false
}

// Put stores v under k, replacing what k held.
func (ix *KeyIndex[V]) Put(k Key, v V) { ix.putRetaining(k, v, 0, 0, nil) }

// runOf returns proc's header and its run of index, making either if need be.
func (ix *KeyIndex[V]) runOf(proc, index int) (*keyProc[V], *keyRun[V]) {
	p := ix.procs[proc]
	if p == nil {
		if ix.procs == nil {
			ix.procs = make(map[int]*keyProc[V])
		}
		p = &ix.slab.keep(procChunkMin, make([]keyProc[V], 1))[0]
		ix.procs[proc] = p
	}
	ri, ok := p.run(index)
	if !ok {
		p.runs = slices.Insert(p.runs, ri, keyRun[V]{index: index, ents: make([]keyEnt[V], 0, runChunkMin)})
	}
	return p, &p.runs[ri]
}

// PutRetaining is Put under the retention rule (DESIGN decision 33): with n
// > 0, the size of the application k.Proc belongs to, it then retires, on
// each process of k.Proc's block [k.Proc/n·n, k.Proc/n·n+n), every instance
// of k.CFGIndex below F_i − retainCuts + 1, handing each to drop. F_i is the
// least of the block's latest instances at the index, once all n hold it.
// n < 0 stands for the n of (k.Proc, k.CFGIndex)'s last retaining put — a
// log replaying a record whose body is lost — and with n = 0 it is Put.
func (ix *KeyIndex[V]) PutRetaining(k Key, v V, n int, drop func(Key, V)) {
	ix.putRetaining(k, v, n, retainCuts, drop)
}

// putRetaining is PutRetaining keeping the newest d complete cuts. F_i is
// kept on the block's first run, not scanned: the block is scanned, and
// retired across, only when F_i can move — the last process at it moves on —
// or the front is not known or a put lands at or below its process's latest.
func (ix *KeyIndex[V]) putRetaining(k Key, v V, n, d int, drop func(Key, V)) {
	kp, r := ix.runOf(k.Proc, k.CFGIndex)
	prev := -1 // k.Proc's latest instance at k.CFGIndex before the put
	if len(r.ents) > 0 {
		prev = r.ents[len(r.ents)-1].instance
	}
	if at, ok := r.ent(k.Instance); ok {
		r.ents[at].val = v
	} else {
		r.ents = slices.Insert(r.ents, at, keyEnt[V]{k.Instance, v})
		kp.n++
		ix.n++
	}
	if n < 0 {
		n = int(r.ret.n)
	}
	if n == 0 {
		ix.epoch++
		return
	}
	if r.ret.n != int32(n) { // a front kept here was another block's
		r.ret = retention{n: int32(n)}
	}
	first := k.Proc / n * n
	_, fr := ix.runOf(first, k.CFGIndex)
	f := &fr.ret
	ok := f.n == int32(n) && f.seen == ix.epoch+1 && k.Instance > prev
	if ok && prev == int(f.min) {
		f.atMin--
		ok = f.atMin > 0
	}
	if ok {
		return
	}
	lo, atLo := -1, 0
	for p := first; p < first+n; p++ {
		inst, _, held := ix.Latest(p, k.CFGIndex)
		if !held {
			inst = -1
		}
		if p == first || inst < lo {
			lo, atLo = inst, 1
		} else if inst == lo {
			atLo++
		}
	}
	for p := first; p < first+n; p++ {
		ix.retire(p, k.CFGIndex, lo-d+1, drop)
	}
	*f = retention{int32(n), int32(lo), int32(atLo), ix.epoch + 1}
}

// Del removes k and reports whether it was there. slices.Delete zeroes the
// slot it vacates, so a V that held a pointer would not stay reachable; no
// store's V holds one.
func (ix *KeyIndex[V]) Del(k Key) bool {
	r, at, ok := ix.find(k)
	if ok {
		r.ents = slices.Delete(r.ents, at, at+1)
		ix.procs[k.Proc].n--
		ix.n--
		ix.epoch++
	}
	return ok
}

// retire drops (proc, index)'s instances below below, handing each to drop.
// The survivors move to the front of the run, so that it keeps appending
// into the room it has.
func (ix *KeyIndex[V]) retire(proc, index, below int, drop func(Key, V)) {
	r, at, _ := ix.find(Key{proc, index, below})
	if r == nil || at == 0 {
		return
	}
	for _, e := range r.ents[:at] {
		drop(Key{proc, index, e.instance}, e.val)
	}
	kept := copy(r.ents, r.ents[at:])
	clear(r.ents[kept:]) // as Del does
	r.ents = r.ents[:kept]
	ix.procs[proc].n -= at
	ix.n -= at
}

// Latest returns the highest instance of (proc, index) and its value.
func (ix *KeyIndex[V]) Latest(proc, index int) (instance int, v V, ok bool) {
	if p := ix.procs[proc]; p != nil {
		if ri, found := p.run(index); found && len(p.runs[ri].ents) > 0 {
			e := p.runs[ri].ents[len(p.runs[ri].ents)-1]
			return e.instance, e.val, true
		}
	}
	return 0, v, false
}

// LenProc returns how many keys of proc the index holds.
func (ix *KeyIndex[V]) LenProc(proc int) int {
	if p := ix.procs[proc]; p != nil {
		return p.n
	}
	return 0
}

// Range calls f on proc's keys and values in (index, instance) order until
// f returns false, and reports whether it reached the end. f may Put to the
// key it was handed, and nothing else.
func (ix *KeyIndex[V]) Range(proc int, f func(Key, V) bool) bool {
	if p := ix.procs[proc]; p != nil {
		for _, r := range p.runs {
			for _, e := range r.ents {
				if !f(Key{proc, r.index, e.instance}, e.val) {
					return false
				}
			}
		}
	}
	return true
}

// RangeAll is Range over every process, in no particular process order.
func (ix *KeyIndex[V]) RangeAll(f func(Key, V) bool) {
	for proc := range ix.procs {
		if !ix.Range(proc, f) {
			return
		}
	}
}

// Keys returns proc's keys in (index, instance) order, in a slice of their
// exact number that is the caller's.
func (ix *KeyIndex[V]) Keys(proc int) []Key {
	keys := make([]Key, 0, ix.LenProc(proc))
	ix.Range(proc, func(k Key, _ V) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}
