package storage

import (
	"cmp"
	"slices"
)

// KeyIndex is every store's key index, from a checkpoint's key to what the
// store keeps for it. It answers recovery's questions about the straight cut
// R_i by lookup: which indexes all n processes hold (Indexes), the latest
// instance of C_{p,i} (Latest), does (p, i, k) exist (Get).
//
// A process maps to one run per CFG index, in index order, and a run holds
// its entries in instance order. The runtime saves one (p, i)'s instances
// in increasing order, so Put appends at the tail and Latest reads it; a
// sparse or out-of-order instance, which the Store contract allows, is
// placed by binary search. A run stays when it empties: replay saves the
// same instances again. Callers hold their store's lock; the zero value is
// ready.
type KeyIndex[V any] struct {
	procs map[int]*keyProc[V]
	slab  arena[keyProc[V]] // the headers procs points into
	n     int               // keys held
}

type keyProc[V any] struct {
	runs []keyRun[V] // by ascending index
	n    int
}

type keyRun[V any] struct {
	index int
	ents  []keyEnt[V] // by ascending instance
}

type keyEnt[V any] struct {
	instance int
	val      V
}

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
func (ix *KeyIndex[V]) Put(k Key, v V) {
	p := ix.procs[k.Proc]
	if p == nil {
		if ix.procs == nil {
			ix.procs = make(map[int]*keyProc[V])
		}
		p = &ix.slab.keep(procChunkMin, make([]keyProc[V], 1))[0]
		ix.procs[k.Proc] = p
	}
	ri, ok := p.run(k.CFGIndex)
	if !ok {
		p.runs = slices.Insert(p.runs, ri, keyRun[V]{k.CFGIndex, make([]keyEnt[V], 0, runChunkMin)})
	}
	r := &p.runs[ri]
	if at, ok := r.ent(k.Instance); ok {
		r.ents[at].val = v
	} else {
		r.ents = slices.Insert(r.ents, at, keyEnt[V]{k.Instance, v})
		p.n++
		ix.n++
	}
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
	}
	return ok
}

// retire drops (proc, index)'s instances below below, handing each value to
// drop. The survivors move to the front of the run, so that it keeps
// appending into the room it has.
func (ix *KeyIndex[V]) retire(proc, index, below int, drop func(V)) {
	r, at, _ := ix.find(Key{proc, index, below})
	if r == nil || at == 0 {
		return
	}
	for _, e := range r.ents[:at] {
		drop(e.val)
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

// Indexes returns, sorted, the CFG indexes whose runs are non-empty on
// exactly n processes, from one allocation.
func (ix *KeyIndex[V]) Indexes(n int) []int {
	runs := 0
	for _, p := range ix.procs {
		runs += len(p.runs)
	}
	idx := make([]int, 0, runs)
	for _, p := range ix.procs {
		for _, r := range p.runs {
			if len(r.ents) > 0 {
				idx = append(idx, r.index)
			}
		}
	}
	return exactlyN(n, idx)
}

// exactlyN sorts idx — each process's distinct CFG indexes, end to end —
// and returns, in place, those listed exactly n times. Exactly, not at
// least: a store shared by more processes than the application has must not
// offer a cut it cannot assemble.
func exactlyN(n int, idx []int) []int {
	slices.Sort(idx)
	out := idx[:0]
	for i, j := 0, 0; i < len(idx); i = j {
		for j = i + 1; j < len(idx) && idx[j] == idx[i]; j++ {
		}
		if j-i == n {
			out = append(out, idx[i])
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
