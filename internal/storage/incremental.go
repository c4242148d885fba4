package storage

import (
	"fmt"
	"hash/crc32"
	"sync"
)

// Incremental is a Store that saves most snapshots as deltas against the
// process's previous checkpoint — the classic incremental-checkpointing
// optimization the paper's related work surveys (compiler-assisted
// checkpointing can identify what changed; here the store diffs the
// variable maps). Every FullEvery-th snapshot per process is stored in
// full to bound reconstruction chains. Readers always receive fully
// reconstructed snapshots; the delta encoding is invisible outside.
//
// What it retains of a snapshot is flat: the AppendSnapshot body without its
// variable run, in a per-process byte arena, and the variables that changed
// as (name, value) pairs cut from a per-process slab — no map, no Snapshot.
// A variable map exists only while a chain is replayed, in one scratch map
// the store owns: it is filled and read under the store's lock and never
// handed out, so it needs no lifetime protocol. A read encodes that map
// between the record's head and tail and decodes the body, so what it
// returns is a private copy by construction, as in Memory.
//
// Every record carries a CRC of the fully reconstructed snapshot, taken at
// save time. Reconstruction re-verifies it, so damage anywhere in a delta
// chain — in particular a corrupt base record — surfaces as ErrCorrupt on
// every read that depends on it, never as a silently bogus reconstruction.
//
// Any key can be deleted. A deleted record that is not the chain's tail
// stays behind as a dead base: no longer a key, but later deltas still replay
// through it. Dead records go once nothing live is above them (trim).
type Incremental struct {
	mu sync.Mutex
	// FullEvery is the full-snapshot period (default 8 when 0).
	fullEvery int
	procs     map[int]*incProc
	byKey     KeyIndex[int] // each record's position within its process's chain

	fullBytes  int
	deltaBytes int

	// Scratch, meaningful only while mu is held: the variable state a replay
	// has reached, the body (Save: then frame) being encoded, and the pairs
	// of the record Save is cutting.
	vars  map[string]int
	buf   []byte
	pairs []nameVal
}

// incProc holds one process's records and the memory they are cut from.
type incProc struct {
	chain  []record // in save order
	frames arena[byte]
	pairs  arena[nameVal]
}

// pairChunkMin is the first pair chunk: a few full records of a small
// program, 768 bytes.
const pairChunkMin = 32

// nameVal is one variable of a record. The name is the saver's own string:
// strings are immutable, so sharing it borrows nothing.
type nameVal struct {
	name string
	val  int
}

// record is one stored checkpoint, possibly a delta.
type record struct {
	key   Key
	delta bool
	// dead marks a deleted or quarantined record kept as a dead base.
	dead bool
	// nilVars marks a full record whose snapshot had a nil variable map, so
	// that a read gives nil back (a delta always reconstructs a map).
	nilVars bool
	// crc is the checksum of the fully reconstructed snapshot's body,
	// computed at save time and re-verified on every reconstruction.
	crc uint32
	// frame is the body without its variable run: head (version … Clock),
	// of length head, then tail (PC … the empty manifest run).
	frame []byte
	head  int
	// vars holds every variable of a full record and the changed or new
	// ones of a delta; removed names those that disappeared relative to
	// the base (MPL variables never disappear, but manifests of different
	// sites differ). Both are capacity-clipped cuts of the pair slab.
	vars, removed []nameVal
}

var _ Store = (*Incremental)(nil)
var _ Scrubber = (*Incremental)(nil)

// NewIncremental creates an incremental store. fullEvery <= 0 selects the
// default period of 8.
func NewIncremental(fullEvery int) *Incremental {
	if fullEvery <= 0 {
		fullEvery = 8
	}
	return &Incremental{
		fullEvery: fullEvery,
		procs:     make(map[int]*incProc),
		vars:      make(map[string]int),
	}
}

// emptyVars stands in for a nil variable map in a record's checksum; never
// written.
var emptyVars = map[string]int{}

// Save implements Store.
func (inc *Incremental) Save(s Snapshot) error {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	k := s.Key()
	if _, dup := inc.byKey.Get(k); dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, k)
	}
	p := inc.procs[s.Proc]
	if p == nil {
		p = &incProc{}
		inc.procs[s.Proc] = p
	}
	// The checksum is over the whole body, with a nil variable map
	// normalized to empty: reconstruction always rebuilds a concrete map,
	// and the fingerprint must not depend on that representation detail.
	vars := s.Vars
	if vars == nil {
		vars = emptyVars
	}
	buf := appendHead(inc.buf[:0], s)
	head := len(buf)
	buf = appendVars(buf, vars)
	tail := len(buf)
	buf = appendTail(buf, s)
	inc.buf = buf
	rec := record{
		key: k, crc: crc32.ChecksumIEEE(buf), head: head,
		frame: p.frames.keep(arenaChunkMin, buf[:head], buf[tail:]),
		delta: len(p.chain)%inc.fullEvery != 0,
	}
	if rec.delta {
		// Delta against the previous record's reconstructed state. If the
		// previous record turns out to be corrupt, do not chain onto it:
		// store a full record instead so new checkpoints stay readable
		// even on a damaged chain (self-healing writes).
		if inc.verifyLocked(inc.replayLocked(p.chain, len(p.chain)-1)) != nil {
			rec.delta = false
		}
	}
	if !rec.delta {
		// A full record is a delta against nothing.
		clear(inc.vars)
		rec.nilVars = s.Vars == nil
	}
	pairs := inc.pairs[:0]
	for name, v := range s.Vars {
		if pv, ok := inc.vars[name]; !ok || pv != v {
			pairs = append(pairs, nameVal{name, v})
		}
	}
	changed := len(pairs)
	for name := range inc.vars {
		if _, ok := s.Vars[name]; !ok {
			pairs = append(pairs, nameVal{name: name})
		}
	}
	inc.pairs = pairs
	kept := p.pairs.keep(pairChunkMin, pairs)
	rec.vars, rec.removed = kept[:changed:changed], kept[changed:]
	if rec.delta {
		inc.deltaBytes += approxSize(rec.vars)
	} else {
		inc.fullBytes += approxSize(rec.vars)
	}
	inc.byKey.Put(k, len(p.chain))
	p.chain = append(p.chain, rec)
	return nil
}

// applyLocked advances the scratch map — the reconstructed variable state
// just before r — to the state at r.
func (inc *Incremental) applyLocked(r *record) {
	if !r.delta {
		clear(inc.vars)
	}
	for _, nv := range r.vars {
		inc.vars[nv.name] = nv.val
	}
	for _, nv := range r.removed {
		delete(inc.vars, nv.name)
	}
}

// verifyLocked puts r's body together in the scratch buffer around the
// scratch map, which must hold the variable state at r, and checks it against
// the checksum taken when r was saved. A mismatch anywhere in the chain (a
// flipped bit in a base record corrupts every dependent reconstruction)
// returns ErrCorrupt.
func (inc *Incremental) verifyLocked(r *record) error {
	buf := append(inc.buf[:0], r.frame[:r.head]...)
	buf = appendVars(buf, inc.vars)
	inc.buf = append(buf, r.frame[r.head:]...)
	if got := crc32.ChecksumIEEE(inc.buf); got != r.crc {
		return fmt.Errorf("%w: %s reconstruction crc %08x != %08x (damaged delta chain)",
			ErrCorrupt, r.key, got, r.crc)
	}
	return nil
}

// snapshotLocked returns the snapshot of r, given its variable state in the
// scratch map, by decoding the body verifyLocked just checked: a private
// copy, DecodeSnapshot shares nothing with its input.
func (inc *Incremental) snapshotLocked(r *record) (Snapshot, error) {
	if err := inc.verifyLocked(r); err != nil {
		return Snapshot{}, err
	}
	s, err := DecodeSnapshot(inc.buf)
	if err != nil {
		return Snapshot{}, fmt.Errorf("%w: %s: %v", ErrCorrupt, r.key, err)
	}
	if r.nilVars {
		s.Vars = nil
	}
	return s, nil
}

// replayLocked rebuilds the variable state at position pos of chain in the
// scratch map, replaying deltas from the nearest full record, and returns
// the record there, yet to be verified.
func (inc *Incremental) replayLocked(chain []record, pos int) *record {
	start := pos
	for start > 0 && chain[start].delta {
		start--
	}
	for i := start; i <= pos; i++ {
		inc.applyLocked(&chain[i])
	}
	return &chain[pos]
}

// Get implements Store.
func (inc *Incremental) Get(proc, cfgIndex, instance int) (Snapshot, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	k := Key{proc, cfgIndex, instance}
	pos, ok := inc.byKey.Get(k)
	if !ok {
		return Snapshot{}, fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	return inc.snapshotLocked(inc.replayLocked(inc.procs[proc].chain, pos))
}

// Latest implements Store.
func (inc *Incremental) Latest(proc, cfgIndex int) (Snapshot, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	_, pos, ok := inc.byKey.Latest(proc, cfgIndex)
	if !ok {
		return Snapshot{}, fmt.Errorf("%w: proc=%d index=%d", ErrNotFound, proc, cfgIndex)
	}
	return inc.snapshotLocked(inc.replayLocked(inc.procs[proc].chain, pos))
}

// List implements Store.
func (inc *Incremental) List(proc int) ([]Snapshot, error) { return List(inc, proc) }

// Indexes implements Store.
func (inc *Incremental) Indexes(n int) ([]int, error) { return Indexes(inc, n) }

// Keys implements KeyLister: a record names its checkpoint even when its
// chain no longer verifies.
func (inc *Incremental) Keys(proc int) ([]Key, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.byKey.Keys(proc), nil
}

// Delete implements Store.
func (inc *Incremental) Delete(proc, cfgIndex, instance int) error {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	k := Key{proc, cfgIndex, instance}
	pos, ok := inc.byKey.Get(k)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	inc.byKey.Del(k)
	p := inc.procs[proc]
	p.chain[pos].dead = true
	p.trim()
	return nil
}

// trim drops the dead records from the tail of the chain, zeroing them: a
// record left in the backing array would pin its frame's and its pairs'
// chunks until a later save happened to overwrite the slot.
func (p *incProc) trim() {
	pos := len(p.chain)
	for pos > 0 && p.chain[pos-1].dead {
		pos--
	}
	clear(p.chain[pos:])
	p.chain = p.chain[:pos]
}

// Tamper mutates the raw stored variables of one record WITHOUT updating
// its integrity checksum — a fault-injection hook for chaos and corruption
// tests that simulates bit rot inside a persisted record. mutate sees them
// as a map, written back when it returns. For a delta record the map holds
// only the delta; for a full record (a delta chain's base) it holds the
// whole state, so tampering with it poisons every reconstruction chained on
// top.
func (inc *Incremental) Tamper(proc, cfgIndex, instance int, mutate func(vars map[string]int)) error {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	k := Key{proc, cfgIndex, instance}
	pos, ok := inc.byKey.Get(k)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	r := &inc.procs[proc].chain[pos]
	var vars map[string]int
	if !r.nilVars {
		vars = make(map[string]int, len(r.vars))
		for _, nv := range r.vars {
			vars[nv.name] = nv.val
		}
	}
	mutate(vars)
	// In place when they fit; a longer list reallocates, the cut's clipped
	// capacity keeps it off the neighbouring record's pairs.
	r.vars = r.vars[:0]
	for name, v := range vars {
		r.vars = append(r.vars, nameVal{name, v})
	}
	return nil
}

// Scrub implements Scrubber: every live record whose reconstruction fails
// verification is quarantined, and stays behind as a dead base.
func (inc *Incremental) Scrub() (ScrubReport, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	var rep ScrubReport
	for _, p := range inc.procs {
		// One forward pass verifies every position, as List does.
		for pos := range p.chain {
			r := &p.chain[pos]
			inc.applyLocked(r)
			if r.dead {
				continue
			}
			if err := inc.verifyLocked(r); err != nil {
				inc.byKey.Del(r.key)
				r.dead = true
				rep.Quarantined = append(rep.Quarantined, SnapshotRef{r.key, err.Error()})
			}
		}
		p.trim()
	}
	return rep, nil
}

// SizeStats reports the approximate stored variable bytes, full vs delta —
// the savings incremental checkpointing exists for.
type SizeStats struct {
	FullBytes  int
	DeltaBytes int
}

// Stats returns the accumulated size statistics.
func (inc *Incremental) Stats() SizeStats {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return SizeStats{FullBytes: inc.fullBytes, DeltaBytes: inc.deltaBytes}
}

// approxSize estimates the serialized size of a record's variables (names
// plus 8-byte values).
func approxSize(vars []nameVal) int {
	n := 0
	for _, nv := range vars {
		n += len(nv.name) + 8
	}
	return n
}
