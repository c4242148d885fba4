package storage

import (
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"sync"
)

// This file is the incremental store as it was before its records went flat
// (DESIGN decision 27): each record a deep-cloned Snapshot, each replay a
// fresh maps.Clone of the base. It survives as the reference
// TestIncrementalAgainstReference drives the flat store against; only the
// names changed, and it learnt the flat store's delete contract: any key
// goes, a record that is not the tail stays as a dead base.

// refClone returns a deep copy of s.
func refClone(s Snapshot) Snapshot {
	return refCloneWithVars(s, maps.Clone(s.Vars))
}

// refCloneWithVars returns a deep copy of every field of s but Vars, which
// becomes vars: the copy takes the map over.
func refCloneWithVars(s Snapshot, vars map[string]int) Snapshot {
	c := s
	c.Clock = s.Clock.Clone()
	c.Vars = vars
	c.Peers = slices.Clone(s.Peers)
	c.Instances = maps.Clone(s.Instances)
	return c
}

// refIncremental is a Store that saves most snapshots as deltas against the
// process's previous checkpoint — the classic incremental-checkpointing
// optimization the paper's related work surveys (compiler-assisted
// checkpointing can identify what changed; here the store diffs the
// variable maps). Every FullEvery-th snapshot per process is stored in
// full to bound reconstruction chains. Readers always receive fully
// reconstructed snapshots; the delta encoding is invisible outside.
//
// Every refRecord carries a CRC of the fully reconstructed snapshot, taken at
// save time. Reconstruction re-verifies it, so damage anywhere in a delta
// chain — in particular a corrupt base refRecord — surfaces as ErrCorrupt on
// every read that depends on it, never as a silently bogus reconstruction.
type refIncremental struct {
	mu sync.Mutex
	// FullEvery is the full-snapshot period (default 8 when 0).
	fullEvery int
	// recs holds the raw records in per-process temporal order.
	recs map[int][]refRecord
	// byKey indexes records by (proc, index, instance).
	byKey map[Key]int // position within recs[proc]

	fullBytes  int
	deltaBytes int

	// crcBuf is the scratch body checksumLocked encodes into.
	crcBuf []byte
}

// refRecord is one stored checkpoint, possibly a delta.
type refRecord struct {
	snap  Snapshot // for deltas, Vars holds only changed/new variables
	delta bool
	// dead marks a deleted or quarantined refRecord later deltas still
	// replay through.
	dead bool
	// removedVars lists variables that disappeared relative to the base
	// (MPL variables never disappear, but the store does not rely on
	// that).
	removedVars []string
	// crc is the checksum of the fully reconstructed snapshot this refRecord
	// represents, computed at save time and re-verified on every
	// reconstruction.
	crc uint32
}

var _ Store = (*refIncremental)(nil)
var _ Scrubber = (*refIncremental)(nil)
var _ KeyLister = (*refIncremental)(nil)

// newRefIncremental creates an incremental store. fullEvery <= 0 selects the
// default period of 8.
func newRefIncremental(fullEvery int) *refIncremental {
	if fullEvery <= 0 {
		fullEvery = 8
	}
	return &refIncremental{
		fullEvery: fullEvery,
		recs:      make(map[int][]refRecord),
		byKey:     make(map[Key]int),
	}
}

// checksumLocked fingerprints a fully reconstructed snapshot by its
// (deterministic) AppendSnapshot bytes. A nil variable map is normalized
// to empty: delta reconstruction always rebuilds a concrete map, and the
// fingerprint must not depend on that representation detail.
func (inc *refIncremental) checksumLocked(s Snapshot) uint32 {
	if s.Vars == nil {
		s.Vars = emptyVars
	}
	inc.crcBuf = AppendSnapshot(inc.crcBuf[:0], s)
	return crc32.ChecksumIEEE(inc.crcBuf)
}

// Save implements Store.
func (inc *refIncremental) Save(s Snapshot) error {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	k := s.Key()
	if _, dup := inc.byKey[k]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, k)
	}
	chain := inc.recs[s.Proc]
	rec := refRecord{crc: inc.checksumLocked(s)}
	storeFull := len(chain)%inc.fullEvery == 0
	var prev map[string]int
	if !storeFull {
		// Delta against the previous refRecord's reconstructed state. If the
		// previous refRecord turns out to be corrupt, do not chain onto it:
		// store a full refRecord instead so new checkpoints stay readable
		// even on a damaged chain (self-healing writes).
		var err error
		prev, err = inc.varsAtLocked(s.Proc, len(chain)-1)
		if err != nil {
			storeFull = true
		}
	}
	if storeFull {
		rec.snap = refClone(s)
		inc.fullBytes += refApproxSize(rec.snap.Vars)
	} else {
		deltaVars := make(map[string]int)
		for name, v := range s.Vars {
			if pv, ok := prev[name]; !ok || pv != v {
				deltaVars[name] = v
			}
		}
		for name := range prev {
			if _, ok := s.Vars[name]; !ok {
				rec.removedVars = append(rec.removedVars, name)
			}
		}
		rec.delta = true
		rec.snap = refCloneWithVars(s, deltaVars)
		inc.deltaBytes += refApproxSize(deltaVars)
	}
	inc.byKey[k] = len(chain)
	inc.recs[s.Proc] = append(chain, rec)
	return nil
}

// apply advances vars — the reconstructed variable state just before r,
// owned by the caller — to the state at r, in place for a delta.
func (r *refRecord) apply(vars map[string]int) map[string]int {
	if !r.delta {
		return maps.Clone(r.snap.Vars)
	}
	if vars == nil {
		vars = make(map[string]int, len(r.snap.Vars))
	}
	for k, v := range r.snap.Vars {
		vars[k] = v
	}
	for _, k := range r.removedVars {
		delete(vars, k)
	}
	return vars
}

// verifyLocked checks vars, the reconstructed variable state at r, against
// the checksum taken when r was saved. A mismatch anywhere in the chain (a
// flipped bit in a base refRecord corrupts every dependent reconstruction)
// returns ErrCorrupt.
func (inc *refIncremental) verifyLocked(r *refRecord, vars map[string]int) error {
	// Non-Vars fields always come from the target refRecord.
	view := r.snap
	view.Vars = vars
	if got := inc.checksumLocked(view); got != r.crc {
		return fmt.Errorf("%w: %s reconstruction crc %08x != %08x (damaged delta chain)",
			ErrCorrupt, r.snap.Key(), got, r.crc)
	}
	return nil
}

// varsAtLocked rebuilds the variable state at position pos of proc's chain
// by replaying deltas from the nearest full refRecord into one map, then
// verifies it. The map is the caller's.
func (inc *refIncremental) varsAtLocked(proc, pos int) (map[string]int, error) {
	chain := inc.recs[proc]
	start := pos
	for start > 0 && chain[start].delta {
		start--
	}
	var vars map[string]int
	for i := start; i <= pos; i++ {
		vars = chain[i].apply(vars)
	}
	if err := inc.verifyLocked(&chain[pos], vars); err != nil {
		return nil, err
	}
	return vars, nil
}

// reconstructLocked rebuilds and verifies the full snapshot at position pos
// of proc's chain; the result is a private copy.
func (inc *refIncremental) reconstructLocked(proc, pos int) (Snapshot, error) {
	vars, err := inc.varsAtLocked(proc, pos)
	if err != nil {
		return Snapshot{}, err
	}
	return refCloneWithVars(inc.recs[proc][pos].snap, vars), nil
}

// Get implements Store.
func (inc *refIncremental) Get(proc, cfgIndex, instance int) (Snapshot, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	k := Key{proc, cfgIndex, instance}
	pos, ok := inc.byKey[k]
	if !ok {
		return Snapshot{}, fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	return inc.reconstructLocked(proc, pos)
}

// Latest implements Store.
func (inc *refIncremental) Latest(proc, cfgIndex int) (Snapshot, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	best := -1
	bestInst := -1
	for pos := range inc.recs[proc] {
		if k := inc.recs[proc][pos].snap.Key(); !inc.recs[proc][pos].dead && k.CFGIndex == cfgIndex && k.Instance > bestInst {
			bestInst = k.Instance
			best = pos
		}
	}
	if best < 0 {
		return Snapshot{}, fmt.Errorf("%w: proc=%d index=%d", ErrNotFound, proc, cfgIndex)
	}
	return inc.reconstructLocked(proc, best)
}

// List implements Store.
func (inc *refIncremental) List(proc int) ([]Snapshot, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	// One forward pass: vars is the state at pos, updated in place from
	// refRecord to refRecord, and every position is verified as Get would.
	// The first key in SortKeys order that fails verification fails the
	// listing, as Get of each key in that order would.
	type loaded struct {
		snap Snapshot
		err  error
	}
	chain := inc.recs[proc]
	keys := make([]Key, 0, len(chain))
	byKey := make(map[Key]loaded, len(chain))
	var vars map[string]int
	for pos := range chain {
		r := &chain[pos]
		vars = r.apply(vars)
		if r.dead {
			continue
		}
		k := r.snap.Key()
		keys = append(keys, k)
		if err := inc.verifyLocked(r, vars); err != nil {
			byKey[k] = loaded{err: err}
			continue
		}
		byKey[k] = loaded{snap: refCloneWithVars(r.snap, maps.Clone(vars))}
	}
	SortKeys(keys)
	out := make([]Snapshot, len(keys))
	for i, k := range keys {
		if byKey[k].err != nil {
			return nil, byKey[k].err
		}
		out[i] = byKey[k].snap
	}
	return out, nil
}

// Indexes implements Store.
func (inc *refIncremental) Indexes(n int) ([]int, error) { return Indexes(inc, n) }

// Keys implements KeyLister, in (index, instance) order as the flat store's
// index gives them: a refRecord names its checkpoint even when its chain no
// longer verifies.
func (inc *refIncremental) Keys(proc int) ([]Key, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	keys := []Key{}
	for _, r := range inc.recs[proc] {
		if !r.dead {
			keys = append(keys, r.snap.Key())
		}
	}
	SortKeys(keys)
	return keys, nil
}

// Delete implements Store: the refRecord stays as a dead base until nothing
// live is above it.
func (inc *refIncremental) Delete(proc, cfgIndex, instance int) error {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	k := Key{proc, cfgIndex, instance}
	pos, ok := inc.byKey[k]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	inc.recs[proc][pos].dead = true
	delete(inc.byKey, k)
	inc.trimLocked(proc)
	return nil
}

// trimLocked drops the dead refRecords from the tail of proc's chain.
func (inc *refIncremental) trimLocked(proc int) {
	chain := inc.recs[proc]
	for len(chain) > 0 && chain[len(chain)-1].dead {
		chain = chain[:len(chain)-1]
	}
	inc.recs[proc] = chain
}

// Tamper mutates the raw stored variable map of one refRecord WITHOUT
// updating its integrity checksum — a fault-injection hook for chaos and
// corruption tests that simulates bit rot inside a persisted refRecord. For a
// delta refRecord the map holds only the delta; for a full refRecord (a delta
// chain's base) it holds the whole state, so tampering with it poisons
// every reconstruction chained on top.
func (inc *refIncremental) Tamper(proc, cfgIndex, instance int, mutate func(vars map[string]int)) error {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	k := Key{proc, cfgIndex, instance}
	pos, ok := inc.byKey[k]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	mutate(inc.recs[proc][pos].snap.Vars)
	return nil
}

// Scrub implements Scrubber: every live refRecord whose reconstruction
// fails verification is quarantined as a dead base.
func (inc *refIncremental) Scrub() (ScrubReport, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	var rep ScrubReport
	for proc, chain := range inc.recs {
		// One forward pass verifies every position, as List does.
		var vars map[string]int
		for pos := range chain {
			r := &chain[pos]
			vars = r.apply(vars)
			if r.dead {
				continue
			}
			if err := inc.verifyLocked(r, vars); err != nil {
				r.dead = true
				delete(inc.byKey, r.snap.Key())
				rep.Quarantined = append(rep.Quarantined, SnapshotRef{r.snap.Key(), err.Error()})
			}
		}
		inc.trimLocked(proc)
	}
	return rep, nil
}

// Stats returns the accumulated size statistics.
func (inc *refIncremental) Stats() SizeStats {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return SizeStats{FullBytes: inc.fullBytes, DeltaBytes: inc.deltaBytes}
}

// refApproxSize estimates the serialized size of a variable map (names plus
// 8-byte values).
func refApproxSize(vars map[string]int) int {
	n := 0
	for name := range vars {
		n += len(name) + 8
	}
	return n
}
