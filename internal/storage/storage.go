// Package storage provides the stable-storage abstraction that
// checkpointing protocols write checkpoints to and restart reads them from:
// a concurrency-safe in-memory store (Memory, the default everywhere), a
// delta-encoding one (Incremental) and, in package wal, the one durable
// store: a group-committed log. All index checkpoints by (process, CFG
// checkpoint index, instance) exactly as the paper's Definition 2.3
// requires so that the straight cut R_i — the latest i-th checkpoint of
// every process — can be recovered after a failure.
//
// What a store retains of a snapshot is its AppendSnapshot body (codec.go),
// framed on disk or, in Memory, length-prefixed on a page all processes
// share; reads decode it. Incremental keeps the body's variable run apart, as
// the (name, value) pairs that changed, and encodes a reconstructed map in its
// place before decoding.
package storage

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/vclock"
)

// Snapshot is the saved state of one process at one checkpoint.
type Snapshot struct {
	Proc     int
	CFGIndex int            // the i of C_{p,i}
	Instance int            // invocation count of the statement
	Clock    vclock.VC      // carried by the codec; the runtime saves nil, no reader consults it
	Vars     map[string]int // process variable state
	PC       string         // resume label (statement id)
	N        int            // the size of the application that saved it (0: none); retention reads it
	// Peers counts the messages exchanged with each peer: a restarted process
	// resumes FIFO numbering from it, and recovery.Consistent judges cuts by it.
	Peers Row
	// Instances records the per-index checkpoint instance counters at
	// checkpoint time, so a restarted process numbers subsequent
	// checkpoints correctly. The counters include this checkpoint:
	// Instances.At(CFGIndex) == Instance+1. Rollback relies on that — a key
	// (i, k) of this process was saved after this snapshot exactly when
	// k >= Instances.At(i) — and refuses a line whose member breaks it.
	Instances Counts
	// VTime is the process's virtual clock at checkpoint time (0 when
	// virtual-time accounting is off).
	VTime float64
}

// PeerSeq counts the messages a process had sent to Peer and received from it.
type PeerSeq struct{ Peer, Sent, Recvd int }

// Row is one process's PeerSeqs, sorted by Peer, none all zero. A peer it
// does not hold reads 0 both ways.
type Row []PeerSeq

// Search returns where peer q's entry is, or would be inserted, in r.
func (r Row) Search(q int) (int, bool) {
	return slices.BinarySearchFunc(r, q, func(e PeerSeq, q int) int { return cmp.Compare(e.Peer, q) })
}

// At returns q's entry, a zero one when r holds none.
func (r Row) At(q int) PeerSeq {
	if i, ok := r.Search(q); ok {
		return r[i]
	}
	return PeerSeq{Peer: q}
}

// Count is how many checkpoints a process has taken at one CFG index.
type Count struct{ Index, N int }

// Counts is one process's instance counters, sorted by Index, each index
// once: a Save of any other order writes a body every read refuses as
// corrupt. One it does not hold reads 0. Any index may appear: the baseline
// protocols number forced checkpoints outside the program's enumeration.
type Counts []Count

// Search returns where index i's entry is, or would be inserted, in c.
func (c Counts) Search(i int) (int, bool) {
	return slices.BinarySearchFunc(c, i, func(e Count, i int) int { return cmp.Compare(e.Index, i) })
}

// At returns index i's count, 0 when c holds none.
func (c Counts) At(i int) int {
	if j, ok := c.Search(i); ok {
		return c[j].N
	}
	return 0
}

// Key names one checkpoint: Definition 2.3's (process, CFG checkpoint
// index, instance). Every store indexes by it, and its order — Less — is
// the order List returns and scrub reports are sorted in.
type Key struct{ Proc, CFGIndex, Instance int }

// Key returns the key s is stored under.
func (s Snapshot) Key() Key { return Key{s.Proc, s.CFGIndex, s.Instance} }

// Less orders keys lexicographically by (Proc, CFGIndex, Instance); among
// the keys of one process that is the (CFGIndex, Instance) order of List.
func (k Key) Less(o Key) bool {
	if k.Proc != o.Proc {
		return k.Proc < o.Proc
	}
	if k.CFGIndex != o.CFGIndex {
		return k.CFGIndex < o.CFGIndex
	}
	return k.Instance < o.Instance
}

func (k Key) String() string {
	return fmt.Sprintf("proc=%d index=%d instance=%d", k.Proc, k.CFGIndex, k.Instance)
}

// SortKeys sorts keys in Less order.
func SortKeys(keys []Key) {
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
}

// Store is the stable-storage interface used by the runtime and the
// recovery machinery.
type Store interface {
	// Save persists one snapshot. Saving the same (proc, index, instance)
	// twice is an error: checkpoints are immutable once taken. A store may
	// retire what later saves make redundant (Memory and the WAL keep the
	// newest retainCuts complete straight cuts of each index): a retired key
	// is no longer held, as if it had been deleted.
	//
	// Save borrows s: once it returns — with or without an error — the store
	// holds no reference to any map or slice of s, having copied or
	// serialised what it keeps, so the caller may go on mutating them (the
	// runtime lends its live per-peer row, instance counters and
	// environment). A wrapper forwards s synchronously and retains nothing.
	// s.Peers and s.Instances must be sorted (Row, Counts), or no read
	// accepts the body.
	// Reads return private copies: mutating a returned snapshot changes no
	// later read.
	Save(s Snapshot) error
	// Latest returns the snapshot with the highest instance for
	// (proc, cfgIndex), or ErrNotFound.
	Latest(proc, cfgIndex int) (Snapshot, error)
	// Get returns the exact snapshot, or ErrNotFound.
	Get(proc, cfgIndex, instance int) (Snapshot, error)
	// List returns all snapshots of proc ordered by (cfgIndex, instance),
	// failing when any of them fails to load. Every List under internal/ is
	// the package function List; only the benchmark's timedStore, which is
	// not a KeyLister, still needs the method (ROADMAP 14).
	List(proc int) ([]Snapshot, error)
	// Indexes returns the sorted CFG indexes of the straight cuts processes
	// 0…n−1 hold. Every Indexes under internal/ is the package function
	// Indexes; recovery reads StraightCuts itself (ROADMAP 14).
	Indexes(n int) ([]int, error)
	// Delete removes one snapshot, any one the store holds, in any order.
	// Deleting a missing snapshot is an error. Rollback recovery uses Delete
	// to garbage-collect checkpoints taken after the recovery line (they
	// belong to the rolled-back execution and would collide with
	// deterministic re-execution).
	Delete(proc, cfgIndex, instance int) error
}

// ErrNotFound reports a missing snapshot.
var ErrNotFound = errors.New("storage: snapshot not found")

// ErrDuplicate reports an attempt to overwrite an existing checkpoint.
var ErrDuplicate = errors.New("storage: snapshot already exists")

// ErrCorrupt reports a snapshot whose persisted bytes fail integrity
// verification (CRC mismatch, truncation, undecodable body, or a broken
// delta chain). A corrupt snapshot must never be returned as state: callers
// match with errors.Is and fall back to an older recovery line.
var ErrCorrupt = errors.New("storage: snapshot corrupt")

// ErrTransient marks a storage fault that may succeed on retry (an
// injected chaos fault, a flaky device, a momentary IO error). The runtime
// retries operations failing with ErrTransient under capped exponential
// backoff; any other error is treated as permanent.
var ErrTransient = errors.New("storage: transient fault")

// ErrFsync marks a failed fsync. It is deliberately NOT ErrTransient:
// after a failed fsync the kernel may have dropped the dirty pages while
// leaving the file descriptor clean, so a retried fsync can "succeed"
// without the data ever reaching disk (the PostgreSQL fsyncgate failure
// mode). A save failing with ErrFsync is permanently failed; the caller
// must treat the process as crashed and re-derive state from what storage
// actually holds.
var ErrFsync = errors.New("storage: fsync failed")

// SnapshotRef names one snapshot without carrying its state — used by
// scrub reports to identify what was quarantined.
type SnapshotRef struct {
	Key
	// Reason is a human-readable cause (crc mismatch, torn write, broken
	// delta chain, ...).
	Reason string
}

// ScrubReport summarizes one Scrub pass.
type ScrubReport struct {
	// Quarantined lists the damaged snapshots removed from the store's
	// namespace. After a scrub the same (proc, index, instance) can be
	// saved again: replay regenerates quarantined checkpoints.
	Quarantined []SnapshotRef
	// Collateral counts quarantines a Namespace does not list because they
	// fall outside its job; no store removes a healthy snapshot.
	Collateral int
}

// Scrubber is implemented by stores that can verify and quarantine their
// contents. The runtime scrubs before rolling back so that corrupt
// snapshots discovered during recovery-line selection do not collide with
// the checkpoints replay will regenerate.
type Scrubber interface {
	Scrub() (ScrubReport, error)
}

// Scrub scrubs st when it is a Scrubber and reports a clean no-op when it
// is not (the memory store verifies nothing). Wrappers and the runtime
// reach a store's scrub through here rather than asserting themselves.
func Scrub(st Store) (ScrubReport, error) {
	if scr, ok := st.(Scrubber); ok {
		return scr.Scrub()
	}
	return ScrubReport{}, nil
}

// KeyLister is implemented by stores that can name a process's checkpoints
// without loading them. A key is listed whether or not its snapshot still
// loads, which the strict List cannot promise. The slice is the caller's,
// in no particular order. Every store and wrapper under internal/ is one.
type KeyLister interface {
	Keys(proc int) ([]Key, error)
}

// Keys returns the key of every checkpoint of proc that st holds: from a
// KeyLister without reading a body, else from List (which fails when any
// snapshot of proc is damaged). The fallback serves only the benchmark's
// timedStore, the one Store that is not a KeyLister (ROADMAP 14).
func Keys(st Store, proc int) ([]Key, error) {
	if kl, ok := st.(KeyLister); ok {
		return kl.Keys(proc)
	}
	snaps, err := st.List(proc)
	if err != nil {
		return nil, err
	}
	keys := make([]Key, len(snaps))
	for i, s := range snaps {
		keys[i] = s.Key()
	}
	return keys, nil
}

// List is the body of every Store.List under internal/: st's own keys of
// proc in SortKeys order, each loaded with st.Get. Any error fails the whole
// listing, ErrNotFound too when a concurrent Save retires or a Delete takes
// a key between the two calls. It calls st's Keys method, never the package
// function Keys, whose fallback is List and would recurse.
func List(st interface {
	KeyLister
	Get(proc, cfgIndex, instance int) (Snapshot, error)
}, proc int) ([]Snapshot, error) {
	keys, err := st.Keys(proc)
	if err != nil {
		return nil, err
	}
	SortKeys(keys)
	out := make([]Snapshot, len(keys))
	for i, k := range keys {
		if out[i], err = st.Get(proc, k.CFGIndex, k.Instance); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// StraightCuts returns the straight cuts R_i^k that st holds for processes
// 0…n−1 (Definition 2.3): the (i, k) at which each of them holds a key, one
// Key with Proc 0 for each, by CFG index, newest instance first. It reads
// each process's Keys once, so a key whose snapshot no longer loads still
// counts, and a process n or above changes nothing.
func StraightCuts(st Store, n int) ([]Key, error) {
	var cuts []Key
	for p := 0; p < n && (p == 0 || len(cuts) > 0); p++ {
		keys, err := Keys(st, p)
		if err != nil {
			return nil, err
		}
		cuts = alsoIn(cuts, keys, p == 0)
	}
	return cuts, nil
}

// CommonKeys is StraightCuts over lists already read, keys[p] process p's.
// It sorts each list in place by CFG index, newest instance first, and
// returns a slice of its own.
func CommonKeys(keys [][]Key) []Key {
	var cuts []Key
	for p, held := range keys {
		if cuts = alsoIn(cuts, held, p == 0); p == 0 {
			cuts = slices.Clone(cuts)
		}
	}
	return cuts
}

// alsoIn sorts keys by CFG index, newest instance first, and keeps of cuts
// those keys holds too. The first process's keys are all cuts yet: for it,
// alsoIn returns keys.
func alsoIn(cuts, keys []Key, first bool) []Key {
	slices.SortFunc(keys, newestFirst)
	if first {
		return keys
	}
	return slices.DeleteFunc(cuts, func(c Key) bool {
		_, held := slices.BinarySearchFunc(keys, c, newestFirst)
		return !held
	})
}

// newestFirst orders keys by CFG index, then newest instance first; it
// ignores Proc, so that one process's key finds another's.
func newestFirst(a, b Key) int {
	return cmp.Or(cmp.Compare(a.CFGIndex, b.CFGIndex), cmp.Compare(b.Instance, a.Instance))
}

// Indexes is the body of every Store.Indexes under internal/: the CFG
// indexes of st's StraightCuts for processes 0…n−1, sorted, nil for none.
func Indexes(st Store, n int) ([]int, error) {
	cuts, err := StraightCuts(st, n)
	if err != nil || len(cuts) == 0 {
		return nil, err
	}
	idx := make([]int, 0, len(cuts))
	for _, c := range cuts {
		if len(idx) == 0 || idx[len(idx)-1] != c.CFGIndex {
			idx = append(idx, c.CFGIndex)
		}
	}
	return idx, nil
}

// Memory is an in-memory Store safe for concurrent use. The zero value is
// ready to use.
//
// Like every other store it retains the AppendSnapshot body of what it is
// handed, not a Snapshot: reads decode, and DecodeSnapshot shares nothing
// with its input, so Store.Save's borrow contract holds by construction.
// Every process's bodies share one list of pages, each body behind its
// uvarint length, and the index holds where a body starts. A page is never
// regrown; one with few bodies left is packed and reused (fresh).
//
// A save retires what lies below the newest retainCuts complete straight
// cuts of its index, by KeyIndex.PutRetaining with the snapshot's N (DESIGN
// decision 33). A snapshot with N = 0 retires nothing.
type Memory struct {
	mu     sync.Mutex
	bodies KeyIndex[bodyRef]
	pages  [][]byte
	live   []int  // per page, the bodies the index refers to
	cur    int    // the page that takes the next body that fits
	buf    []byte // scratch Save encodes into: a body's size picks its page
}

// bodyRef is where a body's length prefix sits in Memory.pages.
type bodyRef struct{ page, off uint32 }

// memPage is the size of a Memory page; a larger body gets a page of its own.
const memPage = 1 << 10

// arena is append-only memory for what a store or its index retains. Its
// chunks are never regrown or recycled — append would move everything kept
// before — so what keep returns stays valid while something refers to it, and
// a chunk goes when nothing refers into it any more.
type arena[T any] struct {
	chunk []T // the current chunk; its length is what is used
}

// Incremental's byte arena chunks double from 1 KB (a fleet job's handful of
// checkpoints) to 16 KB (one allocation per ~100 saves); arenaChunkSpan is
// that ratio for every arena.
const (
	arenaChunkMin  = 1 << 10
	arenaChunkSpan = 16
	arenaChunkMax  = arenaChunkSpan * arenaChunkMin
)

// keep copies parts end to end into the arena and returns the copy, its
// capacity clipped so that an append to it reallocates instead of reaching
// what is kept next. The first chunk holds first elements; more than the
// largest chunk holds are allocated alone.
func (a *arena[T]) keep(first int, parts ...[]T) []T {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n > cap(a.chunk)-len(a.chunk) {
		if n > arenaChunkSpan*first {
			return slices.Clip(slices.Concat(parts...))
		}
		// A fresh chunk: append would move everything kept before.
		size := max(first, min(2*cap(a.chunk), arenaChunkSpan*first))
		for size < n {
			size *= 2
		}
		a.chunk = make([]T, 0, size)
	}
	off := len(a.chunk)
	for _, p := range parts {
		a.chunk = append(a.chunk, p...)
	}
	return a.chunk[off:len(a.chunk):len(a.chunk)]
}

var _ Store = (*Memory)(nil)

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory { return &Memory{} }

// Save implements Store.
func (m *Memory) Save(s Snapshot) error { return m.save(s, retainCuts) }

// save is Save keeping the newest d complete cuts of each index.
func (m *Memory) save(s Snapshot, d int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := s.Key()
	if _, dup := m.bodies.Get(k); dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, k)
	}
	m.buf = AppendSnapshot(m.buf[:0], s)
	var prefix [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(prefix[:], uint64(len(m.buf)))
	if n := w + len(m.buf); len(m.pages) == 0 || n > cap(m.pages[m.cur])-len(m.pages[m.cur]) {
		m.fresh(n)
	}
	p := m.pages[m.cur]
	m.pages[m.cur] = append(append(p, prefix[:w]...), m.buf...)
	m.live[m.cur]++
	m.bodies.putRetaining(k, bodyRef{uint32(m.cur), uint32(len(p))}, s.N, d, m.unref)
	return nil
}

// fresh makes the current page one with room for need bytes: the one pack
// makes room on, else a new one (append would move every body kept before).
func (m *Memory) fresh(need int) {
	if len(m.pages) == 0 || !m.pack(need) {
		m.cur = len(m.pages)
		m.pages, m.live = append(m.pages, make([]byte, 0, max(memPage, need))), append(m.live, 0)
	}
}

// pack makes the page with the fewest bodies current, moved to its front,
// when they are at most half of those written on it and leave need bytes: a
// straggler then costs its bytes, not a page. A body is live when the entry
// of the key it starts with refers to it; moving it rewrites that entry.
func (m *Memory) pack(need int) bool {
	pg := slices.Index(m.live, slices.Min(m.live))
	page := m.pages[pg]
	ref := func(off int) (*bodyRef, int) { // the entry of the body at off, if live, and its size
		n, w := binary.Uvarint(page[off:])
		d := decoder{rest: page[off+w+1:]} // after the length prefix and the version byte
		r, at, ok := m.bodies.find(Key{d.int(), d.int(), d.int()})
		if ok && r.ents[at].val == (bodyRef{uint32(pg), uint32(off)}) {
			return &r.ents[at].val, w + int(n)
		}
		return nil, w + int(n)
	}
	written, size := 0, 0
	for off := 0; off < len(page) && m.live[pg] > 0; written++ {
		r, n := ref(off)
		if off += n; r != nil {
			size += n
		}
	}
	if 2*m.live[pg] > written || cap(page)-size < need {
		return false
	}
	for off, end := 0, 0; end < size; {
		r, n := ref(off)
		if r != nil {
			r.off = uint32(end)
			end += copy(page[end:], page[off:off+n])
		}
		off += n
	}
	m.pages[pg], m.cur = page[:size], pg
	return true
}

// unref drops the index's reference to r's body.
func (m *Memory) unref(_ Key, r bodyRef) { m.live[r.page]-- }

// read decodes the body r names, damaged in memory if it does not decode.
func (m *Memory) read(k Key, r bodyRef) (Snapshot, error) {
	body := m.pages[r.page][r.off:]
	n, w := binary.Uvarint(body)
	s, err := DecodeSnapshot(body[w : w+int(n)])
	if err != nil {
		return Snapshot{}, fmt.Errorf("%w: %s: %v", ErrCorrupt, k, err)
	}
	return s, nil
}

// Latest implements Store.
func (m *Memory) Latest(proc, cfgIndex int) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	instance, ref, ok := m.bodies.Latest(proc, cfgIndex)
	if !ok {
		return Snapshot{}, fmt.Errorf("%w: proc=%d index=%d", ErrNotFound, proc, cfgIndex)
	}
	return m.read(Key{proc, cfgIndex, instance}, ref)
}

// Get implements Store.
func (m *Memory) Get(proc, cfgIndex, instance int) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := Key{proc, cfgIndex, instance}
	ref, ok := m.bodies.Get(k)
	if !ok {
		return Snapshot{}, fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	return m.read(k, ref)
}

// List implements Store.
func (m *Memory) List(proc int) ([]Snapshot, error) { return List(m, proc) }

// Indexes implements Store.
func (m *Memory) Indexes(n int) ([]int, error) { return Indexes(m, n) }

// Keys implements KeyLister.
func (m *Memory) Keys(proc int) ([]Key, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bodies.Keys(proc), nil
}

// Delete implements Store.
func (m *Memory) Delete(proc, cfgIndex, instance int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := Key{proc, cfgIndex, instance}
	r, ok := m.bodies.Get(k)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	m.bodies.Del(k)
	m.unref(k, r)
	return nil
}
