// Package wal is a log-structured storage.Store: one append-only chain of
// segment files with per-record CRC + length framing, written by one
// committer that batches concurrent Saves into group-committed appends (one
// fsync amortized over a batch). The in-memory index is rebuilt by scanning
// the segments on open; compaction rewrites live records into a fresh
// segment and atomically retires old ones through a manifest/rename
// protocol.
//
// Recovery of the log itself is crash-safe by construction:
//
//   - A Save is acknowledged only after the fsync covering its record
//     returns, so every nil-returning Save survives any later crash.
//   - A torn tail (a trailing frame cut short mid-append) is truncated on
//     open: it can only belong to an unacknowledged batch.
//   - A COMPLETE interior record that fails its CRC was acknowledged and
//     then damaged (bit rot); recovery quarantines its key through the
//     storage.ErrCorrupt / Scrubber path instead of aborting or — worse —
//     silently dropping it.
//   - Mid-rotation and mid-compaction crashes resolve via the manifest:
//     it is replaced by atomic rename, segment files not named by it are
//     orphans and deleted, and it is written BEFORE a new segment file is
//     created so an acknowledged record can never sit in a file the
//     manifest does not know.
package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// ErrClosed reports an operation on a store after Close.
var ErrClosed = errors.New("wal: store closed")

// ErrCrashed reports an operation on a store after a simulated crash
// (injected by an Injector) or after a real fsync failure poisoned it
// (fsyncgate: once an fsync fails, the kernel may have dropped the dirty
// pages, so no later success can be trusted — the store must be reopened
// and recovered from what is actually on disk).
var ErrCrashed = errors.New("wal: store crashed")

// Options configures Open. The zero value is ready for production use.
type Options struct {
	// MaxSegmentBytes rotates the active segment at this size (default 8 MiB).
	MaxSegmentBytes int64
	// MaxBatch caps how many Saves one group commit absorbs (default 128).
	MaxBatch int
	// CompactMinDeadBytes triggers auto-compaction of the sealed segments
	// once they hold at least this many dead bytes (default 1 MiB).
	CompactMinDeadBytes int64
	// NoAutoCompact disables compaction after rotation; Compact() still works.
	NoAutoCompact bool
	// Injector, when set, is consulted at every durability point — test
	// harnesses use it for deterministic crash/torn-write/bit-flip injection.
	Injector Injector
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 8 << 20
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 128
	}
	if o.CompactMinDeadBytes <= 0 {
		o.CompactMinDeadBytes = 1 << 20
	}
	return o
}

// Stats counts store activity since Open. The JSON tags are part of the
// telemetry snapshot schema (/snapshot.json).
type Stats struct {
	Saves       int64 `json:"saves"`   // acknowledged puts
	Batches     int64 `json:"batches"` // group commits (fsyncs for data)
	Rotations   int64 `json:"rotations"`
	Compactions int64 `json:"compactions"`
	// Recovered counts valid records replayed on Open; TruncatedBytes is
	// the torn tail discarded; QuarantinedOnOpen counts keys entering
	// recovery already corrupt.
	Recovered         int64 `json:"recovered"`
	TruncatedBytes    int64 `json:"truncated_bytes"`
	QuarantinedOnOpen int64 `json:"quarantined_on_open"`
}

// Store is the group-commit log: a chain of segment files named by a
// manifest, an in-memory index of the latest live record per key, and one
// committer goroutine that commits batches of mutations. It implements
// storage.Store and storage.Scrubber.
type Store struct {
	dir  string
	opts Options

	killed     atomic.Bool
	killReason atomic.Value // string

	closeMu       sync.RWMutex
	closed        bool
	reqCh         chan *commitReq // 4×MaxBatch: savers queue the next batches while one fsyncs
	committerDone chan struct{}

	mu sync.Mutex
	// Durable state (all guarded by mu).
	segs       []uint64 // segment ids in replay order; last is active
	files      map[uint64]*os.File
	sizes      map[uint64]int64
	activeSize int64
	syncedSize int64 // active bytes covered by the last successful fsync
	nextSeg    uint64
	// Index state: every live record and, as a mark (loc.mark), every
	// quarantined key, whose reason corrupt keeps.
	index   storage.KeyIndex[loc]
	corrupt map[storage.Key]string
	// readBuf is the frame buffer readLocked reuses; recs and compactBuf
	// are compaction's, reused from one to the next.
	readBuf    []byte
	recs       []rec
	compactBuf []byte
	// Scratch of commit, reset per batch under mu; batch is the committer
	// goroutine's own.
	batch    []*commitReq
	accepted []staged
	buf      []byte
	flipOK   [][2]int
	inBatch  map[storage.Key]byte
	// Injection.
	injSeq uint64

	saves       atomic.Int64
	batches     atomic.Int64
	rotations   atomic.Int64
	compactions atomic.Int64
	recovered   int64
	truncated   int64
	quarOnOpen  int64
}

var _ storage.Store = (*Store)(nil)
var _ storage.Scrubber = (*Store)(nil)

// Open creates (if needed) the store directory, recovers the log —
// truncating a torn tail, quarantining damaged interior records, deleting
// orphan files from interrupted rotations/compactions — and starts the
// group-commit goroutine. A directory holding segment or manifest files of
// another layout is refused before anything in it is touched.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	w := &Store{
		dir:           dir,
		opts:          opts,
		reqCh:         make(chan *commitReq, 4*opts.MaxBatch),
		committerDone: make(chan struct{}),
		files:         make(map[uint64]*os.File),
		sizes:         make(map[uint64]int64),
		corrupt:       make(map[storage.Key]string),
		inBatch:       make(map[storage.Key]byte),
	}
	if err := w.recoverLog(); err != nil {
		w.closeFiles()
		return nil, fmt.Errorf("wal: %w", err)
	}
	go w.commitLoop()
	return w, nil
}

// kill poisons the store: every subsequent operation fails ErrCrashed
// until the directory is reopened with Open.
func (w *Store) kill(reason string) {
	if w.killed.CompareAndSwap(false, true) {
		w.killReason.Store(reason)
	}
}

func (w *Store) checkAlive() error {
	if w.killed.Load() {
		reason, _ := w.killReason.Load().(string)
		return fmt.Errorf("%w: %s", ErrCrashed, reason)
	}
	return nil
}

// Killed reports whether the store has crashed (simulated or fsyncgate).
func (w *Store) Killed() bool { return w.killed.Load() }

// Save implements storage.Store. It returns nil only after the group
// commit containing the record has been fsynced.
func (w *Store) Save(s storage.Snapshot) error {
	if err := w.checkAlive(); err != nil {
		return err
	}
	// The body is encoded straight into the request's frame; s is not
	// referenced past this line.
	req := reqPool.Get().(*commitReq)
	req.kind, req.key, req.n = kindPut, s.Key(), s.N
	req.frame = finishFrame(storage.AppendSnapshot(beginFrame(req.frame[:0], kindPut, req.key), s), 0)
	return w.submit(req)
}

// Delete implements storage.Store: a durable tombstone append.
func (w *Store) Delete(proc, cfgIndex, instance int) error {
	if err := w.checkAlive(); err != nil {
		return err
	}
	req := reqPool.Get().(*commitReq)
	req.kind, req.key, req.n = kindTomb, storage.Key{Proc: proc, CFGIndex: cfgIndex, Instance: instance}, 0
	req.frame = appendFrame(req.frame[:0], kindTomb, req.key, nil)
	return w.submit(req)
}

// submit hands one mutation to the committer, waits for the ack and
// recycles the request: every enqueued request is acknowledged exactly
// once (commit, a dead store, failRemaining), so after the receive — or
// when it was never enqueued — nothing else holds it.
func (w *Store) submit(req *commitReq) error {
	defer reqPool.Put(req)
	w.closeMu.RLock()
	if w.closed {
		w.closeMu.RUnlock()
		return ErrClosed
	}
	w.reqCh <- req
	w.closeMu.RUnlock()
	return <-req.done
}

// Get implements storage.Store.
func (w *Store) Get(proc, cfgIndex, instance int) (storage.Snapshot, error) {
	if err := w.checkAlive(); err != nil {
		return storage.Snapshot{}, err
	}
	k := storage.Key{Proc: proc, CFGIndex: cfgIndex, Instance: instance}
	w.mu.Lock()
	defer w.mu.Unlock()
	l, ok := w.index.Get(k)
	if !ok {
		return storage.Snapshot{}, fmt.Errorf("%w: %s", storage.ErrNotFound, k)
	}
	return w.readLocked(k, l)
}

// Latest implements storage.Store. Like the chaos wrapper it is strict: if
// the highest instance for (proc, cfgIndex) is quarantined, Latest fails
// with ErrCorrupt rather than silently serving an older instance — the
// caller, not the store, decides what to fall back to.
func (w *Store) Latest(proc, cfgIndex int) (storage.Snapshot, error) {
	if err := w.checkAlive(); err != nil {
		return storage.Snapshot{}, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	instance, l, ok := w.index.Latest(proc, cfgIndex)
	if !ok {
		return storage.Snapshot{}, fmt.Errorf("%w: proc=%d index=%d", storage.ErrNotFound, proc, cfgIndex)
	}
	return w.readLocked(storage.Key{Proc: proc, CFGIndex: cfgIndex, Instance: instance}, l)
}

// List implements storage.Store: any quarantined snapshot of proc fails the
// whole listing with ErrCorrupt.
func (w *Store) List(proc int) ([]storage.Snapshot, error) { return storage.List(w, proc) }

// Indexes implements storage.Store. Quarantined keys count, as Keys lists
// them; a caller finds out via ErrCorrupt when it loads one.
func (w *Store) Indexes(n int) ([]int, error) { return storage.Indexes(w, n) }

// Keys implements storage.KeyLister: proc's live and quarantined keys.
func (w *Store) Keys(proc int) ([]storage.Key, error) {
	if err := w.checkAlive(); err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.index.Keys(proc), nil
}

// quarantineLocked makes k's index entry a mark, which every read fails
// ErrCorrupt with reason until a put or a tombstone replaces it.
func (w *Store) quarantineLocked(k storage.Key, reason string) {
	w.corrupt[k] = reason
	w.index.Put(k, loc{})
}

// Scrub implements storage.Scrubber: every quarantined key is durably
// tombstoned so the same (proc, index, instance) can be saved again and a
// reopen does not resurrect the mark.
func (w *Store) Scrub() (storage.ScrubReport, error) {
	var rep storage.ScrubReport
	if err := w.checkAlive(); err != nil {
		return rep, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.corrupt) == 0 {
		return rep, nil
	}
	keys := make([]storage.Key, 0, len(w.corrupt))
	for k := range w.corrupt {
		keys = append(keys, k)
	}
	storage.SortKeys(keys)
	var buf []byte
	for _, k := range keys {
		buf = appendFrame(buf, kindTomb, k, nil)
	}
	if err := w.appendLocked(buf, nil); err != nil {
		return rep, err
	}
	for _, k := range keys {
		rep.Quarantined = append(rep.Quarantined, storage.SnapshotRef{Key: k, Reason: w.corrupt[k]})
		delete(w.corrupt, k)
		w.index.Del(k)
	}
	return rep, nil
}

// Compact seals the active segment and rewrites the log down to live
// records. Sealing first makes the compacted segment the whole index at one
// instant, which is what lets replay retire exactly what the store did.
func (w *Store) Compact() error {
	if err := w.checkAlive(); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.activeSize == 0 {
		return w.compactLocked(true)
	}
	return w.rotateLocked(true)
}

// Close stops the committer and releases file handles. A killed store
// can still be Closed; pending Saves fail ErrClosed or ErrCrashed.
func (w *Store) Close() error {
	w.closeMu.Lock()
	if w.closed {
		w.closeMu.Unlock()
		return nil
	}
	w.closed = true
	close(w.reqCh)
	w.closeMu.Unlock()
	<-w.committerDone
	return w.closeFiles()
}

func (w *Store) closeFiles() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var first error
	for _, f := range w.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	w.files = map[uint64]*os.File{}
	return first
}

// Stats returns activity counters since Open.
func (w *Store) Stats() Stats {
	return Stats{
		Saves:             w.saves.Load(),
		Batches:           w.batches.Load(),
		Rotations:         w.rotations.Load(),
		Compactions:       w.compactions.Load(),
		Recovered:         w.recovered,
		TruncatedBytes:    w.truncated,
		QuarantinedOnOpen: w.quarOnOpen,
	}
}
