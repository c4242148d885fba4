// Package wal is a sharded, log-structured storage.Store: concurrent Saves
// are batched into group-committed appends (one fsync amortized over a
// batch) on per-shard append-only segment files with per-record CRC +
// length framing. Sharded in-memory indexes are rebuilt by scanning the
// segments on open; background compaction rewrites live records into fresh
// segments and atomically retires old ones through a manifest/rename
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
//     the per-shard manifest is replaced by atomic rename, segment files
//     not named by it are orphans and deleted, and the manifest is written
//     BEFORE a new segment file is created so an acknowledged record can
//     never sit in a file the manifest does not know.
package wal

import (
	"errors"
	"fmt"
	"os"
	"sort"
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
	// Shards is the number of independent append logs (default 8). Keys
	// are placed by hash of (proc, cfgIndex) so Latest stays single-shard.
	Shards int
	// MaxSegmentBytes rotates the active segment at this size (default 8 MiB).
	MaxSegmentBytes int64
	// MaxBatch caps how many Saves one group commit absorbs (default 128).
	MaxBatch int
	// CompactMinDeadBytes triggers auto-compaction of a shard's sealed
	// segments once they hold at least this many dead bytes (default 1 MiB).
	CompactMinDeadBytes int64
	// NoAutoCompact disables compaction after rotation; Compact() still works.
	NoAutoCompact bool
	// Injector, when set, is consulted at every durability point — test
	// harnesses use it for deterministic crash/torn-write/bit-flip injection.
	Injector Injector
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 8
	}
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

// Store is the sharded group-commit log. It implements storage.Store and
// storage.Scrubber.
type Store struct {
	dir    string
	opts   Options
	shards []*shard

	killed     atomic.Bool
	killReason atomic.Value // string

	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup

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

// Open creates (if needed) the store directory, recovers every shard's log
// — truncating torn tails, quarantining damaged interior records, deleting
// orphan files from interrupted rotations/compactions — and starts the
// per-shard group-commit goroutines.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	w := &Store{dir: dir, opts: opts}
	w.shards = make([]*shard, opts.Shards)
	for i := range w.shards {
		sh, err := openShard(w, i)
		if err != nil {
			for _, prev := range w.shards[:i] {
				prev.closeFiles()
			}
			return nil, fmt.Errorf("wal: shard %d: %w", i, err)
		}
		w.shards[i] = sh
	}
	for _, sh := range w.shards {
		w.wg.Add(1)
		go sh.commitLoop()
	}
	return w, nil
}

func (w *Store) shardFor(proc, index int) *shard {
	// splitmix64-style finalizer over the (proc, index) pair: all instances
	// of one key — and therefore one Latest — live in one shard.
	x := uint64(uint32(proc))<<32 | uint64(uint32(index))
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return w.shards[x%uint64(len(w.shards))]
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
	req.kind, req.key = kindPut, s.Key()
	req.frame = finishFrame(storage.AppendSnapshot(beginFrame(req.frame[:0], kindPut, req.key), s), 0)
	return w.submit(req)
}

// Delete implements storage.Store: a durable tombstone append.
func (w *Store) Delete(proc, cfgIndex, instance int) error {
	if err := w.checkAlive(); err != nil {
		return err
	}
	req := reqPool.Get().(*commitReq)
	req.kind, req.key = kindTomb, storage.Key{Proc: proc, CFGIndex: cfgIndex, Instance: instance}
	req.frame = appendFrame(req.frame[:0], kindTomb, req.key, nil)
	return w.submit(req)
}

// submit hands one mutation to its shard's committer, waits for the ack
// and recycles the request: every enqueued request is acknowledged exactly
// once (commit, a dead store, failRemaining), so after the receive — or
// when it was never enqueued — nothing else holds it.
func (w *Store) submit(req *commitReq) error {
	defer reqPool.Put(req)
	sh := w.shardFor(req.key.Proc, req.key.CFGIndex)
	w.closeMu.RLock()
	if w.closed {
		w.closeMu.RUnlock()
		return ErrClosed
	}
	sh.reqCh <- req
	w.closeMu.RUnlock()
	return <-req.done
}

// Get implements storage.Store.
func (w *Store) Get(proc, cfgIndex, instance int) (storage.Snapshot, error) {
	if err := w.checkAlive(); err != nil {
		return storage.Snapshot{}, err
	}
	sh := w.shardFor(proc, cfgIndex)
	return sh.get(storage.Key{Proc: proc, CFGIndex: cfgIndex, Instance: instance})
}

// Latest implements storage.Store. Like the chaos wrapper it is strict: if
// the highest instance for (proc, cfgIndex) is quarantined, Latest fails
// with ErrCorrupt rather than silently serving an older instance — the
// degradation ladder, not the store, decides what to fall back to.
func (w *Store) Latest(proc, cfgIndex int) (storage.Snapshot, error) {
	if err := w.checkAlive(); err != nil {
		return storage.Snapshot{}, err
	}
	sh := w.shardFor(proc, cfgIndex)
	return sh.latest(proc, cfgIndex)
}

// List implements storage.Store. It is strict the way the chaos wrapper
// is: any quarantined snapshot of proc fails the whole listing with
// ErrCorrupt, the way a chain scan stops at a damaged record.
func (w *Store) List(proc int) ([]storage.Snapshot, error) {
	if err := w.checkAlive(); err != nil {
		return nil, err
	}
	var out []storage.Snapshot
	for _, sh := range w.shards {
		part, err := sh.list(proc)
		if err != nil {
			return nil, err
		}
		out = append(out, part...)
	}
	storage.SortSnapshots(out)
	return out, nil
}

// Indexes implements storage.Store. Quarantined keys still count as
// "present" (their proc did checkpoint there); the recovery ladder finds
// out via ErrCorrupt when it tries to load one — mirroring how the chaos
// wrapper's inner store keeps clean copies of marked keys.
func (w *Store) Indexes(n int) ([]int, error) {
	keys, err := w.keys(-1)
	return storage.CommonIndexes(n, keys), err
}

// Keys implements storage.KeyLister from the in-memory index.
func (w *Store) Keys(proc int) ([]storage.Key, error) { return w.keys(proc) }

// keys lists the live and the quarantined keys of proc, or of every
// process when proc < 0.
func (w *Store) keys(proc int) ([]storage.Key, error) {
	if err := w.checkAlive(); err != nil {
		return nil, err
	}
	var keys []storage.Key
	for _, sh := range w.shards {
		sh.mu.Lock()
		if proc >= 0 {
			for k := range sh.index[proc] {
				keys = append(keys, k)
			}
		} else {
			for _, locs := range sh.index {
				for k := range locs {
					keys = append(keys, k)
				}
			}
		}
		for k := range sh.corrupt {
			if proc < 0 || k.Proc == proc {
				keys = append(keys, k)
			}
		}
		sh.mu.Unlock()
	}
	return keys, nil
}

// Scrub implements storage.Scrubber: every quarantined key is durably
// tombstoned so the same (proc, index, instance) can be saved again and a
// reopen does not resurrect the mark.
func (w *Store) Scrub() (storage.ScrubReport, error) {
	var rep storage.ScrubReport
	if err := w.checkAlive(); err != nil {
		return rep, err
	}
	for _, sh := range w.shards {
		if err := sh.scrub(&rep); err != nil {
			return rep, err
		}
	}
	sort.Slice(rep.Quarantined, func(i, j int) bool {
		return rep.Quarantined[i].Key.Less(rep.Quarantined[j].Key)
	})
	return rep, nil
}

// Compact rewrites every shard's sealed segments down to live records.
func (w *Store) Compact() error {
	if err := w.checkAlive(); err != nil {
		return err
	}
	for _, sh := range w.shards {
		sh.mu.Lock()
		err := sh.compactLocked(true)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Close stops the committers and releases file handles. A killed store
// can still be Closed; pending Saves fail ErrClosed or ErrCrashed.
func (w *Store) Close() error {
	w.closeMu.Lock()
	if w.closed {
		w.closeMu.Unlock()
		return nil
	}
	w.closed = true
	for _, sh := range w.shards {
		close(sh.reqCh)
	}
	w.closeMu.Unlock()
	w.wg.Wait()
	var first error
	for _, sh := range w.shards {
		if err := sh.closeFiles(); err != nil && first == nil {
			first = err
		}
	}
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
