package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/storage"
)

// commitReq is one mutation in flight to a shard's committer. Requests are
// recycled through reqPool with their frame buffer and their done channel.
// Ownership: the submitter's until it is enqueued, the committer's until
// its one acknowledgement — the committer's last touch of a request is the
// send on done — and the submitter's again once done is received.
type commitReq struct {
	kind  byte // kindPut or kindTomb
	key   storage.Key
	frame []byte
	done  chan error // capacity 1: the ack never blocks the committer
}

var reqPool = sync.Pool{New: func() any {
	return &commitReq{frame: make([]byte, 0, 256), done: make(chan error, 1)}
}}

// keyIndex locates a shard's live records, grouped by process: the reads of
// one job walk only that job's keys, however many jobs the log has held.
type keyIndex map[int]map[storage.Key]loc

func (ix keyIndex) get(k storage.Key) (loc, bool) {
	l, ok := ix[k.Proc][k]
	return l, ok
}

func (ix keyIndex) put(k storage.Key, l loc) {
	locs := ix[k.Proc]
	if locs == nil {
		locs = make(map[storage.Key]loc)
		ix[k.Proc] = locs
	}
	locs[k] = l
}

func (ix keyIndex) del(k storage.Key) { delete(ix[k.Proc], k) }

// staged is one accepted request of the batch being committed, and the
// offset of its frame within the batch buffer.
type staged struct {
	req *commitReq
	off int64
}

// shard is one independent append log: a chain of segment files named by a
// manifest, an in-memory index of the latest live record per key, and a
// committer goroutine that group-commits batches of mutations.
type shard struct {
	w  *Store
	id int

	reqCh chan *commitReq

	mu sync.Mutex
	// Durable state (all guarded by mu).
	segs       []uint64 // segment ids in replay order; last is active
	files      map[uint64]*os.File
	sizes      map[uint64]int64
	activeSize int64
	syncedSize int64 // active bytes covered by the last successful fsync
	nextSeg    uint64
	// Index state.
	index   keyIndex
	corrupt map[storage.Key]string
	// readBuf is the frame buffer readLocked reuses.
	readBuf []byte
	// Scratch of commit, reset per batch under mu; batch is the committer
	// goroutine's own.
	batch    []*commitReq
	accepted []staged
	buf      []byte
	flipOK   [][2]int
	inBatch  map[storage.Key]byte
	// Injection.
	injSeq uint64
}

func (sh *shard) segPath(id uint64) string {
	return filepath.Join(sh.w.dir, fmt.Sprintf("s%d-%d.seg", sh.id, id))
}
func (sh *shard) manifestPath() string {
	return filepath.Join(sh.w.dir, fmt.Sprintf("s%d.manifest", sh.id))
}

// consult asks the injector (when configured) for a fault decision at one
// durability point. Callers hold sh.mu, so per-shard decisions are a
// well-ordered stream.
func (sh *shard) consult(op Op, size int) Fault {
	inj := sh.w.opts.Injector
	if inj == nil || sh.w.killed.Load() {
		return Fault{}
	}
	seq := sh.injSeq
	sh.injSeq++
	return inj.Decide(op, sh.id, seq, size)
}

// crash applies the kill damage model and poisons the store. Everything
// written to the active segment since the last successful fsync sits in
// the (simulated) page cache; a crash loses it except for the keep bytes
// the injector lets land. Already-synced bytes always survive.
func (sh *shard) crash(op Op, keep int) error {
	f := sh.files[sh.segs[len(sh.segs)-1]]
	if f != nil {
		unsynced := sh.activeSize - sh.syncedSize
		if int64(keep) > unsynced {
			keep = int(unsynced)
		}
		if keep < 0 {
			keep = 0
		}
		survive := sh.syncedSize + int64(keep)
		_ = f.Truncate(survive)
		sh.activeSize = survive
	}
	sh.w.kill(fmt.Sprintf("injected crash at %s (shard %d)", op, sh.id))
	return fmt.Errorf("%w: injected at %s", ErrCrashed, op)
}

// commitLoop is the shard's group-commit goroutine: it blocks for one
// request, drains up to MaxBatch-1 more without blocking, and commits them
// all under one fsync.
func (sh *shard) commitLoop() {
	defer sh.w.wg.Done()
	for req := range sh.reqCh {
		sh.batch = append(sh.batch[:0], req)
		for len(sh.batch) < sh.w.opts.MaxBatch {
			select {
			case r, ok := <-sh.reqCh:
				if !ok {
					sh.commit(sh.batch)
					sh.failRemaining()
					return
				}
				sh.batch = append(sh.batch, r)
			default:
				goto full
			}
		}
	full:
		sh.commit(sh.batch)
	}
	sh.failRemaining()
}

// failRemaining answers requests that arrived after channel close began.
func (sh *shard) failRemaining() {
	for req := range sh.reqCh {
		req.done <- ErrClosed
	}
}

// commit validates, appends, fsyncs, and acks one batch.
func (sh *shard) commit(batch []*commitReq) {
	sh.mu.Lock()
	defer sh.mu.Unlock()

	if err := sh.w.checkAlive(); err != nil {
		for _, r := range batch {
			r.done <- err
		}
		return
	}

	// Validate each request against the index plus what this same batch
	// already staged; rejected requests are acked now and excluded.
	accepted, buf, flipOK, inBatch := sh.accepted[:0], sh.buf[:0], sh.flipOK[:0], sh.inBatch
	clear(inBatch)
	for _, r := range batch {
		if err := sh.validateLocked(r, inBatch); err != nil {
			r.done <- err
			continue
		}
		inBatch[r.key] = r.kind
		accepted = append(accepted, staged{req: r, off: int64(len(buf))})
		if r.kind == kindPut {
			// Injected bit flips model media rot of an acknowledged
			// snapshot BODY: damage there must surface as ErrCorrupt with
			// the key still attributable, which needs the frame header and
			// key bytes intact. Tombstones carry no body and stay exempt.
			flipOK = append(flipOK, [2]int{
				len(buf) + frameHeader + payloadHead,
				len(buf) + len(r.frame),
			})
		}
		buf = append(buf, r.frame...)
	}
	sh.accepted, sh.buf, sh.flipOK = accepted, buf, flipOK
	if len(accepted) == 0 {
		return
	}

	base := sh.activeSize
	if err := sh.appendLocked(buf, flipOK); err != nil {
		for _, s := range accepted {
			s.req.done <- err
		}
		return
	}

	// The fsync landed: count the batch (before any waiter can observe its
	// ack and read Stats), apply index updates and acknowledge.
	sh.w.batches.Add(1)
	seg := sh.segs[len(sh.segs)-1]
	for _, s := range accepted {
		k := s.req.key
		switch s.req.kind {
		case kindPut:
			sh.index.put(k, loc{seg: seg, off: base + s.off, size: len(s.req.frame)})
			delete(sh.corrupt, k)
			sh.w.saves.Add(1)
		case kindTomb:
			sh.index.del(k)
			delete(sh.corrupt, k)
		}
		s.req.done <- nil
	}

	if sh.activeSize >= sh.w.opts.MaxSegmentBytes {
		if err := sh.rotateLocked(); err != nil {
			// Rotation failure poisons the store (appendLocked on a stale
			// active could lose the ordering invariants); already-acked
			// saves above are durable regardless.
			sh.w.kill(fmt.Sprintf("rotation failed: %v", err))
		}
	}
}

// validateLocked enforces Save/Delete semantics before bytes are staged.
func (sh *shard) validateLocked(r *commitReq, inBatch map[storage.Key]byte) error {
	_, live := sh.index.get(r.key)
	_, marked := sh.corrupt[r.key]
	if k, ok := inBatch[r.key]; ok {
		live = k == kindPut
		marked = false
	}
	switch r.kind {
	case kindPut:
		// Checkpoints are immutable once taken — but re-saving a
		// quarantined key is an atomic rewrite that repairs it, matching
		// the chaos wrapper's repair semantics.
		if live {
			return fmt.Errorf("%w: %s", storage.ErrDuplicate, r.key)
		}
	case kindTomb:
		if !live && !marked {
			return fmt.Errorf("%w: %s", storage.ErrNotFound, r.key)
		}
	}
	return nil
}

// appendLocked writes buf to the active segment and fsyncs, consulting the
// injector before and after both steps. flipOK lists the byte ranges an
// injected flip may damage (put-record bodies). A real fsync failure
// poisons the store (fsyncgate): the kernel may have dropped the dirty
// pages, so the only safe continuation is reopen-and-recover.
func (sh *shard) appendLocked(buf []byte, flipOK [][2]int) error {
	f := sh.files[sh.segs[len(sh.segs)-1]]

	ft := sh.consult(OpAppend, len(buf))
	if ft.Kill == KillBefore {
		return sh.crash(OpAppend, ft.Keep)
	}
	if ft.Flip && len(flipOK) > 0 {
		r := flipOK[ft.FlipAt%len(flipOK)]
		if span := r[1] - r[0]; span > 0 {
			buf[r[0]+ft.FlipAt%span] ^= 0x40
		}
	}
	if _, err := f.WriteAt(buf, sh.activeSize); err != nil {
		sh.w.kill(fmt.Sprintf("append failed: %v", err))
		return fmt.Errorf("wal: append: %w", err)
	}
	sh.activeSize += int64(len(buf))
	if ft.Kill == KillAfter {
		return sh.crash(OpAppend, ft.Keep)
	}

	st := sh.consult(OpSync, len(buf))
	if st.Kill == KillBefore {
		return sh.crash(OpSync, st.Keep)
	}
	if err := fsyncFile(f); err != nil {
		sh.w.kill(fmt.Sprintf("fsync failed: %v", err))
		return fmt.Errorf("%w: wal segment: %v", storage.ErrFsync, err)
	}
	sh.syncedSize = sh.activeSize
	if st.Kill == KillAfter {
		// The data IS durable — the ack just never happens.
		return sh.crash(OpSync, 0)
	}
	return nil
}

// fsyncFile is a seam for fsync-failure injection in tests.
var fsyncFile = func(f *os.File) error { return f.Sync() }

// readLocked loads and CRC-verifies the record at l. A record that fails
// verification here was acknowledged and then damaged on media (an
// injected bit flip): the key is quarantined on the spot.
func (sh *shard) readLocked(k storage.Key, l loc) (storage.Snapshot, error) {
	f := sh.files[l.seg]
	if f == nil {
		return storage.Snapshot{}, fmt.Errorf("wal: %s: segment %d not open", k, l.seg)
	}
	// DecodeSnapshot's result shares no memory with the bytes it read, so
	// one buffer per shard serves every read.
	if cap(sh.readBuf) < l.size {
		sh.readBuf = make([]byte, l.size)
	}
	buf := sh.readBuf[:l.size]
	if _, err := f.ReadAt(buf, l.off); err != nil {
		return storage.Snapshot{}, fmt.Errorf("wal: read %s: %w", k, err)
	}
	ev, _, ok := parseRecordAt(buf, 0)
	if !ok || ev.kind != kindPut || ev.key != k {
		sh.corrupt[k] = "crc mismatch at read"
		sh.index.del(k)
		return storage.Snapshot{}, fmt.Errorf("%w: %s: record failed verification", storage.ErrCorrupt, k)
	}
	return decodeSnapshot(k, buf[frameHeader+payloadHead:])
}

func (sh *shard) get(k storage.Key) (storage.Snapshot, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if reason, marked := sh.corrupt[k]; marked {
		return storage.Snapshot{}, fmt.Errorf("%w: %s: %s", storage.ErrCorrupt, k, reason)
	}
	l, ok := sh.index.get(k)
	if !ok {
		return storage.Snapshot{}, fmt.Errorf("%w: %s", storage.ErrNotFound, k)
	}
	return sh.readLocked(k, l)
}

func (sh *shard) latest(proc, cfgIndex int) (storage.Snapshot, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	best, bestLoc, bestCorrupt, found := storage.Key{}, loc{}, "", false
	for k, l := range sh.index[proc] {
		if k.CFGIndex == cfgIndex && (!found || k.Instance > best.Instance) {
			best, bestLoc, bestCorrupt, found = k, l, "", true
		}
	}
	for k, reason := range sh.corrupt {
		if k.Proc == proc && k.CFGIndex == cfgIndex && (!found || k.Instance > best.Instance) {
			best, bestCorrupt, found = k, reason, true
		}
	}
	if !found {
		return storage.Snapshot{}, fmt.Errorf("%w: proc=%d index=%d", storage.ErrNotFound, proc, cfgIndex)
	}
	if bestCorrupt != "" {
		return storage.Snapshot{}, fmt.Errorf("%w: %s: %s", storage.ErrCorrupt, best, bestCorrupt)
	}
	return sh.readLocked(best, bestLoc)
}

func (sh *shard) list(proc int) ([]storage.Snapshot, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for k, reason := range sh.corrupt {
		if k.Proc == proc {
			return nil, fmt.Errorf("%w: %s: %s", storage.ErrCorrupt, k, reason)
		}
	}
	locs := sh.index[proc]
	keys := make([]storage.Key, 0, len(locs))
	for k := range locs {
		keys = append(keys, k)
	}
	storage.SortKeys(keys)
	out := make([]storage.Snapshot, 0, len(keys))
	for _, k := range keys {
		s, err := sh.readLocked(k, locs[k])
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// scrub durably tombstones every quarantined key in this shard so the mark
// does not survive a reopen and the key can be saved again.
func (sh *shard) scrub(rep *storage.ScrubReport) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.corrupt) == 0 {
		return nil
	}
	keys := make([]storage.Key, 0, len(sh.corrupt))
	for k := range sh.corrupt {
		keys = append(keys, k)
	}
	storage.SortKeys(keys)
	var buf []byte
	for _, k := range keys {
		buf = appendFrame(buf, kindTomb, k, nil)
	}
	if err := sh.appendLocked(buf, nil); err != nil {
		return err
	}
	for _, k := range keys {
		rep.Quarantined = append(rep.Quarantined, storage.SnapshotRef{Key: k, Reason: sh.corrupt[k]})
		delete(sh.corrupt, k)
		sh.index.del(k)
	}
	return nil
}

func (sh *shard) closeFiles() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var first error
	for _, f := range sh.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	sh.files = map[uint64]*os.File{}
	return first
}

// openShard recovers one shard from its manifest and segments.
func openShard(w *Store, id int) (*shard, error) {
	sh := &shard{
		w:       w,
		id:      id,
		reqCh:   make(chan *commitReq, 4*w.opts.MaxBatch),
		files:   make(map[uint64]*os.File),
		sizes:   make(map[uint64]int64),
		index:   make(keyIndex),
		corrupt: make(map[storage.Key]string),
		inBatch: make(map[storage.Key]byte),
	}
	man, err := sh.loadManifest()
	if err != nil {
		return nil, err
	}
	if man == nil {
		// Fresh shard: manifest first, then the segment file — the same
		// order rotation uses, so a bootstrap crash leaves either nothing
		// or a manifest whose (last) segment is missing; both recover.
		m := manifest{Segments: []uint64{0}, Next: 1}
		if err := sh.writeManifest(m, false); err != nil {
			return nil, err
		}
		man = &m
	}
	if err := sh.cleanOrphans(*man); err != nil {
		return nil, err
	}
	sh.segs = append([]uint64(nil), man.Segments...)
	sh.nextSeg = man.Next
	if len(sh.segs) == 0 {
		return nil, fmt.Errorf("manifest lists no segments")
	}
	for i, seg := range sh.segs {
		last := i == len(sh.segs)-1
		if err := sh.recoverSegment(seg, last); err != nil {
			return nil, err
		}
	}
	return sh, nil
}

// recoverSegment opens, scans, and replays one segment. Only the LAST
// (active) segment may be missing (rotation crashed between manifest and
// file creation) or end in a torn tail (a crash mid-append) — torn tails
// there are truncated; everywhere else damage is quarantined.
func (sh *shard) recoverSegment(seg uint64, last bool) error {
	path := sh.segPath(seg)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if !last {
			return fmt.Errorf("segment %d named by manifest is missing", seg)
		}
		data = nil
	} else if err != nil {
		return fmt.Errorf("read segment %d: %w", seg, err)
	}

	events, tornStart := scanSegment(data)
	size := int64(len(data))
	if tornStart >= 0 {
		if last {
			size = tornStart
			sh.w.truncated += int64(len(data)) - tornStart
		} else {
			// A sealed segment was fsynced whole before the manifest named
			// its successor; a short tail here is media damage, not an
			// interrupted append.
			events = append(events, corruptEvent(data, int(tornStart), len(data)))
		}
	}

	// Replay last-event-wins into the shard maps.
	for _, ev := range events {
		if ev.off >= size {
			break
		}
		switch ev.kind {
		case kindPut:
			sh.index.put(ev.key, loc{seg: seg, off: ev.off, size: ev.size})
			delete(sh.corrupt, ev.key)
			sh.w.recovered++
		case kindTomb:
			sh.index.del(ev.key)
			delete(sh.corrupt, ev.key)
			sh.w.recovered++
		case kindMark:
			sh.corrupt[ev.key] = ev.reason
			sh.index.del(ev.key)
			sh.w.recovered++
			sh.w.quarOnOpen++
		case kindCorruptRegion:
			if ev.keyOK {
				sh.corrupt[ev.key] = ev.reason
				sh.index.del(ev.key)
				sh.w.quarOnOpen++
			}
		}
	}

	flags := os.O_RDWR | os.O_CREATE
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return fmt.Errorf("open segment %d: %w", seg, err)
	}
	if int64(len(data)) != size {
		if err := f.Truncate(size); err != nil {
			f.Close()
			return fmt.Errorf("truncate torn tail of segment %d: %w", seg, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("sync truncated segment %d: %w", seg, err)
		}
	}
	sh.files[seg] = f
	sh.sizes[seg] = size
	if last {
		sh.activeSize = size
		sh.syncedSize = size
	}
	return nil
}
