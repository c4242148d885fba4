package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/storage"
)

// commitReq is one mutation in flight to the committer. Requests are
// recycled through reqPool with their frame buffer and their done channel.
// Ownership: the submitter's until it is enqueued, the committer's until
// its one acknowledgement — the committer's last touch of a request is the
// send on done — and the submitter's again once done is received.
type commitReq struct {
	kind  byte // kindPut or kindTomb
	key   storage.Key
	n     int // a put's Snapshot.N: the application size retention needs
	frame []byte
	done  chan error // capacity 1: the ack never blocks the committer
}

var reqPool = sync.Pool{New: func() any {
	return &commitReq{frame: make([]byte, 0, 256), done: make(chan error, 1)}
}}

// staged is one accepted request of the batch being committed, and the
// offset of its frame within the batch buffer.
type staged struct {
	req *commitReq
	off int64
}

// consult asks the injector (when configured) for a fault decision at one
// durability point. Callers hold w.mu, so the decisions are one
// well-ordered stream.
func (w *Store) consult(op Op, size int) Fault {
	inj := w.opts.Injector
	if inj == nil || w.killed.Load() {
		return Fault{}
	}
	seq := w.injSeq
	w.injSeq++
	return inj.Decide(op, seq, size)
}

// crash applies the kill damage model and poisons the store. Everything
// written to the active segment since the last successful fsync sits in
// the (simulated) page cache; a crash loses it except for the keep bytes
// the injector lets land. Already-synced bytes always survive.
func (w *Store) crash(op Op, keep int) error {
	f := w.files[w.segs[len(w.segs)-1]]
	if f != nil {
		unsynced := w.activeSize - w.syncedSize
		if int64(keep) > unsynced {
			keep = int(unsynced)
		}
		if keep < 0 {
			keep = 0
		}
		survive := w.syncedSize + int64(keep)
		_ = f.Truncate(survive)
		w.activeSize = survive
	}
	w.kill(fmt.Sprintf("injected crash at %s", op))
	return fmt.Errorf("%w: injected at %s", ErrCrashed, op)
}

// commitLoop is the group-commit goroutine: it blocks for one request,
// drains up to MaxBatch-1 more without blocking, and commits them all under
// one fsync.
func (w *Store) commitLoop() {
	defer close(w.committerDone)
	for req := range w.reqCh {
		w.batch = append(w.batch[:0], req)
		for len(w.batch) < w.opts.MaxBatch {
			select {
			case r, ok := <-w.reqCh:
				if !ok {
					w.commit(w.batch)
					w.failRemaining()
					return
				}
				w.batch = append(w.batch, r)
			default:
				goto full
			}
		}
	full:
		w.commit(w.batch)
	}
	w.failRemaining()
}

// failRemaining answers requests that arrived after channel close began.
func (w *Store) failRemaining() {
	for req := range w.reqCh {
		req.done <- ErrClosed
	}
}

// commit validates, appends, fsyncs, and acks one batch.
func (w *Store) commit(batch []*commitReq) {
	w.mu.Lock()
	defer w.mu.Unlock()

	if err := w.checkAlive(); err != nil {
		for _, r := range batch {
			r.done <- err
		}
		return
	}

	// Validate each request against the index plus what this same batch
	// already staged; rejected requests are acked now and excluded.
	accepted, buf, flipOK, inBatch := w.accepted[:0], w.buf[:0], w.flipOK[:0], w.inBatch
	clear(inBatch)
	for _, r := range batch {
		if err := w.validateLocked(r, inBatch); err != nil {
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
	w.accepted, w.buf, w.flipOK = accepted, buf, flipOK
	if len(accepted) == 0 {
		return
	}

	base := w.activeSize
	if err := w.appendLocked(buf, flipOK); err != nil {
		for _, s := range accepted {
			s.req.done <- err
		}
		return
	}

	// The fsync landed: count the batch (before any waiter can observe its
	// ack and read Stats), apply index updates and acknowledge.
	w.batches.Add(1)
	seg := w.segs[len(w.segs)-1]
	for _, s := range accepted {
		k := s.req.key
		switch s.req.kind {
		case kindPut:
			w.index.PutRetaining(k, loc{seg: seg, off: base + s.off, size: len(s.req.frame)}, s.req.n, w.retired)
			delete(w.corrupt, k)
			w.saves.Add(1)
		case kindTomb:
			w.index.Del(k)
			delete(w.corrupt, k)
		}
		s.req.done <- nil
	}

	if w.activeSize >= w.opts.MaxSegmentBytes {
		_ = w.rotateLocked(false) // a failure kills the store; acked saves above are durable
	}
}

// retired is the index's drop for a key the retention rule retires: its
// record is dead bytes, and a quarantine reason goes with it.
func (w *Store) retired(k storage.Key, _ loc) { delete(w.corrupt, k) }

// validateLocked enforces Save/Delete semantics before bytes are staged.
func (w *Store) validateLocked(r *commitReq, inBatch map[storage.Key]byte) error {
	l, present := w.index.Get(r.key) // live or marked
	live := present && !l.mark()
	if k, ok := inBatch[r.key]; ok {
		live, present = k == kindPut, k == kindPut
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
		if !present {
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
func (w *Store) appendLocked(buf []byte, flipOK [][2]int) error {
	f := w.files[w.segs[len(w.segs)-1]]

	ft := w.consult(OpAppend, len(buf))
	if ft.Kill == KillBefore {
		return w.crash(OpAppend, ft.Keep)
	}
	if ft.Flip && len(flipOK) > 0 {
		r := flipOK[ft.FlipAt%len(flipOK)]
		if span := r[1] - r[0]; span > 0 {
			buf[r[0]+ft.FlipAt%span] ^= 0x40
		}
	}
	if _, err := f.WriteAt(buf, w.activeSize); err != nil {
		w.kill(fmt.Sprintf("append failed: %v", err))
		return fmt.Errorf("wal: append: %w", err)
	}
	w.activeSize += int64(len(buf))
	if ft.Kill == KillAfter {
		return w.crash(OpAppend, ft.Keep)
	}

	st := w.consult(OpSync, len(buf))
	if st.Kill == KillBefore {
		return w.crash(OpSync, st.Keep)
	}
	if err := fsyncFile(f); err != nil {
		w.kill(fmt.Sprintf("fsync failed: %v", err))
		return fmt.Errorf("%w: wal segment: %v", storage.ErrFsync, err)
	}
	w.syncedSize = w.activeSize
	if st.Kill == KillAfter {
		// The data IS durable — the ack just never happens.
		return w.crash(OpSync, 0)
	}
	return nil
}

// fsyncFile is a seam for fsync-failure injection in tests.
var fsyncFile = func(f *os.File) error { return f.Sync() }

// readLocked loads and CRC-verifies the record at l, or fails ErrCorrupt
// when l is a mark. A record that fails verification here was acknowledged
// and then damaged on media (an injected bit flip): the key is quarantined
// on the spot.
func (w *Store) readLocked(k storage.Key, l loc) (storage.Snapshot, error) {
	if l.mark() {
		return storage.Snapshot{}, fmt.Errorf("%w: %s: %s", storage.ErrCorrupt, k, w.corrupt[k])
	}
	f := w.files[l.seg]
	if f == nil {
		return storage.Snapshot{}, fmt.Errorf("wal: %s: segment %d not open", k, l.seg)
	}
	// DecodeSnapshot's result shares no memory with the bytes it read, so
	// one buffer serves every read.
	if cap(w.readBuf) < l.size {
		w.readBuf = make([]byte, l.size)
	}
	buf := w.readBuf[:l.size]
	if _, err := f.ReadAt(buf, l.off); err != nil {
		return storage.Snapshot{}, fmt.Errorf("wal: read %s: %w", k, err)
	}
	ev, _, ok := parseRecordAt(buf, 0)
	if !ok || ev.kind != kindPut || ev.key != k {
		w.quarantineLocked(k, "crc mismatch at read")
		return storage.Snapshot{}, fmt.Errorf("%w: %s: record failed verification", storage.ErrCorrupt, k)
	}
	return decodeSnapshot(k, buf[frameHeader+payloadHead:])
}

// recoverLog rebuilds the log's state from its manifest and segments.
func (w *Store) recoverLog() error {
	own, err := w.scanDir()
	if err != nil {
		return err
	}
	man, err := w.loadManifest()
	if err != nil {
		return err
	}
	if man == nil {
		// No manifest: any segment files present are foreign damage, not a
		// crash this protocol can produce (the manifest always lands first).
		if len(own) > 0 {
			return fmt.Errorf("segment file %s exists but the manifest is missing", own[0])
		}
		// Fresh log: manifest first, then the segment file — the same
		// order rotation uses, so a bootstrap crash leaves either nothing
		// or a manifest whose (last) segment is missing; both recover.
		man = &manifest{Segments: []uint64{0}, Next: 1}
		if err := w.writeManifest(*man, false); err != nil {
			return err
		}
	}
	if len(man.Segments) == 0 {
		return fmt.Errorf("manifest lists no segments")
	}
	if err := w.cleanOrphans(*man, own); err != nil {
		return err
	}
	w.segs = append([]uint64(nil), man.Segments...)
	w.nextSeg = man.Next
	for i, seg := range w.segs {
		if err := w.recoverSegment(seg, i == len(w.segs)-1); err != nil {
			return err
		}
	}
	return nil
}

// recoverSegment opens, scans, and replays one segment. Only the LAST
// (active) segment may be missing (rotation crashed between manifest and
// file creation) or end in a torn tail (a crash mid-append) — torn tails
// there are truncated; everywhere else damage is quarantined.
func (w *Store) recoverSegment(seg uint64, last bool) error {
	path := w.segPath(seg)
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
			w.truncated += int64(len(data)) - tornStart
		} else {
			// A sealed segment was fsynced whole before the manifest named
			// its successor; a short tail here is media damage, not an
			// interrupted append.
			events = append(events, corruptEvent(data, int(tornStart), len(data)))
		}
	}

	// Replay last-event-wins into the index and quarantine maps, retiring
	// as each save did (its n from its body; a lost body's from its run). A
	// compacted segment, one instant's index in key order, retires nothing:
	// no front it passes through is above that instant's.
	for _, ev := range events {
		if ev.off >= size {
			break
		}
		switch ev.kind {
		case kindPut:
			s, _ := storage.DecodeSnapshot(data[ev.off+frameHeader+payloadHead : ev.off+int64(ev.size)])
			w.index.PutRetaining(ev.key, loc{seg: seg, off: ev.off, size: ev.size}, s.N, w.retired)
			delete(w.corrupt, ev.key)
			w.recovered++
		case kindTomb:
			w.index.Del(ev.key)
			delete(w.corrupt, ev.key)
			w.recovered++
		case kindMark, kindCorruptRegion:
			if ev.keyOK {
				w.corrupt[ev.key] = ev.reason
				w.index.PutRetaining(ev.key, loc{}, -1, w.retired)
				w.quarOnOpen++
			}
			if ev.kind == kindMark {
				w.recovered++
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
	w.files[seg] = f
	w.sizes[seg] = size
	if last {
		w.activeSize = size
		w.syncedSize = size
	}
	return nil
}
