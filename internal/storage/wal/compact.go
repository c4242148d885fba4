package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/storage"
)

// manifest is the source of truth for which segment files exist and in
// what order they replay. It is replaced atomically (temp + fsync + rename +
// dir fsync), which makes it the commit point for rotation and compaction:
//
//   - A segment file NOT named by the manifest is an orphan from an
//     interrupted compaction or an externally damaged rotation; it is
//     deleted on open.
//   - The manifest is written BEFORE a new segment file is created, so a
//     rotation crash can leave the manifest naming a missing LAST segment
//     (recovered as an empty active segment) but never an acknowledged
//     record inside a file the manifest does not know.
//   - A missing NON-last segment means acknowledged data is gone; open
//     fails rather than silently narrowing the store.
type manifest struct {
	Segments []uint64 `json:"segments"` // replay order; last is active
	Next     uint64   `json:"next"`     // next segment id to allocate
}

const (
	manifestName = "log.manifest"
	segFormat    = "log-%d.seg"
)

func segName(id uint64) string { return fmt.Sprintf(segFormat, id) }

func (w *Store) segPath(id uint64) string { return filepath.Join(w.dir, segName(id)) }
func (w *Store) manifestPath() string     { return filepath.Join(w.dir, manifestName) }

// scanDir lists the log's own segment files. A segment or manifest file
// under any other name — the s<k>-<n>.seg / s<k>.manifest of the sharded
// layout this log replaced, say — holds acknowledged records Open would not
// replay and cleanOrphans must never eat: the directory is refused.
func (w *Store) scanDir() (own []string, err error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("list dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		var id uint64
		if _, err := fmt.Sscanf(name, segFormat, &id); err == nil && name == segName(id) {
			own = append(own, name)
		} else if strings.HasSuffix(name, ".seg") || (strings.HasSuffix(name, ".manifest") && name != manifestName) {
			return nil, fmt.Errorf("%s is not a file of this log (another layout's?)", filepath.Join(w.dir, name))
		}
	}
	return own, nil
}

// loadManifest returns nil (no error) when the log has never been
// bootstrapped. The manifest file is CRC-framed like every other record:
// [crc32 u32 BE][JSON].
func (w *Store) loadManifest() (*manifest, error) {
	data, err := os.ReadFile(w.manifestPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("read manifest: %w", err)
	}
	if len(data) < 4 {
		return nil, fmt.Errorf("manifest truncated (%d bytes)", len(data))
	}
	if crc32.ChecksumIEEE(data[4:]) != binary.BigEndian.Uint32(data) {
		return nil, fmt.Errorf("manifest crc mismatch")
	}
	var m manifest
	if err := json.Unmarshal(data[4:], &m); err != nil {
		return nil, fmt.Errorf("manifest undecodable: %w", err)
	}
	return &m, nil
}

// writeManifest replaces the manifest atomically. When consulted is true
// the injector sees the write and rename as separate crash points.
func (w *Store) writeManifest(m manifest, consulted bool) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("encode manifest: %w", err)
	}
	frame := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(frame, crc32.ChecksumIEEE(body))
	copy(frame[4:], body)

	if consulted {
		if ft := w.consult(OpManifestWrite, len(frame)); ft.Kill != KillNone {
			return w.crash(OpManifestWrite, 0)
		}
	}
	tmp := w.manifestPath() + ".tmp"
	if err := writeFileSync(tmp, frame); err != nil {
		return fmt.Errorf("write manifest: %w", err)
	}
	if consulted {
		if ft := w.consult(OpManifestRename, 0); ft.Kill == KillBefore {
			return w.crash(OpManifestRename, 0)
		}
	}
	if err := os.Rename(tmp, w.manifestPath()); err != nil {
		return fmt.Errorf("publish manifest: %w", err)
	}
	if err := w.syncDir(consulted); err != nil {
		return err
	}
	if consulted {
		if ft := w.consult(OpManifestRename, 0); ft.Kill == KillAfter {
			// The rename IS durable; only the ack path dies.
			return w.crash(OpManifestRename, 0)
		}
	}
	return nil
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := fsyncFile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (w *Store) syncDir(consulted bool) error {
	if consulted {
		if ft := w.consult(OpDirSync, 0); ft.Kill == KillBefore {
			return w.crash(OpDirSync, 0)
		}
	}
	d, err := os.Open(w.dir)
	if err != nil {
		return fmt.Errorf("open dir: %w", err)
	}
	err = fsyncFile(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	if consulted {
		if ft := w.consult(OpDirSync, 0); ft.Kill == KillAfter {
			return w.crash(OpDirSync, 0)
		}
	}
	return nil
}

// cleanOrphans deletes the log's own files that the manifest does not
// name: segments from interrupted compactions and a leftover temp manifest.
func (w *Store) cleanOrphans(m manifest, own []string) error {
	listed := make(map[string]bool, len(m.Segments))
	for _, seg := range m.Segments {
		listed[segName(seg)] = true
	}
	for _, name := range append(own, manifestName+".tmp") {
		if listed[name] {
			continue
		}
		if err := os.Remove(filepath.Join(w.dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("remove orphan %s: %w", name, err)
		}
	}
	return nil
}

// rotateLocked seals the active segment and opens a fresh one: manifest
// first (naming the new segment), then the file. A failure poisons the store:
// appendLocked on a stale active could lose the ordering invariants. Crash
// windows:
//
//	before rename  → old manifest, orphan tmp: nothing changed
//	after rename   → manifest names a missing last segment: recovered empty
//	after create   → fully rotated
//
// Then it compacts if compact is set or auto-compaction asks.
func (w *Store) rotateLocked(compact bool) (err error) {
	defer func() {
		if err != nil {
			w.kill(fmt.Sprintf("rotation failed: %v", err))
		}
	}()
	newSeg := w.nextSeg
	m := manifest{Segments: append(append([]uint64(nil), w.segs...), newSeg), Next: newSeg + 1}
	if err := w.writeManifest(m, true); err != nil {
		return err
	}
	if ft := w.consult(OpSegCreate, 0); ft.Kill == KillBefore {
		return w.crash(OpSegCreate, 0)
	}
	f, err := os.OpenFile(w.segPath(newSeg), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("create segment %d: %w", newSeg, err)
	}
	if err := w.syncDir(false); err != nil {
		f.Close()
		return err
	}
	w.sizes[w.segs[len(w.segs)-1]] = w.activeSize
	w.segs = append(w.segs, newSeg)
	w.files[newSeg] = f
	w.nextSeg = newSeg + 1
	w.sizes[newSeg] = 0
	w.activeSize, w.syncedSize = 0, 0
	w.rotations.Add(1)
	if ft := w.consult(OpSegCreate, 0); ft.Kill == KillAfter {
		return w.crash(OpSegCreate, 0)
	}
	if compact || (!w.opts.NoAutoCompact && w.sealedDeadBytesLocked() >= w.opts.CompactMinDeadBytes) {
		return w.compactLocked(compact)
	}
	return nil
}

// sealedDeadBytesLocked is the garbage volume in sealed segments: total
// sealed bytes minus the live records and quarantine marks still pointing
// into them.
func (w *Store) sealedDeadBytesLocked() int64 {
	if len(w.segs) < 2 {
		return 0
	}
	activeSeg := w.segs[len(w.segs)-1]
	var total, live int64
	for _, seg := range w.segs[:len(w.segs)-1] {
		total += w.sizes[seg]
	}
	w.index.RangeAll(func(_ storage.Key, l loc) bool {
		if l.seg != activeSeg {
			live += int64(l.size) // a mark's size is 0
		}
		return true
	})
	return total - live
}

// rec is one record compaction carries over: a key and where its frame is.
type rec struct {
	key storage.Key
	l   loc
}

// compactChunk is how much of a compacted segment is written at a time.
const compactChunk = 64 << 10

// writeLiveLocked writes recs to seg's file f a chunk at a time through one
// reused buffer: live frames verbatim (their CRC travels with them —
// compaction cannot launder corruption) and quarantine marks. It returns the
// segment's size and, in recs' room, the copies' new places.
func (w *Store) writeLiveLocked(f *os.File, seg uint64, recs []rec) (size int64, copied []rec, err error) {
	buf, copied := w.compactBuf[:0], recs[:0]
	defer func() { w.compactBuf = buf }()
	for _, r := range recs {
		if len(buf) >= compactChunk {
			if _, err := f.WriteAt(buf, size); err != nil {
				return 0, nil, err
			}
			size, buf = size+int64(len(buf)), buf[:0]
		}
		if !r.l.mark() {
			off := len(buf)
			buf = slices.Grow(buf, r.l.size)[:off+r.l.size]
			if _, err := w.files[r.l.seg].ReadAt(buf[off:], r.l.off); err != nil {
				return 0, nil, fmt.Errorf("compact read %s: %w", r.key, err)
			}
			if ev, _, ok := parseRecordAt(buf[off:], 0); ok && ev.key == r.key {
				copied = append(copied, rec{r.key, loc{seg: seg, off: size + int64(off), size: r.l.size}})
				continue
			}
			buf = buf[:off]
			// Damaged since it was indexed (an injected flip): quarantine
			// instead of copying garbage forward as a "valid" record.
			w.quarantineLocked(r.key, "crc mismatch at compaction")
		}
		buf = appendFrame(buf, kindMark, r.key, []byte(w.corrupt[r.key]))
	}
	_, err = f.WriteAt(buf, size)
	return size + int64(len(buf)), copied, err
}

// compactLocked rewrites ALL sealed segments into one fresh segment
// holding only live records and quarantine markers, then atomically
// retires the old files. Compacting every sealed segment at once is what
// makes dropping tombstones safe: a tombstone's only job is to supersede
// older puts during replay, and after full compaction no superseded put
// survives anywhere (records in the active segment replay later anyway).
// Quarantine marks whose evidence lives in sealed segments are preserved
// as marker records so a reopen does not resurrect the key as missing
// rather than corrupt.
//
// Crash windows: the compacted segment is written and fsynced BEFORE the
// manifest rename, so a crash beforehand leaves it an orphan (deleted on
// open) and the old segments authoritative; a crash after the rename but
// before the retirements leaves the old files orphans (deleted on open).
func (w *Store) compactLocked(force bool) error {
	if len(w.segs) < 2 {
		return nil // nothing sealed
	}
	if !force && w.sealedDeadBytesLocked() <= 0 {
		return nil
	}
	activeSeg := w.segs[len(w.segs)-1]
	newSeg := w.nextSeg

	// Gather the live records of the sealed segments and every quarantine
	// mark, in deterministic key order.
	recs := w.recs[:0]
	w.index.RangeAll(func(k storage.Key, l loc) bool {
		if l.mark() || l.seg != activeSeg {
			recs = append(recs, rec{k, l})
		}
		return true
	})
	sort.Slice(recs, func(i, j int) bool { return recs[i].key.Less(recs[j].key) })
	w.recs = recs

	if ft := w.consult(OpSegCreate, 0); ft.Kill != KillNone {
		return w.crash(OpSegCreate, 0)
	}
	f, err := os.OpenFile(w.segPath(newSeg), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("create compacted segment %d: %w", newSeg, err)
	}
	size, copied, err := w.writeLiveLocked(f, newSeg, recs)
	if err == nil {
		err = fsyncFile(f)
	}
	if err == nil {
		err = w.syncDir(false)
	}
	if err == nil {
		// Commit point: the manifest now names [compacted, active].
		err = w.writeManifest(manifest{Segments: []uint64{newSeg, activeSeg}, Next: newSeg + 1}, true)
	}
	if err != nil {
		f.Close()
		return err
	}

	// Swap in-memory state, then retire the old files.
	retired := append([]uint64(nil), w.segs[:len(w.segs)-1]...)
	w.segs = []uint64{newSeg, activeSeg}
	w.files[newSeg] = f
	w.sizes[newSeg] = size
	w.nextSeg = newSeg + 1
	for _, r := range copied {
		w.index.Put(r.key, r.l)
	}
	w.compactions.Add(1)

	if ft := w.consult(OpRetire, 0); ft.Kill == KillBefore {
		return w.crash(OpRetire, 0)
	}
	for _, seg := range retired {
		if old := w.files[seg]; old != nil {
			old.Close()
		}
		delete(w.files, seg)
		delete(w.sizes, seg)
		if err := os.Remove(w.segPath(seg)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("retire segment %d: %w", seg, err)
		}
	}
	if err := w.syncDir(false); err != nil {
		return err
	}
	if ft := w.consult(OpRetire, 0); ft.Kill == KillAfter {
		return w.crash(OpRetire, 0)
	}
	return nil
}
