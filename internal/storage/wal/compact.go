package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/storage"
)

// manifest is the per-shard source of truth for which segment files exist
// and in what order they replay. It is replaced atomically (temp + fsync +
// rename + dir fsync), which makes it the commit point for rotation and
// compaction:
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

// loadManifest returns nil (no error) when the shard has never been
// bootstrapped. The manifest file is CRC-framed like every other record:
// [crc32 u32 BE][JSON].
func (sh *shard) loadManifest() (*manifest, error) {
	data, err := os.ReadFile(sh.manifestPath())
	if errors.Is(err, os.ErrNotExist) {
		// No manifest: any segment files present are foreign damage, not a
		// crash this protocol can produce (the manifest always lands first).
		if sh.hasSegFiles() {
			return nil, fmt.Errorf("segment files exist but manifest is missing")
		}
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
func (sh *shard) writeManifest(m manifest, consulted bool) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("encode manifest: %w", err)
	}
	frame := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(frame, crc32.ChecksumIEEE(body))
	copy(frame[4:], body)

	if consulted {
		if ft := sh.consult(OpManifestWrite, len(frame)); ft.Kill != KillNone {
			return sh.crash(OpManifestWrite, 0)
		}
	}
	tmp := sh.manifestPath() + ".tmp"
	if err := writeFileSync(tmp, frame); err != nil {
		return fmt.Errorf("write manifest: %w", err)
	}
	if consulted {
		if ft := sh.consult(OpManifestRename, 0); ft.Kill == KillBefore {
			return sh.crash(OpManifestRename, 0)
		}
	}
	if err := os.Rename(tmp, sh.manifestPath()); err != nil {
		return fmt.Errorf("publish manifest: %w", err)
	}
	if err := sh.syncShardDir(consulted); err != nil {
		return err
	}
	if consulted {
		if ft := sh.consult(OpManifestRename, 0); ft.Kill == KillAfter {
			// The rename IS durable; only the ack path dies.
			return sh.crash(OpManifestRename, 0)
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

func (sh *shard) syncShardDir(consulted bool) error {
	if consulted {
		if ft := sh.consult(OpDirSync, 0); ft.Kill == KillBefore {
			return sh.crash(OpDirSync, 0)
		}
	}
	d, err := os.Open(sh.w.dir)
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
		if ft := sh.consult(OpDirSync, 0); ft.Kill == KillAfter {
			return sh.crash(OpDirSync, 0)
		}
	}
	return nil
}

// hasSegFiles reports whether any segment file of this shard exists.
func (sh *shard) hasSegFiles() bool {
	entries, err := os.ReadDir(sh.w.dir)
	if err != nil {
		return false
	}
	prefix := fmt.Sprintf("s%d-", sh.id)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) && strings.HasSuffix(e.Name(), ".seg") {
			return true
		}
	}
	return false
}

// cleanOrphans deletes this shard's files that the manifest does not name:
// segments from interrupted compactions and leftover temp manifests.
func (sh *shard) cleanOrphans(m manifest) error {
	listed := make(map[string]bool, len(m.Segments))
	for _, seg := range m.Segments {
		listed[filepath.Base(sh.segPath(seg))] = true
	}
	entries, err := os.ReadDir(sh.w.dir)
	if err != nil {
		return fmt.Errorf("list dir: %w", err)
	}
	prefix := fmt.Sprintf("s%d-", sh.id)
	tmpName := filepath.Base(sh.manifestPath()) + ".tmp"
	for _, e := range entries {
		name := e.Name()
		isSeg := strings.HasPrefix(name, prefix) && strings.HasSuffix(name, ".seg")
		if (isSeg && !listed[name]) || name == tmpName {
			if err := os.Remove(filepath.Join(sh.w.dir, name)); err != nil {
				return fmt.Errorf("remove orphan %s: %w", name, err)
			}
		}
	}
	return nil
}

// rotateLocked seals the active segment and opens a fresh one: manifest
// first (naming the new segment), then the file. Crash windows:
//
//	before rename  → old manifest, orphan tmp: nothing changed
//	after rename   → manifest names a missing last segment: recovered empty
//	after create   → fully rotated
func (sh *shard) rotateLocked() error {
	newSeg := sh.nextSeg
	m := manifest{Segments: append(append([]uint64(nil), sh.segs...), newSeg), Next: newSeg + 1}
	if err := sh.writeManifest(m, true); err != nil {
		return err
	}
	if ft := sh.consult(OpSegCreate, 0); ft.Kill == KillBefore {
		return sh.crash(OpSegCreate, 0)
	}
	f, err := os.OpenFile(sh.segPath(newSeg), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("create segment %d: %w", newSeg, err)
	}
	if err := sh.syncShardDir(false); err != nil {
		f.Close()
		return err
	}
	sh.sizes[sh.segs[len(sh.segs)-1]] = sh.activeSize
	sh.segs = append(sh.segs, newSeg)
	sh.files[newSeg] = f
	sh.nextSeg = newSeg + 1
	sh.sizes[newSeg] = 0
	sh.activeSize, sh.syncedSize = 0, 0
	sh.w.rotations.Add(1)
	if ft := sh.consult(OpSegCreate, 0); ft.Kill == KillAfter {
		return sh.crash(OpSegCreate, 0)
	}
	if !sh.w.opts.NoAutoCompact && sh.sealedDeadBytesLocked() >= sh.w.opts.CompactMinDeadBytes {
		return sh.compactLocked(false)
	}
	return nil
}

// sealedDeadBytesLocked is the garbage volume in sealed segments: total
// sealed bytes minus the live records and quarantine marks still pointing
// into them.
func (sh *shard) sealedDeadBytesLocked() int64 {
	if len(sh.segs) < 2 {
		return 0
	}
	activeSeg := sh.segs[len(sh.segs)-1]
	var total, live int64
	for _, seg := range sh.segs[:len(sh.segs)-1] {
		total += sh.sizes[seg]
	}
	for _, locs := range sh.index {
		for _, l := range locs {
			if l.seg != activeSeg {
				live += int64(l.size)
			}
		}
	}
	return total - live
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
func (sh *shard) compactLocked(force bool) error {
	if len(sh.segs) < 2 {
		return nil // nothing sealed
	}
	if !force && sh.sealedDeadBytesLocked() <= 0 {
		return nil
	}
	activeSeg := sh.segs[len(sh.segs)-1]
	newSeg := sh.nextSeg

	// Gather live records in sealed segments, in deterministic key order.
	type liveRec struct {
		key storage.Key
		l   loc
	}
	var lives []liveRec
	for _, locs := range sh.index {
		for k, l := range locs {
			if l.seg != activeSeg {
				lives = append(lives, liveRec{k, l})
			}
		}
	}
	sort.Slice(lives, func(i, j int) bool { return lives[i].key.Less(lives[j].key) })
	var marks []storage.Key
	for k := range sh.corrupt {
		marks = append(marks, k)
	}
	storage.SortKeys(marks)

	// Write the compacted segment: copy live frames verbatim (their CRC
	// travels with them — compaction cannot launder corruption), then
	// re-emit quarantine marks.
	var (
		buf     []byte
		newLocs = make(map[storage.Key]loc, len(lives))
	)
	for _, lr := range lives {
		f := sh.files[lr.l.seg]
		frame := make([]byte, lr.l.size)
		if _, err := f.ReadAt(frame, lr.l.off); err != nil {
			return fmt.Errorf("compact read %s: %w", lr.key, err)
		}
		if ev, _, ok := parseRecordAt(frame, 0); !ok || ev.key != lr.key {
			// Damaged since it was indexed (an injected flip): quarantine
			// instead of copying garbage forward as a "valid" record.
			sh.corrupt[lr.key] = "crc mismatch at compaction"
			sh.index.del(lr.key)
			marks = append(marks, lr.key)
			continue
		}
		newLocs[lr.key] = loc{seg: newSeg, off: int64(len(buf)), size: len(frame)}
		buf = append(buf, frame...)
	}
	for _, k := range marks {
		buf = appendFrame(buf, kindMark, k, []byte(sh.corrupt[k]))
	}

	if ft := sh.consult(OpSegCreate, len(buf)); ft.Kill != KillNone {
		return sh.crash(OpSegCreate, 0)
	}
	if err := writeFileSync(sh.segPath(newSeg), buf); err != nil {
		return fmt.Errorf("write compacted segment %d: %w", newSeg, err)
	}
	if err := sh.syncShardDir(false); err != nil {
		return err
	}

	// Commit point: the manifest now names [compacted, active].
	m := manifest{Segments: []uint64{newSeg, activeSeg}, Next: newSeg + 1}
	if err := sh.writeManifest(m, true); err != nil {
		return err
	}

	// Swap in-memory state, then retire the old files.
	retired := append([]uint64(nil), sh.segs[:len(sh.segs)-1]...)
	f, err := os.OpenFile(sh.segPath(newSeg), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("reopen compacted segment %d: %w", newSeg, err)
	}
	sh.segs = []uint64{newSeg, activeSeg}
	sh.files[newSeg] = f
	sh.sizes[newSeg] = int64(len(buf))
	sh.nextSeg = newSeg + 1
	for k, l := range newLocs {
		sh.index.put(k, l)
	}
	sh.w.compactions.Add(1)

	if ft := sh.consult(OpRetire, 0); ft.Kill == KillBefore {
		return sh.crash(OpRetire, 0)
	}
	for _, seg := range retired {
		if old := sh.files[seg]; old != nil {
			old.Close()
		}
		delete(sh.files, seg)
		delete(sh.sizes, seg)
		if err := os.Remove(sh.segPath(seg)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("retire segment %d: %w", seg, err)
		}
	}
	if err := sh.syncShardDir(false); err != nil {
		return err
	}
	if ft := sh.consult(OpRetire, 0); ft.Kill == KillAfter {
		return sh.crash(OpRetire, 0)
	}
	return nil
}
