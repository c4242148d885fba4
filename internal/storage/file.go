package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// File is a durable Store that writes each snapshot as one file under a
// directory, framed as [4-byte big-endian CRC32][snapshot body]. Writes go
// through a temp file + fsync + rename + directory fsync, so neither a
// torn snapshot nor a lost acknowledged checkpoint can survive a host
// crash. Reads verify the CRC so silent corruption surfaces as ErrCorrupt
// rather than a bogus restart state, and Scrub quarantines damaged files
// so the namespace heals after corruption is detected.
type File struct {
	dir string
	mu  sync.Mutex
}

// quarantineDir is where Scrub moves damaged snapshot files, relative to
// the store root. It keeps the evidence for post-mortems without letting
// the corrupt file shadow a regenerated checkpoint.
const quarantineDir = "quarantine"

var _ Store = (*File)(nil)

// NewFile creates (if needed) and opens a file-backed store rooted at dir.
func NewFile(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dir: %w", err)
	}
	return &File{dir: dir}, nil
}

func (f *File) path(proc, index, instance int) string {
	name := fmt.Sprintf("p%d_i%d_k%d.ckpt", proc, index, instance)
	return filepath.Join(f.dir, name)
}

// parseName inverts path naming; ok=false for foreign files.
func parseName(name string) (proc, index, instance int, ok bool) {
	base := strings.TrimSuffix(name, ".ckpt")
	if base == name {
		return 0, 0, 0, false
	}
	parts := strings.Split(base, "_")
	if len(parts) != 3 {
		return 0, 0, 0, false
	}
	vals := make([]int, 3)
	for i, prefix := range []string{"p", "i", "k"} {
		s := strings.TrimPrefix(parts[i], prefix)
		if s == parts[i] {
			return 0, 0, 0, false
		}
		v, err := strconv.Atoi(s)
		if err != nil {
			return 0, 0, 0, false
		}
		vals[i] = v
	}
	return vals[0], vals[1], vals[2], true
}

// Save implements Store.
func (f *File) Save(s Snapshot) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	path := f.path(s.Proc, s.CFGIndex, s.Instance)
	if _, err := os.Stat(path); err == nil {
		return fmt.Errorf("%w: %s", ErrDuplicate, filepath.Base(path))
	}
	// The body is encoded straight behind the space reserved for its CRC.
	frame := AppendSnapshot(make([]byte, 4, 256), s)
	binary.BigEndian.PutUint32(frame[:4], crc32.ChecksumIEEE(frame[4:]))

	tmp, err := os.CreateTemp(f.dir, ".tmp-ckpt-*")
	if err != nil {
		return fmt.Errorf("storage: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(frame); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("storage: write snapshot: %w", err)
	}
	if err := fsyncData(tmp); err != nil {
		// fsyncgate: a failed fsync is PERMANENT, not transient. The
		// kernel may have dropped the dirty pages while clearing the error
		// flag, so a retried fsync can return success with the data never
		// on disk. Fail the save with ErrFsync so the caller rides the
		// crash→recovery path instead of retrying the lie.
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("%w: snapshot %s: %v", ErrFsync, filepath.Base(path), err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("storage: close snapshot: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("storage: publish snapshot: %w", err)
	}
	// The rename is only durable once the directory entry itself is on
	// disk: without this fsync a host crash can lose an acknowledged
	// checkpoint even though the data blocks were synced above.
	if err := syncDir(f.dir); err != nil {
		// Un-publish: the snapshot must not be readable when its
		// durability cannot be vouched for — a crash after a nil return
		// here could lose an "acknowledged" checkpoint.
		os.Remove(path)
		return fmt.Errorf("%w: snapshot dir for %s: %v", ErrFsync, filepath.Base(path), err)
	}
	return nil
}

// fsyncData is a seam so tests can inject fsync failures (fsyncgate).
var fsyncData = func(f *os.File) error { return f.Sync() }

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = fsyncData(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (f *File) load(path string) (Snapshot, error) {
	frame, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return Snapshot{}, fmt.Errorf("%w: %s", ErrNotFound, filepath.Base(path))
		}
		return Snapshot{}, fmt.Errorf("storage: read snapshot: %w", err)
	}
	if len(frame) < 4 {
		return Snapshot{}, fmt.Errorf("%w: %s truncated", ErrCorrupt, filepath.Base(path))
	}
	want := binary.BigEndian.Uint32(frame[:4])
	body := frame[4:]
	if got := crc32.ChecksumIEEE(body); got != want {
		return Snapshot{}, fmt.Errorf("%w: %s crc %08x != %08x",
			ErrCorrupt, filepath.Base(path), got, want)
	}
	s, err := DecodeSnapshot(body)
	if err != nil {
		return Snapshot{}, fmt.Errorf("%w: %s undecodable: %v", ErrCorrupt, filepath.Base(path), err)
	}
	return s, nil
}

// Scrub implements Scrubber: it verifies every snapshot file and moves the
// damaged ones into the quarantine subdirectory (plus removes abandoned
// temp files from interrupted saves). After a scrub, reads and saves
// behave as if the damaged snapshots never existed.
func (f *File) Scrub() (ScrubReport, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var rep ScrubReport
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return rep, fmt.Errorf("storage: scrub: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, ".tmp-ckpt-") {
			if err := os.Remove(filepath.Join(f.dir, name)); err != nil {
				return rep, fmt.Errorf("storage: scrub temp file: %w", err)
			}
			rep.TempFiles++
			continue
		}
		proc, index, instance, ok := parseName(name)
		if !ok {
			continue
		}
		_, lerr := f.load(filepath.Join(f.dir, name))
		if lerr == nil {
			continue
		}
		if !errors.Is(lerr, ErrCorrupt) {
			return rep, fmt.Errorf("storage: scrub read %s: %w", name, lerr)
		}
		qdir := filepath.Join(f.dir, quarantineDir)
		if err := os.MkdirAll(qdir, 0o755); err != nil {
			return rep, fmt.Errorf("storage: scrub quarantine dir: %w", err)
		}
		if err := os.Rename(filepath.Join(f.dir, name), filepath.Join(qdir, name)); err != nil {
			return rep, fmt.Errorf("storage: scrub quarantine %s: %w", name, err)
		}
		rep.Quarantined = append(rep.Quarantined, SnapshotRef{Key{proc, index, instance}, lerr.Error()})
	}
	if len(rep.Quarantined) > 0 || rep.TempFiles > 0 {
		if err := syncDir(f.dir); err != nil {
			return rep, fmt.Errorf("storage: scrub sync dir: %w", err)
		}
	}
	return rep, nil
}

var _ Scrubber = (*File)(nil)

// Get implements Store.
func (f *File) Get(proc, cfgIndex, instance int) (Snapshot, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.load(f.path(proc, cfgIndex, instance))
}

// keysLocked parses the directory's file names into keys: those of proc,
// or every key when proc < 0.
func (f *File) keysLocked(proc int) ([]Key, error) {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: list dir: %w", err)
	}
	var keys []Key
	for _, e := range entries {
		if p, i, k, ok := parseName(e.Name()); ok && (proc < 0 || p == proc) {
			keys = append(keys, Key{p, i, k})
		}
	}
	return keys, nil
}

// Keys implements KeyLister: a damaged file still names its checkpoint.
func (f *File) Keys(proc int) ([]Key, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.keysLocked(proc)
}

// Latest implements Store.
func (f *File) Latest(proc, cfgIndex int) (Snapshot, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys, err := f.keysLocked(proc)
	if err != nil {
		return Snapshot{}, err
	}
	best := -1
	for _, k := range keys {
		if k.CFGIndex == cfgIndex && k.Instance > best {
			best = k.Instance
		}
	}
	if best < 0 {
		return Snapshot{}, fmt.Errorf("%w: proc=%d index=%d", ErrNotFound, proc, cfgIndex)
	}
	return f.load(f.path(proc, cfgIndex, best))
}

// List implements Store.
func (f *File) List(proc int) ([]Snapshot, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys, err := f.keysLocked(proc)
	if err != nil {
		return nil, err
	}
	SortKeys(keys)
	out := make([]Snapshot, 0, len(keys))
	for _, k := range keys {
		s, err := f.load(f.path(proc, k.CFGIndex, k.Instance))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Delete implements Store.
func (f *File) Delete(proc, cfgIndex, instance int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	path := f.path(proc, cfgIndex, instance)
	if err := os.Remove(path); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: %s", ErrNotFound, filepath.Base(path))
		}
		return fmt.Errorf("storage: delete snapshot: %w", err)
	}
	return nil
}

// Indexes implements Store.
func (f *File) Indexes(n int) ([]int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys, err := f.keysLocked(-1)
	if err != nil {
		return nil, err
	}
	return CommonIndexes(n, keys), nil
}
