package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/vclock"
)

func snap(proc, index, instance int) storage.Snapshot {
	clock := vclock.New(proc + 1)
	clock[proc] = uint64(instance + 1)
	return storage.Snapshot{
		Proc: proc, CFGIndex: index, Instance: instance,
		Clock: clock,
		Vars:  map[string]int{"x": proc*1000 + index*10 + instance},
		PC:    fmt.Sprintf("s%d_%d_%d", proc, index, instance),
	}
}

func key(proc, index, instance int) storage.Key {
	return storage.Key{Proc: proc, CFGIndex: index, Instance: instance}
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func TestRoundTrip(t *testing.T) {
	w := mustOpen(t, t.TempDir(), Options{})
	for p := 0; p < 3; p++ {
		for i := 0; i < 4; i++ {
			for k := 0; k < 2; k++ {
				if err := w.Save(snap(p, i, k)); err != nil {
					t.Fatalf("Save(%d,%d,%d): %v", p, i, k, err)
				}
			}
		}
	}
	s, err := w.Get(1, 2, 1)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if s.Vars["x"] != 1021 || s.PC != "s1_2_1" {
		t.Fatalf("Get returned wrong snapshot: %+v", s)
	}
	if s, err = w.Latest(2, 3); err != nil || s.Instance != 1 {
		t.Fatalf("Latest = %+v, %v; want instance 1", s, err)
	}
	list, err := w.List(1)
	if err != nil || len(list) != 8 {
		t.Fatalf("List(1) = %d snaps, %v; want 8", len(list), err)
	}
	for i := 1; i < len(list); i++ {
		a, b := list[i-1], list[i]
		if a.CFGIndex > b.CFGIndex || (a.CFGIndex == b.CFGIndex && a.Instance >= b.Instance) {
			t.Fatalf("List order violated at %d: %+v then %+v", i, a, b)
		}
	}
	idx, err := w.Indexes(3)
	if err != nil || len(idx) != 4 {
		t.Fatalf("Indexes(3) = %v, %v; want 4 indexes", idx, err)
	}
	if _, err := w.Get(9, 9, 9); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Get missing = %v, want ErrNotFound", err)
	}
	if err := w.Save(snap(1, 2, 1)); !errors.Is(err, storage.ErrDuplicate) {
		t.Fatalf("duplicate Save = %v, want ErrDuplicate", err)
	}
	if err := w.Delete(1, 2, 1); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := w.Get(1, 2, 1); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Get after Delete = %v, want ErrNotFound", err)
	}
	if err := w.Delete(1, 2, 1); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("double Delete = %v, want ErrNotFound", err)
	}
	// A deleted key can be saved again.
	if err := w.Save(snap(1, 2, 1)); err != nil {
		t.Fatalf("re-Save after Delete: %v", err)
	}
}

func TestReopenRecoversEverything(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	const n = 200
	for i := 0; i < n; i++ {
		if err := w.Save(snap(i%5, i/5, 0)); err != nil {
			t.Fatalf("Save %d: %v", i, err)
		}
	}
	if err := w.Delete(0, 0, 0); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2 := mustOpen(t, dir, Options{})
	if _, err := w2.Get(0, 0, 0); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("deleted key resurrected after reopen: %v", err)
	}
	for i := 1; i < n; i++ {
		p, idx := i%5, i/5
		s, err := w2.Get(p, idx, 0)
		if err != nil {
			t.Fatalf("Get(%d,%d) after reopen: %v", p, idx, err)
		}
		if s.Vars["x"] != p*1000+idx*10 {
			t.Fatalf("recovered snapshot differs: %+v", s)
		}
	}
	if got := w2.Stats().Recovered; got < n {
		t.Fatalf("Stats.Recovered = %d, want >= %d", got, n)
	}
}

// TestConcurrentProcessesShareAnFsync is the durable-wal shape: every
// process writes its i-th checkpoint at about the same moment. The first
// fsync is held until all four saves are in its batch or queued behind it,
// so the rest ride one more group commit — two fsyncs for four saves at most.
func TestConcurrentProcessesShareAnFsync(t *testing.T) {
	orig := fsyncFile
	defer func() { fsyncFile = orig }()

	w := mustOpen(t, t.TempDir(), Options{})
	const savers = 4
	var first sync.Once
	fsyncFile = func(f *os.File) error {
		first.Do(func() {
			// The seam runs on the committer, which owns w.batch.
			for deadline := time.Now().Add(5 * time.Second); len(w.batch)+len(w.reqCh) < savers && time.Now().Before(deadline); {
				time.Sleep(100 * time.Microsecond)
			}
		})
		return orig(f)
	}
	var wg sync.WaitGroup
	errs := make([]error, savers)
	for p := 0; p < savers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = w.Save(snap(p, 1, 0))
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("Save by proc %d: %v", p, err)
		}
	}
	if st := w.Stats(); st.Saves != savers || st.Batches > 2 {
		t.Fatalf("%d saves took %d fsyncs, want at most 2", st.Saves, st.Batches)
	}
}

func TestGroupCommitBatches(t *testing.T) {
	w := mustOpen(t, t.TempDir(), Options{})
	const n = 256
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Save(snap(0, i, 0))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Save %d: %v", i, err)
		}
	}
	st := w.Stats()
	if st.Saves != n {
		t.Fatalf("Saves = %d, want %d", st.Saves, n)
	}
	if st.Batches >= n {
		t.Fatalf("no batching: %d batches for %d saves", st.Batches, n)
	}
	t.Logf("amortization: %d saves in %d group commits", st.Saves, st.Batches)
}

// TestTornTailTruncated simulates a crash mid-append by chopping bytes off
// a segment file out-of-band: reopen must truncate the incomplete trailing
// frame and keep every record before it.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if err := w.Save(snap(0, i, 0)); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	w.Close()

	path := filepath.Join(dir, "log-0.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the last frame: drop 5 trailing bytes.
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, dir, Options{})
	if w2.Stats().TruncatedBytes == 0 {
		t.Fatal("no torn tail truncated")
	}
	for i := 0; i < 9; i++ {
		if _, err := w2.Get(0, i, 0); err != nil {
			t.Fatalf("Get(0,%d) after torn tail: %v", i, err)
		}
	}
	// The torn record is gone — as if the append never completed.
	if _, err := w2.Get(0, 9, 0); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("torn record served: %v", err)
	}
	// And its key is writable again.
	if err := w2.Save(snap(0, 9, 0)); err != nil {
		t.Fatalf("re-Save torn key: %v", err)
	}
}

// TestInteriorCorruptionQuarantined flips a byte inside a mid-log record's
// body: reopen must quarantine exactly that key as ErrCorrupt — not abort
// recovery, not serve the damaged bytes, not drop the key silently.
func TestInteriorCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if err := w.Save(snap(0, i, 0)); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	var victim loc
	w.mu.Lock()
	victim, _ = w.index.Get(key(0, 4, 0))
	w.mu.Unlock()
	w.Close()

	path := filepath.Join(dir, "log-0.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the victim's JSON body (past the frame+payload heads).
	data[victim.off+frameHeader+payloadHead+2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, dir, Options{})
	if _, err := w2.Get(0, 4, 0); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("damaged record Get = %v, want ErrCorrupt", err)
	}
	if _, err := w2.Latest(0, 4); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("damaged record Latest = %v, want ErrCorrupt", err)
	}
	if _, err := w2.List(0); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("List over damaged proc = %v, want ErrCorrupt (strict)", err)
	}
	for i := 0; i < 10; i++ {
		if i == 4 {
			continue
		}
		if _, err := w2.Get(0, i, 0); err != nil {
			t.Fatalf("healthy neighbor Get(0,%d): %v", i, err)
		}
	}
	// Scrub quarantines it durably; the key becomes savable again.
	rep, err := w2.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].CFGIndex != 4 {
		t.Fatalf("Scrub report = %+v, want exactly (0,4,0)", rep)
	}
	if _, err := w2.Get(0, 4, 0); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Get after scrub = %v, want ErrNotFound", err)
	}
	if err := w2.Save(snap(0, 4, 0)); err != nil {
		t.Fatalf("re-Save after scrub: %v", err)
	}
	w2.Close()

	// The scrub is durable: the mark must not resurrect on reopen.
	w3 := mustOpen(t, dir, Options{})
	if s, err := w3.Get(0, 4, 0); err != nil || s.Vars["x"] != 40 {
		t.Fatalf("regenerated record after reopen = %+v, %v", s, err)
	}
}

// TestQuarantineMarkSurvivesReopen: a key quarantined at read time (rot
// detected) must still read ErrCorrupt after a reopen — recovery rebuilds
// the mark from the damaged bytes still in the log.
func TestQuarantineMarkSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := w.Save(snap(0, i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	w2 := mustOpen(t, dir, Options{})
	// Damage index 1's body on disk while the store is open.
	w2.mu.Lock()
	l, _ := w2.index.Get(key(0, 1, 0))
	f := w2.files[l.seg]
	if _, err := f.WriteAt([]byte{0xFF}, l.off+frameHeader+payloadHead+2); err != nil {
		w2.mu.Unlock()
		t.Fatal(err)
	}
	w2.mu.Unlock()
	if _, err := w2.Get(0, 1, 0); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("Get rotted = %v, want ErrCorrupt", err)
	}
	w2.Close()
	w3 := mustOpen(t, dir, Options{})
	if _, err := w3.Get(0, 1, 0); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("rot mark lost across reopen: %v", err)
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotations; compaction auto-triggers on dead bytes.
	w := mustOpen(t, dir, Options{MaxSegmentBytes: 4 << 10, CompactMinDeadBytes: 2 << 10})
	const n = 300
	for i := 0; i < n; i++ {
		if err := w.Save(snap(i%3, i/3, 0)); err != nil {
			t.Fatalf("Save %d: %v", i, err)
		}
	}
	// Delete two thirds to create garbage.
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			continue
		}
		if err := w.Delete(i%3, i/3, 0); err != nil {
			t.Fatalf("Delete %d: %v", i, err)
		}
	}
	if err := w.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := w.Stats()
	if st.Rotations == 0 {
		t.Fatal("tiny segments never rotated")
	}
	if st.Compactions == 0 {
		t.Fatal("compaction never ran")
	}
	w.Close()

	w2 := mustOpen(t, dir, Options{})
	for i := 0; i < n; i++ {
		p, idx := i%3, i/3
		_, err := w2.Get(p, idx, 0)
		if i%3 == 0 {
			if err != nil {
				t.Fatalf("live key (%d,%d) lost after compaction+reopen: %v", p, idx, err)
			}
		} else if !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("deleted key (%d,%d) resurrected: %v", p, idx, err)
		}
	}
}

// Compact seals the active segment before it compacts. Here process 0's
// sealed checkpoint 3 holds F_1 of a 2-process application at 3, so the
// out-of-order save of process 1's checkpoint 1 into the active segment
// retires at once; then the sealed checkpoint is deleted. Compacting the
// sealed segments alone would drop that checkpoint's record, and replay of
// the active segment would find no F_1 and keep checkpoint 1: the reopened
// log would hold a key the store had retired.
func TestCompactSealsTheActiveSegment(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{MaxSegmentBytes: 1, NoAutoCompact: true})
	save := func(p, inst int) {
		t.Helper()
		s := snap(p, 1, inst)
		s.N = 2
		if err := w.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	save(0, 3)
	save(1, 5) // each commit rotates: both records are sealed
	w.mu.Lock()
	w.opts.MaxSegmentBytes = 1 << 20
	w.mu.Unlock()
	save(1, 1)
	if _, err := w.Get(1, 1, 1); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("checkpoint 1, below F_1 − 1 = 2, was not retired: %v", err)
	}
	if err := w.Delete(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w = mustOpen(t, dir, Options{})
	for p, want := range [][]storage.Key{nil, {key(1, 1, 5)}} {
		if got, err := w.Keys(p); err != nil || len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Errorf("reopened, process %d holds %v, %v; want %v", p, got, err, want)
		}
	}
}

// A record replay finds damaged still retires what its save did, by its
// run's last n. Two processes save instances 0–2 of one index in lockstep:
// process 1's instance 2 moved F_1 to 2 and retired both instance 0s. With
// that record's body rotted on disk, the reopened log holds the same keys,
// the rotted one quarantined.
func TestReplayRetiresAtADamagedRecord(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	for inst := 0; inst < 3; inst++ {
		for p := 0; p < 2; p++ {
			s := snap(p, 1, inst)
			s.N = 2
			if err := w.Save(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	var before [2][]storage.Key
	for p := range before {
		before[p], _ = w.Keys(p)
	}
	w.mu.Lock()
	l, _ := w.index.Get(key(1, 1, 2))
	_, err := w.files[l.seg].WriteAt([]byte{0xFF}, l.off+frameHeader+payloadHead+2)
	w.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	w = mustOpen(t, dir, Options{})
	for p, want := range before {
		if got, err := w.Keys(p); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("process %d: reopened with %v, %v; held %v", p, got, err, want)
		}
	}
	if _, err := w.Get(1, 1, 2); !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("rotted record read back as %v, want ErrCorrupt", err)
	}
}

// Compaction writes the compacted segment a chunk at a time: records past
// the first chunk read back from where it put them, before and after a
// reopen.
func TestCompactionAcrossChunks(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{NoAutoCompact: true})
	pad := strings.Repeat("p", 2<<10)
	var keys []storage.Key
	for i := 0; len(keys)*len(pad) < 3*compactChunk; i++ {
		s := snap(0, i, 0)
		s.PC = pad
		if err := w.Save(s); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, s.Key())
	}
	if err := w.Compact(); err != nil || w.Stats().Compactions != 1 {
		t.Fatalf("Compact: %v, %d compactions", err, w.Stats().Compactions)
	}
	check := func(w *Store, when string) {
		t.Helper()
		for _, k := range keys {
			if s, err := w.Get(k.Proc, k.CFGIndex, k.Instance); err != nil || s.PC != pad || s.Vars["x"] != k.CFGIndex*10 {
				t.Fatalf("%s: Get(%v) = %v", when, k, err)
			}
		}
	}
	check(w, "compacted")
	w.Close()
	check(mustOpen(t, dir, Options{}), "reopened")
}

// TestOrphanSegmentsDeleted: segment files the manifest does not name
// (an interrupted compaction's output) are removed on open.
func TestOrphanSegmentsDeleted(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	if err := w.Save(snap(0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	orphan := filepath.Join(dir, "log-77.seg")
	if err := os.WriteFile(orphan, appendFrame(nil, kindPut, key(9, 9, 9), storage.AppendSnapshot(nil, snap(9, 9, 9))), 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := mustOpen(t, dir, Options{})
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan segment survived open: %v", err)
	}
	if _, err := w2.Get(9, 9, 9); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("orphan record leaked into the index: %v", err)
	}
}

// TestOpenRefusesShardedDirectory: segment and manifest files the log would
// not replay hold somebody's acknowledged checkpoints. Before the log was
// one log a directory did not record its shard count: opening with two
// shards a log written with eight succeeded and silently served 4 of 16
// acknowledged checkpoints (Indexes(16) = []). Now Open fails, names the
// file, and leaves every byte where it was — with or without a log of its
// own beside the foreign files.
func TestOpenRefusesShardedDirectory(t *testing.T) {
	for _, ownLog := range []bool{true, false} {
		dir := t.TempDir()
		if ownLog {
			w := mustOpen(t, dir, Options{})
			if err := w.Save(snap(0, 0, 0)); err != nil {
				t.Fatal(err)
			}
			w.Close()
		}
		foreign := map[string][]byte{
			"s3-0.seg":    appendFrame(nil, kindPut, key(1, 2, 0), storage.AppendSnapshot(nil, snap(1, 2, 0))),
			"s3.manifest": []byte("another shard's manifest"),
		}
		for name, data := range foreign {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		before := readDirBytes(t, dir)

		w, err := Open(dir, Options{})
		if err == nil {
			w.Close()
			t.Fatalf("ownLog=%v: Open succeeded over a sharded directory", ownLog)
		}
		if !strings.Contains(err.Error(), "s3-0.seg") && !strings.Contains(err.Error(), "s3.manifest") {
			t.Errorf("ownLog=%v: error names no foreign file: %v", ownLog, err)
		}
		if after := readDirBytes(t, dir); !reflect.DeepEqual(before, after) {
			t.Errorf("ownLog=%v: a refused Open changed the directory: %d files before, %d after", ownLog, len(before), len(after))
		}
	}
}

func readDirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestManifestNamesMissingLastSegment: a rotation crash window — manifest
// renamed, segment file never created — recovers as an empty active
// segment.
func TestManifestNamesMissingLastSegment(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	if err := w.Save(snap(0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	m := manifest{Segments: append(append([]uint64(nil), w.segs...), w.nextSeg), Next: w.nextSeg + 1}
	err := w.writeManifest(m, false)
	w.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2 := mustOpen(t, dir, Options{})
	if _, err := w2.Get(0, 0, 0); err != nil {
		t.Fatalf("record lost across rotation crash window: %v", err)
	}
	if err := w2.Save(snap(0, 1, 0)); err != nil {
		t.Fatalf("Save into recovered empty active: %v", err)
	}
}

// TestMissingInteriorSegmentFatal: acknowledged data vanishing wholesale
// (a non-last manifest segment missing) must fail open loudly.
func TestMissingInteriorSegmentFatal(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{MaxSegmentBytes: 1 << 10})
	for i := 0; i < 50; i++ {
		if err := w.Save(snap(0, i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Stats().Rotations == 0 {
		t.Fatal("test needs at least one rotation")
	}
	w.Close()
	if err := os.Remove(filepath.Join(dir, "log-0.seg")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open succeeded with an interior segment missing")
	}
}

// TestFsyncGatePoisonsStore: a real fsync failure must fail the Save with
// storage.ErrFsync (permanent, NOT ErrTransient) and poison the store
// until reopen — retrying the fsync could silently "succeed" without the
// data on disk.
func TestFsyncGatePoisonsStore(t *testing.T) {
	orig := fsyncFile
	defer func() { fsyncFile = orig }()

	w := mustOpen(t, t.TempDir(), Options{})
	if err := w.Save(snap(0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	fail := true
	fsyncFile = func(f *os.File) error {
		if fail {
			return errors.New("injected EIO")
		}
		return orig(f)
	}
	err := w.Save(snap(0, 1, 0))
	if !errors.Is(err, storage.ErrFsync) {
		t.Fatalf("Save under failing fsync = %v, want ErrFsync", err)
	}
	if errors.Is(err, storage.ErrTransient) {
		t.Fatal("ErrFsync must not be transient: a retried fsync can lie")
	}
	fail = false
	// The store is poisoned even though fsync "works" again.
	if err := w.Save(snap(0, 2, 0)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Save after fsync failure = %v, want ErrCrashed", err)
	}
	if !w.Killed() {
		t.Fatal("store not marked killed after fsync failure")
	}
}

func TestClosedStore(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	if err := w.Save(snap(0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(snap(0, 1, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Save after Close = %v, want ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// A quarantined key is still a key: Keys lists it and Indexes counts it,
// while Latest and List, which would load it, fail ErrCorrupt — the last
// even when other instances of its index are healthy, the index's only key
// of its process included. A reopen rebuilds the mark from the damaged bytes
// and a compaction re-emits it as a marker record; neither changes a read.
func TestQuarantinedKeyReadsAcrossReopenAndCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := Options{MaxSegmentBytes: 2 << 10, NoAutoCompact: true}
	w := mustOpen(t, dir, opts)
	var want [2][]storage.Key
	for p := 0; p < 2; p++ {
		for idx := 1; idx <= 3; idx++ {
			for inst := 0; inst < 3 && (idx < 3 || inst == 0); inst++ {
				if err := w.Save(snap(p, idx, inst)); err != nil {
					t.Fatal(err)
				}
				want[p] = append(want[p], key(p, idx, inst))
			}
		}
	}
	rotted := []storage.Key{key(0, 1, 2), key(1, 3, 0)} // a run's tail; a run's only key
	for _, k := range rotted {
		w.mu.Lock()
		l, _ := w.index.Get(k)
		_, err := w.files[l.seg].WriteAt([]byte{0xFF}, l.off+frameHeader+payloadHead+2)
		w.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Get(k.Proc, k.CFGIndex, k.Instance); !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("Get rotted %s = %v, want ErrCorrupt", k, err)
		}
	}
	check := func(w *Store, when string) {
		t.Helper()
		for _, k := range rotted {
			if _, err := w.Latest(k.Proc, k.CFGIndex); !errors.Is(err, storage.ErrCorrupt) {
				t.Errorf("%s: Latest(%d, %d) = %v, want ErrCorrupt", when, k.Proc, k.CFGIndex, err)
			}
			if _, err := w.List(k.Proc); !errors.Is(err, storage.ErrCorrupt) {
				t.Errorf("%s: List(%d) = %v, want ErrCorrupt", when, k.Proc, err)
			}
		}
		if s, err := w.Latest(0, 2); err != nil || s.Instance != 2 {
			t.Errorf("%s: Latest(0, 2) = %+v, %v; want instance 2", when, s.Key(), err)
		}
		if s, err := w.Get(0, 1, 1); err != nil || s.Vars["x"] != 11 {
			t.Errorf("%s: Get(0, 1, 1) = %+v, %v", when, s, err)
		}
		for p := range want {
			keys, err := w.Keys(p)
			storage.SortKeys(keys)
			if err != nil || !reflect.DeepEqual(keys, want[p]) {
				t.Errorf("%s: Keys(%d) = %v, %v; want %v", when, p, keys, err, want[p])
			}
		}
		if idx, err := w.Indexes(2); err != nil || !reflect.DeepEqual(idx, []int{1, 2, 3}) {
			t.Errorf("%s: Indexes(2) = %v, %v; want [1 2 3]", when, idx, err)
		}
	}
	check(w, "quarantined at read")
	w.Close()
	w = mustOpen(t, dir, opts)
	check(w, "after reopen")

	for i := 0; w.Stats().Rotations == 0; i++ {
		if err := w.Save(snap(9, 7, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Compact(); err != nil || w.Stats().Compactions != 1 {
		t.Fatalf("Compact: %v, %d compactions", err, w.Stats().Compactions)
	}
	check(w, "after compaction")
	w.Close()
	check(mustOpen(t, dir, opts), "after compaction and reopen")
}

// What the index retains per key of a long-lived log: 400 processes × 72
// checkpoints (two indexes × 36 instances, saved instance by instance as
// runs save them), replayed by Open. A run of entries in instance order
// keeps a key in 32 bytes plus its slice's growth room; the per-process maps
// of keys it replaced kept 90.6.
func TestWALIndexRetainedBytesAlloc(t *testing.T) {
	const procs, indexes, instances = 400, 2, 36
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	w.Close()
	var seg []byte
	for inst := 0; inst < instances; inst++ {
		for idx := 1; idx <= indexes; idx++ {
			for p := 0; p < procs; p++ {
				seg = appendFrame(seg, kindPut, key(p, idx, inst), []byte("body"))
			}
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "log-0.seg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	seg = nil
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w = mustOpen(t, dir, Options{})
	runtime.GC()
	runtime.ReadMemStats(&after)
	keys, indexed := procs*indexes*instances, 0
	w.index.RangeAll(func(storage.Key, loc) bool { indexed++; return true })
	if indexed != keys {
		t.Fatalf("Open indexed %d keys, want %d", indexed, keys)
	}
	perKey := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(keys)
	t.Logf("%d keys retain %.1f B each", keys, perKey)
	if perKey > 64 {
		t.Errorf("the index retains %.1f B per key, want <= 64", perKey)
	}
	runtime.KeepAlive(w)
}
