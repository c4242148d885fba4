package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// fuzzSegBytes builds seed-corpus segment images: valid frames, torn
// tails, flipped bodies — the shapes recovery must survive.
func fuzzPut(proc, index, instance int) []byte {
	clk := vclock.New(proc + 1)
	clk[proc] = uint64(instance + 1)
	return appendFrame(nil, kindPut, key(proc, index, instance), storage.AppendSnapshot(nil, storage.Snapshot{
		Proc: proc, CFGIndex: index, Instance: instance,
		Clock: clk, Vars: map[string]int{"x": 42}, PC: "s0",
	}))
}

// FuzzWALRecover feeds arbitrary bytes to the WAL as the contents of a
// log's single (active) segment and requires recovery to hold its two
// promises on ANY input:
//
//  1. Open never panics and never fails — a lone active segment can only
//     be torn (truncated) or rotted (quarantined), never fatal.
//  2. No CRC-mismatching record is ever served: every key recovery
//     indexes reads back cleanly with a matching embedded key; every key
//     it quarantines reads back as ErrCorrupt.
//
// It also pins recovery idempotence — a second open over the repaired
// directory reconstructs exactly the same index and quarantine sets —
// and that the repaired log still accepts writes.
// Run with `go test -fuzz FuzzWALRecover ./internal/storage/wal`; the
// committed corpus under testdata/fuzz runs under plain `go test`.
func FuzzWALRecover(f *testing.F) {
	valid := fuzzPut(0, 1, 0)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-3] ^= 0x40 // rotted body
	f.Add(flipped)
	two := append(append([]byte(nil), valid...), fuzzPut(2, 3, 1)...)
	f.Add(two)
	tomb := append(append([]byte(nil), valid...), appendFrame(nil, kindTomb, key(0, 1, 0), nil)...)
	f.Add(tomb)
	f.Add(appendFrame(nil, kindMark, key(5, 0, 2), []byte("prior quarantine")))
	huge := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(huge[4:], 1<<30) // length field past maxPayload
	f.Add(huge)
	f.Add([]byte("not a frame at all, just prose that happens to be on disk"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		body, err := json.Marshal(manifest{Segments: []uint64{0}, Next: 1})
		if err != nil {
			t.Fatal(err)
		}
		frame := make([]byte, 4+len(body))
		binary.BigEndian.PutUint32(frame, crc32.ChecksumIEEE(body))
		copy(frame[4:], body)
		if err := os.WriteFile(filepath.Join(dir, "log.manifest"), frame, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "log-0.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}

		w, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("recovery failed on a lone active segment: %v", err)
		}
		check := func(w *Store) (indexed, quarantined map[storage.Key]bool) {
			w.mu.Lock()
			indexed = make(map[storage.Key]bool)
			quarantined = make(map[storage.Key]bool, len(w.corrupt))
			// Invariant: the index's marks are exactly corrupt's keys.
			w.index.RangeAll(func(k storage.Key, l loc) bool {
				if _, why := w.corrupt[k]; why != l.mark() {
					t.Errorf("key %+v: mark %v, reason kept %v", k, l.mark(), why)
				}
				if !l.mark() {
					indexed[k] = true
				}
				return true
			})
			for k := range w.corrupt {
				if l, ok := w.index.Get(k); !ok || !l.mark() {
					t.Errorf("quarantined key %+v has no mark in the index", k)
				}
				quarantined[k] = true
			}
			w.mu.Unlock()
			for k := range indexed {
				s, err := w.Get(k.Proc, k.CFGIndex, k.Instance)
				if err != nil {
					t.Fatalf("indexed key %+v unreadable: %v", k, err)
				}
				if s.Proc != k.Proc || s.CFGIndex != k.CFGIndex || s.Instance != k.Instance {
					t.Fatalf("key %+v served snapshot for %d/%d/%d", k, s.Proc, s.CFGIndex, s.Instance)
				}
			}
			for k := range quarantined {
				if _, err := w.Get(k.Proc, k.CFGIndex, k.Instance); !errors.Is(err, storage.ErrCorrupt) {
					t.Fatalf("quarantined key %+v = %v, want ErrCorrupt", k, err)
				}
			}
			return indexed, quarantined
		}
		idx1, cor1 := check(w)
		if err := w.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}

		// Idempotence: recovery over its own repair output changes nothing.
		w2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("second recovery failed: %v", err)
		}
		defer w2.Close()
		idx2, cor2 := check(w2)
		if len(idx1) != len(idx2) || len(cor1) != len(cor2) {
			t.Fatalf("recovery not idempotent: index %d->%d, corrupt %d->%d",
				len(idx1), len(idx2), len(cor1), len(cor2))
		}
		for k := range idx1 {
			if !idx2[k] {
				t.Fatalf("indexed key %+v lost by second recovery", k)
			}
		}
		for k := range cor1 {
			if !cor2[k] {
				t.Fatalf("quarantined key %+v lost by second recovery", k)
			}
		}

		// The repaired log still takes writes.
		clk := vclock.New(1)
		clk[0] = 1
		probe := storage.Snapshot{Proc: 0, CFGIndex: 9999, Instance: 7, Clock: clk, PC: "probe"}
		if err := w2.Save(probe); err != nil && !errors.Is(err, storage.ErrDuplicate) {
			t.Fatalf("save into repaired log: %v", err)
		}
		if _, err := w2.Get(0, 9999, 7); err != nil {
			t.Fatalf("read back probe: %v", err)
		}
	})
}
