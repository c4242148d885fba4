package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/storage"
)

// scriptInjector fires one scripted fault at a given consult sequence
// number, recording whether it triggered.
type scriptInjector struct {
	mu    sync.Mutex
	op    Op
	seq   uint64
	fault Fault
	anyOp bool // match seq regardless of op
	fired bool
}

func (si *scriptInjector) Decide(op Op, seq uint64, size int) Fault {
	si.mu.Lock()
	defer si.mu.Unlock()
	if si.fired {
		return Fault{}
	}
	if (si.anyOp || op == si.op) && seq >= si.seq {
		si.fired = true
		return si.fault
	}
	return Fault{}
}

// TestCrashAtEveryConsultPoint walks the consult sequence: for step N it
// runs a fixed workload with a kill injected at the N-th consult, then
// reopens and checks the fundamental invariant — every Save that returned
// nil is recovered intact, every Save that did not is either absent or
// fully intact (never torn, never wrong).
func TestCrashAtEveryConsultPoint(t *testing.T) {
	for _, kill := range []Kill{KillBefore, KillAfter} {
		for _, keep := range []int{0, 7} {
			for step := uint64(0); step < 40; step++ {
				t.Run(fmt.Sprintf("kill%d_keep%d_step%d", kill, keep, step), func(t *testing.T) {
					si := &scriptInjector{anyOp: true, seq: step, fault: Fault{Kill: kill, Keep: keep}}
					runCrashWorkload(t, si)
				})
			}
		}
	}
}

// TestCrashAtRotationAndCompaction targets the manifest protocol windows
// specifically: kills at segment creation, manifest write/rename, and
// retirement, under segment sizes small enough to force both rotation and
// compaction inside the workload — and inside a workload whose saves retire,
// so that its compactions drop retired records.
func TestCrashAtRotationAndCompaction(t *testing.T) {
	dropped := 0 // retiring runs that compacted retired records away
	for _, op := range []Op{OpSegCreate, OpManifestWrite, OpManifestRename, OpRetire, OpDirSync} {
		for _, kill := range []Kill{KillBefore, KillAfter} {
			for step := uint64(0); step < 6; step++ {
				si := &scriptInjector{op: op, seq: step, fault: Fault{Kill: kill}}
				runCrashWorkload(t, si)
				si = &scriptInjector{op: op, seq: step, fault: Fault{Kill: kill}}
				if runRetiringWorkload(t, si) {
					dropped++
				}
				if !si.fired {
					t.Errorf("%s kill %d at step %d never fired in the retiring workload", op, kill, step)
				}
			}
		}
	}
	if dropped == 0 {
		t.Error("no retiring run compacted a retired record away")
	}
}

// runRetiringWorkload is runCrashWorkload for a two-process application
// whose saves carry N: processes 0 and 1 save instances of one index
// in lockstep, so that F_1 moves on and each save retires what lies below
// F_1 − 1, and the small segments rotate and compact the retired records
// away. After the kill, the reopened log must hold nothing below its own
// F_1 − 1 — nothing retired before the kill in particular — and serve every
// acknowledged key at or above it intact: an unacknowledged save that landed
// may have moved F_1 on. It reports whether a compaction ran after a save
// had retired something.
func runRetiringWorkload(t *testing.T, si *scriptInjector) bool {
	t.Helper()
	w, err := Open(t.TempDir(), Options{MaxSegmentBytes: 2 << 10, CompactMinDeadBytes: 1 << 10, Injector: si})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	acked, retired := map[storage.Key]bool{}, map[storage.Key]bool{}
	latest := [2]int{-1, -1}
	compacted := false
save:
	for inst := 0; inst < 60; inst++ {
		for p := range latest {
			s := snap(p, 1, inst)
			s.N, s.Peers = 2, storage.Row{{Peer: 1 - p, Sent: inst + 1, Recvd: inst}}
			if err := w.Save(s); errors.Is(err, ErrCrashed) {
				break save
			} else if err != nil {
				t.Fatalf("Save(%v) failed with non-crash error: %v", s.Key(), err)
			}
			acked[s.Key()], latest[p] = true, inst
			for k := range acked {
				if k.Instance < min(latest[0], latest[1])-1 {
					retired[k] = true
				}
			}
			compacted = compacted || (len(retired) > 0 && w.Stats().Compactions > 0)
		}
	}
	dir := w.dir
	w.Close()

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after crash (fired=%v): %v", si.fired, err)
	}
	defer w2.Close()
	front, held := -1, map[storage.Key]bool{}
	for p := range latest {
		keys, err := w2.Keys(p)
		if err != nil || len(keys) == 0 {
			front = -1
			break
		}
		for _, k := range keys {
			held[k] = true
		}
		if inst := keys[len(keys)-1].Instance; p == 0 || inst < front {
			front = inst
		}
	}
	for k := range held {
		if k.Instance < front-1 {
			t.Fatalf("reopened log holds %v below F_1 − 1 = %d (retired before the kill: %v)", k, front-1, retired[k])
		}
	}
	for k := range acked {
		s, err := w2.Get(k.Proc, k.CFGIndex, k.Instance)
		switch {
		case retired[k] || k.Instance < front-1:
			if !errors.Is(err, storage.ErrNotFound) {
				t.Fatalf("retired %v served after reopen: %v", k, err)
			}
		case err != nil:
			t.Fatalf("ACKED save %v, at or above F_1 − 1 = %d, lost after crash+reopen: %v", k, front-1, err)
		case s.Vars["x"] != k.Proc*1000+k.CFGIndex*10+k.Instance:
			t.Fatalf("acked save %v recovered with wrong body: %+v", k, s)
		}
	}
	return compacted
}

// runCrashWorkload drives saves and deletes into an injected store until
// it dies (or the workload completes), then reopens WITHOUT an injector
// and verifies the invariant against the recorded acks.
func runCrashWorkload(t *testing.T, si *scriptInjector) {
	t.Helper()
	dir := t.TempDir()
	opts := Options{MaxSegmentBytes: 2 << 10, CompactMinDeadBytes: 1 << 10, Injector: si}
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	acked := map[storage.Key]bool{}        // Save returned nil
	deleted := map[storage.Key]bool{}      // Delete returned nil
	delAttempted := map[storage.Key]bool{} // Delete issued — acked or not, the
	// tombstone may have been fsynced before the crash killed the ack
	const n = 120
	for i := 0; i < n; i++ {
		k := key(i%2, i/2, 0)
		if err := w.Save(snap(k.Proc, k.CFGIndex, k.Instance)); err == nil {
			acked[k] = true
		} else if !errors.Is(err, ErrCrashed) {
			t.Fatalf("Save(%v) failed with non-crash error: %v", k, err)
		}
		if i%5 == 4 {
			dk := key((i-2)%2, (i-2)/2, 0)
			err := w.Delete(dk.Proc, dk.CFGIndex, dk.Instance)
			if err == nil {
				delete(acked, dk)
				deleted[dk] = true
				delAttempted[dk] = true
			} else if errors.Is(err, ErrCrashed) {
				delAttempted[dk] = true
			} else if !errors.Is(err, storage.ErrNotFound) {
				t.Fatalf("Delete(%v) failed oddly: %v", dk, err)
			}
		}
	}
	crashed := w.Killed()
	w.Close()

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after crash (fired=%v crashed=%v): %v", si.fired, crashed, err)
	}
	defer w2.Close()

	for k := range acked {
		s, err := w2.Get(k.Proc, k.CFGIndex, k.Instance)
		if err != nil {
			if delAttempted[k] && errors.Is(err, storage.ErrNotFound) {
				// An unacked Delete's tombstone beat the crash to disk.
				continue
			}
			t.Fatalf("ACKED save %v lost after crash+reopen (injector fired=%v): %v", k, si.fired, err)
		}
		if want := k.Proc*1000 + k.CFGIndex*10 + k.Instance; s.Vars["x"] != want {
			t.Fatalf("acked save %v recovered with wrong body: %+v", k, s)
		}
	}
	for k := range deleted {
		if _, err := w2.Get(k.Proc, k.CFGIndex, k.Instance); !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("ACKED delete %v resurrected after crash+reopen: %v", k, err)
		}
	}
	// Unacked keys: absent is fine (the crash beat the fsync); present must
	// be fully intact (the fsync beat the crash) — never torn, never wrong.
	for i := 0; i < n; i++ {
		k := key(i%2, i/2, 0)
		if acked[k] || deleted[k] {
			continue
		}
		s, err := w2.Get(k.Proc, k.CFGIndex, k.Instance)
		if err != nil {
			if errors.Is(err, storage.ErrNotFound) || errors.Is(err, storage.ErrCorrupt) {
				continue
			}
			t.Fatalf("unacked key %v read failed oddly: %v", k, err)
		}
		if want := k.Proc*1000 + k.CFGIndex*10 + k.Instance; s.Vars["x"] != want {
			t.Fatalf("unacked key %v served torn/wrong bytes: %+v", k, s)
		}
	}
}

// TestInjectedFlipServedAsCorrupt: a bit flip on an acknowledged record's
// body must surface as ErrCorrupt on read — before AND after a reopen —
// and never as the damaged bytes or a silent miss.
func TestInjectedFlipServedAsCorrupt(t *testing.T) {
	for step := uint64(0); step < 10; step++ {
		si := &scriptInjector{op: OpAppend, seq: step, fault: Fault{Flip: true, FlipAt: 3}}
		dir := t.TempDir()
		w, err := Open(dir, Options{Injector: si})
		if err != nil {
			t.Fatal(err)
		}
		var ackedKeys []storage.Key
		for i := 0; i < 10; i++ {
			k := key(0, i, 0)
			if err := w.Save(snap(0, i, 0)); err != nil {
				t.Fatalf("Save under flip injection must still ack: %v", err)
			}
			ackedKeys = append(ackedKeys, k)
		}
		if !si.fired {
			t.Fatal("flip never fired")
		}
		countCorrupt := func(w *Store) int {
			n := 0
			for _, k := range ackedKeys {
				s, err := w.Get(k.Proc, k.CFGIndex, k.Instance)
				switch {
				case err == nil:
					if want := k.CFGIndex * 10; s.Vars["x"] != want {
						t.Fatalf("flip served as valid data: %+v", s)
					}
				case errors.Is(err, storage.ErrCorrupt):
					n++
				default:
					t.Fatalf("Get(%v) = %v, want nil or ErrCorrupt", k, err)
				}
			}
			return n
		}
		live := countCorrupt(w)
		if live != 1 {
			t.Fatalf("step %d: %d corrupt keys live, want exactly 1", step, live)
		}
		w.Close()
		w2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen over flipped record: %v", err)
		}
		if re := countCorrupt(w2); re != 1 {
			t.Fatalf("step %d: %d corrupt keys after reopen, want exactly 1", step, re)
		}
		w2.Close()
	}
}

// TestTornBatchPartialKeep: a crash that lets only part of an unsynced
// batch land produces a torn tail; reopen truncates it and recovers
// everything fsynced before.
func TestTornBatchPartialKeep(t *testing.T) {
	for keep := 1; keep < 60; keep += 7 {
		si := &scriptInjector{op: OpSync, seq: 3, fault: Fault{Kill: KillBefore, Keep: keep}}
		runCrashWorkload(t, si)
	}
}
