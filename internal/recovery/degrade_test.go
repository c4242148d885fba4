package recovery

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/storage"
)

// corruptStore wraps a Store and fails reads of chosen snapshots with
// storage.ErrCorrupt — the minimal stand-in for a store whose integrity
// checks reject damaged records. gets counts the reads through it.
type corruptStore struct {
	storage.Store
	bad  map[[3]int]bool
	gets int
}

func (c *corruptStore) markBad(proc, index, instance int) {
	if c.bad == nil {
		c.bad = make(map[[3]int]bool)
	}
	c.bad[[3]int{proc, index, instance}] = true
}

func (c *corruptStore) Get(proc, index, instance int) (storage.Snapshot, error) {
	c.gets++
	if c.bad[[3]int{proc, index, instance}] {
		return storage.Snapshot{}, fmt.Errorf("%w: proc=%d index=%d instance=%d", storage.ErrCorrupt, proc, index, instance)
	}
	return c.Store.Get(proc, index, instance)
}

// Keys implements storage.KeyLister: a damaged key is still a key.
func (c *corruptStore) Keys(proc int) ([]storage.Key, error) { return storage.Keys(c.Store, proc) }

func TestStraightCutDegradesToOlderInstance(t *testing.T) {
	st := &corruptStore{Store: storage.NewMemory()}
	save(t, st, 0, 1, 0, 0, 0)
	save(t, st, 0, 1, 1, 2, 2)
	save(t, st, 1, 1, 0, 0, 0)
	save(t, st, 1, 1, 1, 2, 2)
	// The best cut (instance 1) has a corrupt member: fall back to
	// instance 0 and report one degradation step.
	st.markBad(0, 1, 1)
	line, err := StraightCut(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	for p, s := range line.Snapshots {
		if s.Instance != 0 {
			t.Errorf("proc %d restored instance %d, want 0", p, s.Instance)
		}
	}
	if line.Degraded == 0 {
		t.Error("Degraded = 0, want > 0 (the best cut was skipped)")
	}
}

func TestStraightCutDegradesToOlderIndex(t *testing.T) {
	st := &corruptStore{Store: storage.NewMemory()}
	save(t, st, 0, 1, 0, 0, 0)
	save(t, st, 1, 1, 0, 0, 0)
	save(t, st, 0, 2, 0, 3, 3)
	save(t, st, 1, 2, 0, 3, 3)
	// The whole deeper index is unreadable: recovery must choose R_1.
	st.markBad(0, 2, 0)
	st.markBad(1, 2, 0)
	line, err := StraightCut(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if line.Snapshots[0].CFGIndex != 1 {
		t.Errorf("chose index %d, want 1", line.Snapshots[0].CFGIndex)
	}
	if line.Degraded == 0 {
		t.Error("Degraded = 0, want > 0")
	}
}

func TestStraightCutAllCorruptReportsNoRecoveryLine(t *testing.T) {
	st := &corruptStore{Store: storage.NewMemory()}
	save(t, st, 0, 1, 0, 0, 0)
	save(t, st, 1, 1, 0, 0, 0)
	st.markBad(0, 1, 0)
	st.markBad(1, 1, 0)
	_, err := StraightCut(st, 2)
	if !errors.Is(err, ErrNoRecoveryLine) {
		t.Fatalf("err = %v, want ErrNoRecoveryLine (bottom of the degradation ladder)", err)
	}
}

// A memory store keeps the newest two cuts of an index. When both fail, the
// probe stops where the store retired the index: Degraded counts the two
// damaged cuts, not the retired instances below them.
func TestStraightCutStopsAtRetiredInstances(t *testing.T) {
	st := &corruptStore{Store: storage.NewMemory()}
	for p := 0; p < 2; p++ {
		for idx := 1; idx <= 2; idx++ {
			for inst := 0; inst < 6; inst++ {
				s := storage.Snapshot{Proc: p, CFGIndex: idx, Instance: inst,
					N: 2, Peers: two(p, 10*inst+idx, 0)}
				if err := st.Save(s); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	st.markBad(0, 2, 5)
	st.markBad(0, 2, 4)
	line, err := StraightCut(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s := line.Snapshots[0]; s.CFGIndex != 1 || s.Instance != 5 || line.Degraded != 2 {
		t.Errorf("line at %s, Degraded %d; want index 1 instance 5, Degraded 2", s.Key(), line.Degraded)
	}
}

func TestStraightCutCleanStoreReportsNoDegradation(t *testing.T) {
	st := storage.NewMemory()
	save(t, st, 0, 1, 0, 0, 0)
	save(t, st, 1, 1, 0, 0, 0)
	line, err := StraightCut(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if line.Degraded != 0 {
		t.Errorf("Degraded = %d on a healthy store, want 0", line.Degraded)
	}
}

// TestDegradationLadder pins the whole ladder on one fixed store: each
// rung corrupts strictly more than the one above it and must land exactly
// where the rung says — same chosen (index, instance), same Degraded
// count — down to the restart-from-initial-state floor. The store holds
// two indexes × two instances per process; the best cut is (2, #1).
func TestDegradationLadder(t *testing.T) {
	type target struct{ proc, index, instance int }
	rungs := []struct {
		name         string
		bad          []target
		wantIndex    int // chosen CFG index (when a line exists)
		wantInstance int
		wantDegraded int
		wantErr      error // non-nil: the rung is the ladder's floor
	}{
		{
			name:         "best-cut",
			wantIndex:    2,
			wantInstance: 1,
			wantDegraded: 0,
		},
		{
			name:         "older-instance",
			bad:          []target{{0, 2, 1}},
			wantIndex:    2,
			wantInstance: 0,
			wantDegraded: 1, // skipped: (2, #1)
		},
		{
			name: "older-index",
			bad:  []target{{0, 2, 1}, {1, 2, 0}},
			// Index 2 lost instance 1 on proc 0 and instance 0 on proc 1:
			// its frontier min(#0, #1) = #0 probes (2, #0) which is also
			// incomplete, then (2, #-1) ends the index; R_1 remains whole.
			wantIndex:    1,
			wantInstance: 1,
			wantDegraded: 2, // skipped: (2, #1) on proc 0's side, then (2, #0)
		},
		{
			name: "initial-state",
			bad: []target{
				{0, 1, 0}, {0, 1, 1}, {0, 2, 0}, {0, 2, 1},
			},
			wantErr: ErrNoRecoveryLine,
		},
	}
	for _, rung := range rungs {
		t.Run(rung.name, func(t *testing.T) {
			st := &corruptStore{Store: storage.NewMemory()}
			for p := 0; p < 2; p++ {
				for idx := 1; idx <= 2; idx++ {
					for inst := 0; inst <= 1; inst++ {
						// Counters without an orphan that grow with (index,
						// instance) so deeper cuts always score higher.
						c := 10*idx + 5*inst + 1
						save(t, st, p, idx, inst, c, c)
					}
				}
			}
			for _, b := range rung.bad {
				st.markBad(b.proc, b.index, b.instance)
			}
			line, err := StraightCut(st, 2)
			if rung.wantErr != nil {
				if !errors.Is(err, rung.wantErr) {
					t.Fatalf("err = %v, want %v", err, rung.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for p, s := range line.Snapshots {
				if s.CFGIndex != rung.wantIndex || s.Instance != rung.wantInstance {
					t.Errorf("proc %d restored (index %d, instance %d), want (%d, %d)",
						p, s.CFGIndex, s.Instance, rung.wantIndex, rung.wantInstance)
				}
			}
			if line.Degraded != rung.wantDegraded {
				t.Errorf("Degraded = %d, want %d", line.Degraded, rung.wantDegraded)
			}
		})
	}
}

// TestStraightCutFallsBackOverCorruptDeltaChain is the end-to-end
// incremental-store corruption case: a rotted delta-chain base must
// surface storage.ErrCorrupt (never a bogus reconstruction) and recovery
// must degrade to an older, still-verifiable cut.
func TestStraightCutFallsBackOverCorruptDeltaChain(t *testing.T) {
	inc := storage.NewIncremental(8)
	saveSnap := func(proc, index, instance, msgs, x int) {
		t.Helper()
		err := inc.Save(storage.Snapshot{
			Proc: proc, CFGIndex: index, Instance: instance,
			N: 2, Peers: two(proc, msgs, msgs),
			Vars: map[string]int{"x": x, "c": 42},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Two straight cuts per process; proc 0's records form a delta chain
	// rooted at (0, 1, #0).
	saveSnap(0, 1, 0, 0, 1)
	saveSnap(0, 2, 0, 1, 2)
	saveSnap(1, 1, 0, 0, 1)
	saveSnap(1, 2, 0, 1, 2)

	// Rot a variable the deltas never re-write: the base AND everything
	// chained on it must fail verification.
	if err := inc.Tamper(0, 1, 0, func(vars map[string]int) { vars["c"] = 999 }); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Get(0, 2, 0); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("reconstruction over rotted base = %v, want ErrCorrupt", err)
	}
	// The whole chain of proc 0 is poisoned: no cut remains.
	if _, err := StraightCut(inc, 2); !errors.Is(err, ErrNoRecoveryLine) {
		t.Fatalf("err = %v, want ErrNoRecoveryLine", err)
	}

	// Rot only the newest record instead: recovery degrades to R_1.
	inc2 := storage.NewIncremental(8)
	saveViaStore := func(st *storage.Incremental, proc, index, instance, msgs, x int) {
		t.Helper()
		err := st.Save(storage.Snapshot{
			Proc: proc, CFGIndex: index, Instance: instance,
			N: 2, Peers: two(proc, msgs, msgs),
			Vars: map[string]int{"x": x, "c": 42},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	saveViaStore(inc2, 0, 1, 0, 0, 1)
	saveViaStore(inc2, 0, 2, 0, 1, 2)
	saveViaStore(inc2, 1, 1, 0, 0, 1)
	saveViaStore(inc2, 1, 2, 0, 1, 2)
	if err := inc2.Tamper(0, 2, 0, func(vars map[string]int) { vars["c"] = 999 }); err != nil {
		t.Fatal(err)
	}
	line, err := StraightCut(inc2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if line.Snapshots[0].CFGIndex != 1 {
		t.Fatalf("chose index %d, want degraded fallback to 1", line.Snapshots[0].CFGIndex)
	}
	if line.Degraded == 0 {
		t.Error("Degraded = 0, want > 0")
	}
	if line.Snapshots[0].Vars["x"] != 1 || line.Snapshots[0].Vars["c"] != 42 {
		t.Errorf("fallback cut vars = %v, want verified originals", line.Snapshots[0].Vars)
	}
}
