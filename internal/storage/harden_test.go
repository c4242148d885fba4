package storage

import (
	"errors"
	"testing"

	"repro/internal/vclock"
)

func snap(proc, index, instance int, vars map[string]int) Snapshot {
	return Snapshot{
		Proc: proc, CFGIndex: index, Instance: instance,
		Clock: vclock.VC{uint64(instance + 1), uint64(instance + 1)},
		Vars:  vars, PC: "0",
	}
}

func TestIncrementalCorruptBaseSurfacesErrCorrupt(t *testing.T) {
	inc := NewIncremental(4)
	// "c" never changes after the base record, so the deltas do not carry
	// it — rot on it in the base poisons every dependent reconstruction.
	for k := 0; k < 3; k++ {
		if err := inc.Save(snap(0, 1, k, map[string]int{"x": k, "c": 42})); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.Tamper(0, 1, 0, func(vars map[string]int) { vars["c"] = 999 }); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if _, err := inc.Get(0, 1, k); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Get instance %d = %v, want ErrCorrupt", k, err)
		}
	}
	if _, err := inc.Latest(0, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Latest = %v, want ErrCorrupt", err)
	}
	if _, err := inc.List(0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("List = %v, want ErrCorrupt", err)
	}
}

func TestIncrementalRotMaskedByLaterDeltaIsLocal(t *testing.T) {
	// Rot a delta's own contribution: the damaged record reconstructs
	// wrong (ErrCorrupt), but a later delta overwrites the rotted variable
	// so dependents reconstruct the CORRECT state and stay readable —
	// verification flags exactly the records whose state is wrong.
	inc := NewIncremental(8)
	for k := 0; k < 3; k++ {
		if err := inc.Save(snap(0, 1, k, map[string]int{"x": k})); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.Tamper(0, 1, 1, func(vars map[string]int) { vars["x"] = 999 }); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Get(0, 1, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("rotted record = %v, want ErrCorrupt", err)
	}
	if s, err := inc.Get(0, 1, 0); err != nil || s.Vars["x"] != 0 {
		t.Fatalf("record below rot = %v, %v; want clean x=0", s.Vars, err)
	}
	if s, err := inc.Get(0, 1, 2); err != nil || s.Vars["x"] != 2 {
		t.Fatalf("record above rot = %v, %v; want clean x=2 (delta overwrote the rot)", s.Vars, err)
	}
}

func TestIncrementalSaveSelfHealsAfterCorruptPrev(t *testing.T) {
	inc := NewIncremental(8)
	for k := 0; k < 2; k++ {
		if err := inc.Save(snap(0, 1, k, map[string]int{"x": k})); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.Tamper(0, 1, 1, func(vars map[string]int) { vars["x"] = 999 }); err != nil {
		t.Fatal(err)
	}
	// The next save cannot delta against a corrupt predecessor; it must
	// store a full record and stay readable.
	if err := inc.Save(snap(0, 1, 2, map[string]int{"x": 2})); err != nil {
		t.Fatal(err)
	}
	s, err := inc.Get(0, 1, 2)
	if err != nil {
		t.Fatalf("snapshot saved after corruption unreadable: %v", err)
	}
	if s.Vars["x"] != 2 {
		t.Fatalf("x = %d, want 2", s.Vars["x"])
	}
}

func TestIncrementalScrubTruncatesDamagedChain(t *testing.T) {
	inc := NewIncremental(8)
	for k := 0; k < 4; k++ {
		if err := inc.Save(snap(0, 1, k, map[string]int{"x": k, "c": 42})); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.Save(snap(1, 1, 0, map[string]int{"x": 5})); err != nil {
		t.Fatal(err)
	}
	// Injecting a stray variable into a delta poisons that record and
	// every later reconstruction (no subsequent delta overwrites "c").
	if err := inc.Tamper(0, 1, 1, func(vars map[string]int) { vars["c"] = 999 }); err != nil {
		t.Fatal(err)
	}
	rep, err := inc.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	// Instances 1..3 reconstruct through the rotted delta: all quarantined
	// (and, the chain's tail, trimmed).
	if len(rep.Quarantined) != 3 {
		t.Fatalf("quarantined %d, want 3 (%+v)", len(rep.Quarantined), rep)
	}
	// Below the damage and other processes survive.
	if s, err := inc.Get(0, 1, 0); err != nil || s.Vars["x"] != 0 {
		t.Fatalf("instance 0 after scrub = %v, %v", s.Vars, err)
	}
	if _, err := inc.Get(1, 1, 0); err != nil {
		t.Fatalf("proc 1 after scrub: %v", err)
	}
	if _, err := inc.Get(0, 1, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("quarantined instance = %v, want ErrNotFound", err)
	}
	// Replay can regenerate the quarantined instances.
	if err := inc.Save(snap(0, 1, 1, map[string]int{"x": 1, "c": 42})); err != nil {
		t.Fatalf("re-save after scrub: %v", err)
	}
	if s, err := inc.Get(0, 1, 1); err != nil || s.Vars["x"] != 1 {
		t.Fatalf("regenerated instance = %v, %v", s.Vars, err)
	}
}
