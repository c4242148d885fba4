package storage

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/vclock"
)

// varySnap builds a snapshot where only a few variables change between
// instances, the case incremental checkpointing wins on.
func varySnap(proc, index, instance int) Snapshot {
	vars := map[string]int{
		"bigstate_a": 1, "bigstate_b": 2, "bigstate_c": 3,
		"bigstate_d": 4, "bigstate_e": 5,
		"iter": instance, // the only thing that changes
	}
	clk := vclock.New(2)
	clk[proc] = uint64(instance + 1)
	return Snapshot{
		Proc: proc, CFGIndex: index, Instance: instance,
		Clock: clk, Vars: vars, PC: "7",
	}
}

func TestIncrementalDeltaChainReconstruction(t *testing.T) {
	inc := NewIncremental(4)
	for i := 0; i < 10; i++ {
		if err := inc.Save(varySnap(0, 1, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		got, err := inc.Get(0, 1, i)
		if err != nil {
			t.Fatal(err)
		}
		want := varySnap(0, 1, i)
		if !reflect.DeepEqual(got.Vars, want.Vars) {
			t.Errorf("instance %d reconstructed vars = %v, want %v", i, got.Vars, want.Vars)
		}
		if got.PC != "7" || got.Instance != i {
			t.Errorf("instance %d metadata wrong: %+v", i, got)
		}
	}
	latest, err := inc.Latest(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if latest.Instance != 9 || latest.Vars["iter"] != 9 {
		t.Errorf("Latest = %+v", latest)
	}
}

func TestIncrementalSavesSpace(t *testing.T) {
	inc := NewIncremental(8)
	full := NewIncremental(1) // every snapshot full
	for i := 0; i < 16; i++ {
		if err := inc.Save(varySnap(0, 1, i)); err != nil {
			t.Fatal(err)
		}
		if err := full.Save(varySnap(0, 1, i)); err != nil {
			t.Fatal(err)
		}
	}
	is, fs := inc.Stats(), full.Stats()
	incTotal := is.FullBytes + is.DeltaBytes
	fullTotal := fs.FullBytes + fs.DeltaBytes
	if incTotal >= fullTotal/2 {
		t.Errorf("incremental stored %d bytes, full %d: expected large savings", incTotal, fullTotal)
	}
	if is.DeltaBytes == 0 {
		t.Error("no deltas recorded")
	}
}

func TestIncrementalVarRemoval(t *testing.T) {
	inc := NewIncremental(8)
	s0 := varySnap(0, 1, 0)
	if err := inc.Save(s0); err != nil {
		t.Fatal(err)
	}
	s1 := varySnap(0, 1, 1)
	delete(s1.Vars, "bigstate_e") // variable disappears
	if err := inc.Save(s1); err != nil {
		t.Fatal(err)
	}
	got, err := inc.Get(0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Vars["bigstate_e"]; ok {
		t.Error("removed variable resurfaced in reconstruction")
	}
	if len(got.Vars) != len(s1.Vars) {
		t.Errorf("vars = %v", got.Vars)
	}
}

// Any record can be deleted. An interior one stays as a dead base, so the
// records above it still read back; the chain shrinks only when its tail
// goes, and then by every dead record beneath it too.
func TestIncrementalDeleteTailOnly(t *testing.T) {
	inc := NewIncremental(4)
	for i := 0; i < 3; i++ {
		if err := inc.Save(varySnap(0, 1, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.Delete(0, 1, 1); err != nil {
		t.Fatalf("interior delete: %v", err)
	}
	if _, err := inc.Get(0, 1, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted record reads %v, want ErrNotFound", err)
	}
	if got, err := inc.Get(0, 1, 2); err != nil || !reflect.DeepEqual(got, varySnap(0, 1, 2)) {
		t.Fatalf("record above the dead base: %v, err %v", got, err)
	}
	if n := len(inc.procs[0].chain); n != 3 {
		t.Fatalf("an interior delete left %d records, want 3", n)
	}
	if err := inc.Delete(0, 1, 2); err != nil {
		t.Fatalf("tail delete: %v", err)
	}
	if n := len(inc.procs[0].chain); n != 1 {
		t.Fatalf("the tail's delete left %d records, want 1 (the dead base goes with it)", n)
	}
	if err := inc.Delete(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if keys, _ := inc.Keys(0); len(keys) != 0 || len(inc.procs[0].chain) != 0 {
		t.Errorf("store not empty after every delete: keys %v", keys)
	}
}
