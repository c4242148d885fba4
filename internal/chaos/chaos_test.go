package chaos

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/storage"
	"repro/internal/vclock"
)

func snap(proc, index, instance int) storage.Snapshot {
	return storage.Snapshot{
		Proc: proc, CFGIndex: index, Instance: instance,
		Clock: vclock.VC{uint64(10*index + instance + 1), 0},
		Vars:  map[string]int{"x": 100*index + instance},
	}
}

func TestZeroRatesArePassthrough(t *testing.T) {
	c := New(storage.NewMemory(), 1, Rates{}, nil)
	for k := 0; k < 5; k++ {
		if err := c.Save(snap(0, 1, k)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := c.Latest(0, 1)
	if err != nil || s.Instance != 4 {
		t.Fatalf("Latest = %+v, %v", s, err)
	}
	if _, err := c.Get(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if l, err := c.List(0); err != nil || len(l) != 5 {
		t.Fatalf("List = %d snaps, %v", len(l), err)
	}
	if c.Stats().Total() != 0 {
		t.Fatalf("injected %+v with zero rates", c.Stats())
	}
}

func TestWriteErrorRateOneFailsEverySaveWithoutPersisting(t *testing.T) {
	inner := storage.NewMemory()
	c := New(inner, 7, Rates{WriteError: 1}, nil)
	for k := 0; k < 3; k++ {
		if err := c.Save(snap(0, 1, k)); !errors.Is(err, storage.ErrTransient) {
			t.Fatalf("Save = %v, want ErrTransient", err)
		}
	}
	if keys, _ := inner.Keys(0); len(keys) != 0 {
		t.Fatalf("inner holds %d snapshots after pure write errors", len(keys))
	}
	if st := c.Stats(); st.WriteErrors != 3 {
		t.Fatalf("stats = %+v, want 3 write errors", st)
	}
}

func TestTornWriteFailsThenRepairsOnRetry(t *testing.T) {
	inner := storage.NewMemory()
	c := New(inner, 7, Rates{TornWrite: 1}, nil)
	if err := c.Save(snap(0, 1, 0)); !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("first save = %v, want ErrTransient (torn)", err)
	}
	// The partial is on disk but unreadable.
	if _, err := c.Get(0, 1, 0); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("read of torn key = %v, want ErrCorrupt", err)
	}
	// The retry rewrites it atomically.
	if err := c.Save(snap(0, 1, 0)); err != nil {
		t.Fatalf("retry save = %v, want repair", err)
	}
	s, err := c.Get(0, 1, 0)
	if err != nil || s.Vars["x"] != 100 {
		t.Fatalf("after repair: %+v, %v", s, err)
	}
	if st := c.Stats(); st.TornWrites != 1 || st.Repairs != 1 {
		t.Fatalf("stats = %+v, want 1 torn + 1 repair", st)
	}
}

func TestBitFlipIsSilentUntilRead(t *testing.T) {
	c := New(storage.NewMemory(), 3, Rates{BitFlip: 1}, nil)
	if err := c.Save(snap(0, 1, 0)); err != nil {
		t.Fatalf("bit-flip save must report success, got %v", err)
	}
	if _, err := c.Get(0, 1, 0); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("Get = %v, want ErrCorrupt", err)
	}
	if _, err := c.Latest(0, 1); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("Latest = %v, want ErrCorrupt", err)
	}
	if _, err := c.List(0); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("List = %v, want ErrCorrupt", err)
	}
}

func TestReadErrorIsTransient(t *testing.T) {
	c := New(storage.NewMemory(), 3, Rates{ReadError: 1}, nil)
	if err := c.Save(snap(0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(0, 1, 0); !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("Get = %v, want ErrTransient", err)
	}
	if _, err := c.Latest(0, 1); !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("Latest = %v, want ErrTransient", err)
	}
}

func TestScrubClearsMarksAndAllowsResave(t *testing.T) {
	inner := storage.NewMemory()
	c := New(inner, 3, Rates{BitFlip: 1}, nil)
	if err := c.Save(snap(0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Reason != "bit flip" {
		t.Fatalf("scrub = %+v, want 1 bit-flip quarantine", rep)
	}
	if _, err := c.Get(0, 1, 0); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Get after scrub = %v, want ErrNotFound", err)
	}
	// Replay re-saves the key (the flip re-rolls on a fresh attempt; at
	// rate 1 it flips again, proving the attempt counter advances).
	if err := c.Save(snap(0, 1, 0)); err != nil {
		t.Fatalf("re-save after scrub: %v", err)
	}
	if keys, _ := inner.Keys(0); len(keys) != 1 {
		t.Fatalf("inner holds %d snapshots, want 1", len(keys))
	}
}

func TestScrubSurvivesNamespacedProcNumbers(t *testing.T) {
	// Under a fleet Namespace the chaos store sees GLOBAL proc numbers
	// (e.g. job 16 of a 2-proc job saves proc 32) while each snapshot's
	// vector clock stays job-local (length 2). Scrub must not index the
	// clock with the global number.
	c := New(storage.NewMemory(), 11, Rates{}, nil)
	for inst := 0; inst < 3; inst++ {
		if err := c.Save(snap(32, 1, inst)); err != nil {
			t.Fatal(err)
		}
	}
	c.corrupt[storage.Key{Proc: 32, CFGIndex: 1, Instance: 1}] = "bit flip"
	rep, err := c.Scrub()
	if err != nil {
		t.Fatalf("scrub over namespaced procs: %v", err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Proc != 32 {
		t.Fatalf("scrub = %+v, want 1 quarantined at proc 32", rep)
	}
	if _, err := c.Get(32, 1, 1); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Get after scrub = %v, want ErrNotFound", err)
	}
}

func TestScrubTruncatesNewestFirstOverDeltaChain(t *testing.T) {
	// Quarantining an old marked key of a delta chain (Incremental) takes
	// that key alone: the newer instances above it still read, and the
	// marked one can be saved again.
	inner := storage.NewIncremental(8)
	c := New(inner, 5, Rates{}, nil)
	for k := 0; k < 4; k++ {
		if err := c.Save(snap(0, 1, k)); err != nil {
			t.Fatal(err)
		}
	}
	// Mark instance 1 corrupt by hand (rates were zero above).
	c.corrupt[storage.Key{Proc: 0, CFGIndex: 1, Instance: 1}] = "bit flip"
	rep, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Instance != 1 || rep.Collateral != 0 {
		t.Fatalf("scrub = %+v, want instance 1 quarantined and nothing else", rep)
	}
	if _, err := c.Get(0, 1, 1); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("marked instance after scrub = %v, want ErrNotFound", err)
	}
	for _, k := range []int{0, 2, 3} {
		if _, err := c.Get(0, 1, k); err != nil {
			t.Fatalf("unmarked instance %d after scrub: %v", k, err)
		}
	}
	if err := c.Save(snap(0, 1, 1)); err != nil {
		t.Fatalf("re-save instance 1: %v", err)
	}
}

func TestFaultPatternIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) ([]string, Stats) {
		c := New(storage.NewMemory(), seed, Rates{
			WriteError: 0.3, ReadError: 0.3, TornWrite: 0.2, BitFlip: 0.2,
		}, nil)
		var pattern []string
		record := func(err error) {
			switch {
			case err == nil:
				pattern = append(pattern, "ok")
			case errors.Is(err, storage.ErrTransient):
				pattern = append(pattern, "transient")
			case errors.Is(err, storage.ErrCorrupt):
				pattern = append(pattern, "corrupt")
			case errors.Is(err, storage.ErrNotFound):
				pattern = append(pattern, "notfound")
			default:
				pattern = append(pattern, "other")
			}
		}
		for k := 0; k < 10; k++ {
			record(c.Save(snap(0, 1, k)))
			record(c.Save(snap(1, 1, k)))
		}
		for k := 0; k < 10; k++ {
			_, err := c.Get(0, 1, k)
			record(err)
			_, err = c.Latest(1, 1)
			record(err)
		}
		return pattern, c.Stats()
	}
	p1, s1 := run(42)
	p2, s2 := run(42)
	if !reflect.DeepEqual(p1, p2) || s1 != s2 {
		t.Fatalf("same seed diverged:\n%v %+v\n%v %+v", p1, s1, p2, s2)
	}
	p3, _ := run(43)
	if reflect.DeepEqual(p1, p3) {
		t.Error("different seeds produced identical fault patterns (suspicious)")
	}
	// Moderate rates on 60 ops must actually inject something.
	if s1.Total() == 0 {
		t.Error("no faults injected at 30% rates over 60 operations")
	}
}

func TestInnerStoreOnlyHoldsCleanData(t *testing.T) {
	// Whatever the wrapper injects, the INNER store must remain readable:
	// corruption is marks, not mangled bytes.
	inner := storage.NewMemory()
	c := New(inner, 11, DefaultRates(0.4), nil)
	for k := 0; k < 10; k++ {
		_ = c.Save(snap(0, 1, k)) // errors expected; ignore
	}
	snaps, err := inner.List(0)
	if err != nil {
		t.Fatalf("inner.List = %v, inner must never corrupt", err)
	}
	for _, s := range snaps {
		if s.Vars["x"] != 100+s.Instance {
			t.Fatalf("inner snapshot mutated: %+v", s)
		}
	}
}
