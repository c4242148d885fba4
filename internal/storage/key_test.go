package storage

import (
	"errors"
	"reflect"
	"testing"
)

func TestKeyLess(t *testing.T) {
	tests := []struct {
		a, b Key
		want bool
	}{
		{Key{0, 1, 0}, Key{0, 1, 0}, false}, // irreflexive
		{Key{0, 9, 9}, Key{1, 0, 0}, true},  // process dominates
		{Key{1, 0, 0}, Key{0, 9, 9}, false},
		{Key{2, 1, 9}, Key{2, 2, 0}, true}, // then index
		{Key{2, 2, 0}, Key{2, 1, 9}, false},
		{Key{2, 2, 0}, Key{2, 2, 1}, true}, // then instance
		{Key{2, 2, 1}, Key{2, 2, 0}, false},
		{Key{-1, 0, 0}, Key{0, 0, 0}, true},
	}
	for _, tt := range tests {
		if got := tt.a.Less(tt.b); got != tt.want {
			t.Errorf("%v.Less(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestSortKeys(t *testing.T) {
	keys := []Key{{0, 2, 0}, {0, 1, 1}, {1, 0, 0}, {0, 1, 0}, {0, 10, 0}}
	want := []Key{{0, 1, 0}, {0, 1, 1}, {0, 2, 0}, {0, 10, 0}, {1, 0, 0}}
	SortKeys(keys)
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("SortKeys = %v, want %v", keys, want)
	}
	SortKeys(nil) // empty store: nothing to do, must not panic
}

// TestCommonIndexes: Indexes(st, n) names, sorted, the CFG indexes at which
// processes 0…n−1 all hold one same instance — the indexes of the straight
// cuts the store holds.
func TestCommonIndexes(t *testing.T) {
	tests := []struct {
		name string
		n    int
		keys []Key
		want []int
	}{
		{"empty store", 3, nil, nil},
		{"every process has both", 2, []Key{{0, 1, 0}, {1, 1, 0}, {0, 2, 0}, {1, 2, 0}}, []int{1, 2}},
		{"index missing on one process", 3, []Key{{0, 1, 0}, {1, 1, 0}, {2, 1, 0}, {0, 2, 0}, {2, 2, 0}}, []int{1}},
		{"instances of one process count once", 2, []Key{{0, 5, 0}, {0, 5, 1}, {0, 5, 2}}, nil},
		{"result is sorted", 1, []Key{{0, 9, 0}, {0, 3, 0}, {0, 7, 0}}, []int{3, 7, 9}},
		{"a process past n changes nothing", 2, []Key{{0, 1, 0}, {1, 1, 0}, {2, 1, 0}, {2, 3, 0}}, []int{1}},
		{"no instance every process holds", 2, []Key{{0, 1, 0}, {1, 1, 1}, {0, 2, 1}, {1, 2, 0}, {1, 2, 1}}, []int{2}},
	}
	for _, tt := range tests {
		m := NewMemory()
		for _, k := range tt.keys {
			if err := m.Save(Snapshot{Proc: k.Proc, CFGIndex: k.CFGIndex, Instance: k.Instance}); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := Indexes(m, tt.n); err != nil || !reflect.DeepEqual(got, tt.want) {
			t.Errorf("%s: Indexes(%d) over %v = %v, %v; want %v", tt.name, tt.n, tt.keys, got, err, tt.want)
		}
	}
}

// A key whose snapshot no longer loads still counts toward its index:
// Indexes names the candidate cuts, and the recovery ladder finds the
// damage when it loads one.
func TestIndexesCountsCorruptButPresentKey(t *testing.T) {
	inc := NewIncremental(4)
	for p := 0; p < 2; p++ {
		if err := inc.Save(sampleSnap(p, 1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.Tamper(1, 1, 0, func(vars map[string]int) { vars["x"]++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Latest(1, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Latest of tampered record: err = %v, want ErrCorrupt", err)
	}
	got, err := inc.Indexes(2)
	if err != nil || !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("Indexes(2) = %v, %v; want [1]", got, err)
	}
}

func TestScrubOnNonScrubberIsCleanNoOp(t *testing.T) {
	mem := NewMemory()
	if err := mem.Save(sampleSnap(0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub(mem)
	if err != nil || !reflect.DeepEqual(rep, ScrubReport{}) {
		t.Errorf("Scrub(memory) = %+v, %v; want a zero report", rep, err)
	}
	if stored(mem) != 1 {
		t.Errorf("Scrub(memory) removed snapshots: %d left", stored(mem))
	}
	// A Scrubber is reached through the same call.
	inc := NewIncremental(4)
	if err := inc.Save(sampleSnap(0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := inc.Tamper(0, 1, 0, func(vars map[string]int) { vars["x"]++ }); err != nil {
		t.Fatal(err)
	}
	rep, err = Scrub(inc)
	if err != nil || len(rep.Quarantined) != 1 || rep.Quarantined[0].Key != (Key{0, 1, 0}) {
		t.Errorf("Scrub(incremental) = %+v, %v; want key proc=0 index=1 instance=0 quarantined", rep, err)
	}
}
