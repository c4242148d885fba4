package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/vclock"
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

func TestSortSnapshotsAndKeys(t *testing.T) {
	order := []Key{{0, 2, 0}, {0, 1, 1}, {1, 0, 0}, {0, 1, 0}, {0, 10, 0}}
	want := []Key{{0, 1, 0}, {0, 1, 1}, {0, 2, 0}, {0, 10, 0}, {1, 0, 0}}

	keys := append([]Key(nil), order...)
	SortKeys(keys)
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("SortKeys = %v, want %v", keys, want)
	}

	snaps := make([]Snapshot, len(order))
	for i, k := range order {
		snaps[i] = sampleSnap(k.Proc, k.CFGIndex, k.Instance)
	}
	SortSnapshots(snaps)
	for i, s := range snaps {
		if s.Key() != want[i] {
			t.Errorf("SortSnapshots[%d] = %v, want %v", i, s.Key(), want[i])
		}
	}
	SortSnapshots(nil) // empty store: nothing to do, must not panic
}

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
		{"exactly n processes, not at least n", 2, []Key{{0, 1, 0}, {1, 1, 0}, {2, 1, 0}}, nil},
	}
	for _, tt := range tests {
		if got := CommonIndexes(tt.n, tt.keys); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("%s: CommonIndexes(%d, %v) = %v, want %v", tt.name, tt.n, tt.keys, got, tt.want)
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

var (
	goldenFull = Snapshot{
		Proc: 1, CFGIndex: 2, Instance: 3,
		Clock:    vclock.VC{4, 9, 0},
		Vars:     map[string]int{"x": 7, "iter": 2, "y": -1},
		PC:       "s12",
		SendSeqs: []int{1, 0, 2}, RecvSeqs: []int{0, 0, 1},
		Instances: map[int]int{1: 4, 2: 3},
		VTime:     1.25,
	}
	goldenPruned = Snapshot{
		Proc: 0, CFGIndex: 2, Instance: 4,
		Clock:    vclock.VC{4, 9, 0},
		Vars:     map[string]int{"iter": 2, "x": 7},
		PC:       "s12",
		SendSeqs: []int{1, 0, 2}, RecvSeqs: []int{0, 0, 1},
		Instances: map[int]int{1: 4, 2: 3},
		VTime:     1.25,
		Manifest:  []string{"iter", "x"},
	}
)

// The snapshot body is a persistent format: .ckpt files and WAL segments
// written by earlier revisions must stay readable, so its bytes are pinned.
func TestEncodeSnapshotGolden(t *testing.T) {
	tests := []struct {
		name string
		snap Snapshot
		want string
	}{
		{"full", goldenFull,
			`{"proc":1,"cfgIndex":2,"instance":3,"clock":[4,9,0],"vars":{"iter":2,"x":7,"y":-1},"pc":"s12","sendSeqs":[1,0,2],"recvSeqs":[0,0,1],"instances":{"1":4,"2":3},"vtime":1.25}`},
		{"manifest-carrying", goldenPruned,
			`{"proc":0,"cfgIndex":2,"instance":4,"clock":[4,9,0],"vars":{"iter":2,"x":7},"pc":"s12","sendSeqs":[1,0,2],"recvSeqs":[0,0,1],"instances":{"1":4,"2":3},"vtime":1.25,"manifest":["iter","x"]}`},
	}
	for _, tt := range tests {
		body, err := EncodeSnapshot(tt.snap)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if string(body) != tt.want {
			t.Errorf("%s: body =\n%s\nwant\n%s", tt.name, body, tt.want)
		}
		back, err := DecodeSnapshot(body)
		if err != nil || !reflect.DeepEqual(back, tt.snap) {
			t.Errorf("%s: round trip = %+v, %v", tt.name, back, err)
		}
	}
	if _, err := DecodeSnapshot([]byte(`{"proc":`)); err == nil {
		t.Error("DecodeSnapshot accepted a truncated body")
	}
}

// testdata/prechange holds .ckpt files written by the file store before
// EncodeSnapshot existed. They must still load, and saving the same
// snapshots today must produce the same bytes.
func TestFileStoreReadsPreChangeFixture(t *testing.T) {
	old, err := NewFile(filepath.Join("testdata", "prechange"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []Snapshot{goldenFull, goldenPruned} {
		got, err := old.Get(want.Proc, want.CFGIndex, want.Instance)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("fixture %v = %+v, %v", want.Key(), got, err)
		}
		if err := fresh.Save(want); err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(old.path(want.Proc, want.CFGIndex, want.Instance))
		was, err1 := os.ReadFile(filepath.Join(old.dir, name))
		now, err2 := os.ReadFile(filepath.Join(fresh.dir, name))
		if err1 != nil || err2 != nil || !bytes.Equal(was, now) {
			t.Errorf("%s: re-saved bytes differ from the fixture (%v, %v)", name, err1, err2)
		}
	}
	if idx, err := old.Indexes(2); err != nil || !reflect.DeepEqual(idx, []int{2}) {
		t.Errorf("fixture Indexes(2) = %v, %v; want [2]", idx, err)
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
	if mem.Len() != 1 {
		t.Errorf("Scrub(memory) removed snapshots: %d left", mem.Len())
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
