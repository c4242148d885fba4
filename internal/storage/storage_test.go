package storage

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/vclock"
)

func sampleSnap(proc, index, instance int) Snapshot {
	return Snapshot{
		Proc:      proc,
		CFGIndex:  index,
		Instance:  instance,
		Clock:     vclock.VC{1, 2, 3},
		Vars:      map[string]int{"x": 42, "iter": instance},
		PC:        "stmt-7",
		SendSeqs:  []int{0, 1, 2},
		RecvSeqs:  []int{3, 4, 5},
		Instances: map[int]int{index: instance, 9: 1},
	}
}

// storeUnderTest runs the same conformance suite against every Store
// implementation.
func storeUnderTest(t *testing.T, name string, mk func(t *testing.T) Store) {
	t.Run(name+"/SaveGetRoundTrip", func(t *testing.T) {
		st := mk(t)
		want := sampleSnap(1, 2, 0)
		if err := st.Save(want); err != nil {
			t.Fatal(err)
		}
		got, err := st.Get(1, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run(name+"/DuplicateRejected", func(t *testing.T) {
		st := mk(t)
		s := sampleSnap(0, 1, 0)
		if err := st.Save(s); err != nil {
			t.Fatal(err)
		}
		if err := st.Save(s); !errors.Is(err, ErrDuplicate) {
			t.Errorf("second save err = %v, want ErrDuplicate", err)
		}
	})

	t.Run(name+"/GetMissing", func(t *testing.T) {
		st := mk(t)
		if _, err := st.Get(9, 9, 9); !errors.Is(err, ErrNotFound) {
			t.Errorf("err = %v, want ErrNotFound", err)
		}
	})

	t.Run(name+"/LatestPicksHighestInstance", func(t *testing.T) {
		st := mk(t)
		for inst := 0; inst < 4; inst++ {
			if err := st.Save(sampleSnap(2, 1, inst)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := st.Latest(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Instance != 3 {
			t.Errorf("Latest instance = %d, want 3", got.Instance)
		}
	})

	t.Run(name+"/LatestMissing", func(t *testing.T) {
		st := mk(t)
		if _, err := st.Latest(0, 0); !errors.Is(err, ErrNotFound) {
			t.Errorf("err = %v, want ErrNotFound", err)
		}
	})

	t.Run(name+"/ListSorted", func(t *testing.T) {
		st := mk(t)
		order := [][2]int{{2, 0}, {1, 1}, {1, 0}, {3, 0}}
		for _, o := range order {
			if err := st.Save(sampleSnap(0, o[0], o[1])); err != nil {
				t.Fatal(err)
			}
		}
		// Another process's snapshots must not leak in.
		if err := st.Save(sampleSnap(1, 1, 0)); err != nil {
			t.Fatal(err)
		}
		got, err := st.List(0)
		if err != nil {
			t.Fatal(err)
		}
		var keys [][2]int
		for _, s := range got {
			keys = append(keys, [2]int{s.CFGIndex, s.Instance})
		}
		want := [][2]int{{1, 0}, {1, 1}, {2, 0}, {3, 0}}
		if !reflect.DeepEqual(keys, want) {
			t.Errorf("List order = %v, want %v", keys, want)
		}
	})

	t.Run(name+"/IndexesRequiresAllProcs", func(t *testing.T) {
		st := mk(t)
		// Index 1 on both procs, index 2 only on proc 0.
		for _, pi := range [][2]int{{0, 1}, {1, 1}, {0, 2}} {
			if err := st.Save(sampleSnap(pi[0], pi[1], 0)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := st.Indexes(2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, []int{1}) {
			t.Errorf("Indexes = %v, want [1]", got)
		}
	})

	t.Run(name+"/Delete", func(t *testing.T) {
		st := mk(t)
		if err := st.Save(sampleSnap(0, 1, 0)); err != nil {
			t.Fatal(err)
		}
		if err := st.Delete(0, 1, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Get(0, 1, 0); !errors.Is(err, ErrNotFound) {
			t.Errorf("deleted snapshot still present: %v", err)
		}
		if err := st.Delete(0, 1, 0); !errors.Is(err, ErrNotFound) {
			t.Errorf("double delete err = %v, want ErrNotFound", err)
		}
		// Save after delete must succeed (rollback re-execution).
		if err := st.Save(sampleSnap(0, 1, 0)); err != nil {
			t.Errorf("re-save after delete: %v", err)
		}
	})

	t.Run(name+"/NoAliasing", func(t *testing.T) {
		st := mk(t)
		s := sampleSnap(0, 1, 0)
		if err := st.Save(s); err != nil {
			t.Fatal(err)
		}
		s.Vars["x"] = 999 // mutate caller copy after save
		s.Clock[0] = 999
		got, err := st.Get(0, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Vars["x"] != 42 || got.Clock[0] != 1 {
			t.Errorf("store aliased caller memory: %+v", got)
		}
		got.Vars["x"] = 777 // mutate returned copy
		again, _ := st.Get(0, 1, 0)
		if again.Vars["x"] != 42 {
			t.Error("store returned aliased snapshot")
		}
	})
}

func TestMemoryStore(t *testing.T) {
	storeUnderTest(t, "memory", func(t *testing.T) Store { return NewMemory() })
}

func TestFileStore(t *testing.T) {
	storeUnderTest(t, "file", func(t *testing.T) Store {
		st, err := NewFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return st
	})
}

func TestMemoryLen(t *testing.T) {
	m := NewMemory()
	if m.Len() != 0 {
		t.Fatal("fresh store not empty")
	}
	if err := m.Save(sampleSnap(0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestFileStoreDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(sampleSnap(0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the body.
	path := filepath.Join(dir, "p0_i1_k0.ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(0, 1, 0); err == nil {
		t.Error("corrupted snapshot read back without error")
	}
}

func TestFileStoreTruncatedFrame(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "p0_i1_k0.ckpt")
	if err := os.WriteFile(path, []byte{1, 2}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(0, 1, 0); err == nil {
		t.Error("truncated snapshot read back without error")
	}
}

func TestFileStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"README", "px_iy_kz.ckpt", "p1_i2.ckpt", "notckpt.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Save(sampleSnap(0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	list, err := st.List(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Errorf("List = %d snapshots, want 1 (foreign files must be ignored)", len(list))
	}
	idx, err := st.Indexes(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idx, []int{1}) {
		t.Errorf("Indexes = %v, want [1]", idx)
	}
}

func TestParseName(t *testing.T) {
	tests := []struct {
		name                  string
		proc, index, instance int
		ok                    bool
	}{
		{"p0_i1_k2.ckpt", 0, 1, 2, true},
		{"p10_i20_k30.ckpt", 10, 20, 30, true},
		{"p0_i1_k2", 0, 0, 0, false},
		{"q0_i1_k2.ckpt", 0, 0, 0, false},
		{"p0_i1.ckpt", 0, 0, 0, false},
		{"p0_i1_kx.ckpt", 0, 0, 0, false},
	}
	for _, tt := range tests {
		p, i, k, ok := parseName(tt.name)
		if ok != tt.ok || p != tt.proc || i != tt.index || k != tt.instance {
			t.Errorf("parseName(%q) = (%d,%d,%d,%v), want (%d,%d,%d,%v)",
				tt.name, p, i, k, ok, tt.proc, tt.index, tt.instance, tt.ok)
		}
	}
}

func TestQuickParseNameRoundTrip(t *testing.T) {
	f := func(p, i, k uint8) bool {
		st := &File{dir: "."}
		name := filepath.Base(st.path(int(p), int(i), int(k)))
		gp, gi, gk, ok := parseName(name)
		return ok && gp == int(p) && gi == int(i) && gk == int(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryConcurrentSaves(t *testing.T) {
	m := NewMemory()
	const workers = 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			var err error
			for i := 0; i < 50 && err == nil; i++ {
				err = m.Save(sampleSnap(w, 1, i))
			}
			done <- err
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != workers*50 {
		t.Fatalf("Len = %d, want %d", m.Len(), workers*50)
	}
}

// A steady-state memory Save allocates nothing of its own: the body is
// encoded into the store's scratch and copied into the process's arena.
// What is left is amortized — a 16 KB chunk per ~250 of these bodies and
// the index map's growth — and a chunk is never regrown: that would copy,
// and pin, everything saved before.
func TestMemorySaveSteadyStateAllocs(t *testing.T) {
	m := NewMemory()
	s := sampleSnap(0, 1, 0)
	save := func() {
		s.Instance++
		if err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 512; i++ {
		save()
	}
	const batch = 2000
	perSave := testing.AllocsPerRun(5, func() {
		for i := 0; i < batch; i++ {
			save()
		}
	}) / batch
	if perSave > 0.1 {
		t.Errorf("steady-state Save allocates %.3f objects amortized, want <= 0.1", perSave)
	}
	if c := cap(m.procs[0].chunk); c != arenaChunkMax {
		t.Errorf("current chunk holds %d bytes after %d saves, want the %d cap", c, m.Len(), arenaChunkMax)
	}
	for k, body := range m.procs[0].bodies {
		if cap(body) != len(body) {
			t.Fatalf("%s: body has spare capacity %d, an append would reach its arena neighbour", k, cap(body)-len(body))
		}
	}
}

// BenchmarkMemorySave measures Save alone: one snapshot value is lent over
// and over, as the runtime lends its live state.
func BenchmarkMemorySave(b *testing.B) {
	m := NewMemory()
	s := sampleSnap(0, 1, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Instance = i
		if err := m.Save(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFileSave(b *testing.B) {
	st, err := NewFile(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Save(sampleSnap(0, 1, i)); err != nil {
			b.Fatal(err)
		}
	}
}
