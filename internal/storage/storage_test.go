package storage

import (
	"testing"

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

// stored counts the snapshots m holds.
func stored(m *Memory) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bodies.n
}

func TestMemoryLen(t *testing.T) {
	m := NewMemory()
	if stored(m) != 0 {
		t.Fatal("fresh store not empty")
	}
	if err := m.Save(sampleSnap(0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if stored(m) != 1 {
		t.Fatalf("stored = %d, want 1", stored(m))
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
	if stored(m) != workers*50 {
		t.Fatalf("stored = %d, want %d", stored(m), workers*50)
	}
}

// A steady-state memory Save allocates nothing of its own: the body is
// encoded into the store's scratch and copied into the process's arena.
// What is left is amortized — a 16 KB chunk per ~250 of these bodies and
// the index run's growth — and a chunk is never regrown: that would copy,
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
	if c := cap(m.arenas[0].chunk); c != arenaChunkMax {
		t.Errorf("current chunk holds %d bytes after %d saves, want the %d cap", c, stored(m), arenaChunkMax)
	}
	m.bodies.Range(0, func(k Key, body []byte) bool {
		if cap(body) != len(body) {
			t.Fatalf("%s: body has spare capacity %d, an append would reach its arena neighbour", k, cap(body)-len(body))
		}
		return true
	})
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
