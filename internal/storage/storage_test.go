package storage

import (
	"encoding/binary"
	"reflect"
	"runtime"
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
		N:         3,
		Peers:     Row{{0, 0, 3}, {1, 1, 4}, {2, 2, 5}},
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

// Concurrent savers lose nothing. Their snapshots carry no N, so the
// store knows no application and retires nothing; with N, the same
// saves over blocks of 4 workers keep the newest retainCuts of each worker's
// instances.
func TestMemoryConcurrentSaves(t *testing.T) {
	const workers, saves = 8, 50
	for _, tc := range []struct {
		name string
		n    int
		want int
	}{
		{"no application", 0, workers * saves},
		{"blocks of 4", 4, workers * retainCuts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMemory()
			done := make(chan error, workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					var err error
					for i := 0; i < saves && err == nil; i++ {
						s := sampleSnap(w, 1, i)
						if s.N = tc.n; s.N == 0 {
							s.Peers = nil
						}
						err = m.Save(s)
					}
					done <- err
				}(w)
			}
			for w := 0; w < workers; w++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			if stored(m) != tc.want {
				t.Fatalf("stored = %d, want %d", stored(m), tc.want)
			}
		})
	}
}

// A steady-state memory Save allocates nothing of its own: the body is
// encoded into the store's scratch and copied onto the last page behind its
// length. What is left is amortized — a 1 KB page per ~20 of these bodies and
// the index run's growth — and a page is never regrown: that would copy every
// body saved before. Replay, which saves again the keys a rollback deleted
// into runs that kept their room, reuses the pages the deletes emptied.
func TestMemorySaveSteadyStateAllocs(t *testing.T) {
	m := NewMemory()
	s := sampleSnap(0, 1, 0)
	save := func() {
		if err := m.Save(s); err != nil {
			t.Fatal(err)
		}
		s.Instance++
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
	body := len(AppendSnapshot(nil, s))
	// Pages are full-size and each ends only where the next body did not
	// fit; walking a page by its length prefixes lands on the index's
	// references, every one of them.
	refs := map[bodyRef]bool{}
	m.bodies.Range(0, func(_ Key, r bodyRef) bool {
		refs[r] = true
		return true
	})
	walked := 0
	for i, p := range m.pages {
		if cap(p) != memPage {
			t.Errorf("page %d holds %d bytes, want %d", i, cap(p), memPage)
		}
		if i < len(m.pages)-1 && memPage-len(p) > body {
			t.Errorf("page %d left with %d bytes free, room for another body", i, memPage-len(p))
		}
		live := 0
		for off := 0; off < len(p); walked++ {
			if !refs[bodyRef{uint32(i), uint32(off)}] {
				t.Fatalf("page %d offset %d: no index entry starts there", i, off)
			}
			n, w := binary.Uvarint(p[off:])
			off += w + int(n)
			live++
		}
		if live != m.live[i] {
			t.Errorf("page %d holds %d bodies and counts %d", i, live, m.live[i])
		}
	}
	if walked != len(refs) || walked != stored(m) {
		t.Errorf("pages hold %d bodies, the index %d refs and %d keys", walked, len(refs), stored(m))
	}

	saved := s.Instance
	for s.Instance > 0 {
		s.Instance--
		if err := m.Delete(0, 1, s.Instance); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for s.Instance < saved {
		save()
	}
	runtime.ReadMemStats(&after)
	perBody := float64(after.TotalAlloc-before.TotalAlloc) / float64(saved)
	t.Logf("%.3f objects per save; a replayed save of a %d-byte body allocates %.2f B", perSave, body, perBody)
	if perBody > float64(body+8) {
		t.Errorf("a replayed save allocates %.2f B amortized, want <= %d: the body, its prefix and a page's tail", perBody, body+8)
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

// A page one straggler keeps alive is packed, not joined by a new page: the
// straggler moves to the page's front, and it and the saves behind it read
// back as saved.
func TestMemoryPacksAStraggler(t *testing.T) {
	m := NewMemory()
	snap := func(i int) Snapshot {
		s := sampleSnap(0, 1, i)
		s.N, s.Peers = 0, nil // nothing retires: the deletes below decide what lives
		return s
	}
	i := 0
	for ; len(m.pages) < 2; i++ {
		if err := m.Save(snap(i)); err != nil {
			t.Fatal(err)
		}
	}
	straggler := i - 2 // the last body of page 0
	for k := 0; k < straggler; k++ {
		if err := m.Delete(0, 1, k); err != nil {
			t.Fatal(err)
		}
	}
	for ; m.cur == 1; i++ {
		if err := m.Save(snap(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.pages) != 2 {
		t.Fatalf("%d pages, want page 0 packed instead of a third", len(m.pages))
	}
	if r, _ := m.bodies.Get(Key{0, 1, straggler}); r != (bodyRef{0, 0}) {
		t.Errorf("the straggler sits at %+v, want the front of page 0", r)
	}
	for k := straggler; k < i; k++ {
		if got, err := m.Get(0, 1, k); err != nil || !reflect.DeepEqual(got, snap(k)) {
			t.Fatalf("instance %d reads %+v, %v", k, got, err)
		}
	}
}
