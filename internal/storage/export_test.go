package storage

import "encoding/binary"

// MemoryPageSize is the size of a Memory page, for tests that place bodies
// against page boundaries.
const MemoryPageSize = memPage

// RetainCuts is how many complete straight cuts of each index Memory keeps.
const RetainCuts = retainCuts

// MemoryPage returns the page m keeps k's body on, or -1 if m holds no k.
func MemoryPage(m *Memory, k Key) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.bodies.Get(k); ok {
		return int(r.page)
	}
	return -1
}

// MemoryKeptBytes returns the bytes of the bodies m's index refers to,
// each behind its length prefix: what packing every page would keep.
func MemoryKeptBytes(m *Memory) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	m.bodies.RangeAll(func(_ Key, r bodyRef) bool {
		size, w := binary.Uvarint(m.pages[r.page][r.off:])
		n += w + int(size)
		return true
	})
	return n
}

// MemoryRetaining is a Memory whose saves keep the newest D complete
// straight cuts of each index instead of retainCuts.
type MemoryRetaining struct {
	*Memory
	D int
}

// Save implements Store.
func (m MemoryRetaining) Save(s Snapshot) error { return m.save(s, m.D) }
