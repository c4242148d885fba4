package storage

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

// MemoryPages returns how many pages m has ever made.
func MemoryPages(m *Memory) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pages)
}

// MemoryRetaining is a Memory whose saves keep the newest D complete
// straight cuts of each index instead of retainCuts.
type MemoryRetaining struct {
	*Memory
	D int
}

// Save implements Store.
func (m MemoryRetaining) Save(s Snapshot) error { return m.save(s, m.D) }
