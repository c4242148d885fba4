package storage

// MemoryPageSize is the size of a Memory page, for tests that place bodies
// against page boundaries.
const MemoryPageSize = memPage

// MemoryPage returns the page m keeps k's body on, or -1 if m holds no k.
func MemoryPage(m *Memory, k Key) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.bodies.Get(k); ok {
		return int(r.page)
	}
	return -1
}
