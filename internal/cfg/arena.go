package cfg

// Arena is a grow-only scratch allocator for the analysis pipeline. Phase
// III's pooled workspace holds one: each place.Ensure or place.Check call
// resets it when it starts, the skeleton's bitsets and causal closures are
// carved from it and live for the whole call, and noCross resets it once
// more after the fixpoint, for its own scratch. The memory outlives the
// call in the pool; what was carved from it does not. The contract:
//
//   - buffers handed out by Bits / Ints are valid until the next Reset,
//     after which the arena reuses their storage;
//   - an Arena is NOT safe for concurrent use — parallel analysis workers
//     allocate locally and only the serial sections draw from the arena;
//   - a nil *Arena is valid everywhere one is accepted and falls back to
//     plain allocation, so the arena is an optimization, never a
//     requirement.
//
// A chunk is sized from the request that overflows the last one, at least
// doubling it, so a small program's analysis pays for a small arena.
type Arena struct {
	words    []uint64
	wordsOff int
	ints     []int
	intsOff  int
}

// Reset recycles every buffer handed out since the previous Reset.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.wordsOff = 0
	a.intsOff = 0
}

// Bits returns a zeroed Bitset able to hold n bits, carved from the arena
// (or freshly allocated for a nil receiver).
func (a *Arena) Bits(n int) Bitset {
	need := (n + 63) / 64
	if a == nil {
		return NewBitset(n)
	}
	if a.wordsOff+need > len(a.words) {
		// Grow the backing array. Buffers carved before the growth keep
		// the old array alive and stay valid; the arena only ever reuses
		// storage at Reset.
		size := 2 * len(a.words)
		if size < need {
			size = need
		}
		a.words = make([]uint64, size)
		a.wordsOff = 0
	}
	out := Bitset(a.words[a.wordsOff : a.wordsOff+need])
	a.wordsOff += need
	out.Zero()
	return out
}

// Ints returns a zeroed []int of length n, carved from the arena (or
// freshly allocated for a nil receiver).
func (a *Arena) Ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	if a.intsOff+n > len(a.ints) {
		size := 2 * len(a.ints)
		if size < n {
			size = n
		}
		a.ints = make([]int, size)
		a.intsOff = 0
	}
	out := a.ints[a.intsOff : a.intsOff+n]
	a.intsOff += n
	for i := range out {
		out[i] = 0
	}
	return out
}
