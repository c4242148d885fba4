package cfg

import "math/bits"

// Bitset is a fixed-capacity bit set used by the graph analyses
// (dominators, liveness, the extended graph's closures).
type Bitset []uint64

// NewBitset returns a bitset able to hold n bits.
func NewBitset(n int) Bitset {
	return make(Bitset, (n+63)/64)
}

// Set sets bit i.
func (b Bitset) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Clear clears bit i — the kill step of the backward liveness walk.
func (b Bitset) Clear(i int) { b[i/64] &^= 1 << (uint(i) % 64) }

// Has reports whether bit i is set.
func (b Bitset) Has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// CopyFrom overwrites b with the contents of o. The two sets must have the
// same capacity.
func (b Bitset) CopyFrom(o Bitset) { copy(b, o) }

// Zero clears every bit, keeping the capacity — the reuse primitive the
// analysis scratch buffers lean on.
func (b Bitset) Zero() {
	for i := range b {
		b[i] = 0
	}
}

// IntersectWith keeps only bits present in both sets.
func (b Bitset) IntersectWith(o Bitset) {
	for i := range b {
		b[i] &= o[i]
	}
}

// UnionWith adds all bits of o.
func (b Bitset) UnionWith(o Bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

// Equal reports set equality.
func (b Bitset) Equal(o Bitset) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// AppendMembers appends the indexes of all set bits in ascending order to
// dst and returns the extended slice; callers that own a reusable buffer
// pass dst[:0] and allocate nothing.
func (b Bitset) AppendMembers(dst []int) []int {
	for i, w := range b {
		for w != 0 {
			j := bits.TrailingZeros64(w)
			dst = append(dst, i*64+j)
			w &= w - 1
		}
	}
	return dst
}
