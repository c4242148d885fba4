// Package vclock implements vector clocks for tracking the happened-before
// relation (Lamport [13] in the paper) between events of a distributed
// execution. The verifiers use them (internal/trace, internal/verify) to
// decide whether a cut of checkpoints is consistent (Definition 2.1: no two
// checkpoints in the cut are related by hb); the runtime carries none.
package vclock

import (
	"fmt"
	"strconv"
	"strings"
)

// VC is a fixed-width vector clock over n processes. The zero value of a
// width-n clock is the initial clock of an execution. VCs are value types:
// methods that combine clocks return fresh copies and never alias their
// inputs.
type VC []uint64

// New returns a zero vector clock for n processes.
func New(n int) VC {
	return make(VC, n)
}

// Clone returns an independent copy of v.
func (v VC) Clone() VC {
	c := make(VC, len(v))
	copy(c, v)
	return c
}

// Tick increments the component of process p and returns v (mutated in
// place) for chaining. It panics if p is out of range, which always
// indicates a programming error in the runtime, not an input error.
func (v VC) Tick(p int) VC {
	v[p]++
	return v
}

// Merge sets v to the component-wise maximum of v and other, mutating v in
// place. Clocks of different widths cannot belong to the same execution;
// Merge panics on width mismatch.
func (v VC) Merge(other VC) VC {
	if len(v) != len(other) {
		panic(fmt.Sprintf("vclock: merge width mismatch: %d vs %d", len(v), len(other)))
	}
	for i, o := range other {
		if o > v[i] {
			v[i] = o
		}
	}
	return v
}

// Before reports whether v happened before other: v ≤ other component-wise
// and v ≠ other.
func (v VC) Before(other VC) bool {
	if len(v) != len(other) {
		return false
	}
	strictly := false
	for i := range v {
		switch {
		case v[i] > other[i]:
			return false
		case v[i] < other[i]:
			strictly = true
		}
	}
	return strictly
}

// String renders the clock as "[a b c]".
func (v VC) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.FormatUint(x, 10))
	}
	sb.WriteByte(']')
	return sb.String()
}
