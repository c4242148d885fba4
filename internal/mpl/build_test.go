package mpl

import "testing"

// TestCutReplacesFullChunks pins the growth rule of the node memory: a
// full chunk is replaced by a fresh one, never regrown — a regrown chunk
// would copy every node it holds at each growth and strand the copies
// behind the pointers already handed out — chunks start small, stop
// doubling at maxChunk, and every cut's capacity ends where the cut does.
func TestCutReplacesFullChunks(t *testing.T) {
	var chunk []int
	var handedOut []*int
	for i := 0; i < 4*maxChunk; i++ {
		full := len(chunk) == cap(chunk)
		s := cut(&chunk, 1)
		s[0] = i
		handedOut = append(handedOut, &s[0])
		if cap(s) != 1 {
			t.Fatalf("cut %d has capacity %d: an append to it would overwrite the next cut", i, cap(s))
		}
		if full && len(chunk) != 1 {
			t.Fatalf("cut %d: a full chunk was regrown to %d elements, not replaced by a fresh one", i, len(chunk))
		}
		if i == 0 && cap(chunk) > 8 || cap(chunk) > maxChunk {
			t.Fatalf("cut %d: chunk of %d elements", i, cap(chunk))
		}
	}
	for i, p := range handedOut {
		if *p != i {
			t.Fatalf("element %d reads %d after later cuts", i, *p)
		}
	}
	if big := cut(&chunk, 3*maxChunk); len(big) != 3*maxChunk || cap(big) != len(big) {
		t.Errorf("oversized cut: len %d cap %d, want both %d", len(big), cap(big), 3*maxChunk)
	}
}
