package mpl

import "testing"

// Every channel of every count up to 20 processes has its own bit: adding
// them one at a time, each is found, and none before it is lost or gained.
// Ranks outside [0, n) are never held, and Row reads a count's row of bits.
func TestChannelSetBits(t *testing.T) {
	var s ChannelSet
	type ch struct{ n, from, to int }
	var added []ch
	for n := 1; n <= 20; n++ {
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if (n+from+to)%3 != 0 {
					continue
				}
				if s.Has(n, from, to) {
					t.Fatalf("%d->%d at n=%d held before it was added", from, to, n)
				}
				s.Add(n, from, to)
				added = append(added, ch{n, from, to})
			}
		}
	}
	count := 0
	for n := 1; n <= 21; n++ {
		for from := -1; from <= n; from++ {
			var row uint64
			for to := -1; to <= n; to++ {
				want := from >= 0 && from < n && to >= 0 && to < n && n <= 20 && (n+from+to)%3 == 0
				if got := s.Has(n, from, to); got != want {
					t.Fatalf("Has(%d, %d, %d) = %v, want %v", n, from, to, got, want)
				}
				if want {
					count++
					row |= 1 << to
				}
			}
			if from >= 0 && from < n && s.Row(n, from) != row {
				t.Fatalf("Row(%d, %d) = %b, want %b", n, from, s.Row(n, from), row)
			}
		}
	}
	if count != len(added) {
		t.Fatalf("%d channels held, %d added", count, len(added))
	}
	if pre := NewChannelSet(20); cap(pre) != len(s) {
		t.Errorf("NewChannelSet(20) has room for %d words, the set up to 20 takes %d", cap(pre), len(s))
	}
}
