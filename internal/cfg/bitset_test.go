package cfg

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestBitsetCount(t *testing.T) {
	b := NewBitset(200)
	if b.Count() != 0 {
		t.Fatalf("empty Count = %d", b.Count())
	}
	want := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for _, i := range want {
		b.Set(i)
	}
	if got := b.Count(); got != len(want) {
		t.Errorf("Count = %d, want %d", got, len(want))
	}
	b.Clear(64)
	if got := b.Count(); got != len(want)-1 {
		t.Errorf("Count after Clear = %d, want %d", got, len(want)-1)
	}
}

func TestBitsetAppendMembers(t *testing.T) {
	b := NewBitset(150)
	want := []int{3, 64, 70, 149}
	for _, i := range want {
		b.Set(i)
	}
	if got := b.AppendMembers(nil); !reflect.DeepEqual(got, want) {
		t.Errorf("AppendMembers(nil) = %v, want %v", got, want)
	}
	// Append-into-caller-buffer variant: reusing the same backing array
	// must not allocate and must produce identical contents.
	buf := make([]int, 0, 8)
	got := b.AppendMembers(buf)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AppendMembers = %v, want %v", got, want)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("AppendMembers reallocated despite sufficient capacity")
	}
	// Appending onto a non-empty prefix preserves it.
	pre := b.AppendMembers([]int{-1})
	if !reflect.DeepEqual(pre, append([]int{-1}, want...)) {
		t.Errorf("AppendMembers with prefix = %v", pre)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = b.AppendMembers(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("AppendMembers into reused buffer allocates %v/op", allocs)
	}
}

func TestBitsetCopyFromZero(t *testing.T) {
	a, b := NewBitset(100), NewBitset(100)
	for _, i := range []int{1, 50, 99} {
		a.Set(i)
	}
	b.Set(7)
	b.CopyFrom(a)
	if !b.Equal(a) {
		t.Errorf("CopyFrom: %v != %v", b.AppendMembers(nil), a.AppendMembers(nil))
	}
	b.Zero()
	if b.Count() != 0 {
		t.Errorf("Zero left %v set", b.AppendMembers(nil))
	}
	if len(b) != len(a) {
		t.Error("Zero changed capacity")
	}
}

func TestBitsetRandomAgainstMap(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const n = 300
	b := NewBitset(n)
	ref := map[int]bool{}
	for op := 0; op < 2000; op++ {
		i := r.Intn(n)
		if r.Intn(2) == 0 {
			b.Set(i)
			ref[i] = true
		} else {
			b.Clear(i)
			delete(ref, i)
		}
	}
	if b.Count() != len(ref) {
		t.Fatalf("Count = %d, want %d", b.Count(), len(ref))
	}
	for _, m := range b.AppendMembers(nil) {
		if !ref[m] {
			t.Fatalf("spurious member %d", m)
		}
	}
}

func TestArenaReuse(t *testing.T) {
	a := &Arena{}
	b1 := a.Bits(100)
	b1.Set(5)
	i1 := a.Ints(10)
	i1[0] = 7
	a.Reset()
	b2 := a.Bits(100)
	if b2.Count() != 0 {
		t.Errorf("arena bitset not zeroed after Reset: %v", b2.AppendMembers(nil))
	}
	i2 := a.Ints(10)
	if i2[0] != 0 {
		t.Error("arena ints not zeroed after Reset")
	}
	if &b1[0] != &b2[0] {
		t.Error("arena did not reuse bitset storage after Reset")
	}
	// A nil arena degrades to plain allocation.
	var nilA *Arena
	nb := nilA.Bits(64)
	nb.Set(1)
	if ni := nilA.Ints(4); len(ni) != 4 {
		t.Error("nil arena Ints wrong length")
	}
	nilA.Reset() // must not panic
}
