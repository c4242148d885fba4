package vclock

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewIsZero(t *testing.T) {
	v := New(4)
	if len(v) != 4 {
		t.Fatalf("len = %d, want 4", len(v))
	}
	for i, x := range v {
		if x != 0 {
			t.Errorf("component %d = %d, want 0", i, x)
		}
	}
}

func TestTick(t *testing.T) {
	v := New(3)
	v.Tick(1).Tick(1).Tick(2)
	want := VC{0, 2, 1}
	if !slices.Equal(v, want) {
		t.Fatalf("v = %v, want %v", v, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	v := VC{1, 2, 3}
	c := v.Clone()
	c.Tick(0)
	if v[0] != 1 {
		t.Fatalf("mutating clone changed original: %v", v)
	}
}

func TestMerge(t *testing.T) {
	tests := []struct {
		name string
		a, b VC
		want VC
	}{
		{"disjoint", VC{1, 0, 0}, VC{0, 2, 0}, VC{1, 2, 0}},
		{"dominated", VC{1, 1, 1}, VC{0, 0, 0}, VC{1, 1, 1}},
		{"mixed", VC{3, 1, 4}, VC{2, 5, 4}, VC{3, 5, 4}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.a.Clone().Merge(tt.b)
			if !slices.Equal(got, tt.want) {
				t.Errorf("merge(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestMergeWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on width mismatch")
		}
	}()
	VC{1}.Merge(VC{1, 2})
}

func TestBefore(t *testing.T) {
	tests := []struct {
		name string
		a, b VC
		want bool
	}{
		{"strictly less", VC{1, 2}, VC{2, 3}, true},
		{"equal on one", VC{1, 2}, VC{1, 3}, true},
		{"identical", VC{1, 2}, VC{1, 2}, false},
		{"concurrent", VC{2, 1}, VC{1, 2}, false},
		{"after", VC{3, 3}, VC{1, 2}, false},
		{"width mismatch", VC{1}, VC{1, 2}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Before(tt.b); got != tt.want {
				t.Errorf("%v.Before(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestString(t *testing.T) {
	if got, want := (VC{1, 0, 42}).String(), "[1 0 42]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// randomVC builds a bounded random clock pair sharing a width so the
// quick-check properties stay within a single logical execution.
func randomVC(r *rand.Rand, width int) VC {
	v := New(width)
	for i := range v {
		v[i] = uint64(r.Intn(5))
	}
	return v
}

func TestQuickBeforeAntisymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomVC(r, 4), randomVC(r, 4)
		return !(a.Before(b) && b.Before(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBeforeTransitive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomVC(r, 3), randomVC(r, 3), randomVC(r, 3)
		if a.Before(b) && b.Before(c) {
			return a.Before(c)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeIsUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomVC(r, 5), randomVC(r, 5)
		m := a.Clone().Merge(b)
		// a <= m and b <= m component-wise.
		for i := range m {
			if a[i] > m[i] || b[i] > m[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomVC(r, 4), randomVC(r, 4)
		return slices.Equal(a.Clone().Merge(b), b.Clone().Merge(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickTickBreaksBefore(t *testing.T) {
	// After p ticks its own clock, the new clock is never before the old.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomVC(r, 4)
		ticked := a.Clone().Tick(int(uint(seed) % 4))
		return !ticked.Before(a) && a.Before(ticked)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkMerge(b *testing.B) {
	a := VC{1, 2, 3, 4, 5, 6, 7, 8}
	c := VC{8, 7, 6, 5, 4, 3, 2, 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Merge(c)
	}
}

func BenchmarkBefore(b *testing.B) {
	a := VC{1, 2, 3, 4, 5, 6, 7, 8}
	c := VC{2, 3, 4, 5, 6, 7, 8, 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Before(c)
	}
}
