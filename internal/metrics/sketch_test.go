package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBuckets pins bucket placement: a value lands in the first
// bucket whose upper bound is >= it, values past the last bound overflow.
func TestHistogramBuckets(t *testing.T) {
	h := NewSketch(1, 10, 100)
	for _, v := range []float64{0.5, 1, 2, 10, 99, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if want := []int64{2, 2, 1, 1}; len(s.Counts) != len(want) {
		t.Fatalf("counts = %v", s.Counts)
	} else {
		for i, c := range want {
			if s.Counts[i] != c {
				t.Errorf("bucket %d = %d, want %d (%v)", i, s.Counts[i], c, s.Counts)
			}
		}
	}
	if s.Count != 6 || s.Min != 0.5 || s.Max != 1000 {
		t.Errorf("count=%d min=%g max=%g", s.Count, s.Min, s.Max)
	}
	if got := s.Mean(); math.Abs(got-(0.5+1+2+10+99+1000)/6) > 1e-9 {
		t.Errorf("mean = %g", got)
	}
}

// TestHistogramQuantile pins the one quantile estimator: the bucket holding
// the q-th observation, interpolated by rank, clamped to the observed range.
func TestHistogramQuantile(t *testing.T) {
	h := NewSketch(1, 2, 4, 8)
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // bucket (1,2]
	}
	h.Observe(7) // bucket (4,8]
	s := h.Snapshot()
	for _, tc := range []struct{ q, want float64 }{
		{0, 1.5},    // rank 1 of 100 in (1,2] is 1.01, clamped up to min
		{0.5, 1.51}, // rank 51 of 100 in (1,2]
		{1, 7},      // upper edge 8, clamped down to max
	} {
		if got := s.Quantile(tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if q := (SketchSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %g", q)
	}
}

func TestHistogramDefaultBucketsAscending(t *testing.T) {
	b := DefaultSketchBounds
	if len(b) != 97 || math.Abs(b[0]-1e-6) > 1e-18 || math.Abs(b[96]-1e6) > 1e-6 {
		t.Fatalf("DefaultSketchBounds: %d bounds from %g to %g", len(b), b[0], b[len(b)-1])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("DefaultSketchBounds not ascending at %d: %v", i, b[i-1:i+1])
		}
	}
	// Snapshots alias the immutable bounds rather than copying them.
	if s := NewSketch().Snapshot(); &s.Bounds[0] != &b[0] {
		t.Error("default-bounds snapshot copied its bounds")
	}
}

func TestSketchQuantiles(t *testing.T) {
	s := NewSketch()
	// 1..1000 uniformly: quantiles should land near q*1000 within the
	// one-eighth-decade bucket resolution (~33% relative slack to be safe).
	for i := 1; i <= 1000; i++ {
		s.Observe(float64(i))
	}
	snap := s.Snapshot()
	if snap.Count != 1000 {
		t.Fatalf("Count = %d", snap.Count)
	}
	if snap.Min != 1 || snap.Max != 1000 {
		t.Fatalf("min/max = %g/%g", snap.Min, snap.Max)
	}
	if got, want := snap.Sum, float64(1000*1001/2); math.Abs(got-want) > 0.5 {
		t.Errorf("Sum = %g, want %g", got, want)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 500}, {0.95, 950}, {0.99, 990},
	} {
		got := snap.Quantile(tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.33 {
			t.Errorf("Quantile(%g) = %g, want ~%g (rel err %.2f)", tc.q, got, tc.want, rel)
		}
	}
}

func TestSketchEmptyAndExtremes(t *testing.T) {
	s := NewSketch()
	empty := s.Snapshot()
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %g", got)
	}
	// The one empty-distribution rule: the ±Inf sentinels stay inside the
	// sketch, so an empty snapshot is all zeros and JSON-encodable.
	if empty.Min != 0 || empty.Max != 0 || empty.String() != "count=0" {
		t.Errorf("empty snapshot min/max = %g/%g, String = %q", empty.Min, empty.Max, empty)
	}
	if _, err := json.Marshal(empty); err != nil {
		t.Errorf("empty snapshot not JSON-encodable: %v", err)
	}
	// One observation: every quantile is that observation.
	s.Observe(42)
	snap := s.Snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		if got := snap.Quantile(q); math.Abs(got-42) > 42*0.15 {
			t.Errorf("Quantile(%g) = %g, want ~42", q, got)
		}
	}
	// Values beyond both ends land in the open buckets and clamp to
	// observed extremes.
	s2 := NewSketch(1, 10)
	s2.Observe(0.001)
	s2.Observe(5000)
	snap2 := s2.Snapshot()
	if got := snap2.Quantile(0); got < 0.001-1e-12 || got > 1 {
		t.Errorf("underflow quantile = %g", got)
	}
	if got := snap2.Quantile(1); got != 5000 {
		t.Errorf("overflow quantile = %g, want 5000 (clamped to max)", got)
	}
}

func TestSketchConcurrent(t *testing.T) {
	s := NewSketch()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Observe(float64(g*1000 + i + 1))
			}
		}(g)
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Count != 8000 {
		t.Errorf("Count = %d, want 8000", snap.Count)
	}
	var wantSum float64
	for i := 1; i <= 8000; i++ {
		wantSum += float64(i)
	}
	if math.Abs(snap.Sum-wantSum) > 1e-6*wantSum {
		t.Errorf("Sum = %g, want %g", snap.Sum, wantSum)
	}
}

func TestSnapshotStringIncludesHists(t *testing.T) {
	var c Counters
	c.ObserveHist("stall", 2)
	if s := c.Snapshot().String(); !strings.Contains(s, "stall{count=1 mean=2 p50=2 ") {
		t.Errorf("String() = %q", s)
	}
}

// TestHistogramConcurrent hammers one named distribution through Counters
// from several goroutines while another snapshots it: run under -race, it
// pins that the save path shares no unsynchronised state.
func TestHistogramConcurrent(t *testing.T) {
	var c Counters
	var writers sync.WaitGroup
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 1000; i++ {
				c.ObserveHist("lat", float64(i))
			}
		}()
	}
	stop, snapped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(snapped)
		for {
			select {
			case <-stop:
				return
			default:
				if h := c.Snapshot().Hists["lat"]; h.Count > 0 && (h.Min < 0 || h.Max > 999) {
					t.Errorf("mid-run snapshot min/max = %g/%g", h.Min, h.Max)
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-snapped
	if h := c.Snapshot().Hists["lat"]; h.Count != 8000 || h.Min != 0 || h.Max != 999 {
		t.Errorf("count=%d min=%g max=%g, want 8000/0/999", h.Count, h.Min, h.Max)
	}
}

// TestObserveHistNoAllocs pins the save-path cost: observing into an
// existing name is a shard read-lock plus atomics.
func TestObserveHistNoAllocs(t *testing.T) {
	var c Counters
	c.ObserveHist("lat", 1)
	if n := testing.AllocsPerRun(100, func() { c.ObserveHist("lat", 2.5) }); n != 0 {
		t.Errorf("ObserveHist on an existing name: %g allocs/op, want 0", n)
	}
}

func BenchmarkSketchObserve(b *testing.B) {
	s := NewSketch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(float64(i&1023) + 0.5)
	}
}

func BenchmarkSketchObserveParallel(b *testing.B) {
	s := NewSketch()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 0.5
		for pb.Next() {
			s.Observe(v)
			v += 1.0
			if v > 1e5 {
				v = 0.5
			}
		}
	})
}
