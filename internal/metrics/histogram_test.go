package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 10, 100)
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

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // bucket (1,2]
	}
	h.Observe(7) // bucket (4,8]
	s := h.Snapshot()
	if q := s.Quantile(0.5); q != 2 {
		t.Errorf("p50 = %g, want 2", q)
	}
	if q := s.Quantile(1); q != 7 {
		t.Errorf("p100 = %g, want max 7 (clamped)", q)
	}
	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %g", q)
	}
}

func TestHistogramDefaultBucketsAscending(t *testing.T) {
	for i := 1; i < len(DefaultBuckets); i++ {
		if DefaultBuckets[i] <= DefaultBuckets[i-1] {
			t.Fatalf("DefaultBuckets not ascending at %d: %v", i, DefaultBuckets[i-3:i+1])
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Errorf("count = %d, want 8000", s.Count)
	}
}

func TestRegistryTimers(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("stage")
	tm.Start()
	time.Sleep(time.Millisecond)
	if d := tm.Stop(); d <= 0 {
		t.Errorf("interval = %v", d)
	}
	if tm.Stop() != 0 {
		t.Error("unmatched Stop not a no-op")
	}
	if r.Timer("stage") != tm {
		t.Error("Timer not idempotent by name")
	}
	s := r.Snapshot()
	if len(s.Timers) != 1 || s.Timers[0].Name != "stage" || s.Timers[0].Count != 1 || s.Timers[0].Elapsed <= 0 {
		t.Errorf("timers = %+v", s.Timers)
	}
}

func TestCountersResetAndMerge(t *testing.T) {
	var c Counters
	c.IncAppMessages(3)
	c.IncCtrlMessages(2, 8)
	c.IncCheckpoints(1)
	c.Inc("x", 4)
	c.ObserveHist("lat", 5)
	first := c.Snapshot()

	c.Reset()
	if s := c.Snapshot(); s.AppMessages != 0 || s.CtrlMessages != 0 || s.Custom != nil || s.Hists != nil {
		t.Fatalf("after Reset: %+v", s)
	}

	// Aggregate the saved snapshot twice into the cleared counters.
	if err := c.Merge(first); err != nil {
		t.Fatal(err)
	}
	if err := c.Merge(first); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if s.AppMessages != 6 || s.CtrlMessages != 4 || s.CtrlBytes != 32 || s.Checkpoints != 2 {
		t.Errorf("merged totals: %+v", s)
	}
	if s.Custom["x"] != 8 {
		t.Errorf("merged custom = %v", s.Custom)
	}
	if h := s.Hists["lat"]; h.Count != 2 || h.Sum != 10 {
		t.Errorf("merged hist = %+v", h)
	}
}

func TestMergeBucketMismatch(t *testing.T) {
	var c Counters
	c.ObserveHist("lat", 1) // DefaultBuckets
	bad := Snapshot{Hists: map[string]HistSnapshot{
		"lat": {Bounds: []float64{1, 2}, Counts: []int64{1, 0, 0}, Count: 1, Sum: 1, Min: 1, Max: 1},
	}}
	if err := c.Merge(bad); err == nil {
		t.Error("merging mismatched bounds did not fail")
	}
}

func TestSnapshotStringIncludesHists(t *testing.T) {
	var c Counters
	c.ObserveHist("stall", 2)
	if s := c.Snapshot().String(); !strings.Contains(s, "stall{") || !strings.Contains(s, "count=1") {
		t.Errorf("String() = %q", s)
	}
}
