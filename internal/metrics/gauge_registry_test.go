package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestGauges(t *testing.T) {
	c := &Counters{}
	if got := c.Gauge("lag"); got != 0 {
		t.Errorf("unset gauge = %g", got)
	}
	c.SetGauge("lag", 1.5)
	c.SetGauge("lag", 0.25) // gauges overwrite, unlike counters
	c.SetGauge("watermark", 7)
	if got := c.Gauge("lag"); got != 0.25 {
		t.Errorf("lag = %g, want 0.25", got)
	}
	s := c.Snapshot()
	if s.Gauges["lag"] != 0.25 || s.Gauges["watermark"] != 7 {
		t.Errorf("snapshot gauges = %v", s.Gauges)
	}
	if !strings.Contains(s.String(), "lag=0.25") {
		t.Errorf("String() = %q, want lag gauge", s.String())
	}
	c.Reset()
	if got := c.Snapshot().Gauges; got != nil {
		t.Errorf("gauges after Reset = %v", got)
	}
}

func TestGaugeMergeKeepsMax(t *testing.T) {
	a, b := &Counters{}, &Counters{}
	a.SetGauge("lag", 2)
	b.SetGauge("lag", 5)
	b.SetGauge("other", 1)
	if err := a.Merge(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got := a.Gauge("lag"); got != 5 {
		t.Errorf("merged lag = %g, want 5 (max)", got)
	}
	if got := a.Gauge("other"); got != 1 {
		t.Errorf("merged other = %g, want 1", got)
	}
	// Merging a smaller reading must not regress the gauge.
	low := &Counters{}
	low.SetGauge("lag", 1)
	if err := a.Merge(low.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got := a.Gauge("lag"); got != 5 {
		t.Errorf("lag after low merge = %g, want 5", got)
	}
}

func TestGaugesConcurrent(t *testing.T) {
	c := &Counters{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.SetGauge("g", float64(i))
				c.SetGauge("h", float64(g))
			}
		}(g)
	}
	wg.Wait()
	if got := c.Gauge("g"); got < 0 || got > 499 {
		t.Errorf("g = %g out of range", got)
	}
}
