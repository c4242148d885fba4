package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestZeroValueUsable(t *testing.T) {
	var c Counters
	c.IncAppMessages(1)
	if got := c.Snapshot().AppMessages; got != 1 {
		t.Fatalf("AppMessages = %d, want 1", got)
	}
}

func TestAllCounters(t *testing.T) {
	var c Counters
	c.IncAppMessages(3)
	c.IncCtrlMessages(5, 9) // 5 messages of 9 bytes
	c.IncCheckpoints(2)
	c.IncForced(1)
	c.IncRollbacks(4)
	c.IncRestartedEvents(7)
	c.AddBlocked(2 * time.Second)
	c.Inc("markers", 6)

	s := c.Snapshot()
	if s.AppMessages != 3 || s.CtrlMessages != 5 || s.CtrlBytes != 45 ||
		s.Checkpoints != 2 || s.Forced != 1 || s.Rollbacks != 4 ||
		s.RestartedEvents != 7 || s.Blocked != 2*time.Second ||
		s.Custom["markers"] != 6 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.TotalCheckpoints() != 3 {
		t.Fatalf("TotalCheckpoints = %d, want 3", s.TotalCheckpoints())
	}
}

func TestSnapshotIsolation(t *testing.T) {
	var c Counters
	c.Inc("x", 1)
	s := c.Snapshot()
	c.Inc("x", 1)
	if s.Custom["x"] != 1 {
		t.Fatal("snapshot not isolated from later increments")
	}
	s.Custom["x"] = 99
	if c.Snapshot().Custom["x"] != 2 {
		t.Fatal("mutating snapshot leaked into counters")
	}
}

func TestMaxIsHighWatermark(t *testing.T) {
	var c Counters
	c.Max("depth", 3)
	c.Max("depth", 7)
	c.Max("depth", 5) // lower values never pull the watermark down
	if got := c.Snapshot().Custom["depth"]; got != 7 {
		t.Fatalf("Max watermark = %d, want 7", got)
	}
	c.Max("other", 0)
	if got := c.Snapshot().Custom["other"]; got != 0 {
		t.Fatalf("Max(0) = %d, want 0", got)
	}
}

// TestFixedNamesAndOrder pins the one fixed-counter table: the export names
// and their order are an output contract of every exporter.
func TestFixedNamesAndOrder(t *testing.T) {
	var c Counters
	c.IncAppMessages(1)
	c.IncCtrlMessages(2, 3)
	c.IncCheckpoints(4)
	c.IncForced(5)
	c.IncRollbacks(6)
	c.IncRestartedEvents(7)
	c.AddBlocked(8)
	want := []FixedCounter{
		{"app_messages", 1}, {"ctrl_messages", 2}, {"ctrl_bytes", 6}, {"checkpoints", 4},
		{"forced", 5}, {"rollbacks", 6}, {"restarted_events", 7}, {"blocked_ns", 8},
	}
	got := c.Snapshot().Fixed()
	if len(got) != len(want) {
		t.Fatalf("Fixed() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Fixed()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if s := c.Snapshot().String(); !strings.HasPrefix(s, "app_messages=1 ctrl_messages=2 ctrl_bytes=6 ") || !strings.HasSuffix(s, " blocked_ns=8") {
		t.Errorf("String() = %q", s)
	}
}

func TestGauges(t *testing.T) {
	c := &Counters{}
	if got := c.Snapshot().Gauges["lag"]; got != 0 {
		t.Errorf("unset gauge = %g", got)
	}
	c.SetGauge("lag", 1.5)
	c.SetGauge("lag", 0.25) // gauges overwrite, unlike counters
	c.SetGauge("watermark", 7)
	c.Inc("lag", 3) // a counter may share a gauge's name
	if got := c.Snapshot().Gauges["lag"]; got != 0.25 {
		t.Errorf("lag = %g, want 0.25", got)
	}
	s := c.Snapshot()
	if s.Gauges["lag"] != 0.25 || s.Gauges["watermark"] != 7 || s.Custom["lag"] != 3 {
		t.Errorf("snapshot gauges = %v, custom = %v", s.Gauges, s.Custom)
	}
	if !strings.Contains(s.String(), "lag=0.25") {
		t.Errorf("String() = %q, want lag gauge", s.String())
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
	if got := c.Snapshot().Gauges["g"]; got < 0 || got > 499 {
		t.Errorf("g = %g out of range", got)
	}
}

func TestStringContainsCustomSorted(t *testing.T) {
	var c Counters
	c.Inc("zeta", 1)
	c.Inc("alpha", 2)
	out := c.Snapshot().String()
	ia, iz := strings.Index(out, "alpha=2"), strings.Index(out, "zeta=1")
	if ia < 0 || iz < 0 || ia > iz {
		t.Fatalf("String() = %q: custom counters missing or unsorted", out)
	}
}

func TestConcurrentIncrements(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.IncAppMessages(1)
				c.Inc("k", 1)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.AppMessages != 8000 || s.Custom["k"] != 8000 {
		t.Fatalf("concurrent counts lost: %+v", s)
	}
}

// BenchmarkCountersInc pins the contention fix: every simulated message
// send crosses these increments, so they are the metrics hot path. The
// parallel variants hammer one Counters from GOMAXPROCS goroutines — the
// pre-fix single-mutex implementation serializes here, the atomic/sharded
// one must not.
func BenchmarkCountersInc(b *testing.B) {
	b.Run("fixed-serial", func(b *testing.B) {
		var c Counters
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.IncAppMessages(1)
		}
	})
	b.Run("fixed-parallel", func(b *testing.B) {
		var c Counters
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.IncAppMessages(1)
			}
		})
	})
	b.Run("named-parallel", func(b *testing.B) {
		var c Counters
		c.Inc("net_drops", 0) // pre-created: steady-state path, not first-insert
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc("net_drops", 1)
			}
		})
	})
	b.Run("max-parallel", func(b *testing.B) {
		var c Counters
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			var d int64
			for pb.Next() {
				d++
				c.Max("net_backlog_max", d%512)
			}
		})
	})
}
