package metrics

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
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

// together runs f on workers goroutines that leave a spinning barrier at
// once, so they meet on whatever f does first, and waits for them.
func together(workers int, f func(w int)) {
	var wg sync.WaitGroup
	var ready atomic.Int32
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ready.Add(1); ready.Load() < int32(workers); {
				runtime.Gosched()
			}
			f(w)
		}(w)
	}
	wg.Wait()
}

// TestConcurrentFirstUse has goroutines create the same names at once, of
// all three kinds. Run under -race it pins that a walker never reads a
// cell before its fields are set; without it, that a name racing into the
// list gets one cell, not one per racer.
func TestConcurrentFirstUse(t *testing.T) {
	const workers, names = 2, 16
	for round := 0; round < 100; round++ {
		var c Counters
		together(workers, func(int) {
			for i := 0; i < names; i++ {
				name := fmt.Sprintf("n%02d", i)
				c.Inc(name, 1)
				c.SetGauge(name, 1)
				c.ObserveHist(name, float64(i))
			}
		})
		s := c.Snapshot()
		if len(s.Custom) != names || len(s.Gauges) != names || len(s.Hists) != names {
			t.Fatalf("round %d: %d counters, %d gauges, %d distributions; want %d each", round, len(s.Custom), len(s.Gauges), len(s.Hists), names)
		}
		for name, n := range s.Custom {
			if n != workers || s.Hists[name].Count != workers {
				t.Fatalf("round %d: %s: counter %d, distribution count %d; want %d", round, name, n, s.Hists[name].Count, workers)
			}
		}
	}
}

// privateSink is what a sim.Run nobody observes records into its own
// Counters: a few named counters, a save-time distribution that fills two
// decades, and one snapshot at the end.
func privateSink() Snapshot {
	c := &Counters{}
	c.Inc("storage_retries", 1)
	c.Inc("prune_bytes_full", 1)
	c.Inc("prune_bytes_saved", 1)
	for i := 0; i < 20; i++ {
		c.ObserveHist(HistChkptSaveMS, 0.05+float64(i)*0.01)
	}
	return c.Snapshot()
}

var sinkOut Snapshot

// TestPrivateSinkAllocs pins what the private sink costs a run: 14 objects
// and 2,176 B measured (20 and 5,056 B while named cells lived in a
// 16-shard map of maps and a distribution held all 98 buckets), and a
// Counters of 80 B (832). Not pinned under -race, which moves the counts.
func TestPrivateSinkAllocs(t *testing.T) {
	const runs = 200
	objects := testing.AllocsPerRun(runs, func() { sinkOut = privateSink() })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sinkOut = privateSink()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	size := unsafe.Sizeof(Counters{})
	t.Logf("the private sink allocates %.0f objects and %.0f B; a Counters is %d B", objects, bytes, size)
	if bi, _ := debug.ReadBuildInfo(); bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		return
	}
	if objects > 15 || bytes > 2400 || size > 96 {
		t.Errorf("the private sink allocates %.0f objects and %.0f B, a Counters is %d B; want <= 15, <= 2,400 B and <= 96 B", objects, bytes, size)
	}
}

// BenchmarkCountersInc pins the contention fix: every simulated message
// send crosses these increments, so they are the metrics hot path. The
// parallel variants hammer one Counters from GOMAXPROCS goroutines — the
// pre-fix single-mutex implementation serializes here, the lock-free one
// must not. The named20 variants look up the oldest and newest of 20
// names, the far and near ends of the walk (a fleet batch records 10).
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
	var names [20]string
	for i := range names {
		names[i] = fmt.Sprintf("net_counter_%02d", i)
	}
	named20 := func() *Counters {
		c := new(Counters)
		for _, name := range names {
			c.Inc(name, 0)
		}
		return c
	}
	b.Run("named20-oldest", func(b *testing.B) {
		c := named20()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc(names[0], 1)
		}
	})
	b.Run("named20-newest", func(b *testing.B) {
		c := named20()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc(names[len(names)-1], 1)
		}
	})
	b.Run("named20-parallel", func(b *testing.B) {
		c := named20()
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc(names[0], 1)
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
