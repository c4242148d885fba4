package telemetry_test

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// manual returns an aggregator for tick-by-hand tests (huge window so a
// background ticker never races the test even if Start were called).
func manual(over func(*telemetry.Config)) (*telemetry.Aggregator, *obs.Recorder) {
	sink := obs.NewRecorder()
	cfg := telemetry.Config{Nproc: 4, Window: time.Hour, Sink: sink}
	if over != nil {
		over(&cfg)
	}
	return telemetry.New(cfg), sink
}

func kindsOf(rec *obs.Recorder) map[obs.Kind]int {
	out := map[obs.Kind]int{}
	for _, e := range rec.Events() {
		out[e.Kind]++
	}
	return out
}

func TestAggregatorCountsRatesAndProcs(t *testing.T) {
	ctr := &metrics.Counters{}
	a, _ := manual(func(c *telemetry.Config) { c.Counters = ctr })
	ctr.ObserveHist(metrics.HistChkptSaveMS, 3)
	for i := 0; i < 10; i++ {
		a.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: i % 2, VTime: float64(i)})
	}
	a.OnEvent(obs.Event{Kind: obs.KindSend, Proc: 0, Msg: obs.MsgRef{From: 0, To: 1}})
	a.OnEvent(obs.Event{Kind: obs.KindChkpt, Proc: 1, Inc: 2, VTime: 12, DurNS: 3e6})
	a.OnEvent(obs.Event{Kind: obs.KindChkpt, Proc: -1}) // run-level: no proc row
	a.Tick()

	s := a.Snapshot()
	if s.Total != 13 || s.Kinds["compute"] != 10 || s.Kinds["send"] != 1 || s.Kinds["chkpt"] != 2 {
		t.Fatalf("kind totals wrong: total=%d kinds=%v", s.Total, s.Kinds)
	}
	if s.LastWindow["compute"] != 10 {
		t.Errorf("last window deltas wrong: %v", s.LastWindow)
	}
	if s.Rates["compute"] <= 0 {
		t.Errorf("no compute rate: %v", s.Rates)
	}
	if len(s.Procs) != 2 {
		t.Fatalf("want 2 proc rows, got %+v", s.Procs)
	}
	p1 := s.Procs[1]
	if p1.Proc != 1 || p1.Inc != 2 || p1.VTime != 12 || p1.LastSaveV != 12 || p1.LastKind != "chkpt" {
		t.Errorf("proc 1 row wrong: %+v", p1)
	}
	if s.SaveMS.Count != 1 || s.SaveMS.P50 < 2 || s.SaveMS.P50 > 4 {
		t.Errorf("save quantiles not read from the tap's %s: %+v", metrics.HistChkptSaveMS, s.SaveMS)
	}
	if s.Ticks != 1 {
		t.Errorf("ticks = %d", s.Ticks)
	}
}

func TestAggregatorSecondTickDeltasOnly(t *testing.T) {
	a, _ := manual(nil)
	a.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: 0})
	a.Tick()
	a.Tick() // empty window
	s := a.Snapshot()
	if len(s.LastWindow) != 0 {
		t.Errorf("empty window still shows deltas: %v", s.LastWindow)
	}
	if s.Kinds["compute"] != 1 {
		t.Errorf("cumulative total lost: %v", s.Kinds)
	}
}

// TestStallDetector: a silent non-halted process fires exactly one stall
// per silence episode, and moving again re-arms the detector.
func TestStallDetector(t *testing.T) {
	a, sink := manual(nil)
	a.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: 0, VTime: 1})
	a.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: 1, VTime: 1})
	a.Tick() // registers progress for both

	// Proc 0 keeps moving; proc 1 goes quiet past the 8-window bar.
	for i := 0; i < 10; i++ {
		a.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: 0})
		a.Tick()
	}
	got := kindsOf(sink)
	if got[obs.KindStall] != 1 {
		t.Fatalf("want exactly 1 stall, got %d (%v)", got[obs.KindStall], sink.Events())
	}
	var stall obs.Event
	for _, e := range sink.Events() {
		if e.Kind == obs.KindStall {
			stall = e
		}
	}
	if stall.Proc != 1 {
		t.Errorf("stall blamed proc %d, want 1", stall.Proc)
	}
	s := a.Snapshot()
	if s.Health.Stalls != 1 || s.Health.StalledProcs != 1 || s.Healthy() {
		t.Errorf("health wrong after stall: %+v healthy=%v", s.Health, s.Healthy())
	}

	// Proc 1 moves again: stall clears; a new silence fires a second one.
	a.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: 1})
	a.Tick()
	if s := a.Snapshot(); s.Health.StalledProcs != 0 || !s.Healthy() {
		t.Fatalf("stall did not clear: %+v", s.Health)
	}
	for i := 0; i < 9; i++ {
		a.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: 0})
		a.Tick()
	}
	if got := kindsOf(sink); got[obs.KindStall] != 2 {
		t.Errorf("second silence episode: want 2 stalls total, got %d", got[obs.KindStall])
	}
}

// TestStallDetectorIgnoresHalted: silence after a halt is completion.
func TestStallDetectorIgnoresHalted(t *testing.T) {
	a, sink := manual(nil)
	a.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: 0})
	a.OnEvent(obs.Event{Kind: obs.KindHalt, Proc: 0})
	for i := 0; i < 10; i++ {
		a.Tick()
	}
	if got := kindsOf(sink); got[obs.KindStall] != 0 {
		t.Errorf("halted process reported stalled: %v", sink.Events())
	}
	s := a.Snapshot()
	if len(s.Procs) != 1 || !s.Procs[0].Halted {
		t.Errorf("halted flag lost: %+v", s.Procs)
	}
}

// TestStormDetector: rollbacks within the horizon fire one storm; the
// detector re-arms only after a rollback-free horizon.
func TestStormDetector(t *testing.T) {
	a, sink := manual(nil)
	a.OnEvent(obs.Event{Kind: obs.KindRollback, Proc: 0})
	a.OnEvent(obs.Event{Kind: obs.KindRollback, Proc: 3})
	a.Tick()
	if got := kindsOf(sink); got[obs.KindStorm] != 0 {
		t.Fatal("storm below threshold")
	}
	a.OnEvent(obs.Event{Kind: obs.KindRollback, Proc: 1})
	a.Tick()
	if got := kindsOf(sink); got[obs.KindStorm] != 1 {
		t.Fatalf("want 1 storm at threshold, got %d", got[obs.KindStorm])
	}
	if !a.Snapshot().Health.InStorm {
		t.Error("InStorm not set")
	}
	// More rollbacks inside the same storm: no re-fire.
	a.OnEvent(obs.Event{Kind: obs.KindRollback, Proc: 2})
	a.Tick()
	if got := kindsOf(sink); got[obs.KindStorm] != 1 {
		t.Fatalf("storm re-fired while active: %d", got[obs.KindStorm])
	}
	// A full rollback-free horizon (40 windows) re-arms.
	for i := 0; i < 41; i++ {
		a.Tick()
	}
	if a.Snapshot().Health.InStorm {
		t.Fatal("storm never cleared")
	}
	a.OnEvent(obs.Event{Kind: obs.KindRollback, Proc: 0})
	a.OnEvent(obs.Event{Kind: obs.KindRollback, Proc: 1})
	a.OnEvent(obs.Event{Kind: obs.KindRollback, Proc: 2})
	a.Tick()
	if got := kindsOf(sink); got[obs.KindStorm] != 2 {
		t.Errorf("want 2 storms after re-arm, got %d", got[obs.KindStorm])
	}
}

// TestLagDetector: virtual time running past the last save fires once per
// episode; a new save closes the gap and re-arms.
func TestLagDetector(t *testing.T) {
	a, sink := manual(func(c *telemetry.Config) { c.LagThreshold = 1.0 })
	a.OnEvent(obs.Event{Kind: obs.KindChkpt, Proc: 0, VTime: 1, DurNS: 1})
	a.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: 0, VTime: 1.5})
	a.Tick()
	if got := kindsOf(sink); got[obs.KindLag] != 0 {
		t.Fatal("lag fired below threshold")
	}
	a.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: 0, VTime: 3})
	a.Tick()
	a.Tick() // still lagged: no second alert
	if got := kindsOf(sink); got[obs.KindLag] != 1 {
		t.Fatalf("want 1 lag alert, got %d", got[obs.KindLag])
	}
	var lag obs.Event
	for _, e := range sink.Events() {
		if e.Kind == obs.KindLag {
			lag = e
		}
	}
	if lag.Proc != 0 || lag.VDur < 1.9 || lag.VDur > 2.1 {
		t.Errorf("lag event wrong: %+v", lag)
	}
	// A save at vtime 3 closes the gap; running ahead again re-fires.
	a.OnEvent(obs.Event{Kind: obs.KindChkpt, Proc: 0, VTime: 3, DurNS: 1})
	a.Tick()
	a.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: 0, VTime: 5})
	a.Tick()
	if got := kindsOf(sink); got[obs.KindLag] != 2 {
		t.Errorf("want 2 lag alerts after re-arm, got %d", got[obs.KindLag])
	}
}

func TestLagDisabledByDefault(t *testing.T) {
	a, sink := manual(nil)
	a.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: 0, VTime: 1e9})
	for i := 0; i < 5; i++ {
		a.Tick()
		a.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: 0, VTime: 2e9})
	}
	if got := kindsOf(sink); got[obs.KindLag] != 0 {
		t.Errorf("lag alerts with LagThreshold=0: %d", got[obs.KindLag])
	}
}

// TestBlockSketches: the block and stall quantiles are the tap's
// blocked_wall_ms and barrier_stall_vs distributions as of the last tick.
func TestBlockSketches(t *testing.T) {
	ctr := &metrics.Counters{}
	a, _ := manual(func(c *telemetry.Config) { c.Counters = ctr })
	for _, ms := range []float64{5, 10} {
		ctr.ObserveHist(metrics.HistBlockedWallMS, ms)
		ctr.ObserveHist(metrics.HistBarrierStallV, ms/20)
	}
	a.Tick()
	s := a.Snapshot()
	if s.BlockMS.Count != 2 || s.BlockMS.Max < 9 {
		t.Errorf("block quantiles: %+v", s.BlockMS)
	}
	if s.StallV.Count != 2 || s.StallV.Max < 0.4 {
		t.Errorf("stall quantiles: %+v", s.StallV)
	}
}

// TestNoTapNoQuantiles: distributions come from the tap and from nowhere
// else. Without one, events that carry durations still count as events,
// and the quantiles stay empty rather than being rebuilt from them.
func TestNoTapNoQuantiles(t *testing.T) {
	a, _ := manual(nil)
	a.OnEvent(obs.Event{Kind: obs.KindChkpt, Proc: 0, DurNS: 3e6})
	a.OnEvent(obs.Event{Kind: obs.KindBlock, Proc: 1, DurNS: 5e6, VDur: 0.25})
	a.Tick()
	s := a.Snapshot()
	if s.Kinds["chkpt"] != 1 || s.Kinds["block"] != 1 {
		t.Fatalf("events not counted: %v", s.Kinds)
	}
	var empty telemetry.Quantiles
	if s.HasCounters || s.SaveMS != empty || s.BlockMS != empty || s.StallV != empty {
		t.Errorf("tapless aggregator reports quantiles: save %+v block %+v stall %+v",
			s.SaveMS, s.BlockMS, s.StallV)
	}
}

func TestCounterTap(t *testing.T) {
	ctr := &metrics.Counters{}
	a, _ := manual(func(c *telemetry.Config) { c.Counters = ctr })
	ctr.IncAppMessages(10)
	ctr.Inc("custom_thing", 3)
	ctr.SetGauge("g", 1.5)
	a.Tick()
	s := a.Snapshot()
	if !s.HasCounters {
		t.Fatal("HasCounters false with a tap configured")
	}
	if s.Counters.AppMessages != 10 || s.Counters.Custom["custom_thing"] != 3 {
		t.Errorf("counter sample wrong: %+v", s.Counters)
	}
	if s.CounterRates["app_messages"] <= 0 || s.CounterRates["custom_thing"] <= 0 {
		t.Errorf("counter rates wrong: %v", s.CounterRates)
	}
	if s.Counters.Gauges["g"] != 1.5 {
		t.Errorf("gauge sample wrong: %v", s.Counters.Gauges)
	}
}

// TestOutOfRangeProcFoldsToRunLevel: ranks beyond Nproc count toward
// totals without panicking or minting rows.
func TestOutOfRangeProcFoldsToRunLevel(t *testing.T) {
	a, _ := manual(nil)
	a.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: 99})
	a.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: -1})
	s := a.Snapshot()
	if s.Total != 2 || len(s.Procs) != 0 {
		t.Errorf("run-level fold wrong: total=%d procs=%+v", s.Total, s.Procs)
	}
}

// TestOutOfRangeKindFoldsToOther: a Kind that is not one — zero, the
// sentinel, a newer producer's — counts under "other" without indexing out
// of range and without allocating.
func TestOutOfRangeKindFoldsToOther(t *testing.T) {
	a, _ := manual(nil)
	strays := []obs.Kind{0, obs.NumKinds, obs.NumKinds + 3, 255}
	allocs := testing.AllocsPerRun(50, func() {
		for _, k := range strays {
			a.OnEvent(obs.Event{Kind: k, Proc: 1})
		}
	})
	a.Tick()
	s := a.Snapshot()
	if allocs != 0 || len(s.Kinds) != 1 || s.Kinds["other"] != s.Total || s.Total == 0 {
		t.Errorf("allocs = %v, kinds = %v, total = %d; want everything under \"other\" at 0 allocs", allocs, s.Kinds, s.Total)
	}
	if len(s.Procs) != 1 || s.Procs[0].LastKind != "other" || s.LastWindow["other"] != s.Total {
		t.Errorf("proc row %+v, last window %v", s.Procs, s.LastWindow)
	}
}

func TestStartTicks(t *testing.T) {
	a := telemetry.New(telemetry.Config{Window: time.Millisecond})
	stop := a.Start()
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for a.Snapshot().Ticks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("Start never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	n := a.Snapshot().Ticks
	time.Sleep(5 * time.Millisecond)
	if a.Snapshot().Ticks != n {
		t.Error("ticker still running after stop")
	}
}

// jobStream deterministically replays job j's synthetic run — computes,
// checkpoints with known save latencies, a block, a rollback: what the
// fleet aggregator merges across jobs — as the runtime publishes one:
// events to the observer, latencies to every counters tap.
func jobStream(j int, o obs.Observer, taps ...*metrics.Counters) {
	observe := func(name string, v float64) {
		for _, c := range taps {
			c.ObserveHist(name, v)
		}
	}
	for i := 0; i < 50+j; i++ {
		o.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: i % 3, VTime: float64(i)})
	}
	for i := 0; i < 5; i++ {
		observe(metrics.HistChkptSaveMS, float64(j+1))
		o.OnEvent(obs.Event{Kind: obs.KindChkpt, Proc: i % 3, DurNS: int64(j+1) * 1e6})
	}
	observe(metrics.HistBlockedWallMS, 2)
	o.OnEvent(obs.Event{Kind: obs.KindBlock, Proc: j % 3, DurNS: 2e6, VDur: 0.1})
	o.OnEvent(obs.Event{Kind: obs.KindRollback, Proc: -1})
	o.OnEvent(obs.Event{Kind: obs.KindJobDone, Proc: -1, Inc: j, Tag: "succeeded"})
}

// TestMultiObserverMergeEqualsPerJobSum is the fleet wiring contract: one
// aggregator over one counters tap, fed by N concurrent jobs, must end up
// with exactly the merged counters and quantile-sketch populations that N
// isolated per-job aggregators sum to. Nothing may be lost or
// double-counted under concurrency.
func TestMultiObserverMergeEqualsPerJobSum(t *testing.T) {
	const jobs = 16
	tapped := func() (*telemetry.Aggregator, *metrics.Counters) {
		ctr := &metrics.Counters{}
		return telemetry.New(telemetry.Config{Nproc: 3, Window: time.Hour, Counters: ctr}), ctr
	}
	shared, sharedTap := tapped()
	solo := make([]*telemetry.Aggregator, jobs)
	soloTap := make([]*metrics.Counters, jobs)
	for j := range solo {
		solo[j], soloTap[j] = tapped()
	}

	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			// Each job feeds its own aggregator AND the shared one through
			// the same fan-out a fleet job's sim.Config.Observer uses.
			jobStream(j, obs.Multi(solo[j], shared), soloTap[j], sharedTap)
			solo[j].Tick()
		}(j)
	}
	wg.Wait()
	shared.Tick()

	got := shared.Snapshot()
	wantKinds := map[string]int64{}
	var wantTotal, wantSaves, wantBlocks int64
	var wantSaveMax float64
	for j := range solo {
		s := solo[j].Snapshot()
		for k, v := range s.Kinds {
			wantKinds[k] += v
		}
		wantTotal += s.Total
		wantSaves += s.SaveMS.Count
		wantBlocks += s.BlockMS.Count
		wantSaveMax = math.Max(wantSaveMax, s.SaveMS.Max)
	}
	if got.Total != wantTotal {
		t.Fatalf("merged total = %d, want sum of per-job totals %d", got.Total, wantTotal)
	}
	if !reflect.DeepEqual(got.Kinds, wantKinds) {
		t.Errorf("merged kind totals = %v, want %v", got.Kinds, wantKinds)
	}
	if got.SaveMS.Count != wantSaves || got.BlockMS.Count != wantBlocks {
		t.Errorf("sketch populations: saves=%d blocks=%d, want %d, %d",
			got.SaveMS.Count, got.BlockMS.Count, wantSaves, wantBlocks)
	}
	if got.SaveMS.Max != wantSaveMax {
		t.Errorf("save latency max = %v, want per-job max %v", got.SaveMS.Max, wantSaveMax)
	}
	// Quantiles of the merged population must sit inside the emitted
	// latency range (1..jobs ms) — a merge that mangled sketch buckets
	// would push them outside.
	if got.SaveMS.P50 < 1 || got.SaveMS.P99 > jobs+1 {
		t.Errorf("merged quantiles out of range: %+v", got.SaveMS)
	}
	if got.Kinds["jobdone"] != jobs {
		t.Errorf("jobdone total = %d, want %d", got.Kinds["jobdone"], jobs)
	}
}

// TestMultiObserverMergeFromRealRuns drives N real sim jobs concurrently,
// every job's observer fanned into one shared aggregator (exactly how
// chkptfleet wires it), and checks the aggregate checkpoint count equals
// the sum each run reports for itself.
func TestMultiObserverMergeFromRealRuns(t *testing.T) {
	const jobs = 4
	tap := &metrics.Counters{}
	shared := telemetry.New(telemetry.Config{Nproc: 3, Window: time.Hour, Counters: tap})
	var wantChkpts atomic.Int64
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			res, err := sim.Run(sim.Config{
				Program: corpus.JacobiFig1(3), Nproc: 3,
				Store:    storage.NewMemory(),
				Observer: obs.Multi(shared),
				Counters: tap,
				Timeout:  30 * time.Second,
				Jitter:   int64(j + 1),
			})
			if err != nil {
				t.Errorf("job %d: %v", j, err)
				return
			}
			wantChkpts.Add(int64(len(res.Trace.Checkpoints())))
		}(j)
	}
	wg.Wait()
	shared.Tick()
	s := shared.Snapshot()
	if s.Kinds["chkpt"] != wantChkpts.Load() {
		t.Errorf("aggregated chkpt events = %d, want sum of per-job checkpoints %d",
			s.Kinds["chkpt"], wantChkpts.Load())
	}
	if s.SaveMS.Count != wantChkpts.Load() {
		t.Errorf("save sketch count = %d, want %d", s.SaveMS.Count, wantChkpts.Load())
	}
}

// BenchmarkAggregatorIngest is the hot-path budget: OnEvent must stay at
// or below one allocation per event (it is zero in practice).
func BenchmarkAggregatorIngest(b *testing.B) {
	a := telemetry.New(telemetry.Config{Nproc: 8, Window: time.Hour})
	e := obs.Event{Kind: obs.KindChkpt, Proc: 3, Inc: 1, VTime: 2.5, DurNS: 4e6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.OnEvent(e)
	}
}

func BenchmarkAggregatorIngestParallel(b *testing.B) {
	a := telemetry.New(telemetry.Config{Nproc: 8, Window: time.Hour})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		e := obs.Event{Kind: obs.KindCompute, Proc: 2, VTime: 1}
		for pb.Next() {
			a.OnEvent(e)
		}
	})
}
