package sim_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestObserverMirrorsTrace runs a clean execution and checks the observer
// stream carries exactly the trace's sends, receives, and checkpoints,
// with matching vector clocks.
func TestObserverMirrorsTrace(t *testing.T) {
	rec := obs.NewRecorder()
	res, err := sim.Run(sim.Config{
		Program:  corpus.JacobiFig1(3),
		Nproc:    4,
		Observer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[obs.Kind]int{}
	for _, h := range res.Trace.Events() {
		for _, e := range h {
			switch e.Kind {
			case trace.KindSend:
				want[obs.KindSend]++
			case trace.KindRecv:
				want[obs.KindRecv]++
			case trace.KindCheckpoint:
				want[obs.KindChkpt]++
			case trace.KindCompute:
				want[obs.KindCompute]++
			}
		}
	}
	got := map[obs.Kind]int{}
	for _, e := range rec.Events() {
		got[e.Kind]++
	}
	for kind, n := range want {
		if got[kind] != n {
			t.Errorf("%s events = %d, want %d (trace)", kind, got[kind], n)
		}
	}
	if got[obs.KindHalt] != 4 {
		t.Errorf("halt events = %d, want one per process", got[obs.KindHalt])
	}
	// Clean run: no recovery lifecycle events, single incarnation.
	if got[obs.KindRollback] != 0 || got[obs.KindRestart] != 0 {
		t.Errorf("clean run has recovery events: %v", got)
	}
	// Recorder order is (inc, proc, seq) and a halt is a process's last
	// event, so a process's recorded events line up with its history.
	next, hist := make([]int, 4), res.Trace.Events()
	for _, e := range rec.Events() {
		if e.Inc != 0 {
			t.Fatalf("clean run event in incarnation %d: %+v", e.Inc, e)
		}
		if e.Kind == obs.KindHalt {
			continue
		}
		te := hist[e.Proc][next[e.Proc]]
		next[e.Proc]++
		if e.Msg != obs.MsgRef(te.Msg) {
			t.Fatalf("msg ref %+v, trace has %+v", e.Msg, te.Msg)
		}
		if want := (obs.ChkptRef{Index: te.Chkpt.CFGIndex, Instance: te.Chkpt.Instance}); e.Chkpt != want {
			t.Fatalf("chkpt ref %+v, want %+v", e.Chkpt, want)
		}
	}
}

// TestObserverSpansIncarnations injects a failure and checks the stream
// records the rollback, the restart, and events from both incarnations —
// the trace alone only keeps the final one.
func TestObserverSpansIncarnations(t *testing.T) {
	rec := obs.NewRecorder()
	res, err := sim.Run(sim.Config{
		Program:  corpus.JacobiFig1(3),
		Nproc:    4,
		Failures: []sim.Failure{{Proc: 1, AfterEvents: 8}},
		Observer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	incs := map[int]int{}
	var rollbacks, restarts int
	for _, e := range rec.Events() {
		incs[e.Inc]++
		switch e.Kind {
		case obs.KindRollback:
			rollbacks++
			if e.Proc != -1 || e.Label == "" {
				t.Errorf("rollback event = %+v", e)
			}
		case obs.KindRestart:
			restarts++
		}
	}
	if rollbacks != 1 || restarts != 1 {
		t.Errorf("rollbacks=%d restarts=%d, want 1/1", rollbacks, restarts)
	}
	if incs[0] == 0 || incs[1] == 0 {
		t.Errorf("incarnation coverage = %v, want events in both", incs)
	}
}

// TestBlockedTimeAccounting runs SaS under virtual time and checks barrier
// stalls surface in all three sinks: the blocked-time counter, the
// distributions, and block events on the observer.
func TestBlockedTimeAccounting(t *testing.T) {
	rec := obs.NewRecorder()
	tm := sim.PaperTimeModel
	res, err := sim.Run(sim.Config{
		Program:  corpus.JacobiFig1(2),
		Nproc:    4,
		Hooks:    protocol.SaS(),
		Time:     &tm,
		Observer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Blocked <= 0 {
		t.Error("SaS run recorded no blocked wall time")
	}
	wall, okWall := res.Metrics.Hists[metrics.HistBlockedWallMS]
	if !okWall || wall.Count == 0 {
		t.Errorf("no %s distribution: %v", metrics.HistBlockedWallMS, res.Metrics.Hists)
	}
	stall, okStall := res.Metrics.Hists[metrics.HistBarrierStallV]
	if !okStall || stall.Count == 0 {
		t.Errorf("no %s distribution: %v", metrics.HistBarrierStallV, res.Metrics.Hists)
	}
	if save := res.Metrics.Hists[metrics.HistChkptSaveMS]; save.Count != res.Metrics.TotalCheckpoints() {
		t.Errorf("%s count = %d, want %d checkpoints", metrics.HistChkptSaveMS, save.Count, res.Metrics.TotalCheckpoints())
	}
	blocks := 0
	for _, e := range rec.Events() {
		if e.Kind == obs.KindBlock {
			blocks++
			if e.Tag != "ctrl" {
				t.Errorf("block event tag = %q", e.Tag)
			}
		}
	}
	if blocks == 0 {
		t.Error("no block events observed")
	}
	// The coordination-free scheme must stay free of all of it.
	free, err := sim.Run(sim.Config{Program: corpus.JacobiFig1(2), Nproc: 4, Time: &tm})
	if err != nil {
		t.Fatal(err)
	}
	if free.Metrics.Blocked != 0 {
		t.Errorf("appl-driven blocked = %v, want 0", free.Metrics.Blocked)
	}
	if _, ok := free.Metrics.Hists[metrics.HistBarrierStallV]; ok {
		t.Error("appl-driven run recorded barrier stalls")
	}
}

// TestObserversAgreeAcrossCrashAndRestore: four processes publish to a
// recorder (which keeps events), a stream (which encodes them on the spot)
// and the aggregator, one crashes, all restore. Afterwards every event the
// recorder kept must be the one the stream wrote at the time, message and
// checkpoint references included.
func TestObserversAgreeAcrossCrashAndRestore(t *testing.T) {
	rec := obs.NewRecorder()
	var buf bytes.Buffer
	stream := obs.NewStreamWriter(&buf)
	agg := telemetry.New(telemetry.Config{Nproc: 4})
	res, err := sim.Run(sim.Config{
		Program: corpus.JacobiFig1(6), Nproc: 4, Timeout: 20 * time.Second,
		Failures: []sim.Failure{{Proc: 2, AfterEvents: 14}},
		Observer: obs.Multi(rec, stream, agg),
	})
	if serr := stream.Close(); err != nil || serr != nil {
		t.Fatal(err, serr)
	}
	if res.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", res.Restarts)
	}
	// Both stamp seq per (inc, proc) in arrival order, and a process's
	// events arrive at both in its own program order.
	type id struct{ inc, proc, seq int }
	written := map[id]obs.Event{}
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var e obs.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		written[id{e.Inc, e.Proc, e.Seq}] = e
	}
	kept := rec.Events()
	if len(kept) != len(written) || int64(len(kept)) != agg.Snapshot().Total {
		t.Fatalf("recorder kept %d events, stream wrote %d, aggregator counted %d",
			len(kept), len(written), agg.Snapshot().Total)
	}
	msgs := 0
	for _, e := range kept {
		w := written[id{e.Inc, e.Proc, e.Seq}]
		if w.Kind != e.Kind || w.Msg != e.Msg || w.Chkpt != e.Chkpt {
			t.Fatalf("recorder kept %s %+v %+v, the stream wrote %s %+v %+v (inc %d proc %d seq %d)",
				e.Kind, e.Msg, e.Chkpt, w.Kind, w.Msg, w.Chkpt, e.Inc, e.Proc, e.Seq)
		}
		if e.Kind == obs.KindSend {
			msgs++
		}
	}
	if msgs == 0 {
		t.Fatal("no event carried a message")
	}
}
