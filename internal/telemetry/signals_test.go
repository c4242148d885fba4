package telemetry_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestHealthSignalsUnderSeededChaos is the end-to-end acceptance check for
// the health detectors: a seeded Poisson crash schedule drives a real run
// into rollbacks while the aggregator taps the observer fan-out, and all
// three signals — rollback storm, checkpoint lag, stall — must then appear
// BOTH in the Prometheus exposition and in the JSONL event stream.
func TestHealthSignalsUnderSeededChaos(t *testing.T) {
	const nproc = 4

	var jsonl bytes.Buffer
	stream := obs.NewStreamWriter(&jsonl)
	rec := obs.NewRecorder()
	sink := obs.Multi(rec, stream) // detector verdicts land in both artifacts

	counters := &metrics.Counters{}
	agg := telemetry.New(telemetry.Config{
		Nproc:        nproc,
		Window:       time.Hour, // ticked by hand below
		Counters:     counters,
		Sink:         sink,
		LagThreshold: 1e-9, // any unsaved progress at quiesce counts
	})

	// A seeded crash schedule with λ=2 over 4 procs and crashes across
	// three incarnations: several distinct rollback episodes are
	// guaranteed for this (seed, program) pair, pinned by the assert below.
	crashes := chaos.CrashSchedule(3, chaos.ScheduleConfig{
		Nproc: nproc, Lambda: 2, MaxEvents: 30, MaxIncarnations: 3,
	})
	if len(crashes) == 0 {
		t.Fatal("seed 3 produced no crashes; pick another seed")
	}
	tm := sim.PaperTimeModel
	res, err := sim.Run(sim.Config{
		Program:  corpus.JacobiFig1(4),
		Nproc:    nproc,
		Crashes:  crashes,
		Time:     &tm,
		Observer: obs.Multi(agg, stream), // runtime events reach both too
		Counters: counters,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The run fed the tap, so the tap, not Result.Metrics, holds its counts.
	runRollbacks := counters.Snapshot().Rollbacks
	if runRollbacks < 2 {
		t.Fatalf("chaos schedule caused only %d rollbacks; detectors cannot fire", runRollbacks)
	}

	// Close the first window: the run's rollbacks land in one delta →
	// storm; every proc that quiesced past its last save trips lag.
	agg.Tick()

	// Stall: one synthetic in-flight event marks proc 0 active-not-halted,
	// then eight silent windows trip the detector.
	agg.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: 0, VTime: res.VTime})
	for i := 0; i < 9; i++ {
		agg.Tick()
	}

	snap := agg.Snapshot()
	if snap.Health.Storms < 1 {
		t.Errorf("no rollback storm detected (rollbacks=%d)", runRollbacks)
	}
	if snap.Health.LagAlerts < 1 {
		t.Error("no checkpoint-lag alert")
	}
	if snap.Health.Stalls < 1 {
		t.Error("no stall detected")
	}
	if snap.Healthy() {
		t.Error("snapshot claims healthy with active stall")
	}

	// Signal surface 1: Prometheus exposition.
	var prom bytes.Buffer
	if err := telemetry.WriteProm(&prom, snap); err != nil {
		t.Fatal(err)
	}
	fams := mustParseProm(t, prom.Bytes())
	for fam, min := range map[string]float64{
		"chkptsim_health_storms_total":     1,
		"chkptsim_health_lag_alerts_total": 1,
		"chkptsim_health_stalls_total":     1,
	} {
		f := fams[fam]
		if f == nil || len(f.samples) == 0 || f.samples[0].value < min {
			t.Errorf("exposition: %s < %g", fam, min)
		}
	}
	// The rollbacks that caused the storm are visible through the tap.
	var rollbacks float64
	for _, s := range fams["chkptsim_counter_total"].samples {
		if s.labels["name"] == "rollbacks" {
			rollbacks = s.value
		}
	}
	if rollbacks != float64(runRollbacks) {
		t.Errorf("exposition rollbacks %g != run's %d", rollbacks, runRollbacks)
	}

	// Signal surface 2: the JSONL event stream.
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}
	got := map[obs.Kind]int{}
	for _, line := range bytes.Split(jsonl.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("malformed JSONL line %q: %v", line, err)
		}
		got[e.Kind]++
	}
	for _, k := range []obs.Kind{obs.KindStorm, obs.KindLag, obs.KindStall, obs.KindRollback} {
		if got[k] == 0 {
			t.Errorf("JSONL stream has no %s events (kinds: %v)", k, got)
		}
	}

	// The recorder sink saw the same verdicts (shared fan-out).
	recKinds := map[obs.Kind]int{}
	for _, e := range rec.Events() {
		recKinds[e.Kind]++
	}
	if recKinds[obs.KindStorm] != got[obs.KindStorm] || recKinds[obs.KindStall] != got[obs.KindStall] {
		t.Errorf("recorder and stream disagree on verdicts: rec=%v stream=%v", recKinds, got)
	}
}

// TestHealthSignalsQuietRun: a clean run must stay quiet — no detector
// may fire without cause.
func TestHealthSignalsQuietRun(t *testing.T) {
	sink := obs.NewRecorder()
	agg := telemetry.New(telemetry.Config{Nproc: 4, Window: time.Hour, Sink: sink})
	_, err := sim.Run(sim.Config{
		Program:  corpus.JacobiFig1(3),
		Nproc:    4,
		Observer: agg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		agg.Tick() // all procs ended on halt: silence is completion
	}
	snap := agg.Snapshot()
	if snap.Health.Storms != 0 || snap.Health.Stalls != 0 || snap.Health.LagAlerts != 0 {
		t.Errorf("detectors fired on a clean run: %+v (%v)", snap.Health, sink.Events())
	}
	if !snap.Healthy() {
		t.Error("clean run reported unhealthy")
	}
	halted := 0
	for _, p := range snap.Procs {
		if p.Halted {
			halted++
		}
	}
	if halted != 4 {
		t.Errorf("want 4 halted procs, got %d", halted)
	}
}
