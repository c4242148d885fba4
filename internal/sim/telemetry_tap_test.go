package sim_test

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestConfigCountersLiveTap: a caller-supplied Counters is the run's real
// sink — visible mid-run by construction — and Result.Metrics snapshots it.
func TestConfigCountersLiveTap(t *testing.T) {
	counters := &metrics.Counters{}
	res, err := sim.Run(sim.Config{
		Program:  corpus.JacobiFig1(3),
		Nproc:    4,
		Counters: counters,
	})
	if err != nil {
		t.Fatal(err)
	}
	live := counters.Snapshot()
	if live.Checkpoints == 0 || live.AppMessages == 0 {
		t.Fatalf("caller's counters not fed: %+v", live)
	}
	if live.Checkpoints != res.Metrics.Checkpoints || live.AppMessages != res.Metrics.AppMessages {
		t.Errorf("live tap diverges from Result.Metrics: %v vs %v", live, res.Metrics)
	}
}

// TestChkptEventsCarrySaveDuration: every checkpoint observer event holds
// the wall time its save took and the virtual time it completed at — the
// raw signals live telemetry turns into save-latency percentiles and each
// process's last-save time and checkpoint lag.
func TestChkptEventsCarrySaveDuration(t *testing.T) {
	rec := obs.NewRecorder()
	agg := telemetry.New(telemetry.Config{Nproc: 4})
	tm := sim.PaperTimeModel
	_, err := sim.Run(sim.Config{
		Program:  corpus.JacobiFig1(3),
		Nproc:    4,
		Observer: obs.Multi(rec, agg),
		Time:     &tm,
	})
	if err != nil {
		t.Fatal(err)
	}
	chkpts := 0
	for _, e := range rec.Events() {
		if e.Kind != obs.KindChkpt {
			continue
		}
		chkpts++
		if e.DurNS <= 0 {
			t.Fatalf("checkpoint event without save duration: %+v", e)
		}
	}
	if chkpts == 0 {
		t.Fatal("no checkpoint events observed")
	}
	procs := agg.Snapshot().Procs
	if len(procs) != 4 {
		t.Fatalf("aggregator rows = %d, want 4", len(procs))
	}
	for _, ps := range procs {
		if ps.LastSaveV <= 0 {
			t.Errorf("proc %d LastSaveV = %g, want a positive virtual save time", ps.Proc, ps.LastSaveV)
		}
	}
}
