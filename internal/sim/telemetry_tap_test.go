package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestConfigCountersLiveTap: a caller-supplied Counters is the run's real
// sink — visible mid-run by construction — and its owner snapshots it: the
// tap ends with the totals a private run reports in Result.Metrics, and the
// tapped run's own Result.Metrics stays zero.
func TestConfigCountersLiveTap(t *testing.T) {
	private, err := sim.Run(sim.Config{Program: corpus.JacobiFig1(3), Nproc: 4})
	if err != nil {
		t.Fatal(err)
	}
	counters := &metrics.Counters{}
	res, err := sim.Run(sim.Config{
		Program:  corpus.JacobiFig1(3),
		Nproc:    4,
		Counters: counters,
	})
	if err != nil {
		t.Fatal(err)
	}
	live, want := counters.Snapshot(), private.Metrics
	if want.Checkpoints == 0 || want.AppMessages == 0 {
		t.Fatalf("private run reports no work: %v", want)
	}
	if live.Checkpoints != want.Checkpoints || live.AppMessages != want.AppMessages {
		t.Errorf("live tap diverges from a private run's Result.Metrics: %v vs %v", live, want)
	}
	if !reflect.DeepEqual(res.Metrics, metrics.Snapshot{}) {
		t.Errorf("Result.Metrics with a caller's Counters = %v, want zero", res.Metrics)
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

// TestRunAllocsIndependentOfTap: a run fed into a caller's Counters pays
// for its own work only. The same program allocates the same into a fresh
// tap as into one a fleet has already filled with 64 counters and 8
// distributions: nothing copies the tap per run.
func TestRunAllocsIndependentOfTap(t *testing.T) {
	code, err := sim.Compile(corpus.JacobiFig1(2))
	if err != nil {
		t.Fatal(err)
	}
	full := &metrics.Counters{}
	for i := range 64 {
		full.Inc(fmt.Sprintf("fleet_other_%02d", i), i+1)
	}
	for i := range 8 {
		full.ObserveHist(fmt.Sprintf("fleet_dist_%d", i), float64(i+1))
	}
	allocs := func(tap *metrics.Counters) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := sim.Run(sim.Config{Code: code, Nproc: 2, Counters: tap, DisableTrace: true}); err != nil {
				t.Fatal(err)
			}
		})
	}
	fresh, filled := allocs(&metrics.Counters{}), allocs(full)
	t.Logf("a run allocates %.0f objects into a fresh tap, %.0f into a filled one", fresh, filled)
	if fresh != filled {
		t.Errorf("a run into a filled tap allocates %.0f objects, into a fresh one %.0f: the run pays for the tap", filled, fresh)
	}
}
