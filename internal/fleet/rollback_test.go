package fleet

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/storage"
)

// runStacked runs one crashing job the way Engine.runJob does — the
// runtime's retry layer over Namespace over Breaker over shared — and
// requires it to finish in the state of a failure-free run.
func runStacked(t *testing.T, shared storage.Store, bc BreakerConfig) (*Breaker, metrics.Snapshot) {
	t.Helper()
	cfg := sim.Config{
		Program: corpus.JacobiFig1(4), Nproc: 3, DisableTrace: true,
		Input:   func(rank, i int) int { return rank + i },
		Timeout: 10 * time.Second,
	}
	clean, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	brk := NewBreaker(shared, bc)
	ns, err := storage.NewNamespace(brk, 5, cfg.Nproc)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = ns
	cfg.Crashes = []sim.Crash{{Inc: 0, Proc: 1, AfterEvents: 14}}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if res.Restarts != 1 || !reflect.DeepEqual(res.FinalVars, clean.FinalVars) {
		t.Fatalf("restarts = %d, final %v; want 1 restart and %v", res.Restarts, res.FinalVars, clean.FinalVars)
	}
	return brk, res.Metrics
}

// Every checkpoint of the job is bit-flipped. Recovery must walk the ladder
// to the bottom and restart from the initial state; selecting through the
// namespace used to die on the first quarantined key instead
// ("storage: snapshot corrupt: chaos: bit flip").
func TestNamespacedRecoveryDegradesOverQuarantinedKeys(t *testing.T) {
	shared := chaos.New(storage.NewMemory(), 3, chaos.Rates{BitFlip: 1}, nil)
	_, m := runStacked(t, shared, BreakerConfig{})
	if shared.Stats().BitFlips == 0 || m.Custom[sim.MetricScrubQuarantined] == 0 {
		t.Errorf("bit flips = %d, quarantined = %d; the scenario needs both", shared.Stats().BitFlips, m.Custom[sim.MetricScrubQuarantined])
	}
}

// scrubFaults fails its first Scrub calls transiently.
type scrubFaults struct {
	storage.Store
	left atomic.Int32
}

func (s *scrubFaults) Scrub() (storage.ScrubReport, error) {
	if s.left.Add(-1) >= 0 {
		return storage.ScrubReport{}, fmt.Errorf("%w: scrub brownout", storage.ErrTransient)
	}
	return storage.ScrubReport{}, nil
}

// The pre-rollback scrub faults breakerTrip times in a row. The retry layer
// retries each fault, the run of faults trips the breaker, and because the
// breaker's clock steps 60 ms per read (past the cooldown) the next scrub
// runs as the half-open probe and succeeds. Scrub used to bypass the retry
// layer: the first fault failed the job outright. Shedding a scrub while
// open is covered by TestBreakerForwardsScrubber.
func TestPreRollbackScrubIsRetried(t *testing.T) {
	shared := &scrubFaults{Store: storage.NewMemory()}
	shared.left.Store(breakerTrip)
	now := time.Unix(0, 0)
	step := func() time.Time { // read under the breaker's mutex only
		now = now.Add(60 * time.Millisecond)
		return now
	}
	brk, m := runStacked(t, shared, BreakerConfig{Now: step})
	if st := brk.Stats(); st.Opened == 0 {
		t.Errorf("breaker never opened: %+v", st)
	}
	if m.Custom[sim.MetricStoreRetries] == 0 {
		t.Error("no storage retry counted")
	}
}
