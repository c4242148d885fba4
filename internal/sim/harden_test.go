package sim

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// flakyStore fails the next `fails` Save calls with storage.ErrTransient,
// then behaves normally — the minimal model of a storage brown-out.
type flakyStore struct {
	storage.Store
	fails int64
}

func (f *flakyStore) Save(s storage.Snapshot) error {
	if atomic.AddInt64(&f.fails, -1) >= 0 {
		return fmt.Errorf("%w: injected save fault", storage.ErrTransient)
	}
	return f.Store.Save(s)
}

func TestRetryRecoversTransientSaveFaults(t *testing.T) {
	p := corpus.JacobiFig1(4)
	clean := runOK(t, p, 4)
	flaky := &flakyStore{Store: storage.NewMemory(), fails: 2}
	res := runOK(t, p, 4, func(c *Config) {
		c.Store = flaky
	})
	if res.Restarts != 0 {
		t.Fatalf("restarts = %d, want 0 (retry should absorb the faults)", res.Restarts)
	}
	if got := res.Metrics.Custom[MetricStoreRetries]; got < 2 {
		t.Errorf("%s = %d, want >= 2", MetricStoreRetries, got)
	}
	if !reflect.DeepEqual(clean.FinalVars, res.FinalVars) {
		t.Errorf("flaky-store run diverged:\nclean: %v\nflaky: %v", clean.FinalVars, res.FinalVars)
	}
}

func TestExhaustedSaveBecomesCrashAndRecovers(t *testing.T) {
	p := corpus.JacobiFig1(4)
	clean := runOK(t, p, 4)
	// A budget that denies every retry: every injected fault immediately
	// exhausts its save, which must surface as a process crash followed by
	// ordinary recovery — never as a failed run.
	flaky := &flakyStore{Store: storage.NewMemory(), fails: 2}
	res := runOK(t, p, 4, func(c *Config) {
		c.Store = flaky
		c.RetryBudget = denyRetries{}
		c.MaxRestarts = 5
	})
	if res.Restarts < 1 {
		t.Fatalf("restarts = %d, want >= 1 (save outage must crash the process)", res.Restarts)
	}
	if got := res.Metrics.Custom[MetricStoreRetryExhausted]; got < 1 {
		t.Errorf("%s = %d, want >= 1", MetricStoreRetryExhausted, got)
	}
	if got := res.Metrics.Custom[MetricSaveCrashes]; got < 1 {
		t.Errorf("%s = %d, want >= 1", MetricSaveCrashes, got)
	}
	if !reflect.DeepEqual(clean.FinalVars, res.FinalVars) {
		t.Errorf("save-outage run diverged:\nclean: %v\ngot: %v", clean.FinalVars, res.FinalVars)
	}
}

// fsyncFailStore fails the next `fails` Save calls with storage.ErrFsync —
// the fsyncgate failure mode, where the fsync error is permanent because
// the kernel may already have dropped the dirty pages.
type fsyncFailStore struct {
	storage.Store
	fails    int64
	attempts atomic.Int64
}

func (f *fsyncFailStore) Save(s storage.Snapshot) error {
	f.attempts.Add(1)
	if atomic.AddInt64(&f.fails, -1) >= 0 {
		return fmt.Errorf("%w: injected fsync failure", storage.ErrFsync)
	}
	return f.Store.Save(s)
}

// TestFsyncFailureCrashesWithoutRetry pins the fsyncgate semantics: a Save
// failing with ErrFsync must NOT be retried as if transient — it becomes a
// process crash immediately, and the run recovers through the ordinary
// rollback path to the same final state.
func TestFsyncFailureCrashesWithoutRetry(t *testing.T) {
	p := corpus.JacobiFig1(4)
	clean := runOK(t, p, 4)
	st := &fsyncFailStore{Store: storage.NewMemory(), fails: 1}
	res := runOK(t, p, 4, func(c *Config) {
		c.Store = st
		c.MaxRestarts = 5
	})
	if res.Restarts < 1 {
		t.Fatalf("restarts = %d, want >= 1 (fsync failure must crash the process)", res.Restarts)
	}
	if got := res.Metrics.Custom[MetricSaveCrashes]; got < 1 {
		t.Errorf("%s = %d, want >= 1", MetricSaveCrashes, got)
	}
	// The one failed save must not have been retried: every attempt past
	// the first belongs to replay after recovery, not backoff.
	if got := res.Metrics.Custom[MetricStoreRetries]; got != 0 {
		t.Errorf("%s = %d, want 0 — ErrFsync was retried as if transient", MetricStoreRetries, got)
	}
	if !reflect.DeepEqual(clean.FinalVars, res.FinalVars) {
		t.Errorf("fsync-failure run diverged:\nclean: %v\ngot: %v", clean.FinalVars, res.FinalVars)
	}
}

func TestConcurrentCrashesConverge(t *testing.T) {
	p := corpus.JacobiFig1(4)
	clean := runOK(t, p, 4)
	res := runOK(t, p, 4, func(c *Config) {
		c.Crashes = []Crash{
			{Inc: 0, Proc: 0, AfterEvents: 6},
			{Inc: 0, Proc: 2, AfterEvents: 6},
		}
	})
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (both crashes fall in one incarnation)", res.Restarts)
	}
	if !reflect.DeepEqual(clean.FinalVars, res.FinalVars) {
		t.Errorf("concurrent-crash run diverged:\nclean: %v\ngot: %v", clean.FinalVars, res.FinalVars)
	}
}

func TestCrashDuringRecoveryConverges(t *testing.T) {
	p := corpus.JacobiFig1(4)
	clean := runOK(t, p, 4)
	// The second crash strikes incarnation 1 — while the application is
	// still replaying from the first recovery line.
	res := runOK(t, p, 4, func(c *Config) {
		c.Crashes = []Crash{
			{Inc: 0, Proc: 1, AfterEvents: 10},
			{Inc: 1, Proc: 2, AfterEvents: 6},
		}
	})
	if res.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", res.Restarts)
	}
	if !reflect.DeepEqual(clean.FinalVars, res.FinalVars) {
		t.Errorf("crash-during-recovery run diverged:\nclean: %v\ngot: %v", clean.FinalVars, res.FinalVars)
	}
}

func TestCrashCombinesWithPositionalFailures(t *testing.T) {
	p := corpus.JacobiFig1(4)
	clean := runOK(t, p, 4)
	// A Crash and a Failures entry name the same process in the same
	// incarnation: the earlier trigger (AfterEvents 4) must win.
	res := runOK(t, p, 4, func(c *Config) {
		c.Failures = []Failure{{Proc: 1, AfterEvents: 20}}
		c.Crashes = []Crash{{Inc: 0, Proc: 1, AfterEvents: 4}}
	})
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Restarts)
	}
	if !reflect.DeepEqual(clean.FinalVars, res.FinalVars) {
		t.Errorf("combined-schedule run diverged: %v vs %v", clean.FinalVars, res.FinalVars)
	}
}

func TestCrashValidation(t *testing.T) {
	p := corpus.JacobiFig1(3)
	if _, err := Run(Config{
		Program: p, Nproc: 3, Timeout: 5 * time.Second,
		Crashes: []Crash{{Inc: 0, Proc: 7, AfterEvents: 1}},
	}); err == nil {
		t.Error("out-of-range crash proc accepted")
	}
	if _, err := Run(Config{
		Program: p, Nproc: 3, Timeout: 5 * time.Second,
		Crashes: []Crash{{Inc: -1, Proc: 1, AfterEvents: 1}},
	}); err == nil {
		t.Error("negative crash incarnation accepted")
	}
	// The schedule is resolved once, before incarnation 0: an entry for an
	// incarnation the run may never reach is still checked.
	if _, err := Run(Config{
		Program: p, Nproc: 3, Timeout: 5 * time.Second,
		Failures: []Failure{{Proc: 0, AfterEvents: -1}, {Proc: 9, AfterEvents: 1}},
	}); err == nil {
		t.Error("out-of-range failure proc in a later incarnation accepted")
	}
}

func TestRetryExhaustionOnReadIsNotMaskedAsCrash(t *testing.T) {
	// Only checkpoint SAVES convert exhaustion into a crash; transient
	// exhaustion elsewhere still surfaces the typed error to the caller.
	inner := storage.NewMemory()
	rst := newRetryStore(&alwaysTransient{inner}, denyRetries{}, &metrics.Counters{}, nil)
	if _, err := rst.Latest(0, 1); !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("err = %v, want wrapped ErrTransient", err)
	}
}

// denyRetries is a RetryBudget that funds no retry: one attempt per operation.
type denyRetries struct{}

func (denyRetries) AllowRetry(string) bool { return false }

// alwaysTransient fails every operation transiently.
type alwaysTransient struct{ storage.Store }

func (a *alwaysTransient) Latest(proc, idx int) (storage.Snapshot, error) {
	return storage.Snapshot{}, fmt.Errorf("%w: down", storage.ErrTransient)
}
