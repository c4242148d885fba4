package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/vclock"
)

func TestRetryPolicyBackoffSchedule(t *testing.T) {
	tests := []struct {
		name  string
		retry int
		want  time.Duration
	}{
		{"default first retry", 1, time.Millisecond},
		{"default doubles", 2, 2 * time.Millisecond},
		{"default keeps doubling", 5, 16 * time.Millisecond},
		{"default hits cap", 7, 50 * time.Millisecond},
		{"default stays at cap", 100, 50 * time.Millisecond},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := backoff(tt.retry); got != tt.want {
				t.Errorf("backoff(%d) = %v, want %v", tt.retry, got, tt.want)
			}
		})
	}
}

// An always-transient operation is tried storeAttempts (6) times: five
// retries, then one exhaustion. Below that cap, a RetryBudget funding
// attempts-1 retries ends the operation after exactly `attempts` tries.
func TestRetryStoreHonorsAttemptCap(t *testing.T) {
	for _, attempts := range []int{1, 2, 5, storeAttempts} {
		t.Run(fmt.Sprintf("attempts=%d", attempts), func(t *testing.T) {
			var calls atomic.Int64
			st := &countingTransient{calls: &calls}
			c := &metrics.Counters{}
			var budget RetryBudget
			wantDenied := int64(0)
			if attempts < storeAttempts {
				b := &fixedBudget{}
				b.left.Store(int64(attempts - 1))
				budget, wantDenied = b, 1
			}
			rst := newRetryStore(st, budget, c, nil)
			_, err := rst.Latest(0, 1)
			if !errors.Is(err, storage.ErrTransient) {
				t.Fatalf("err = %v, want wrapped ErrTransient", err)
			}
			if got := calls.Load(); got != int64(attempts) {
				t.Errorf("inner store called %d times, want %d", got, attempts)
			}
			snap := c.Snapshot()
			if got := snap.Custom[MetricStoreRetries]; got != int64(attempts-1) {
				t.Errorf("%s = %d, want %d", MetricStoreRetries, got, attempts-1)
			}
			if got := snap.Custom[MetricStoreRetryExhausted]; got != 1 {
				t.Errorf("%s = %d, want 1", MetricStoreRetryExhausted, got)
			}
			if got := snap.Custom[MetricStoreRetryDenied]; got != wantDenied {
				t.Errorf("%s = %d, want %d", MetricStoreRetryDenied, got, wantDenied)
			}
		})
	}
}

// fixedBudget allows the first n retries and denies the rest.
type fixedBudget struct{ left atomic.Int64 }

func (b *fixedBudget) AllowRetry(op string) bool {
	return b.left.Add(-1) >= 0
}

func TestRetryBudgetDenialStopsRetrying(t *testing.T) {
	var calls atomic.Int64
	st := &countingTransient{calls: &calls}
	budget := &fixedBudget{}
	budget.left.Store(2)
	c := &metrics.Counters{}
	rst := newRetryStore(st, budget, c, nil)
	_, err := rst.Latest(0, 1)
	if !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("err = %v, want wrapped ErrTransient", err)
	}
	// 1 initial try + 2 funded retries; the third retry is denied.
	if got := calls.Load(); got != 3 {
		t.Errorf("inner store called %d times, want 3", got)
	}
	snap := c.Snapshot()
	if got := snap.Custom[MetricStoreRetryDenied]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricStoreRetryDenied, got)
	}
	if got := snap.Custom[MetricStoreRetryExhausted]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricStoreRetryExhausted, got)
	}
	if got := snap.Custom[MetricStoreRetries]; got != 2 {
		t.Errorf("%s = %d, want 2", MetricStoreRetries, got)
	}
}

func TestRetryBudgetNotChargedOnSuccess(t *testing.T) {
	budget := &fixedBudget{}
	budget.left.Store(100)
	rst := newRetryStore(storage.NewMemory(), budget, &metrics.Counters{}, nil)
	if err := rst.Save(storage.Snapshot{Proc: 0, CFGIndex: 1, Instance: 1, Clock: vclock.VC{1}}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if got := budget.left.Load(); got != 100 {
		t.Errorf("budget charged %d retries for a first-try success", 100-got)
	}
}

// countingTransient fails every operation transiently and counts calls.
type countingTransient struct {
	storage.Store
	calls *atomic.Int64
}

func (c *countingTransient) Latest(proc, idx int) (storage.Snapshot, error) {
	c.calls.Add(1)
	return storage.Snapshot{}, fmt.Errorf("%w: down", storage.ErrTransient)
}
