package sim

import (
	"errors"
	"fmt"
	"math/rand/v2"
	stdtime "time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Custom metrics counter names the hardened runtime records (in
// metrics.Snapshot.Custom). They are part of the metrics-stream contract:
// chaos soaks assert on them, and dashboards chart them.
const (
	// MetricStoreRetries counts storage operations retried after a
	// transient fault.
	MetricStoreRetries = "storage_retries"
	// MetricStoreRetryExhausted counts storage operations that kept
	// failing transiently through every backoff attempt.
	MetricStoreRetryExhausted = "storage_retry_exhausted"
	// MetricStoreRetryDenied counts retries a RetryBudget refused to fund:
	// the operation gave up early so a fleet-wide brownout does not
	// multiply into a retry storm.
	MetricStoreRetryDenied = "storage_retry_budget_denied"
	// MetricRecoveryDegraded accumulates recovery.Line.Degraded: candidate
	// recovery cuts skipped because their snapshots would not load.
	MetricRecoveryDegraded = "recovery_degraded"
	// MetricScrubQuarantined counts snapshots quarantined by pre-rollback
	// scrub passes.
	MetricScrubQuarantined = "storage_quarantined"
	// MetricSaveCrashes counts checkpoint saves that exhausted their
	// retries and were converted into a process crash (recovery then
	// rolls the application back instead of killing the run).
	MetricSaveCrashes = "chkpt_save_crashes"
)

// Retry tuning: capped exponential backoff with ±50% jitter. The base is
// small because simulated storage faults clear quickly; the cap bounds
// recovery latency when a fault burst hits every attempt.
const (
	storeAttempts = 6 // tries per operation, the first included
	retryBase     = 1 * stdtime.Millisecond
	retryCap      = 50 * stdtime.Millisecond
	jitterFrac    = 0.5
)

// RetryBudget gates retries beyond the per-operation attempt cap. A fleet
// driver hands every job of one tenant the same budget, so a storage
// brownout hitting a thousand jobs at once costs a bounded number of
// retries fleet-wide instead of a thousand independent backoff storms.
// Implementations must be safe for concurrent use.
type RetryBudget interface {
	// AllowRetry reports whether one more retry of op may be spent. A
	// denial converts the pending transient error into immediate
	// exhaustion (the operation fails as if every attempt were used).
	AllowRetry(op string) bool
}

// backoff returns the pre-jitter delay before retry attempt `retry`
// (1-based: backoff(1) precedes the first retry): retryBase doubled per
// step, capped at retryCap.
func backoff(retry int) stdtime.Duration {
	d := retryBase
	for i := 1; i < retry && d < retryCap; i++ {
		d *= 2
	}
	return min(d, retryCap)
}

// retryStore wraps the run's stable storage with bounded retry on
// transient faults (storage.ErrTransient): capped exponential backoff plus
// jitter, a retry counter, and a retry event per attempt on the
// observer. Non-transient errors (not-found, duplicate, corrupt) pass
// through untouched — retrying cannot fix them and the recovery layer
// handles them by degrading.
type retryStore struct {
	inner    storage.Store
	budget   RetryBudget // nil: the attempt cap alone bounds retry
	counters *metrics.Counters
	obsv     obs.Observer
}

var _ storage.Store = (*retryStore)(nil)

// newRetryStore wraps inner; budget, when non-nil, is consulted before
// every retry.
func newRetryStore(inner storage.Store, budget RetryBudget, counters *metrics.Counters, obsv obs.Observer) *retryStore {
	return &retryStore{inner: inner, budget: budget, counters: counters, obsv: obsv}
}

// retry runs one store operation with retry-on-transient. It returns the
// final error, still matching storage.ErrTransient when every attempt failed
// transiently.
func retry[T any](r *retryStore, op string, f func() (T, error)) (v T, err error) {
	for attempt := 0; attempt < storeAttempts; attempt++ {
		if attempt > 0 {
			if r.budget != nil && !r.budget.AllowRetry(op) {
				r.counters.Inc(MetricStoreRetryDenied, 1)
				r.counters.Inc(MetricStoreRetryExhausted, 1)
				return v, fmt.Errorf("sim: storage %s retry budget exhausted after %d attempts: %w", op, attempt, err)
			}
			r.counters.Inc(MetricStoreRetries, 1)
			if r.obsv != nil {
				r.obsv.OnEvent(obs.Event{
					Kind: obs.KindRetry, Proc: -1, Inc: -1,
					Tag: op, Label: err.Error(),
				})
			}
			stdtime.Sleep(r.jittered(backoff(attempt)))
		}
		v, err = f()
		if err == nil || !errors.Is(err, storage.ErrTransient) {
			return v, err
		}
	}
	r.counters.Inc(MetricStoreRetryExhausted, 1)
	return v, fmt.Errorf("sim: storage %s failed after %d attempts: %w", op, storeAttempts, err)
}

// retry0 is retry for an operation that returns only an error.
func retry0(r *retryStore, op string, f func() error) error {
	_, err := retry(r, op, func() (struct{}, error) { return struct{}{}, f() })
	return err
}

// jittered perturbs d by ±jitterFrac so synchronized retries from many
// processes spread out instead of hammering storage in lockstep. It moves
// wall time only, so nothing pins its sequence.
func (r *retryStore) jittered(d stdtime.Duration) stdtime.Duration {
	return stdtime.Duration(float64(d) * (1 - jitterFrac + 2*jitterFrac*rand.Float64()))
}

func (r *retryStore) Save(s storage.Snapshot) error {
	return retry0(r, "save", func() error { return r.inner.Save(s) })
}

func (r *retryStore) Get(proc, cfgIndex, instance int) (storage.Snapshot, error) {
	return retry(r, "get", func() (storage.Snapshot, error) { return r.inner.Get(proc, cfgIndex, instance) })
}

func (r *retryStore) Latest(proc, cfgIndex int) (storage.Snapshot, error) {
	return retry(r, "latest", func() (storage.Snapshot, error) { return r.inner.Latest(proc, cfgIndex) })
}

func (r *retryStore) List(proc int) ([]storage.Snapshot, error) { return storage.List(r, proc) }

func (r *retryStore) Indexes(n int) ([]int, error) { return storage.Indexes(r, n) }

func (r *retryStore) Delete(proc, cfgIndex, instance int) error {
	return retry0(r, "delete", func() error { return r.inner.Delete(proc, cfgIndex, instance) })
}

// Keys implements storage.KeyLister, so rollback names what to discard
// through the retry layer without loading it.
func (r *retryStore) Keys(proc int) ([]storage.Key, error) {
	return retry(r, "keys", func() ([]storage.Key, error) { return storage.Keys(r.inner, proc) })
}

// Scrub implements storage.Scrubber, so the pre-rollback scrub is retried
// and budgeted like every other call of the run (a store that cannot scrub
// reports a clean no-op).
func (r *retryStore) Scrub() (storage.ScrubReport, error) {
	return retry(r, "scrub", func() (storage.ScrubReport, error) { return storage.Scrub(r.inner) })
}
