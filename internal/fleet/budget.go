package fleet

import (
	"sync/atomic"

	"repro/internal/sim"
)

// RetryBudget is a token bucket implementing sim.RetryBudget for one
// tenant. Every job admitted for the tenant deposits a fixed number of
// tokens (capped), and every storage retry by any of the tenant's jobs
// withdraws one. The effect is Finagle-style budgeted retry at fleet
// scope: retry capacity grows with admitted work, so a healthy tenant
// retries freely, while a storage brownout hitting a thousand concurrent
// jobs can only spend the bounded pool — the excess fails fast instead of
// compounding the brownout with synchronized backoff storms.
type RetryBudget struct {
	tokens atomic.Int64
	cap    int64
}

var _ sim.RetryBudget = (*RetryBudget)(nil)

// NewRetryBudget returns a budget holding `initial` tokens, never
// accumulating beyond cap (cap <= 0 means uncapped).
func NewRetryBudget(initial, cap int64) *RetryBudget {
	b := &RetryBudget{cap: cap}
	if initial > 0 {
		b.tokens.Store(initial)
	}
	return b
}

// Deposit adds n tokens, clamped at the cap.
func (b *RetryBudget) Deposit(n int64) {
	if n <= 0 {
		return
	}
	for {
		old := b.tokens.Load()
		next := old + n
		if b.cap > 0 && next > b.cap {
			next = b.cap
		}
		if next == old || b.tokens.CompareAndSwap(old, next) {
			return
		}
	}
}

// AllowRetry implements sim.RetryBudget: it withdraws one token, or
// refuses when the pool is dry.
func (b *RetryBudget) AllowRetry(op string) bool {
	for {
		old := b.tokens.Load()
		if old <= 0 {
			return false
		}
		if b.tokens.CompareAndSwap(old, old-1) {
			return true
		}
	}
}
