// Package par is the repo's small parallel-execution engine: a bounded
// worker pool with order-preserving fan-out. Every compute-heavy sweep in
// the repository — Monte Carlo trial shards, the Figure 8/9 analytic
// sweeps, chkptbench's seed and scale loops — is embarrassingly parallel
// over independent items, so one shared primitive covers them all:
//
//   - Map runs f over every item on at most `workers` goroutines and
//     returns the results in input order, so parallel sweeps emit output
//     byte-identical to their serial form;
//   - ForEach is Map without result collection;
//   - the first error cancels the shared context, remaining workers drain
//     without starting new items, and the error reported is the one from
//     the lowest input index (deterministic regardless of scheduling).
//
// Work is handed out by an atomic cursor, not pre-chunked, so uneven item
// costs (e.g. Figure 8's n=1024 point vs its n=2 point) self-balance.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// InvalidWorkersError reports a negative worker count. Zero is not an
// error: it selects runtime.GOMAXPROCS(0).
type InvalidWorkersError struct {
	Workers int
}

func (e *InvalidWorkersError) Error() string {
	return fmt.Sprintf("par: Workers must be >= 0 (0 = GOMAXPROCS), got %d", e.Workers)
}

// Workers normalizes a requested worker count: 0 selects
// runtime.GOMAXPROCS(0), negative values are rejected with
// *InvalidWorkersError, and anything else passes through. Callers that
// also bound by item count should take min(workers, len(items))
// themselves; Map and ForEach already do.
func Workers(n int) (int, error) {
	if n < 0 {
		return 0, &InvalidWorkersError{Workers: n}
	}
	if n == 0 {
		return runtime.GOMAXPROCS(0), nil
	}
	return n, nil
}

// Map applies f to every item on at most workers goroutines and returns
// the results in input order. workers = 0 uses GOMAXPROCS; workers = 1 is
// fully serial (no goroutines are spawned, so it composes with code that
// must stay single-threaded). The context passed to f is cancelled as soon
// as any invocation fails; f implementations doing long loops should poll
// it. On error, the returned error is the failing invocation with the
// lowest index.
func Map[T, R any](ctx context.Context, workers int, items []T, f func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	w, err := Workers(workers)
	if err != nil {
		return nil, err
	}
	results := make([]R, len(items))
	if len(items) == 0 {
		return results, nil
	}
	if w > len(items) {
		w = len(items)
	}
	if w == 1 {
		for i := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := f(ctx, i, items[i])
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		cursor atomic.Int64
		mu     sync.Mutex
		firstI = len(items) // lowest failing index seen so far
		firstE error
		wg     sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < firstI {
			firstI, firstE = i, err
		}
		mu.Unlock()
		cancel()
	}
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(items) {
					return
				}
				fctx := cctx
				if cctx.Err() != nil {
					// Cancelled before f(i) ran: past the lowest failure or
					// under a cancelled parent (reported below) i cannot
					// decide the error; claimed before a failure above it, i
					// may fail lower, so it runs as in a serial Map.
					mu.Lock()
					above := i > firstI
					mu.Unlock()
					if above || ctx.Err() != nil {
						return
					}
					fctx = ctx
				}
				r, err := f(fctx, i, items[i])
				if err != nil {
					fail(i, err)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if firstE != nil {
		return nil, firstE
	}
	// No f invocation failed, but the parent context may have cancelled
	// the sweep before every item ran.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// ForEach is Map without result collection: f runs once per item on at
// most workers goroutines, the first error cancels the rest, and the
// error from the lowest input index is returned.
func ForEach[T any](ctx context.Context, workers int, items []T, f func(ctx context.Context, i int, item T) error) error {
	_, err := Map(ctx, workers, items, func(ctx context.Context, i int, item T) (struct{}, error) {
		return struct{}{}, f(ctx, i, item)
	})
	return err
}
