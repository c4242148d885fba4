package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsEverySubmittedTask(t *testing.T) {
	p := NewPool(4)
	var ran atomic.Int64
	for i := 0; i < 100; i++ {
		p.Submit(func() { ran.Add(1) })
	}
	p.Close()
	if got := ran.Load(); got != 100 {
		t.Fatalf("ran %d tasks, want 100", got)
	}
}

func TestPoolCloseWaitsForInFlight(t *testing.T) {
	p := NewPool(2)
	var done atomic.Bool
	release := make(chan struct{})
	p.Submit(func() {
		<-release
		done.Store(true)
	})
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	p.Close()
	if !done.Load() {
		t.Fatal("Close returned before the in-flight task finished")
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(1)
	p.Submit(func() {})
	p.Close()
	p.Close() // must not panic on double close
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		p.Submit(func() {
			defer wg.Done()
			n := cur.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		})
	}
	wg.Wait()
	p.Close()
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent tasks, want <= %d", got, workers)
	}
}
