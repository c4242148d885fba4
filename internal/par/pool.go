package par

import "sync"

// Pool is the package's dynamic-submission counterpart to Map/ForEach:
// where those fan out over a slice known up front, a Pool accepts work
// discovered over time — an open-loop arrival process whose jobs do not
// exist yet when the pool starts. Submit hands one task to an idle worker,
// blocking while all workers are busy (callers wanting load-shedding
// instead of blocking must gate Submit behind their own admission check,
// as the fleet engine does). Close waits for every submitted task to
// finish.
type Pool struct {
	tasks chan func()
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// NewPool starts a pool of exactly `workers` goroutines (0 selects
// GOMAXPROCS; negative panics — the fleet sizes pools from validated
// config, so a bad count here is a programming error, not input).
func NewPool(workers int) *Pool {
	w, err := Workers(workers)
	if err != nil {
		panic(err)
	}
	p := &Pool{
		// Unbuffered: Submit blocks until a worker actually takes the
		// task, so "all workers busy" is observable by the caller rather
		// than hidden in a queue that collapses under sustained overload.
		tasks: make(chan func()),
	}
	p.wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer p.wg.Done()
			for task := range p.tasks {
				task()
			}
		}()
	}
	return p
}

// Submit hands task to an idle worker, blocking until one takes it.
// Submit after Close panics (send on closed channel): the pool's owner
// must stop admissions before closing — exactly the drain ordering the
// fleet engine enforces.
func (p *Pool) Submit(task func()) {
	p.tasks <- task
}

// Close stops accepting work and blocks until every submitted task has
// finished. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
