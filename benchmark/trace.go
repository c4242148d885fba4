package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/storage"
)

// Tracing is done from outside the program: spans are recorded by this
// package around its calls into each layer (a timing storage.Store wrapper,
// the sim.Config.Recover hook, a sim.Config.Observer, direct timing of the
// pipeline entry points). A nil *tracer is the untraced run: the measured
// window carries no wrapper, hook or observer.

// span is one layer call. Start and End are nanoseconds since the tracer
// was created; Parent is the ID of the span that caused it (0 = none).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Job    int    `json:"job"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans of one traced window in memory. Recording is
// lock-free — a slot is claimed with one atomic add and written only by the
// goroutine that claimed it — because the four processes of a job save
// concurrently: a shared mutex would park them on each other and the wait
// would land inside the very spans being measured.
type tracer struct {
	t0 time.Time

	n      atomic.Int64
	chunks [maxChunks]atomic.Pointer[[chunkSpans]span]

	events        atomic.Int64 // obs events seen
	procEvents    atomic.Int64 // of those, events of a process's history
	storageErrors atomic.Int64
	inflight      atomic.Int32
	inflightMax   atomic.Int32
}

const (
	chunkSpans = 1 << 14
	maxChunks  = 1 << 12 // 67M spans: hours of the busiest workload
)

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// claim returns a fresh slot and its span ID.
func (t *tracer) claim() (*span, int32) {
	i := t.n.Add(1) - 1
	return t.slot(i), int32(i + 1)
}

func (t *tracer) slot(i int64) *span {
	c := &t.chunks[i/chunkSpans]
	p := c.Load()
	if p == nil {
		p = new([chunkSpans]span)
		if !c.CompareAndSwap(nil, p) {
			p = c.Load()
		}
	}
	return &p[i%chunkSpans]
}

// begin opens a span and returns its ID. On a nil tracer — the untraced
// run — begin and end do nothing, so call sites need no guard.
func (t *tracer) begin(name string, op, job int, parent int32) int32 {
	if t == nil {
		return 0
	}
	s, id := t.claim()
	*s = span{Name: name, Op: op, Job: job, ID: id, Parent: parent}
	s.Start = t.now() // last: the bookkeeping above is not part of the span
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	end := t.now()
	t.slot(int64(id - 1)).End = end
}

// add records a span whose interval was observed elsewhere.
func (t *tracer) add(name string, op, job int, parent int32, start, end int64) {
	s, id := t.claim()
	*s = span{Name: name, Op: op, Job: job, ID: id, Parent: parent, Start: start, End: end}
}

// spans returns everything recorded, in claim order. Call it only after
// the traced window has returned.
func (t *tracer) spans() []span {
	n := t.n.Load()
	out := make([]span, n)
	for i := range out {
		out[i] = *t.slot(int64(i))
	}
	return out
}

// writeSpans writes one span per line.
func writeSpans(path string, spans []span) error {
	return obs.WriteFile(path, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		enc := json.NewEncoder(bw)
		for i := range spans {
			if err := enc.Encode(&spans[i]); err != nil {
				return err
			}
		}
		return bw.Flush()
	})
}

// timedStore records one span per storage call of one operation. parent is
// swapped by the recovery hook so the reads recovery-line selection makes
// hang under its span instead of the run's.
type timedStore struct {
	inner  storage.Store
	t      *tracer
	op     int
	job    int
	parent atomic.Int32
}

// timedScrubStore is a timedStore over a store that can scrub. The runtime
// finds storage.Scrubber by type assertion, so the wrapper must implement
// it exactly when the wrapped store does: a plain six-method wrapper would
// silently disable scrub-before-rollback in the traced run.
type timedScrubStore struct {
	*timedStore
	scrubber storage.Scrubber
}

// wrapStore returns inner behind a timing wrapper, and the wrapper's core
// (for re-parenting).
func wrapStore(inner storage.Store, t *tracer, op, job int, parent int32) (storage.Store, *timedStore) {
	ts := &timedStore{inner: inner, t: t, op: op, job: job}
	ts.parent.Store(parent)
	if scr, ok := inner.(storage.Scrubber); ok {
		return &timedScrubStore{ts, scr}, ts
	}
	return ts, ts
}

func (s *timedStore) done(id int32, err error) {
	s.t.end(id)
	if err != nil {
		s.t.storageErrors.Add(1)
	}
}

func (s *timedStore) Save(snap storage.Snapshot) error {
	n := s.t.inflight.Add(1)
	for {
		m := s.t.inflightMax.Load()
		if n <= m || s.t.inflightMax.CompareAndSwap(m, n) {
			break
		}
	}
	id := s.t.begin("storage.save", s.op, s.job, s.parent.Load())
	err := s.inner.Save(snap)
	s.done(id, err)
	s.t.inflight.Add(-1)
	return err
}

func (s *timedStore) Latest(proc, cfgIndex int) (storage.Snapshot, error) {
	id := s.t.begin("storage.latest", s.op, s.job, s.parent.Load())
	snap, err := s.inner.Latest(proc, cfgIndex)
	s.done(id, err)
	return snap, err
}

func (s *timedStore) Get(proc, cfgIndex, instance int) (storage.Snapshot, error) {
	id := s.t.begin("storage.get", s.op, s.job, s.parent.Load())
	snap, err := s.inner.Get(proc, cfgIndex, instance)
	s.done(id, err)
	return snap, err
}

func (s *timedStore) List(proc int) ([]storage.Snapshot, error) {
	id := s.t.begin("storage.list", s.op, s.job, s.parent.Load())
	snaps, err := s.inner.List(proc)
	s.done(id, err)
	return snaps, err
}

func (s *timedStore) Indexes(n int) ([]int, error) {
	id := s.t.begin("storage.indexes", s.op, s.job, s.parent.Load())
	idx, err := s.inner.Indexes(n)
	s.done(id, err)
	return idx, err
}

func (s *timedStore) Delete(proc, cfgIndex, instance int) error {
	id := s.t.begin("storage.delete", s.op, s.job, s.parent.Load())
	err := s.inner.Delete(proc, cfgIndex, instance)
	s.done(id, err)
	return err
}

func (s *timedScrubStore) Scrub() (storage.ScrubReport, error) {
	id := s.t.begin("storage.scrub", s.op, s.job, s.parent.Load())
	rep, err := s.scrubber.Scrub()
	s.done(id, err)
	return rep, err
}

// recoverHook is the sim.Config.Recover of a traced run: recovery.StraightCut
// — the runtime's default — inside a recovery.select span.
func (s *timedStore) recoverHook(runSpan int32) func(storage.Store, int) (*recovery.Line, error) {
	return func(st storage.Store, n int) (*recovery.Line, error) {
		id := s.t.begin("recovery.select", s.op, s.job, runSpan)
		s.parent.Store(id)
		line, err := recovery.StraightCut(st, n)
		s.parent.Store(runSpan)
		s.t.end(id)
		return line, err
	}
}

// jobObserver is the sim.Config.Observer of one traced run: it counts
// events and turns each rollback → restart gap into a sim.restore span.
type jobObserver struct {
	t        *tracer
	op, job  int
	parent   int32
	rollback atomic.Int64
}

func (o *jobObserver) OnEvent(e obs.Event) {
	o.t.events.Add(1)
	if isProcEvent(e) {
		o.t.procEvents.Add(1)
	}
	switch e.Kind {
	case obs.KindRollback:
		o.rollback.Store(o.t.now())
	case obs.KindRestart:
		o.t.add("sim.restore", o.op, o.job, o.parent, o.rollback.Load(), o.t.now())
	}
}

// isProcEvent reports whether e is an entry of a process's local history
// — what a crash's AfterEvents counts and what a rollback makes a process
// execute again — as opposed to a run-level lifecycle event.
func isProcEvent(e obs.Event) bool {
	switch e.Kind {
	case obs.KindCompute, obs.KindSend, obs.KindRecv, obs.KindChkpt:
		return e.Proc >= 0
	}
	return false
}

// eventCounter is the observer of a set-up's failure-free reference run.
type eventCounter struct{ n atomic.Int64 }

func (c *eventCounter) OnEvent(e obs.Event) {
	if isProcEvent(e) {
		c.n.Add(1)
	}
}

// fleetObserver is the fleet.Config.Observer of one traced batch: the k-th
// admit is job k (arrivals are generated by one goroutine and none is
// rejected), and jobdone carries the job id, so admit → jobdone is the
// job's span.
type fleetObserver struct {
	t      *tracer
	op     int
	parent int32

	mu      sync.Mutex
	admitAt []int64
}

func (o *fleetObserver) OnEvent(e obs.Event) {
	o.t.events.Add(1)
	switch e.Kind {
	case obs.KindAdmit:
		now := o.t.now()
		o.mu.Lock()
		o.admitAt = append(o.admitAt, now)
		o.mu.Unlock()
	case obs.KindJobDone:
		o.mu.Lock()
		start, ok := int64(0), e.Inc < len(o.admitAt)
		if ok {
			start = o.admitAt[e.Inc]
		}
		o.mu.Unlock()
		if ok {
			o.t.add("job", o.op, o.op*fleetJobs+e.Inc, o.parent, start, o.t.now())
		}
	}
}

// interval is a half-open [Start, End) stretch of time.
type interval struct{ Start, End int64 }

// unionLen is the total time covered by the intervals, each clipped to
// [lo, hi): overlapping intervals count once. The four processes of a job
// save concurrently, so child durations are never simply summed.
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.Start < lo {
			iv.Start = lo
		}
		if iv.End > hi {
			iv.End = hi
		}
		if iv.End > iv.Start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.End <= end {
			continue
		}
		if iv.Start > end {
			end = iv.Start
		}
		total += iv.End - end
		end = iv.End
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) int64 {
	return (parent.End - parent.Start) - unionLen(children, parent.Start, parent.End)
}
