package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// stamper assigns per-(inc, proc) local sequence numbers and wall-clock
// stamps. Callers must hold their own lock around stamp.
type stamper struct {
	start time.Time
	seqs  map[[2]int]int
}

func newStamper() stamper {
	return stamper{start: time.Now(), seqs: make(map[[2]int]int)}
}

func (s *stamper) stamp(e *Event, clock func() int64) {
	key := [2]int{e.Inc, e.Proc}
	e.Seq = s.seqs[key]
	s.seqs[key] = e.Seq + 1
	if clock != nil {
		e.WallNS = clock()
	} else {
		e.WallNS = int64(time.Since(s.start))
	}
}

// Recorder is an Observer that collects every event in memory for
// post-run export. The zero value is not usable; construct with
// NewRecorder.
type Recorder struct {
	mu sync.Mutex
	st stamper
	// Now, when non-nil, replaces the wall clock (nanoseconds since run
	// start). Tests use it for byte-stable output; returning a constant 0
	// suppresses wall_ns entirely via omitempty.
	Now    func() int64
	events []Event
}

// NewRecorder creates an empty recorder; wall stamps are relative to this
// call.
func NewRecorder() *Recorder {
	return &Recorder{st: newStamper()}
}

// OnEvent implements Observer.
func (r *Recorder) OnEvent(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.st.stamp(&e, r.Now)
	r.events = append(r.events, e)
}

// Events returns the recorded events in canonical (inc, proc, seq) order.
// Run-level events (proc -1) sort before the processes of their
// incarnation. This order is deterministic for deterministic programs —
// per-process histories are totally ordered by the process itself — while
// raw arrival order is scheduler-dependent.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Inc != b.Inc {
			return a.Inc < b.Inc
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.Seq < b.Seq
	})
	return out
}

// StreamWriter is an Observer that writes each event as one JSON line the
// moment it arrives — arrival order, not canonical order — so a crashed
// run still leaves its events on disk. Construct with NewStreamWriter;
// Close reports the first error after the run (a stream that went bad
// swallows subsequent events rather than blocking the runtime).
//
// When the underlying writer buffers (it implements Flush() error, like
// bufio.Writer), call AutoFlush to bound how much history a kill can lose,
// and Close at the end of the run: Close stops the flusher, forces a final
// flush, closes the writer when it is an io.Closer, and returns the first
// error from any of stream, flush, or close — a lost flush must fail the
// run's exit code, not vanish.
type StreamWriter struct {
	mu  sync.Mutex
	st  stamper
	w   io.Writer
	enc *json.Encoder
	out line // the event being written: encoded in place, nothing boxed
	err error
	// Now mirrors Recorder.Now.
	Now func() int64

	stopFlush chan struct{} // non-nil while AutoFlush runs
	flushDone chan struct{}
}

// flusher is the buffered-writer contract AutoFlush and Close act on
// (bufio.Writer satisfies it).
type flusher interface{ Flush() error }

// NewStreamWriter creates a streaming observer over w.
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{st: newStamper(), w: w, enc: json.NewEncoder(w)}
}

// OnEvent implements Observer.
func (s *StreamWriter) OnEvent(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.stamp(&e, s.Now)
	if s.err != nil {
		return
	}
	s.out.set(e)
	s.err = s.enc.Encode(&s.out)
}

// Flush forces buffered events to the underlying writer (no-op when the
// writer does not buffer). The first flush failure poisons the stream like
// a write failure would.
func (s *StreamWriter) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *StreamWriter) flushLocked() error {
	f, ok := s.w.(flusher)
	if !ok {
		return s.err
	}
	if err := f.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// AutoFlush flushes the stream every interval until Close (or the returned
// stop function) is called, so a killed run leaves at most one interval of
// events in the buffer. It is a no-op for unbuffered writers. Calling it
// twice without an intervening stop panics — two flush loops on one stream
// is always a wiring bug.
func (s *StreamWriter) AutoFlush(interval time.Duration) (stop func()) {
	s.mu.Lock()
	if s.stopFlush != nil {
		s.mu.Unlock()
		panic("obs: AutoFlush already running")
	}
	if _, ok := s.w.(flusher); !ok || interval <= 0 {
		s.mu.Unlock()
		return func() {}
	}
	stopCh := make(chan struct{})
	doneCh := make(chan struct{})
	s.stopFlush, s.flushDone = stopCh, doneCh
	s.mu.Unlock()

	go func() {
		defer close(doneCh)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Flush()
			case <-stopCh:
				return
			}
		}
	}()
	return func() { s.stopAutoFlush() }
}

func (s *StreamWriter) stopAutoFlush() {
	s.mu.Lock()
	stopCh, doneCh := s.stopFlush, s.flushDone
	s.stopFlush, s.flushDone = nil, nil
	s.mu.Unlock()
	if stopCh == nil {
		return
	}
	close(stopCh)
	<-doneCh
}

// Close stops any AutoFlush loop, flushes buffered events, closes the
// underlying writer when it is an io.Closer, and returns the first error
// among stream error, flush error, and close error.
func (s *StreamWriter) Close() error {
	s.stopAutoFlush()
	s.mu.Lock()
	first := s.flushLocked()
	s.mu.Unlock()
	if c, ok := s.w.(io.Closer); ok {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
