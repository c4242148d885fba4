package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Sketch is the one distribution type: a fixed-bucket histogram over
// log-spaced bounds with purely atomic state. Observations land in the
// first bucket whose upper bound is >= the value; values above the last
// bound land in an implicit overflow bucket. Buckets come in chunks made on
// first touch (the runtime's distributions fill 2–3 of 12 decades), so
// Observe is lock-free and allocation-free on a touched chunk; quantiles
// are estimated from the bucket CDF with linear interpolation inside the
// winning bucket, without retaining raw samples.
//
// The zero value is not usable; construct with NewSketch.
type Sketch struct {
	bounds []float64                                // ascending upper bounds
	chunks []atomic.Pointer[[chunkLen]atomic.Int64] // nil until a bucket in it counts
	sum    atomic.Uint64                            // float64 bits
	min    atomic.Uint64                            // float64 bits, +Inf when empty
	max    atomic.Uint64                            // float64 bits, -Inf when empty
}

const chunkLen = 8 // buckets per chunk: a decade of the default bounds

// DefaultSketchBounds is a log-spaced series, eight buckets per decade from
// 1e-6 to 1e6 (97 bounds) — a ~15% worst-case relative quantile error over
// twelve decades, wide enough for observations in any unit the runtime
// records (milliseconds of wall time, virtual seconds, counts). Sketches
// and their snapshots alias it, so it must never be written.
var DefaultSketchBounds = defaultSketchBounds()

func defaultSketchBounds() []float64 {
	const perDecade = 8
	b := make([]float64, 0, 12*perDecade+1)
	for e := 0; e <= 12*perDecade; e++ {
		b = append(b, 1e-6*math.Pow(10, float64(e)/perDecade))
	}
	return b
}

// NewSketch creates a sketch over DefaultSketchBounds.
func NewSketch() *Sketch { return newSketch(DefaultSketchBounds) }

// newSketch creates a sketch over ascending bounds, which it aliases.
func newSketch(bounds []float64) *Sketch {
	s := &Sketch{bounds: bounds, chunks: make([]atomic.Pointer[[chunkLen]atomic.Int64], len(bounds)/chunkLen+1)}
	s.min.Store(math.Float64bits(math.Inf(1)))
	s.max.Store(math.Float64bits(math.Inf(-1)))
	return s
}

// Observe records one value, lock-free; it allocates only a chunk's first
// touch. The bucket count goes last: it is the only count there is, so a
// concurrent Snapshot that counts an observation also sees extremes and a
// sum that include it.
func (s *Sketch) Observe(v float64) {
	addFloat(&s.sum, v)
	minFloat(&s.min, v)
	maxFloat(&s.max, v)
	i := sort.SearchFloat64s(s.bounds, v)
	p := &s.chunks[i/chunkLen]
	if p.Load() == nil {
		// Racers each make a chunk; the CAS keeps one, which all count into.
		p.CompareAndSwap(nil, new([chunkLen]atomic.Int64))
	}
	p.Load()[i%chunkLen].Add(1)
}

// bucket returns bucket i's count: 0 in a chunk never made.
func (s *Sketch) bucket(i int) int64 {
	if c := s.chunks[i/chunkLen].Load(); c != nil {
		return c[i%chunkLen].Load()
	}
	return 0
}

// addFloat atomically adds v to the float64 stored as bits in a.
func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if a.CompareAndSwap(old, nw) {
			return
		}
	}
}

// minFloat atomically lowers the float64 stored in a to v if v is smaller.
func minFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if v >= math.Float64frombits(old) || a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// maxFloat atomically raises the float64 stored in a to v if v is larger.
func maxFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if v <= math.Float64frombits(old) || a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Snapshot returns a copy of the sketch state; Bounds aliases the sketch's
// immutable bounds. Count is the sum of the copied bucket counts, so the
// CDF is always coherent with its total; under concurrent observers Sum,
// Min and Max may already include a few observations Count does not (same
// caveat as Counters.Snapshot). An empty sketch reports Min = Max = 0: the
// ±Inf sentinels never leave the type, so every snapshot is JSON-encodable.
func (s *Sketch) Snapshot() SketchSnapshot {
	// Counts only grow: the last bucket found nonzero stays nonzero.
	n := len(s.bounds) + 1
	for n > 0 && s.bucket(n-1) == 0 {
		n--
	}
	out := SketchSnapshot{Bounds: s.bounds, Counts: make([]int64, n)}
	for i := range out.Counts {
		out.Counts[i] = s.bucket(i)
		out.Count += out.Counts[i]
	}
	if out.Count > 0 {
		out.Sum = math.Float64frombits(s.sum.Load())
		out.Min = math.Float64frombits(s.min.Load())
		out.Max = math.Float64frombits(s.max.Load())
	}
	return out
}

// SketchSnapshot is an immutable copy of a sketch — structurally a CDF: the
// i-th count covers (Bounds[i-1], Bounds[i]], with a final overflow bucket.
// Counts stops at the last nonzero bucket; a bucket past its end holds 0.
type SketchSnapshot struct {
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// Mean returns the average observation (0 when empty).
func (s SketchSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by locating the bucket
// holding the q-th observation and interpolating linearly inside it,
// clamped to the observed min/max. It returns 0 when the sketch is empty.
// Worst-case relative error is bounded by the bucket width (one eighth of a
// decade for the default bounds).
func (s SketchSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range s.Counts {
		seen += c
		if seen < rank {
			continue
		}
		lo, hi := s.bucketEdges(i)
		// Position of the rank inside this bucket's c observations.
		frac := float64(rank-(seen-c)) / float64(c)
		est := lo + frac*(hi-lo)
		return math.Min(math.Max(est, s.Min), s.Max)
	}
	return s.Max
}

// bucketEdges returns the value range covered by bucket i, substituting the
// observed extremes for the open ends (below the first bound, above the
// last).
func (s SketchSnapshot) bucketEdges(i int) (lo, hi float64) {
	if i == 0 {
		lo = math.Min(s.Min, s.Bounds[0])
	} else {
		lo = s.Bounds[i-1]
	}
	if i < len(s.Bounds) {
		hi = s.Bounds[i]
	} else {
		hi = math.Max(s.Max, s.Bounds[len(s.Bounds)-1])
	}
	return lo, hi
}

// String renders a compact one-line summary.
func (s SketchSnapshot) String() string {
	if s.Count == 0 {
		return "count=0"
	}
	return fmt.Sprintf("count=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g min=%.4g max=%.4g",
		s.Count, s.Mean(), s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99), s.Min, s.Max)
}
