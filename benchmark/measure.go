package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Load shape: a closed loop with one client goroutine — the next operation
// is issued when the previous one returns. GOMAXPROCS is left at the
// machine's default and recorded in the run's env header.

// maxSlices bounds how many equal time slices a window is cut into. The
// rate and per-job cost metrics are the median over slices, so one slow
// second (a neighbour's burst on a shared box, a GC of the set-up's garbage)
// moves one slice and not the figure.
const maxSlices = 12

// slice is the resource use of one stretch of a window.
type slice struct {
	jobs    int64
	opTime  time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

// window is one measured stretch of operations.
type window struct {
	opMS       []float64 // per-operation latency
	slices     []slice
	counts     counts // what the program reported over the window
	gcCycles   uint32
	gcPauseNS  uint64
	heapInuse  uint64
	goroutines int
}

type usage struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	numGC   uint32
	pauseNS uint64
	heap    uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		numGC:   ms.NumGC,
		pauseNS: ms.PauseTotalNs,
		heap:    ms.HeapInuse,
	}
}

// runWindow issues operations back to back for d, starting at operation
// index firstOp, and returns what it measured. t is nil for an untraced
// window.
func runWindow(w workload, d time.Duration, firstOp int, t *tracer) (*window, int, error) {
	nslices := int(d / time.Second)
	if nslices < 1 {
		nslices = 1
	}
	if nslices > maxSlices {
		nslices = maxSlices
	}
	win := &window{}
	before := w.snapshot()
	startUse := readUsage()
	sliceUse := startUse
	var cur slice
	jobsPerOp := int64(w.jobsPerOp())
	op := firstOp

	start := time.Now()
	for k := 1; k <= nslices; k++ {
		sliceEnd := start.Add(d * time.Duration(k) / time.Duration(nslices))
		for time.Now().Before(sliceEnd) {
			took, err := w.op(op, t)
			if err != nil {
				return nil, op, err
			}
			op++
			win.opMS = append(win.opMS, float64(took)/1e6)
			cur.jobs += jobsPerOp
			cur.opTime += took
		}
		u := readUsage()
		cur.cpu = u.cpu - sliceUse.cpu
		cur.mallocs = u.mallocs - sliceUse.mallocs
		cur.bytes = u.bytes - sliceUse.bytes
		if cur.jobs > 0 {
			win.slices = append(win.slices, cur)
		}
		cur, sliceUse = slice{}, u
	}
	win.counts = w.snapshot().sub(before)
	win.gcCycles = sliceUse.numGC - startUse.numGC
	win.gcPauseNS = sliceUse.pauseNS - startUse.pauseNS
	win.heapInuse = sliceUse.heap
	win.goroutines = runtime.NumGoroutine()
	return win, op, nil
}

// merge appends a later window to win: the traced run alternates short
// untraced and traced windows and reads each kind as one.
func (win *window) merge(o *window) {
	win.opMS = append(win.opMS, o.opMS...)
	win.slices = append(win.slices, o.slices...)
	win.counts = win.counts.add(o.counts)
	win.gcCycles += o.gcCycles
	win.gcPauseNS += o.gcPauseNS
	win.heapInuse, win.goroutines = o.heapInuse, o.goroutines
}

// overSlices is the median over the window's slices of f.
func (win *window) overSlices(f func(slice) float64) float64 {
	vals := make([]float64, len(win.slices))
	for i, s := range win.slices {
		vals[i] = f(s)
	}
	return median(vals)
}

// jobsPerS is verified jobs ÷ operation time, median over slices. Failed
// jobs are not subtracted per slice: any failure already fails the run.
func (win *window) jobsPerS() float64 {
	return win.overSlices(func(s slice) float64 { return float64(s.jobs) / s.opTime.Seconds() })
}

// endToEnd derives the gated metrics (all but setup_s) from an untraced
// window. CPU and allocation figures cover the whole loop, so they include
// the output check, which is cheap and allocation-light by construction.
func (win *window) endToEnd() map[string]float64 {
	ops := append([]float64(nil), win.opMS...)
	sort.Float64s(ops)
	return map[string]float64{
		"jobs_per_s": win.jobsPerS(),
		"op_ms_p50":  percentile(ops, 50),
		"cpu_ms_per_job": win.overSlices(func(s slice) float64 {
			return float64(s.cpu) / 1e6 / float64(s.jobs)
		}),
		"allocs_per_job": win.overSlices(func(s slice) float64 {
			return float64(s.mallocs) / float64(s.jobs)
		}),
		"alloc_kb_per_job": win.overSlices(func(s slice) float64 {
			return float64(s.bytes) / 1024 / float64(s.jobs)
		}),
	}
}
