package main

import (
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/mpl"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/verify"
)

// counts accumulates, over the life of a workload, what the program
// reports about its own work (sim.Result, fleet.Report, store stats). They
// are integer adds kept in traced and untraced windows alike; a window's
// figures are the difference of two snapshots.
type counts struct {
	Jobs, Failed int64

	Msgs, Chkpts, Restarts, RolledBack, Degraded int64
	PruneVarsDropped, PruneBytesSaved            int64

	StoredBytes                                     int64
	WALSaves, WALBatches, WALRotations, WALCompacts int64

	FleetBatches, FleetAdmitted, FleetRejected, BreakerOpened, Retries int64
}

func (c counts) sub(o counts) counts { return c.plus(o, -1) }
func (c counts) add(o counts) counts { return c.plus(o, 1) }

func (c counts) plus(o counts, sign int64) counts {
	cv, ov := reflect.ValueOf(&c).Elem(), reflect.ValueOf(o)
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetInt(cv.Field(i).Int() + sign*ov.Field(i).Int())
	}
	return c
}

// workload is one of the five named workloads, set up for one seed.
type workload interface {
	// jobsPerOp is how many jobs one operation carries.
	jobsPerOp() int
	// sources are the MPL texts the workload feeds the program.
	sources() []string
	// op runs operation i and checks its outputs against the set-up's
	// references. It returns the operation's own duration: the output
	// check and per-batch store open/close sit outside it.
	op(i int, t *tracer) (time.Duration, error)
	// snapshot returns the cumulative counts; it may stat the store.
	snapshot() counts
	// walOpenUS lists the durations of the wal.Open calls made so far.
	walOpenUS() []float64
	// refEvents is how many process events one job records when nothing
	// fails (0 where no run is made from here); events beyond it are work
	// lost to a rollback and executed again.
	refEvents() int64
	close() error
}

// newWorkload builds a workload's inputs from the seed, validates its
// references, and opens its stores under dir — everything setup_s times.
func newWorkload(name string, seed int64, dir string) (workload, error) {
	switch name {
	case "analysis-large":
		return newAnalysis(seed)
	case "interp-mem":
		src, failures := jacobiInput(seed)
		return validated(newRun(src, failures, nil, 1, func(*runWorkload) (storage.Store, error) {
			return storage.NewMemory(), nil
		}))
	case "durable-wal":
		return validated(newDurable(seed, dir))
	case "crash-storm-inc":
		src, crashes := stormInput(seed)
		return validated(newRun(src, nil, crashes, stormRestarts, func(*runWorkload) (storage.Store, error) {
			return storage.NewIncremental(8), nil
		}))
	case "fleet-wal":
		return validated(newFleet(seed, dir))
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// validated runs one operation of a freshly built workload and requires it
// to pass its output check. For the crash workloads that proves every
// incarnation with a scheduled crash did crash and recover.
func validated(w workload, err error) (workload, error) {
	if err != nil {
		return nil, err
	}
	before := w.snapshot()
	if _, err := w.op(0, nil); err != nil {
		w.close()
		return nil, err
	}
	if d := w.snapshot().sub(before); d.Failed != 0 {
		w.close()
		return nil, fmt.Errorf("set-up operation: %d of %d jobs failed their output check (restarts %d)", d.Failed, d.Jobs, d.Restarts)
	}
	return w, nil
}

// ---- analysis-large ----

type analysisWorkload struct {
	srcs []string
	want []string // formatted output of each source
	outs []string
	c    counts
}

func newAnalysis(seed int64) (*analysisWorkload, error) {
	w := &analysisWorkload{srcs: analysisSources(seed)}
	w.outs = make([]string, len(w.srcs))
	for k, src := range w.srcs {
		p, err := mpl.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("analysis source %d: %w", k, err)
		}
		rep, err := core.Transform(p, core.DefaultConfig)
		if err != nil {
			return nil, fmt.Errorf("analysis source %d: %w", k, err)
		}
		// The pinned output is one Condition 1 holds on: every straight
		// cut of its checkpoints is a recovery line.
		violations, err := core.Verify(rep.Program, core.DefaultConfig)
		if err != nil {
			return nil, fmt.Errorf("analysis source %d: verify: %w", k, err)
		}
		if len(violations) > 0 {
			return nil, fmt.Errorf("analysis source %d: %d Condition-1 violations after transform", k, len(violations))
		}
		code, err := sim.Compile(rep.Program)
		if err != nil {
			return nil, fmt.Errorf("analysis source %d: %w", k, err)
		}
		w.want = append(w.want, mpl.Format(code.Prog))
	}
	return w, nil
}

func (w *analysisWorkload) jobsPerOp() int       { return len(w.srcs) }
func (w *analysisWorkload) sources() []string    { return w.srcs }
func (w *analysisWorkload) snapshot() counts     { return w.c }
func (w *analysisWorkload) walOpenUS() []float64 { return nil }
func (w *analysisWorkload) refEvents() int64     { return 0 }
func (w *analysisWorkload) close() error         { return nil }

// op is what chkptc does to a directory of sources: parse, transform,
// compile (which attaches the liveness manifests), print.
func (w *analysisWorkload) op(i int, t *tracer) (time.Duration, error) {
	start := time.Now()
	opSpan := t.begin("op", i, -1, 0)
	for k, src := range w.srcs {
		jobID := i*len(w.srcs) + k
		job := t.begin("job", i, jobID, opSpan)

		id := t.begin("mpl.parse", i, jobID, job)
		p, err := mpl.Parse(src)
		t.end(id)
		if err != nil {
			return 0, err
		}
		id = t.begin("core.transform", i, jobID, job)
		rep, err := core.Transform(p, core.DefaultConfig)
		t.end(id)
		if err != nil {
			return 0, err
		}
		id = t.begin("sim.compile", i, jobID, job)
		code, err := sim.Compile(rep.Program)
		t.end(id)
		if err != nil {
			return 0, err
		}
		id = t.begin("mpl.format", i, jobID, job)
		w.outs[k] = mpl.Format(code.Prog)
		t.end(id)

		t.end(job)
	}
	t.end(opSpan)
	d := time.Since(start)

	w.c.Jobs += int64(len(w.srcs))
	for k := range w.outs {
		if w.outs[k] != w.want[k] {
			w.c.Failed++
		}
	}
	return d, nil
}

// ---- interp-mem, durable-wal, crash-storm-inc ----

// runWorkload is one MPL program run to completion on simNproc processes
// through a crash schedule: source → parse → transform → sim.Run →
// FinalVars.
type runWorkload struct {
	src      string
	failures []sim.Failure
	crashes  []sim.Crash
	restarts int
	want     []map[string]int
	events   int64 // process events of the failure-free transformed run

	// newStore returns the store of the next job.
	newStore func(*runWorkload) (storage.Store, error)
	nextJob  int

	// Set only by durable-wal: the long-lived log and its directory.
	ws     *wal.Store
	walDir string
	openUS []float64

	c counts
}

// referenceVars computes an input's reference final state with the
// independent sequential interpreter verify.Machine and requires the
// runtime to agree on both the untransformed and the transformed program,
// failure-free. events is the process-event count of the transformed run.
func referenceVars(src string, nproc int) (want []map[string]int, events int64, err error) {
	p, err := mpl.Parse(src)
	if err != nil {
		return nil, 0, err
	}
	code, err := sim.Compile(p)
	if err != nil {
		return nil, 0, err
	}
	m, err := verify.RunSchedule(code, nproc, verify.DefaultInput, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("reference machine: %w", err)
	}
	if !m.Done() {
		return nil, 0, errors.New("reference machine did not halt")
	}
	want = m.FinalVars()

	rep, err := core.Transform(p, core.DefaultConfig)
	if err != nil {
		return nil, 0, err
	}
	var counter eventCounter
	for _, c := range []struct {
		what string
		prog *mpl.Program
		obsv obs.Observer
	}{{"untransformed", p, nil}, {"transformed", rep.Program, &counter}} {
		res, err := sim.Run(sim.Config{Program: c.prog, Nproc: nproc, Input: verify.DefaultInput, DisableTrace: true, Observer: c.obsv})
		if err != nil {
			return nil, 0, fmt.Errorf("reference run (%s): %w", c.what, err)
		}
		if !equalVars(res.FinalVars, want) {
			return nil, 0, fmt.Errorf("reference run (%s): sim.Run and verify.Machine disagree on the final state", c.what)
		}
	}
	return want, counter.n.Load(), nil
}

// equalVars compares final states without allocating (reflect.DeepEqual
// would, and the check runs inside the loop allocs_per_job is taken over).
func equalVars(got, want []map[string]int) bool {
	return slices.EqualFunc(got, want, maps.Equal[map[string]int, map[string]int])
}

func newRun(src string, failures []sim.Failure, crashes []sim.Crash, restarts int,
	newStore func(*runWorkload) (storage.Store, error)) (*runWorkload, error) {
	want, events, err := referenceVars(src, simNproc)
	if err != nil {
		return nil, err
	}
	return &runWorkload{
		src: src, failures: failures, crashes: crashes, restarts: restarts,
		want: want, events: events, newStore: newStore,
	}, nil
}

func newDurable(seed int64, dir string) (*runWorkload, error) {
	src, failures := jacobiInput(seed)
	w, err := newRun(src, failures, nil, 1, func(w *runWorkload) (storage.Store, error) {
		// One namespace per job on the shared log; nextJob never repeats.
		return storage.NewNamespace(w.ws, w.nextJob, simNproc)
	})
	if err != nil {
		return nil, err
	}
	w.walDir = filepath.Join(dir, "wal")
	start := time.Now()
	w.ws, err = wal.Open(w.walDir, durableWALOptions)
	if err != nil {
		return nil, err
	}
	w.openUS = []float64{float64(time.Since(start)) / 1e3}
	return w, nil
}

// durableWALOptions are wal.Options' defaults except for the segment size:
// at the default 8 MiB per shard the window's ~20 MB of checkpoints would
// never rotate a segment, and rotation is part of any long-lived log's
// save path.
var durableWALOptions = wal.Options{MaxSegmentBytes: 1 << 20}

func (w *runWorkload) jobsPerOp() int       { return 1 }
func (w *runWorkload) sources() []string    { return []string{w.src} }
func (w *runWorkload) walOpenUS() []float64 { return w.openUS }
func (w *runWorkload) refEvents() int64     { return w.events }

func (w *runWorkload) snapshot() counts {
	c := w.c
	if w.ws != nil {
		st := w.ws.Stats()
		c.WALSaves, c.WALBatches = st.Saves, st.Batches
		c.WALRotations, c.WALCompacts = st.Rotations, st.Compactions
		c.StoredBytes = dirBytes(w.walDir)
	}
	return c
}

func (w *runWorkload) close() error {
	if w.ws == nil {
		return nil
	}
	err := w.ws.Close()
	if rmErr := os.RemoveAll(w.walDir); err == nil {
		err = rmErr
	}
	return err
}

func (w *runWorkload) op(i int, t *tracer) (time.Duration, error) {
	st, err := w.newStore(w)
	if err != nil {
		return 0, err
	}
	w.nextJob++

	start := time.Now()
	job := t.begin("job", i, i, 0)

	id := t.begin("mpl.parse", i, i, job)
	p, err := mpl.Parse(w.src)
	t.end(id)
	if err != nil {
		return 0, err
	}
	id = t.begin("core.transform", i, i, job)
	rep, err := core.Transform(p, core.DefaultConfig)
	t.end(id)
	if err != nil {
		return 0, err
	}

	cfg := sim.Config{
		Program:      rep.Program,
		Nproc:        simNproc,
		Store:        st,
		Input:        verify.DefaultInput,
		Failures:     w.failures,
		Crashes:      w.crashes,
		DisableTrace: true,
	}
	run := t.begin("sim.run", i, i, job)
	if t != nil {
		wrapped, ts := wrapStore(st, t, i, i, run)
		cfg.Store = wrapped
		cfg.Recover = ts.recoverHook(run)
		cfg.Observer = &jobObserver{t: t, op: i, job: i, parent: run}
	}
	res, err := sim.Run(cfg)
	t.end(run)
	t.end(job)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}

	w.c.Jobs++
	if res.Restarts != w.restarts || !equalVars(res.FinalVars, w.want) {
		w.c.Failed++
	}
	m := res.Metrics
	w.c.Msgs += m.AppMessages
	w.c.Chkpts += m.TotalCheckpoints()
	w.c.Restarts += int64(res.Restarts)
	w.c.RolledBack += int64(res.RolledBack)
	w.c.Degraded += m.Custom[sim.MetricRecoveryDegraded]
	w.c.PruneVarsDropped += m.Custom[sim.MetricPruneVarsDropped]
	w.c.PruneBytesSaved += m.Custom[sim.MetricPruneBytesSaved]
	w.c.Retries += m.Custom[sim.MetricStoreRetries]
	if inc, ok := st.(*storage.Incremental); ok {
		stats := inc.Stats()
		w.c.StoredBytes += int64(stats.FullBytes + stats.DeltaBytes)
	}
	return d, nil
}

// ---- fleet-wal ----

const (
	fleetNproc = 3
	fleetIters = 3
)

// fleetWorkload runs batches of fleetJobs concurrent jobs through the
// fleet engine — retry → breaker → namespace → WAL — on a fresh log per
// batch. MaxInFlight is the engine's own default, not load-generator
// concurrency: the load is still one closed-loop client issuing batches.
type fleetWorkload struct {
	seed   int64
	dir    string
	batch  int
	want   []storage.Snapshot // each process's last checkpoint in the reference run
	openUS []float64
	c      counts
}

func newFleet(seed int64, dir string) (*fleetWorkload, error) {
	// The reference mirrors the job fleet.Engine runs: corpus.JacobiFig1
	// with input(i) = rank + i. If the engine's job changes, the first
	// batch below fails its check and the benchmark must follow.
	prog := corpus.JacobiFig1(fleetIters)
	input := func(rank, i int) int { return rank + i }
	code, err := sim.Compile(prog)
	if err != nil {
		return nil, err
	}
	m, err := verify.RunSchedule(code, fleetNproc, input, nil)
	if err != nil {
		return nil, fmt.Errorf("fleet reference machine: %w", err)
	}
	mem := storage.NewMemory()
	res, err := sim.Run(sim.Config{Program: prog, Nproc: fleetNproc, Input: input, Store: mem, DisableTrace: true})
	if err != nil {
		return nil, fmt.Errorf("fleet reference run: %w", err)
	}
	if !m.Done() || !equalVars(res.FinalVars, m.FinalVars()) {
		return nil, errors.New("fleet reference: sim.Run and verify.Machine disagree on the final state")
	}
	w := &fleetWorkload{seed: seed, dir: dir}
	for p := 0; p < fleetNproc; p++ {
		snaps, err := mem.List(p)
		if err != nil || len(snaps) == 0 {
			return nil, fmt.Errorf("fleet reference: process %d saved no checkpoint (%v)", p, err)
		}
		w.want = append(w.want, snaps[len(snaps)-1])
	}
	return w, nil
}

func (w *fleetWorkload) jobsPerOp() int       { return fleetJobs }
func (w *fleetWorkload) sources() []string    { return nil } // the engine builds its own program
func (w *fleetWorkload) snapshot() counts     { return w.c }
func (w *fleetWorkload) walOpenUS() []float64 { return w.openUS }
func (w *fleetWorkload) refEvents() int64     { return 0 }
func (w *fleetWorkload) close() error         { return nil }

func (w *fleetWorkload) op(i int, t *tracer) (time.Duration, error) {
	dir := filepath.Join(w.dir, fmt.Sprintf("fleet-%06d", w.batch))
	openStart := time.Now()
	ws, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return 0, err
	}
	w.openUS = append(w.openUS, float64(time.Since(openStart))/1e3)
	defer func() {
		ws.Close()
		os.RemoveAll(dir)
	}()

	ctr := &metrics.Counters{}
	cfg := fleet.Config{
		Jobs:        fleetJobs,
		MaxInFlight: fleetJobs,
		Nproc:       fleetNproc,
		Iters:       fleetIters,
		Seed:        fleetSeed(w.seed, w.batch),
		Store:       ws,
		Counters:    ctr,
	}
	w.batch++

	start := time.Now()
	opSpan := t.begin("op", i, -1, 0)
	if t != nil {
		cfg.Store, _ = wrapStore(ws, t, i, -1, opSpan)
		cfg.Observer = &fleetObserver{t: t, op: i, parent: opSpan}
	}
	rep, err := fleet.New(cfg).Run()
	t.end(opSpan)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}

	// Every arrival not in bucket succeeded counts as failed, and so does
	// a succeeded job whose durable state is not the reference's.
	w.c.Jobs += fleetJobs
	failed := fleetJobs - rep.Buckets[fleet.BucketSucceeded]
	for job := 0; job < fleetJobs && failed == 0; job++ {
		ns, err := storage.NewNamespace(ws, job, fleetNproc)
		if err != nil {
			return 0, err
		}
		for p, want := range w.want {
			got, err := ns.Latest(p, want.CFGIndex)
			if err != nil || got.Instance != want.Instance || got.PC != want.PC || !maps.Equal(got.Vars, want.Vars) {
				failed++
				break
			}
		}
	}
	w.c.Failed += failed

	m := ctr.Snapshot()
	w.c.Msgs += m.AppMessages
	w.c.Chkpts += m.TotalCheckpoints()
	w.c.PruneVarsDropped += m.Custom[sim.MetricPruneVarsDropped]
	w.c.PruneBytesSaved += m.Custom[sim.MetricPruneBytesSaved]
	w.c.Retries += m.Custom[sim.MetricStoreRetries]
	w.c.FleetBatches++
	w.c.FleetAdmitted += rep.Admitted
	w.c.FleetRejected += rep.RejectedTotal()
	w.c.BreakerOpened += rep.Breaker.Opened
	st := ws.Stats()
	w.c.WALSaves += st.Saves
	w.c.WALBatches += st.Batches
	w.c.WALRotations += st.Rotations
	w.c.WALCompacts += st.Compactions
	w.c.StoredBytes += dirBytes(dir)
	return d, nil
}

// dirBytes is the total size of the regular files under dir: for a WAL,
// its segment (and manifest) bytes on disk.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
