package main

import (
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/fleet"
	"repro/internal/insert"
	"repro/internal/liveness"
	"repro/internal/match"
	"repro/internal/mpl"
	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// Per-layer metrics. Everything here comes from the traced window's spans,
// the program's own counts over that window, and two probes; none of it
// feeds an end-to-end figure.

// phaseProbe is the per-program cost of each analysis phase, called
// separately on clones the way bench_test.go's per-phase benchmarks do,
// plus the counts that must repeat exactly on one commit.
type phaseProbe struct {
	us      map[string]float64 // metric name → median µs per program
	samples int

	chkptsInserted, cfgNodes, iterations, moves int
}

const phaseProbePasses = 15

func probePhases(srcs []string) (*phaseProbe, error) {
	pr := &phaseProbe{us: map[string]float64{}}
	if len(srcs) == 0 {
		return pr, nil
	}
	progs := make([]*mpl.Program, len(srcs))
	for i, src := range srcs {
		p, err := mpl.Parse(src)
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	perPass := map[string][]float64{}
	for pass := 0; pass < phaseProbePasses; pass++ {
		total := map[string]time.Duration{}
		timed := func(name string, fn func() error) error {
			start := time.Now()
			err := fn()
			total[name] += time.Since(start)
			return err
		}
		for _, p := range progs {
			work := mpl.Clone(p)
			var (
				plan   *insert.Plan
				g      *cfg.Graph
				df     *dataflow.Result
				placed *place.Result
				code   *sim.Code
			)
			steps := []struct {
				name string
				fn   func() (err error)
			}{
				{"insert.phase1_us_p50", func() (err error) {
					plan, err = insert.InsertCheckpoints(work, insert.DefaultCostModel)
					return err
				}},
				{"cfg.build_us_p50", func() (err error) { g, err = cfg.Build(work); return err }},
				{"dataflow.analyze_us_p50", func() error { df = dataflow.Analyze(work); return nil }},
				{"match.phase2_us_p50", func() error {
					_, err := match.Match(work, g, df, match.Options{})
					return err
				}},
				{"place.phase3_us_p50", func() (err error) {
					placed, err = place.Ensure(work, place.Options{PreserveLoops: true, Arena: &cfg.Arena{}})
					return err
				}},
				{"liveness.compute_us_p50", func() error {
					_, err := liveness.Compute(placed.Program)
					return err
				}},
				{"sim.compile_us_p50", func() (err error) { code, err = sim.Compile(placed.Program); return err }},
				{"mpl.format_us_p50", func() error { _ = mpl.Format(code.Prog); return nil }},
			}
			for _, s := range steps {
				if err := timed(s.name, s.fn); err != nil {
					return nil, err
				}
			}
			if pass == 0 {
				pr.chkptsInserted += len(plan.Inserted) + len(plan.Equalized)
				pr.cfgNodes += len(g.Nodes)
				pr.iterations += placed.Iterations
				pr.moves += len(placed.Moves)
			}
		}
		for name, d := range total {
			perPass[name] = append(perPass[name], float64(d)/1e3/float64(len(progs)))
		}
	}
	for name, vals := range perPass {
		pr.us[name] = median(vals)
	}
	pr.samples = phaseProbePasses
	return pr, nil
}

const (
	stackProbeRounds = 21
	stackProbeSaves  = 5000
)

// probeFleetStack is the wrapper cost of the fleet's save path in
// isolation: single-threaded saves through namespace → breaker → memory
// minus the same saves on the bare memory store, per save. Each round
// fills two fresh stores, so map growth is the same on both sides; the
// figure is the difference of the two fastest rounds — whatever disturbs a
// round only ever slows it, and the difference looked for is ~100 ns on a
// ~1 µs save.
func probeFleetStack() (float64, error) {
	snap := storage.Snapshot{CFGIndex: 1, Clock: vclock.New(1), Vars: map[string]int{"x": 1}, PC: "s1"}
	nsPerSave := func(st storage.Store) (float64, error) {
		start := time.Now()
		for i := 0; i < stackProbeSaves; i++ {
			snap.Instance = i
			if err := st.Save(snap); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start)) / stackProbeSaves, nil
	}
	var bare, stacked []float64
	for round := 0; round < stackProbeRounds; round++ {
		ns, err := storage.NewNamespace(fleet.NewBreaker(storage.NewMemory(), fleet.BreakerConfig{}), 0, 1)
		if err != nil {
			return 0, err
		}
		// Alternate which side goes first: the second fill of a round
		// runs on the heap the first one left behind.
		order := []storage.Store{storage.NewMemory(), ns}
		if round%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, st := range order {
			v, err := nsPerSave(st)
			if err != nil {
				return 0, err
			}
			if st == storage.Store(ns) {
				stacked = append(stacked, v)
			} else {
				bare = append(bare, v)
			}
		}
	}
	return slices.Min(stacked) - slices.Min(bare), nil
}

// spanIndex groups a traced window's spans for the derivations below.
type spanIndex struct {
	byName map[string][]*span
	byOp   map[int][]*span
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{byName: map[string][]*span{}, byOp: map[int][]*span{}}
	for i := range spans {
		s := &spans[i]
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		ix.byOp[s.Op] = append(ix.byOp[s.Op], s)
	}
	return ix
}

// us returns the sorted durations, in µs, of the spans with any of names.
func (ix *spanIndex) us(names ...string) []float64 {
	var out []float64
	for _, n := range names {
		for _, s := range ix.byName[n] {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

func sum(vals []float64) float64 {
	var t float64
	for _, v := range vals {
		t += v
	}
	return t
}

var readSpans = []string{"storage.latest", "storage.get", "storage.list", "storage.indexes"}

func isRead(name string) bool { return slices.Contains(readSpans, name) }

// covered sums, over operations, the time covered by the spans that pick
// selects inside the operation's root span. Overlapping spans — concurrent
// saves — count once.
func (ix *spanIndex) covered(pick func(name string) bool) float64 {
	var total int64
	for _, spans := range ix.byOp {
		var root *span
		var ivs []interval
		for _, s := range spans {
			if s.Parent == 0 {
				root = s
			} else if pick(s.Name) {
				ivs = append(ivs, interval{s.Start, s.End})
			}
		}
		if root != nil {
			total += unionLen(ivs, root.Start, root.End)
		}
	}
	return float64(total) / 1e3
}

// simSelfUS is, per sim.run span, the run's duration minus what its
// storage and recovery child spans cover, in µs, sorted.
func (ix *spanIndex) simSelfUS() []float64 {
	var out []float64
	for _, run := range ix.byName["sim.run"] {
		var children []interval
		for _, s := range ix.byOp[run.Op] {
			if strings.HasPrefix(s.Name, "storage.") || s.Name == "recovery.select" {
				children = append(children, interval{s.Start, s.End})
			}
		}
		out = append(out, float64(selfTime(interval{run.Start, run.End}, children))/1e3)
	}
	sort.Float64s(out)
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives every per-layer metric. base is the untraced half of
// the traced run (used only for the tracing overhead), traced the half with
// spans on. samples reports the sample count behind each _p50/_p95 figure.
func layerMetrics(w workload, base, traced *window, t *tracer, spans []span, phases *phaseProbe, stackNS float64) (m map[string]float64, samples map[string]int) {
	ix := indexSpans(spans)
	c := traced.counts
	jobs := float64(c.Jobs)
	opUS := sum(traced.opMS) * 1e3
	m, samples = map[string]float64{}, map[string]int{}

	p := func(name string, pct float64, vals []float64) {
		m[name] = percentile(vals, pct)
		samples[name] = len(vals)
	}

	// The time-based end-to-end figures come from the untraced half.
	e2e := base.endToEnd()
	for _, spec := range timeSpecs {
		if v, ok := e2e[spec.Name]; ok {
			m[spec.Name] = v
		}
	}
	samples["op_ms_p50"] = len(base.opMS)

	all := base.counts
	m["failed_share"] = ratio(float64(all.Failed+c.Failed), float64(all.Jobs+c.Jobs))
	m["stored_bytes_per_job"] = ratio(float64(c.StoredBytes), jobs)

	// Pipeline: spans where the operation makes the call, the probe
	// otherwise (a run workload never formats, sim.Run compiles inside).
	srcs := w.sources()
	for _, src := range srcs {
		m["mpl.source_bytes"] += float64(len(src)) / float64(len(srcs))
	}
	for name, us := range phases.us {
		m[name] = us
		samples[name] = phases.samples
	}
	p("mpl.parse_us_p50", 50, ix.us("mpl.parse"))
	p("core.transform_us_p50", 50, ix.us("core.transform"))
	if vals := ix.us("mpl.format"); len(vals) > 0 {
		p("mpl.format_us_p50", 50, vals)
		p("sim.compile_us_p50", 50, ix.us("sim.compile"))
	}
	m["mpl.share"] = ratio(sum(ix.us("mpl.parse", "mpl.format")), opUS)
	m["core.transform_share"] = ratio(sum(ix.us("core.transform")), opUS)
	m["sim.compile_share"] = ratio(sum(ix.us("sim.compile")), opUS)
	m["insert.chkpts_inserted"] = float64(phases.chkptsInserted)
	m["cfg.nodes"] = float64(phases.cfgNodes)
	m["place.iterations"] = float64(phases.iterations)
	m["place.moves"] = float64(phases.moves)

	m["liveness.vars_dropped_per_save"] = ratio(float64(c.PruneVarsDropped), float64(c.Chkpts))
	m["liveness.bytes_saved_per_job"] = ratio(float64(c.PruneBytesSaved), jobs)

	p("sim.run_us_p50", 50, ix.us("sim.run"))
	self := ix.simSelfUS()
	p("sim.self_us_p50", 50, self)
	m["sim.self_share"] = ratio(sum(self), opUS)
	m["sim.msgs_per_job"] = ratio(float64(c.Msgs), jobs)
	m["sim.chkpts_per_job"] = ratio(float64(c.Chkpts), jobs)
	m["sim.restarts_per_job"] = ratio(float64(c.Restarts), jobs)
	if ref := w.refEvents(); ref > 0 {
		// The runtime has a counter for this (metrics.RestartedEvents) but
		// never increments it, so the figure is taken from the observer.
		m["sim.replayed_events_per_job"] = ratio(float64(t.procEvents.Load()), jobs) - float64(ref)
	}
	p("sim.restore_us_p50", 50, ix.us("sim.restore"))

	saves := ix.us("storage.save")
	p("storage.save_us_p50", 50, saves)
	p("storage.save_us_p95", 95, saves)
	m["storage.saves_per_job"] = ratio(float64(len(saves)), jobs)
	m["storage.save_share"] = ratio(ix.covered(func(n string) bool { return n == "storage.save" }), opUS)
	reads := ix.us(readSpans...)
	p("storage.read_us_p50", 50, reads)
	m["storage.reads_per_job"] = ratio(float64(len(reads)), jobs)
	m["storage.read_share"] = ratio(ix.covered(isRead), opUS)
	deletes := ix.us("storage.delete")
	p("storage.delete_us_p50", 50, deletes)
	m["storage.deletes_per_job"] = ratio(float64(len(deletes)), jobs)
	m["storage.bytes_per_save"] = ratio(float64(c.StoredBytes), float64(len(saves)))
	m["storage.inflight_saves_max"] = float64(t.inflightMax.Load())
	m["storage.errors"] = float64(t.storageErrors.Load())

	m["wal.saves_per_fsync"] = ratio(float64(c.WALSaves), float64(c.WALBatches))
	m["wal.rotations"] = float64(c.WALRotations)
	m["wal.compactions"] = float64(c.WALCompacts)
	p("wal.open_us_p50", 50, sortedCopy(w.walOpenUS()))

	selects := ix.us("recovery.select")
	p("recovery.select_us_p50", 50, selects)
	m["recovery.select_share"] = ratio(sum(selects), opUS)
	m["recovery.selects_per_job"] = ratio(float64(len(selects)), jobs)
	m["recovery.rollback_chkpts_per_job"] = ratio(float64(c.RolledBack), jobs)
	m["recovery.degraded_per_job"] = ratio(float64(c.Degraded), jobs)

	jobUS := ix.us("job")
	if c.FleetBatches > 0 {
		p("fleet.batch_us_p50", 50, ix.us("op"))
		p("fleet.job_us_p50", 50, jobUS)
		p("fleet.job_us_p95", 95, jobUS)
	}
	m["fleet.admitted_per_batch"] = ratio(float64(c.FleetAdmitted), float64(c.FleetBatches))
	m["fleet.rejected"] = float64(c.FleetRejected)
	m["fleet.breaker_opened"] = float64(c.BreakerOpened)
	m["fleet.retries"] = float64(c.Retries)
	m["fleet.stack_ns_per_save"] = stackNS

	m["obs.events_per_job"] = ratio(float64(t.events.Load()), jobs)
	m["obs.trace_overhead_frac"] = ratio(base.jobsPerS()-traced.jobsPerS(), base.jobsPerS())

	m["job.ms_p95"] = percentile(jobUS, 95) / 1e3
	if len(jobUS) > 0 {
		m["job.ms_max"] = jobUS[len(jobUS)-1] / 1e3
	}
	m["job.samples"] = float64(len(jobUS))
	m["proc.gc_cycles_per_kjob"] = ratio(float64(traced.gcCycles)*1000, jobs)
	m["proc.gc_pause_ms"] = float64(traced.gcPauseNS) / 1e6
	m["proc.heap_inuse_mb_end"] = float64(traced.heapInuse) / (1 << 20)
	m["proc.goroutines_end"] = float64(traced.goroutines)
	return m, samples
}
