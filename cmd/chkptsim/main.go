// Command chkptsim executes an MPL program on the concurrent runtime under
// a chosen checkpointing protocol, optionally injecting failures, and
// reports metrics plus recovery-line verification of the recorded trace.
//
// Usage:
//
//	chkptsim -n 4 [-protocol appl|sas|cl|cic|uncoord] [-fail proc:events]
//	         [-transform] [-verify]
//	         [-chaos-seed 1] [-chaos-crash-rate 1.2] [-storage-fault-rate 0.1]
//	         [-net-chaos-seed 1] [-net-drop-rate 0.1] [-net-dup-rate 0.1]
//	         [-net-reorder-rate 0.1] [-net-partition '0>1@100ms+300ms']
//	         [-trace-out run.json] [-events-out run.jsonl]
//	         [-metrics-out metrics.jsonl]
//	         [-telemetry-addr 127.0.0.1:9464] [-telemetry-window 250ms]
//	         [-telemetry-linger 0s] [-telemetry-lag 0] [-dash]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof] program.mpl
//
// The observability flags persist the run: -trace-out writes a Chrome
// trace-event file for Perfetto/chrome://tracing, -events-out streams
// structured JSONL events as they happen (buffered with periodic flushes,
// durable even when the run fails), and -metrics-out exports counters,
// histograms, and stage timers as JSONL.
//
// The live telemetry flags observe the run WHILE it executes:
// -telemetry-addr serves /metrics (Prometheus text format 0.0.4),
// /snapshot.json, and /healthz from a streaming aggregator fed by the same
// observer fan-out as the artifacts above; -telemetry-window sets its
// aggregation window; -telemetry-linger keeps the endpoint up after the
// run ends so a scraper catches the final state; -telemetry-lag arms the
// checkpoint-lag detector at the given virtual-second threshold. -dash
// renders a live ANSI dashboard to stderr (per-process state, event rates,
// save-latency percentiles, health verdicts). Detector verdicts — stalls,
// rollback storms, checkpoint lag — are also published as stall/storm/lag
// events into -events-out and -trace-out.
//
// The chaos flags inject seeded faults: -chaos-crash-rate derives a
// multi-process, multi-incarnation crash schedule from a Poisson process
// with the given rate, and -storage-fault-rate wraps the chosen store with
// transient errors, torn writes, bit flips, and latency at the given rate.
// The same -chaos-seed reproduces the same faults.
//
// The network chaos flags run the program over lossy links: any of
// -net-drop-rate, -net-dup-rate, -net-reorder-rate, or -net-partition
// enables the hardened transport (per-channel sequencing, ack/retransmit
// with an adaptive RTO, heartbeat failure detection) and injects the
// requested faults, reproducibly from -net-chaos-seed. Partition windows
// silence a direction for a wall-clock window; the heartbeat detector
// converts the silence into an ordinary crash→recovery.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mpl"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/zigzag"
)

type failureList []sim.Failure

func (f *failureList) String() string { return fmt.Sprint(*f) }

func (f *failureList) Set(v string) error {
	parts := strings.SplitN(v, ":", 2)
	if len(parts) != 2 {
		return fmt.Errorf("want proc:events, got %q", v)
	}
	proc, err := strconv.Atoi(parts[0])
	if err != nil {
		return err
	}
	events, err := strconv.Atoi(parts[1])
	if err != nil {
		return err
	}
	*f = append(*f, sim.Failure{Proc: proc, AfterEvents: events})
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("chkptsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var failures failureList
	var (
		nproc      = fs.Int("n", 4, "number of processes")
		protoName  = fs.String("protocol", "appl", "checkpointing protocol: appl, sas, cl, cic, uncoord")
		transform  = fs.Bool("transform", false, "run the offline transformation (phases I-III) before executing")
		verify     = fs.Bool("verify", true, "verify that every straight cut of the trace is a recovery line")
		noPrune    = fs.Bool("no-prune", false, "persist full variable environments instead of liveness-minimized checkpoint manifests")
		interval   = fs.Int("uncoord-interval", 10, "uncoordinated mode: local events between checkpoints")
		storeKind  = fs.String("store", "mem", "stable storage: mem, incremental, or wal:DIR (the durable group-commit log rooted at DIR)")
		zz         = fs.Bool("zigzag", false, "run the Netzer-Xu Z-cycle analysis on the recorded trace and report useless checkpoints")
		traceOut   = fs.String("trace-out", "", "write the run as Chrome trace-event JSON (open in ui.perfetto.dev or chrome://tracing)")
		eventsOut  = fs.String("events-out", "", "stream structured JSONL runtime events to this file as they happen")
		metricsOut = fs.String("metrics-out", "", "write a JSONL metrics stream (counters, histograms, timers) to this file")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile to this file")
		virtual    = fs.Bool("vtime", false, "price the run in virtual time with the paper's cost model (timestamps trace output deterministically)")
		chaosSeed  = fs.Int64("chaos-seed", 1, "seed for chaos fault injection (same seed, same faults)")
		crashRate  = fs.Float64("chaos-crash-rate", 0, "expected crashes per incarnation (Poisson); generates a seeded multi-process crash schedule")
		faultRate  = fs.Float64("storage-fault-rate", 0, "storage fault rate in [0,1]: transient errors, torn writes, bit flips, latency")
		netSeed    = fs.Int64("net-chaos-seed", 1, "seed for network fault injection (same seed, same fault pattern)")
		dropRate   = fs.Float64("net-drop-rate", 0, "per-frame drop probability in [0,1]; enables the hardened ack/retransmit transport")
		dupRate    = fs.Float64("net-dup-rate", 0, "per-frame duplication probability in [0,1]; enables the hardened transport")
		reorderRt  = fs.Float64("net-reorder-rate", 0, "per-frame reorder probability in [0,1]; enables the hardened transport")
		partitions = fs.String("net-partition", "", "directed partition windows as FROM>TO@START+DUR, comma-separated ('0>1@100ms+300ms'; '*' wildcards a side); enables the hardened transport")
		telAddr    = fs.String("telemetry-addr", "", "serve live telemetry on this address: /metrics (Prometheus text), /snapshot.json, /healthz (e.g. 127.0.0.1:9464, or :0 for an ephemeral port)")
		telWindow  = fs.Duration("telemetry-window", 250*time.Millisecond, "telemetry aggregation window (rates, detectors, ring retention)")
		telLinger  = fs.Duration("telemetry-linger", 0, "keep the telemetry endpoint up this long after the run ends (final-scrape window)")
		telLag     = fs.Float64("telemetry-lag", 0, "checkpoint-lag alert threshold in virtual seconds (0 disables the lag detector; the gauge is always exported)")
		dash       = fs.Bool("dash", false, "render a live telemetry dashboard to stderr while the run executes")
	)
	fs.Var(&failures, "fail", "inject a failure as proc:events (repeatable; k-th flag applies to incarnation k)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: chkptsim [flags] program.mpl (use - for stdin)")
		fs.PrintDefaults()
		return 2
	}
	netFaults := *dropRate > 0 || *dupRate > 0 || *reorderRt > 0 || *partitions != ""
	if *protoName == "cl" && (len(failures) > 0 || *crashRate > 0 || *faultRate > 0 || netFaults) {
		fmt.Fprintln(stderr, "chkptsim: -protocol cl cannot run with a crash source (-fail, -chaos-crash-rate, -storage-fault-rate, -net-*): its round state does not survive a rollback yet (ROADMAP item 13)")
		return 2
	}

	closing := cli.Closer("chkptsim", stderr, &code)
	stopProfiles, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(stderr, "chkptsim:", err)
		return 1
	}
	defer closing(stopProfiles)

	started := time.Now()
	src, err := readSource(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "chkptsim:", err)
		return 1
	}
	prog, err := mpl.Parse(src)
	if err != nil {
		fmt.Fprintln(stderr, "chkptsim:", err)
		return 1
	}
	parseTime := time.Since(started)
	var transformTime time.Duration
	if *transform {
		started = time.Now()
		rep, err := core.Transform(prog, core.DefaultConfig)
		if err != nil {
			fmt.Fprintln(stderr, "chkptsim:", err)
			return 1
		}
		prog = rep.Program
		transformTime = time.Since(started)
	}

	cfg := sim.Config{
		Program:  prog,
		Nproc:    *nproc,
		Failures: failures,
		NoPrune:  *noPrune,
		Input:    func(rank, i int) int { return rank + i },
	}
	if *virtual {
		tm := sim.PaperTimeModel
		cfg.Time = &tm
	}

	// Observability taps. The event stream goes straight to disk so a
	// failed run still leaves its history; the recorder feeds the Chrome
	// trace written after the run.
	var rec *obs.Recorder
	if *traceOut != "" {
		rec = obs.NewRecorder()
	}
	var observers []obs.Observer
	if rec != nil {
		observers = append(observers, rec)
	}
	if *eventsOut != "" {
		stream, err := cli.OpenEventStream(*eventsOut)
		if err != nil {
			fmt.Fprintln(stderr, "chkptsim:", err)
			return 1
		}
		defer closing(stream.Close)
		observers = append(observers, stream)
	}
	cfg.Observer = obs.Multi(observers...)

	// Live telemetry: the aggregator joins the observer fan-out (so chaos
	// layers built below publish into it too), samples the run's counters
	// every window — its save / block / stall distributions are theirs —
	// and pushes detector verdicts back into the recorder and event stream,
	// never into itself.
	var agg *telemetry.Aggregator
	if *telAddr != "" || *dash {
		counters := &metrics.Counters{}
		cfg.Counters = counters
		agg = telemetry.New(telemetry.Config{
			Nproc:        *nproc,
			Window:       *telWindow,
			Counters:     counters,
			Sink:         cfg.Observer,
			LagThreshold: *telLag,
		})
		cfg.Observer = obs.Multi(cfg.Observer, agg)
		stopTelemetry, err := cli.StartTelemetry("chkptsim", stderr, agg, *telAddr, *dash, *telLinger)
		if err != nil {
			fmt.Fprintln(stderr, "chkptsim:", err)
			return 1
		}
		defer closing(stopTelemetry)
	}
	if rec != nil {
		// Written in a defer: a failing run should still leave a timeline
		// of everything up to the failure.
		defer closing(func() error { return obs.WriteFile(*traceOut, rec.WriteChromeTrace) })
	}
	store, err := cli.OpenStore(*storeKind)
	if err != nil {
		fmt.Fprintln(stderr, "chkptsim:", err)
		return cli.ExitCode(err)
	}
	defer closing(store.Close)
	cfg.Store = store.Store
	if agg != nil && store.WAL != nil {
		agg.SetWALStats(store.WAL.Stats)
	}
	var chaosStore *chaos.Store
	if *faultRate > 0 {
		chaosStore = chaos.New(cfg.Store, *chaosSeed, chaos.DefaultRates(*faultRate), cfg.Observer)
		cfg.Store = chaosStore
	}
	if *crashRate > 0 {
		cfg.Crashes = chaos.CrashSchedule(*chaosSeed, chaos.ScheduleConfig{
			Nproc: *nproc, Lambda: *crashRate, MaxIncarnations: 3,
		})
	}
	var netChaos *chaos.Network
	if netFaults {
		parts, err := chaos.ParsePartitions(*partitions)
		if err != nil {
			fmt.Fprintln(stderr, "chkptsim:", err)
			return 2
		}
		netChaos = chaos.NewNetwork(*netSeed, chaos.NetRates{
			Drop:     *dropRate,
			Dup:      *dupRate,
			Reorder:  *reorderRt,
			Delay:    *reorderRt / 2,
			MaxDelay: 2 * time.Millisecond,
		}, parts, cfg.Observer)
		cfg.Net = &sim.NetConfig{Chaos: netChaos}
	}
	if chaosStore != nil || netChaos != nil || *crashRate > 0 {
		// Storage faults crash processes beyond the scheduled failures, and
		// partitions can trigger repeated heartbeat suspicions; leave
		// recovery generous headroom.
		cfg.MaxRestarts = len(cfg.Failures) + len(cfg.Crashes) + 25
	}
	switch *protoName {
	case "appl":
		// coordination-free: no hooks
	case "sas":
		cfg.Hooks = protocol.SaS(0)
	case "cl":
		cfg.Hooks = protocol.CL(0, protocol.NewCLCollector())
	case "cic":
		cfg.Hooks = protocol.CIC()
	case "uncoord":
		cfg.Hooks = protocol.Uncoordinated(*interval)
		cfg.Recover = recovery.LatestConsistent
	default:
		fmt.Fprintf(stderr, "chkptsim: unknown protocol %q\n", *protoName)
		return 2
	}

	started = time.Now()
	res, err := sim.Run(cfg)
	runTime := time.Since(started)
	if err != nil {
		fmt.Fprintln(stderr, "chkptsim:", err)
		return 1
	}

	if *metricsOut != "" {
		meta := obs.RunMeta{
			Program:    prog.Name,
			Protocol:   *protoName,
			Nproc:      *nproc,
			Restarts:   res.Restarts,
			RolledBack: res.RolledBack,
			VTime:      res.VTime,
		}
		// Sorted by name, the order the "timer" lines have always had.
		stages := []obs.StageTiming{
			{Name: "chkptsim.parse", Elapsed: parseTime},
			{Name: "chkptsim.run", Elapsed: runTime},
		}
		if *transform {
			stages = append(stages, obs.StageTiming{Name: "chkptsim.transform", Elapsed: transformTime})
		}
		err := obs.WriteFile(*metricsOut, func(w io.Writer) error {
			return obs.WriteMetricsJSONL(w, meta, res.Metrics, stages)
		})
		if err != nil {
			fmt.Fprintln(stderr, "chkptsim:", err)
			return 1
		}
	}

	fmt.Fprintf(stdout, "program %s: n=%d protocol=%s restarts=%d\n",
		prog.Name, *nproc, *protoName, res.Restarts)
	fmt.Fprintf(stdout, "metrics: %s\n", res.Metrics)
	if full := res.Metrics.Custom[sim.MetricPruneBytesFull]; full > 0 {
		saved := res.Metrics.Custom[sim.MetricPruneBytesSaved]
		fmt.Fprintf(stdout, "prune: %dB saved of %dB full (%.1f%%), %d dead variable(s) dropped\n",
			saved, full, 100*float64(saved)/float64(full), res.Metrics.Custom[sim.MetricPruneVarsDropped])
	}
	if *virtual {
		fmt.Fprintf(stdout, "virtual makespan: %.4f s\n", res.VTime)
	}
	store.PrintStats(stdout)
	if chaosStore != nil {
		st := chaosStore.Stats()
		fmt.Fprintf(stdout, "chaos: %d fault(s): %d write, %d read, %d torn (%d repaired), %d bit-flip\n",
			st.Total(), st.WriteErrors, st.ReadErrors, st.TornWrites, st.Repairs, st.BitFlips)
	}
	if netChaos != nil {
		st := netChaos.Stats()
		fmt.Fprintf(stdout, "net chaos: %d fault(s): %d drop (%d partition), %d dup, %d reorder, %d delay; %d heal(s)\n",
			st.Total(), st.Drops, st.PartitionDrops, st.Dups, st.Reorders, st.Delays, st.Heals)
	}
	for p, vars := range res.FinalVars {
		fmt.Fprintf(stdout, "  proc %d: %v\n", p, sortedVars(vars))
	}

	if *zz && res.Trace != nil {
		analysis, err := zigzag.FromTrace(res.Trace)
		if err != nil {
			fmt.Fprintln(stderr, "chkptsim: zigzag:", err)
			return 1
		}
		stats := analysis.Stats()
		fmt.Fprintf(stdout, "zigzag: %d checkpoint(s), %d useless\n", stats.Total, stats.Useless)
		for _, c := range analysis.Useless() {
			fmt.Fprintf(stdout, "  useless: %v (on a Z-cycle; member of no consistent snapshot)\n", c)
		}
	}

	if *verify && res.Trace != nil {
		bad := 0
		for _, idx := range res.Trace.CheckpointIndexes() {
			cut, err := res.Trace.StraightCut(idx)
			if err != nil {
				fmt.Fprintf(stdout, "R_%d: incomplete (%v)\n", idx, err)
				continue
			}
			if trace.IsRecoveryLine(cut) {
				fmt.Fprintf(stdout, "R_%d: recovery line\n", idx)
			} else {
				a, b, _ := trace.FirstViolation(cut)
				fmt.Fprintf(stdout, "R_%d: INCONSISTENT (%v happened before %v)\n", idx, a, b)
				bad++
			}
		}
		if bad > 0 {
			return 1
		}
	}
	return 0
}

func readSource(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func sortedVars(vars map[string]int) string {
	keys := make([]string, 0, len(vars))
	for k := range vars {
		keys = append(keys, k)
	}
	// insertion sort; variable sets are tiny
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s=%d", k, vars[k])
	}
	sb.WriteByte('}')
	return sb.String()
}
