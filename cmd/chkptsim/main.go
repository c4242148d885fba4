// Command chkptsim executes an MPL program on the concurrent runtime under
// a chosen checkpointing protocol, optionally injecting failures, and
// reports metrics plus recovery-line verification of the recorded trace.
//
// Usage:
//
//	chkptsim -n 4 [-protocol appl|sas|cl|cic|uncoord] [-transform] [-verify]
//	         [-zigzag] [-vtime] [-store mem|incremental|wal:DIR]
//	         [-fail proc:events] [-seed 1] [-crash-rate 1.2]
//	         [-storage-fault-rate 0.1] [-net-fault-rate 0.1]
//	         [-net-partition '0>1@100ms+300ms'] [-trace-out run.json]
//	         [-events-out run.jsonl] [-metrics-out metrics.jsonl]
//	         [-telemetry-addr 127.0.0.1:9464] [-telemetry-window 250ms]
//	         [-telemetry-linger 0s] [-telemetry-lag 0] [-dash]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof] program.mpl
//
// chkptsim -h describes every flag. The export flags persist the run, and
// the -events-out stream is complete even when the run fails. The live
// telemetry flags observe the run while it executes; their detector
// verdicts (stalls, rollback storms, checkpoint lag) are events in
// -events-out and -trace-out too. The fault flags are seeded: the same
// -seed gives the same crashes, storage faults and link faults. A network
// fault flag runs the hardened transport (per-channel sequencing,
// ack/retransmit with an adaptive RTO), whose links report a peer that
// leaves their frames unacked too long, turning a partition's silence into
// an ordinary crash→recovery.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/zigzag"
)

// uncoordInterval is the uncoordinated protocol's checkpoint period: local
// events between checkpoints.
const uncoordInterval = 10

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("chkptsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		shared   cli.Flags
		profiles cli.Profiles
		nproc    = 4
		failures []sim.Failure
		parts    []chaos.Partition
	)
	shared.Register(fs)
	profiles.Register(fs)
	cli.Bounded(fs, &nproc, "n", 1, math.MaxInt, "number of processes")
	var (
		protoName  = fs.String("protocol", "appl", "checkpointing protocol: appl, sas, cl, cic, uncoord")
		transform  = fs.Bool("transform", false, "run the offline transformation (phases I-III) before executing")
		verify     = fs.Bool("verify", true, "verify that every straight cut of the trace is a recovery line")
		zz         = fs.Bool("zigzag", false, "run the Netzer-Xu Z-cycle analysis on the recorded trace and report useless checkpoints")
		metricsOut = fs.String("metrics-out", "", "write a JSONL metrics stream (counters, histograms, timers) to this file")
		virtual    = fs.Bool("vtime", false, "price the run in virtual time with the paper's cost model (timestamps trace output deterministically)")
	)
	fs.StringVar(&shared.TraceOut, "trace-out", "", "write the run as Chrome trace-event JSON (open in ui.perfetto.dev or chrome://tracing)")
	fs.DurationVar(&shared.TelemetryLinger, "telemetry-linger", 0, "keep the telemetry endpoint up this long after the run ends (final-scrape window)")
	cli.Bounded(fs, &shared.TelemetryLag, "telemetry-lag", 0, math.Inf(1), "checkpoint-lag alert threshold in virtual seconds (0 disables the lag detector; the gauge is always exported)")
	fs.Func("fail", "inject a failure as proc:events (repeatable; k-th flag applies to incarnation k)", func(v string) error { return addFailure(&failures, v) })
	fs.Func("net-partition", "directed partition windows as FROM>TO@START+DUR, comma-separated ('0>1@100ms+300ms'; '*' wildcards a side); enables the hardened transport", func(v string) (err error) {
		parts, err = chaos.ParsePartitions(v)
		return err
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: chkptsim [flags] program.mpl (use - for stdin)")
		fs.PrintDefaults()
		return 2
	}
	hooks, recoverLine, err := protocolHooks(*protoName)
	if err != nil {
		fmt.Fprintln(stderr, "chkptsim:", err)
		return 2
	}
	if *protoName == "cl" && (len(failures) > 0 || len(parts) > 0 || shared.CrashRate > 0 || shared.StorageFaultRate > 0 || shared.NetFaultRate > 0) {
		fmt.Fprintln(stderr, "chkptsim: -protocol cl cannot run with a crash source (-fail, -crash-rate, -storage-fault-rate, -net-fault-rate, -net-partition): its round state does not survive a rollback yet (ROADMAP item 13)")
		return 2
	}

	closing := cli.Closer("chkptsim", stderr, &code)
	stopProfiles, err := profiles.Start()
	if err != nil {
		fmt.Fprintln(stderr, "chkptsim:", err)
		return 1
	}
	defer closing(stopProfiles)

	started := time.Now()
	prog, err := cli.ReadProgram(fs.Arg(0))
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

	r, err := shared.Open("chkptsim", stderr, nproc)
	if err != nil {
		fmt.Fprintln(stderr, "chkptsim:", err)
		return cli.ExitCode(err)
	}
	defer closing(r.Close)
	cfg := sim.Config{
		Program:  prog,
		Nproc:    nproc,
		Failures: failures,
		Hooks:    hooks,
		Recover:  recoverLine,
		Input:    func(rank, i int) int { return rank + i },
	}
	if *virtual {
		tm := sim.PaperTimeModel
		cfg.Time = &tm
	}
	r.Configure(&cfg, parts)

	started = time.Now()
	res, err := sim.Run(cfg)
	runTime := time.Since(started)
	if err != nil {
		fmt.Fprintln(stderr, "chkptsim:", err)
		return 1
	}
	m := r.Counters.Snapshot() // the run fed the CLI's sink, not res.Metrics

	if *metricsOut != "" {
		meta := obs.RunMeta{
			Program:    prog.Name,
			Protocol:   *protoName,
			Nproc:      nproc,
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
			return obs.WriteMetricsJSONL(w, meta, m, stages)
		})
		if err != nil {
			fmt.Fprintln(stderr, "chkptsim:", err)
			return 1
		}
	}

	fmt.Fprintf(stdout, "program %s: n=%d protocol=%s restarts=%d\n",
		prog.Name, nproc, *protoName, res.Restarts)
	fmt.Fprintf(stdout, "metrics: %s\n", m)
	if full := m.Custom[sim.MetricPruneBytesFull]; full > 0 {
		saved := m.Custom[sim.MetricPruneBytesSaved]
		fmt.Fprintf(stdout, "prune: %dB saved of %dB full (%.1f%%), %d dead variable(s) dropped\n",
			saved, full, 100*float64(saved)/float64(full), m.Custom[sim.MetricPruneVarsDropped])
	}
	if *virtual {
		fmt.Fprintf(stdout, "virtual makespan: %.4f s\n", res.VTime)
	}
	r.PrintStats(stdout)
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
		if _, bad := cli.StraightCuts(stdout, res.Trace); bad > 0 {
			return 1
		}
	}
	return 0
}

// protocolHooks returns the -protocol name's hooks and recovery-line choice
// (nil: the runtime's defaults).
func protocolHooks(name string) (sim.HooksFactory, sim.RecoveryFunc, error) {
	switch name {
	case "appl":
		return nil, nil, nil // coordination-free: no hooks
	case "sas":
		return protocol.SaS(), nil, nil
	case "cl":
		return protocol.CL(), nil, nil
	case "cic":
		return protocol.CIC(), nil, nil
	case "uncoord":
		return protocol.Uncoordinated(uncoordInterval), recovery.LatestConsistent, nil
	}
	return nil, nil, fmt.Errorf("unknown protocol %q", name)
}

// addFailure appends the failure a -fail value, proc:events, names.
func addFailure(failures *[]sim.Failure, v string) error {
	procS, eventsS, ok := strings.Cut(v, ":")
	if !ok {
		return fmt.Errorf("want proc:events, got %q", v)
	}
	proc, err := strconv.Atoi(procS)
	if err != nil {
		return err
	}
	events, err := strconv.Atoi(eventsS)
	if err != nil {
		return err
	}
	if proc < 0 || events < 0 {
		return fmt.Errorf("%q: process and event count must be non-negative", v)
	}
	*failures = append(*failures, sim.Failure{Proc: proc, AfterEvents: events})
	return nil
}

func sortedVars(vars map[string]int) string {
	keys := make([]string, 0, len(vars))
	for k := range vars {
		keys = append(keys, k)
	}
	slices.Sort(keys)
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
