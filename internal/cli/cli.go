// Package cli holds what the command-line tools share. The flags chkptsim
// and chkptfleet both take are declared here once (Flags), with one name,
// default and help string, and so is what they build: the store, the
// observer stack (event stream, trace recorder, live telemetry) and a run's
// faults. So are the -cpuprofile / -memprofile pair, program reading, the
// straight-cut report, and range-checked flags (Bounded).
package cli

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/mpl"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ErrUsage marks a malformed flag value.
var ErrUsage = errors.New("usage")

// ExitCode is the exit status for a failed command: 2 for ErrUsage, else 1.
func ExitCode(err error) int {
	if errors.Is(err, ErrUsage) {
		return 2
	}
	return 1
}

// Closer returns the function a command defers its flush/teardown steps
// through: an error from a step is reported on stderr under the command's
// name and turns a zero exit code into 1.
func Closer(name string, stderr io.Writer, code *int) func(step func() error) {
	return func(step func() error) {
		if err := step(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			if *code == 0 {
				*code = 1
			}
		}
	}
}

// Flags are the flags chkptsim and chkptfleet share; Register declares
// them and Open builds what they name. The last three fields belong to
// flags only chkptsim declares.
type Flags struct {
	Store            string
	Seed             int64
	StorageFaultRate float64
	CrashRate        float64
	NetFaultRate     float64
	EventsOut        string
	TelemetryAddr    string
	TelemetryWindow  time.Duration
	Dash             bool

	TraceOut        string        // a Chrome trace of the run, written at Close
	TelemetryLinger time.Duration // how long the endpoint outlives the run
	TelemetryLag    float64       // the checkpoint-lag alert bar (0: off)
}

// Register declares the shared flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Store, "store", "mem", "stable storage: mem, incremental, or wal:DIR (the durable group-commit log rooted at DIR)")
	fs.Int64Var(&f.Seed, "seed", 1, "seed for every injected fault, and for chkptfleet's arrivals, tenants and business verdicts (same seed, same run)")
	Bounded(fs, &f.StorageFaultRate, "storage-fault-rate", 0, 1, "storage fault rate in [0,1]: transient errors, torn writes, bit flips, latency")
	Bounded(fs, &f.CrashRate, "crash-rate", 0, math.Inf(1), "expected injected crashes per incarnation (Poisson): a seeded multi-process, multi-incarnation crash schedule")
	Bounded(fs, &f.NetFaultRate, "net-fault-rate", 0, 1, "network fault rate in [0,1]: frames drop at it, duplicate and reorder at half, delay at a quarter; enables the hardened ack/retransmit transport")
	fs.StringVar(&f.EventsOut, "events-out", "", "stream structured JSONL events to this file as they happen")
	fs.StringVar(&f.TelemetryAddr, "telemetry-addr", "", "serve live telemetry on this address: /metrics (Prometheus text), /snapshot.json, /healthz (e.g. 127.0.0.1:9464, or :0 for an ephemeral port)")
	fs.DurationVar(&f.TelemetryWindow, "telemetry-window", 250*time.Millisecond, "telemetry aggregation window (rates, detectors, ring retention)")
	fs.BoolVar(&f.Dash, "dash", false, "render a live telemetry dashboard to stderr while the run executes")
}

// Bounded declares a flag on fs that stores into p, with p's value as the
// default, and refuses a value outside [lo, hi]. A refused value fails
// fs.Parse, which every command reports as a usage error (exit 2).
func Bounded[T int | float64](fs *flag.FlagSet, p *T, name string, lo, hi T, usage string) {
	fs.Var(bounded[T]{p, lo, hi}, name, usage)
}

type bounded[T int | float64] struct {
	p      *T
	lo, hi T
}

func (b bounded[T]) String() string {
	var v T // flag.PrintDefaults asks a zero bounded for the zero value
	if b.p != nil {
		v = *b.p
	}
	return fmt.Sprint(v)
}

func (b bounded[T]) Set(s string) error {
	var v T
	var err error
	switch p := any(&v).(type) {
	case *int:
		*p, err = strconv.Atoi(s)
	case *float64:
		*p, err = strconv.ParseFloat(s, 64)
	}
	switch {
	case err != nil:
		return err
	case !(v >= b.lo): // NaN too
		return fmt.Errorf("%v is below %v", v, b.lo)
	case v > b.hi:
		return fmt.Errorf("%v is above %v", v, b.hi)
	}
	*b.p = v
	return nil
}

// Run is what Open built: the store runs save to, the observer every event
// goes to (nil when nothing observes) and the counters runs accumulate into.
type Run struct {
	Store    *Store
	Observer obs.Observer
	Counters *metrics.Counters

	flags   *Flags
	chaos   *chaos.Store   // set by Configure at -storage-fault-rate
	net     *chaos.Network // set by Configure for lossy links
	closers []func() error // Close runs them last first
}

// Open builds what the flags name, in the order a run needs it: the store,
// the -events-out stream, the trace recorder, and with -telemetry-addr or
// -dash the live aggregator. The aggregator samples Counters and, on a
// wal:DIR store, the log's statistics; nproc sizes its per-process table.
// Its detector verdicts go to the stream and the recorder, never back into
// itself. On an error nothing stays open.
func (f *Flags) Open(name string, stderr io.Writer, nproc int) (_ *Run, err error) {
	r := &Run{Counters: &metrics.Counters{}, flags: f}
	defer func() {
		if err != nil {
			r.Close()
		}
	}()
	if r.Store, err = OpenStore(f.Store); err != nil {
		return nil, err
	}
	r.closers = append(r.closers, r.Store.Close)
	var observers []obs.Observer
	if f.EventsOut != "" {
		stream, err := OpenEventStream(f.EventsOut)
		if err != nil {
			return nil, err
		}
		r.closers = append(r.closers, stream.Close)
		observers = append(observers, stream)
	}
	if f.TraceOut != "" {
		rec := obs.NewRecorder()
		r.closers = append(r.closers, func() error { return obs.WriteFile(f.TraceOut, rec.WriteChromeTrace) })
		observers = append(observers, rec)
	}
	r.Observer = obs.Multi(observers...)
	if f.TelemetryAddr != "" || f.Dash {
		tcfg := telemetry.Config{Nproc: nproc, Window: f.TelemetryWindow, Counters: r.Counters, Sink: r.Observer, LagThreshold: f.TelemetryLag}
		if r.Store.WAL != nil {
			tcfg.WALStats = r.Store.WAL.Stats
		}
		agg := telemetry.New(tcfg)
		stop, err := StartTelemetry(name, stderr, agg, f.TelemetryAddr, f.Dash, f.TelemetryLinger)
		if err != nil {
			return nil, err
		}
		r.closers = append(r.closers, stop)
		r.Observer = obs.Multi(r.Observer, agg)
	}
	return r, nil
}

// Close undoes Open last step first — telemetry's final window, the trace
// file, the event stream, the store — and reports every step's error.
func (r *Run) Close() error {
	var errs []error
	for i := len(r.closers) - 1; i >= 0; i-- {
		errs = append(errs, r.closers[i]())
	}
	return errors.Join(errs...)
}

// Configure makes cfg a run of the flags: the opened store, chaos-wrapped
// at -storage-fault-rate; Observer and Counters; and what
// chaos.Arm sets from -seed: a crash schedule at -crash-rate over the first
// three incarnations, lossy links at -net-fault-rate and parts, and the
// restart headroom. Set cfg.Failures first: the headroom counts them.
func (r *Run) Configure(cfg *sim.Config, parts []chaos.Partition) {
	f := r.flags
	cfg.Store, cfg.Observer, cfg.Counters = r.Store.Store, r.Observer, r.Counters
	if f.StorageFaultRate > 0 {
		r.chaos = chaos.New(cfg.Store, f.Seed, chaos.DefaultRates(f.StorageFaultRate), r.Observer)
		cfg.Store = r.chaos
	}
	r.net = chaos.Arm(cfg, chaos.Faults{
		Seed: f.Seed, CrashRate: f.CrashRate, Incarnations: 3,
		NetRate: f.NetFaultRate, Partitions: parts, StoreFaults: r.chaos != nil,
	}, r.Observer)
}

// PrintStats writes the end-of-run statistics of the store and of the
// fault injectors Configure armed.
func (r *Run) PrintStats(w io.Writer) {
	r.Store.PrintStats(w)
	if r.chaos != nil {
		st := r.chaos.Stats()
		fmt.Fprintf(w, "chaos: %d fault(s): %d write, %d read, %d torn (%d repaired), %d bit-flip\n",
			st.Total(), st.WriteErrors, st.ReadErrors, st.TornWrites, st.Repairs, st.BitFlips)
	}
	if r.net != nil {
		st := r.net.Stats()
		fmt.Fprintf(w, "net chaos: %d fault(s): %d drop (%d partition), %d dup, %d reorder, %d delay; %d heal(s)\n",
			st.Total(), st.Drops, st.PartitionDrops, st.Dups, st.Reorders, st.Delays, st.Heals)
	}
}

// Store is an opened -store spec. Incremental and WAL are set for the
// kinds that report statistics; both are nil for the memory store.
type Store struct {
	Store       storage.Store
	Incremental *storage.Incremental
	WAL         *wal.Store
}

// OpenStore opens the stable storage a -store flag names:
//
//	mem          a fresh in-memory store
//	incremental  an in-memory delta-encoding store
//	wal:DIR      the durable group-commit log rooted at DIR
//
// Anything else is ErrUsage, a bare path included: a directory is only ever
// opened as a log when the spec says wal:.
func OpenStore(spec string) (*Store, error) {
	switch dir, isWAL := strings.CutPrefix(spec, "wal:"); {
	case spec == "mem":
		return &Store{Store: storage.NewMemory()}, nil
	case spec == "incremental":
		inc := storage.NewIncremental(0)
		return &Store{Store: inc, Incremental: inc}, nil
	case isWAL && dir != "":
		ws, err := wal.Open(dir, wal.Options{})
		if err != nil {
			return nil, err
		}
		return &Store{Store: ws, WAL: ws}, nil
	}
	return nil, fmt.Errorf("%w: -store %q is not mem, incremental or wal:DIR (the durable store is the log: spell a directory wal:DIR)", ErrUsage, spec)
}

// Close releases the store (the WAL's committers and file handles; the
// other kinds hold nothing).
func (s *Store) Close() error {
	if s.WAL != nil {
		return s.WAL.Close()
	}
	return nil
}

// PrintStats writes the store's end-of-run statistics line, if its kind
// keeps any.
func (s *Store) PrintStats(w io.Writer) {
	if s.Incremental != nil {
		st := s.Incremental.Stats()
		fmt.Fprintf(w, "incremental store: %dB full + %dB delta\n", st.FullBytes, st.DeltaBytes)
	}
	if s.WAL != nil {
		st := s.WAL.Stats()
		fmt.Fprintf(w, "wal store: %d save(s) in %d group commit(s), %d rotation(s), %d compaction(s), %d recovered, %dB torn tail truncated\n",
			st.Saves, st.Batches, st.Rotations, st.Compactions, st.Recovered, st.TruncatedBytes)
	}
}

// bufferedFile routes stream writes through a bufio buffer while letting
// StreamWriter.Close flush it and close the underlying file.
type bufferedFile struct {
	*bufio.Writer
	f *os.File
}

func (b bufferedFile) Close() error { return b.f.Close() }

// OpenEventStream creates path and returns the JSONL event stream an
// -events-out flag asks for: buffered so the hot path stays cheap,
// auto-flushed so a kill -9 still leaves a parseable prefix on disk. Close
// does the final flush, closes the file, and surfaces errors from every
// stage.
func OpenEventStream(path string) (*obs.StreamWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	stream := obs.NewStreamWriter(bufferedFile{bufio.NewWriterSize(f, 64<<10), f})
	stream.AutoFlush(200 * time.Millisecond)
	return stream, nil
}

// StartTelemetry starts agg's window ticker and, as asked, the exposition
// server on addr (-telemetry-addr; announced on stderr under the command's
// name) and the stderr dashboard (-dash). The returned stop closes the
// final partial window, stops the dashboard, keeps the endpoint up for
// linger so a scraper catches the final state, and closes the server,
// reporting a serve-goroutine death.
func StartTelemetry(name string, stderr io.Writer, agg *telemetry.Aggregator, addr string, dash bool, linger time.Duration) (stop func() error, err error) {
	stopTick := agg.Start()
	var srv *telemetry.Server
	if addr != "" {
		if srv, err = telemetry.NewServer(addr, agg); err != nil {
			stopTick()
			return nil, err
		}
		fmt.Fprintf(stderr, "%s: telemetry at %s/metrics\n", name, srv.URL())
	}
	stopDash := func() {}
	if dash {
		stopDash = telemetry.NewDashboard(agg, stderr).RunUntil()
	}
	return func() error {
		stopTick()
		agg.Tick()
		stopDash()
		if srv == nil {
			return nil
		}
		time.Sleep(linger)
		return srv.Close()
	}, nil
}

// Profiles is the -cpuprofile / -memprofile pair.
type Profiles struct{ cpu, mem string }

// Register declares the pair on fs.
func (p *Profiles) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a pprof heap profile to this file")
}

// Start begins the -cpuprofile capture (when set). The returned stop ends
// it and writes the -memprofile heap profile (when set) — at stop time, so
// the profile reflects the completed or failed run.
func (p *Profiles) Start() (stop func() error, err error) {
	var cpu *os.File
	if p.cpu != "" {
		if cpu, err = os.Create(p.cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var memErr, cpuErr error
		if p.mem != "" {
			runtime.GC()
			memErr = obs.WriteFile(p.mem, pprof.WriteHeapProfile)
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			cpuErr = cpu.Close()
		}
		return errors.Join(memErr, cpuErr)
	}, nil
}

// ReadProgram reads an MPL program from path ("-" is stdin) and parses it.
func ReadProgram(path string) (*mpl.Program, error) {
	read := os.ReadFile
	if path == "-" {
		read = func(string) ([]byte, error) { return io.ReadAll(os.Stdin) }
	}
	src, err := read(path)
	if err != nil {
		return nil, err
	}
	return mpl.Parse(string(src))
}

// StraightCuts checks every straight cut of tr and writes one line per cut
// to w: "R_i: recovery line", "R_i: INCONSISTENT (a happened before b)", or
// "R_i: incomplete (why)" when a process took no checkpoint i. It returns
// how many cuts are recovery lines and how many are inconsistent.
func StraightCuts(w io.Writer, tr *trace.Trace) (ok, bad int) {
	for _, idx := range tr.CheckpointIndexes() {
		cut, err := tr.StraightCut(idx)
		switch {
		case err != nil:
			fmt.Fprintf(w, "R_%d: incomplete (%v)\n", idx, err)
		case trace.IsRecoveryLine(cut):
			fmt.Fprintf(w, "R_%d: recovery line\n", idx)
			ok++
		default:
			a, b, _ := trace.FirstViolation(cut)
			fmt.Fprintf(w, "R_%d: INCONSISTENT (%v happened before %v)\n", idx, a, b)
			bad++
		}
	}
	return ok, bad
}
