package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/mpl"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Failure schedules an injected crash: in the incarnation it applies to,
// process Proc fails after recording AfterEvents local events. The
// runtime then aborts the incarnation, chooses a recovery line, rolls the
// whole application back, and resumes — the global-restart model of the
// paper's coordination-free scheme.
type Failure struct {
	Proc        int
	AfterEvents int
}

// Crash schedules an injected crash addressed by incarnation. Unlike the
// positional Failures list (one entry per incarnation), Crashes can name
// several processes in the same incarnation — concurrent failures — and
// target incarnations k >= 1 without padding — failures that strike while
// the application is still replaying from a recovery line.
type Crash struct {
	Inc         int // incarnation the crash applies to
	Proc        int
	AfterEvents int
}

// ErrCanceled reports a run stopped early because Config.Cancel closed.
// The store still holds every checkpoint saved so far: the job is parked,
// not lost. Nothing resumes it yet: every Run starts at incarnation 0 from
// the initial state, so a second Run over the same store fails at its first
// checkpoint with storage.ErrDuplicate (cold-start resume: ROADMAP item 5).
var ErrCanceled = errors.New("sim: run canceled")

// RecoveryFunc chooses the recovery line after a failure. The default is
// recovery.StraightCut. Returning recovery.ErrNoRecoveryLine restarts the
// application from its initial state.
type RecoveryFunc func(st storage.Store, n int) (*recovery.Line, error)

// Config configures a run.
type Config struct {
	Program *mpl.Program
	// Code, when set, is the compiled form of Program, which may then stay
	// nil; Run compiles Program itself when it is nil. Compile's result is only
	// read afterwards: any number of concurrent runs may share one Code.
	Code  *Code
	Nproc int
	// Hooks builds the per-process protocol; nil runs the coordination-free
	// application-driven scheme.
	Hooks HooksFactory
	// Store is the stable storage; nil uses a fresh in-memory store.
	Store storage.Store
	// Input supplies input(i) data per process; nil makes input(...) an
	// error.
	Input func(rank, i int) int
	// Failures[k] is injected during incarnation k. Incarnations beyond the
	// list run failure-free.
	Failures []Failure
	// Time enables virtual-time accounting with the given cost model.
	Time *TimeModel
	// Crashes schedules additional crashes by (incarnation, process); see
	// Crash. When several triggers name the same process in the same
	// incarnation, the earliest event count wins.
	Crashes []Crash
	// MaxRestarts bounds recovery attempts (default: one more than the
	// total number of scheduled failures).
	MaxRestarts int
	// RetryBudget, when non-nil, is consulted before every retry of a
	// transiently failing store operation (storage.ErrTransient); fleet
	// drivers share one per tenant to bound retries across many concurrent
	// jobs. Nil leaves the attempt cap alone in charge. A checkpoint save
	// that runs out of retries crashes the saving process, turning a
	// storage outage into an ordinary recovery instead of a failed run.
	RetryBudget RetryBudget
	// Cancel, when non-nil, requests early termination when closed: the
	// run stops at the next incarnation boundary — or aborts the current
	// incarnation mid-flight — and returns ErrCanceled. Checkpoints
	// already saved remain in the store, so a canceled job is *parked*,
	// not lost; see ErrCanceled for what a later run over that store does
	// today. Fleet drain uses this to checkpoint-and-park in-flight jobs.
	Cancel <-chan struct{}
	// Recover chooses the recovery line (default recovery.StraightCut).
	Recover RecoveryFunc
	// DisableTrace skips event recording (benchmarks).
	DisableTrace bool
	// Observer, when set, receives every runtime event (sends, receives,
	// checkpoints, blocks, rollbacks, restarts) as it happens — the
	// observability layer's tap. Unlike Trace it spans ALL incarnations,
	// not just the final one, and it is independent of DisableTrace.
	// Implementations must be safe for concurrent use.
	Observer obs.Observer
	// Counters, when set, is the sink the run accumulates into instead of a
	// private one: the live-telemetry tap, which a server can scrape while
	// the run executes. Its owner snapshots it; Result.Metrics stays zero.
	Counters *metrics.Counters
	// Net, when set, hardens the network: every message crosses a lossy
	// link layer (optionally driven by a fault injector, Net.Chaos) with
	// per-channel sequencing, duplicate suppression, ack/retransmit under
	// a netestim-driven RTO, and failure detection by the link a silent
	// peer leaves unacked, which turns that silence into ordinary
	// crash→recovery. Nil keeps the legacy reliable in-process fabric,
	// behaviourally identical to prior revisions.
	Net *NetConfig
	// Timeout aborts a deadlocked incarnation (default 30s). Programs with
	// mismatched sends/receives otherwise block forever.
	Timeout time.Duration
	// Jitter perturbs the goroutine schedule with a seeded random yield
	// pattern at instruction boundaries. Different seeds explore different
	// real-time interleavings (marker arrival orders, poll timings);
	// results of deterministic programs must not change — which is exactly
	// what schedule-sweep tests assert. 0 disables jitter.
	Jitter int64
	// NoPrune disables liveness-minimized checkpoint payloads: application
	// checkpoints persist the full variable environment instead of the
	// per-site live-set manifest, reproducing pre-pruning byte counts. The
	// A/B escape hatch behind the CLIs' -no-prune flags.
	NoPrune bool
}

// Result reports a completed run.
type Result struct {
	// Trace records the FINAL incarnation's events (earlier incarnations
	// are rolled back; their surviving effects live in the checkpoints).
	Trace *trace.Trace
	// FinalVars is each process's variable state at halt (its map, not a copy).
	FinalVars []map[string]int
	// Metrics are the counters of all incarnations; zero with Config.Counters.
	Metrics metrics.Snapshot
	// Restarts is the number of recoveries performed.
	Restarts int
	// RolledBack accumulates recovery.Line.Rollbacks over all restarts
	// (domino measure for uncoordinated recovery).
	RolledBack int
	// Store is the stable storage after the run.
	Store storage.Store
	// VTimes are the per-process virtual clocks at completion (only with
	// Config.Time); VTime is their maximum — the application's makespan.
	VTimes []float64
	VTime  float64
}

// crashPlan maps (incarnation, process) to the local event count after
// which the process crashes there.
type crashPlan map[[2]int]int

// at returns the event count armed for proc in incarnation inc, negative
// (never fires) when there is none.
func (pl crashPlan) at(inc, proc int) int {
	if after, ok := pl[[2]int{inc, proc}]; ok {
		return after
	}
	return -1
}

// resolveCrashes validates cfg's failure schedules and merges them into one
// plan. When several event counts are armed for the same process in the
// same incarnation, the earliest wins.
func resolveCrashes(cfg Config) (crashPlan, error) {
	plan := crashPlan{}
	arm := func(kind string, inc, proc, afterEvents int) error {
		if proc < 0 || proc >= cfg.Nproc {
			return fmt.Errorf("sim: %s names process %d of %d", kind, proc, cfg.Nproc)
		}
		if inc < 0 {
			return fmt.Errorf("sim: %s names incarnation %d", kind, inc)
		}
		if armed := plan.at(inc, proc); afterEvents >= 0 && (armed < 0 || afterEvents < armed) {
			plan[[2]int{inc, proc}] = afterEvents
		}
		return nil
	}
	for k, f := range cfg.Failures {
		if err := arm("failure", k, f.Proc, f.AfterEvents); err != nil {
			return nil, err
		}
	}
	for _, c := range cfg.Crashes {
		if err := arm("crash", c.Inc, c.Proc, c.AfterEvents); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// run is what the incarnations of one Run call share.
type run struct {
	cfg  Config // defaults resolved
	code *Code
	plan crashPlan
	net  *Network
	// store is the one handle every runtime access to stable storage goes
	// through — saves, recovery-line selection, scrub and discard alike —
	// so all of them are retried and budgeted the same way. Result.Store
	// is still the caller's own.
	store *retryStore
}

// Run executes the program to completion under the configured protocol and
// failure schedule: one incarnation after another, each rolled back to a
// recovery line when a process fails, until one completes.
func Run(cfg Config) (*Result, error) {
	if (cfg.Program == nil && cfg.Code == nil) || cfg.Nproc <= 0 {
		return nil, errors.New("sim: Config requires Program and positive Nproc")
	}
	code, err := cfg.Code, error(nil)
	if code == nil {
		code, err = Compile(cfg.Program)
	} else if cfg.Program != nil && cfg.Program != code.Prog {
		err = errors.New("sim: Config.Code was not compiled from Config.Program")
	}
	if err != nil {
		return nil, err
	}
	plan, err := resolveCrashes(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Hooks == nil {
		cfg.Hooks = NoProtocol
	}
	if cfg.Store == nil {
		cfg.Store = storage.NewMemory()
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = len(cfg.Failures) + len(cfg.Crashes) + 1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	private := cfg.Counters == nil
	if private {
		cfg.Counters = &metrics.Counters{}
	}
	net := NewNetwork(cfg.Nproc)
	if cfg.Net != nil {
		net.harden(*cfg.Net, cfg.Counters, cfg.Observer)
		// Stop retransmit timers and orphan delayed deliveries once the
		// run is over, whatever path it exits by.
		defer net.tr.reset()
	}
	r := &run{cfg: cfg, code: code, plan: plan, net: net,
		store: newRetryStore(cfg.Store, cfg.RetryBudget, cfg.Counters, cfg.Observer)}

	res := &Result{Store: cfg.Store}
	var line *recovery.Line // nil = start from scratch
	var restartV float64    // wall (virtual) time at which the restart begins
	var procs []*Proc       // the incarnation that ran last
	for inc := 0; ; inc++ {
		select {
		case <-cfg.Cancel: // never ready when nil
			return nil, ErrCanceled
		default:
		}
		if procs, err = r.start(inc, procs, line, restartV); err != nil {
			return nil, err
		}
		failure, err := r.wait(inc, procs)
		if err != nil {
			return nil, err
		}
		if failure == nil {
			res.finish(procs)
			if private {
				res.Metrics = cfg.Counters.Snapshot()
			}
			return res, nil
		}
		// If virtual time is on, the restart begins at the wall time the
		// application had reached, plus the recovery overhead R — lost
		// work is then re-paid by the replay, exactly as in the §4 model.
		if cfg.Time != nil {
			for _, p := range procs {
				restartV = max(restartV, p.vtime)
			}
			restartV += cfg.Time.Recovery
		}
		res.Restarts++
		cfg.Counters.IncRollbacks(cfg.Nproc)
		r.emit(obs.KindRollback, inc, restartV, "%v", failure)
		if res.Restarts > cfg.MaxRestarts {
			return nil, fmt.Errorf("sim: exceeded %d restarts: %w", cfg.MaxRestarts, failure)
		}
		if line, err = r.rollback(inc, procs, restartV); err != nil {
			return nil, err
		}
		if line != nil {
			res.RolledBack += line.Rollbacks
		}
	}
}

// emit publishes a run-level lifecycle event; with no observer the label
// is never built.
func (r *run) emit(kind obs.Kind, inc int, vtime float64, format string, args ...any) {
	if o := r.cfg.Observer; o != nil {
		o.OnEvent(obs.Event{Kind: kind, Proc: -1, Inc: inc, VTime: vtime, Label: fmt.Sprintf(format, args...)})
	}
}

// start builds incarnation inc's processes: fresh at the program start, or
// restored from line, with the incarnation's crash triggers armed. Each
// takes over the memory of its predecessor in prev, the incarnation that
// just failed (nil at incarnation 0) — environment, per-peer row and its
// channels, instance map — and init refills it. That is safe because wait
// returned only after every goroutine of prev had reported in and rollback
// has read their counters: nothing runs on that memory any more, stores,
// observers and the send log were only ever lent it, and what init finds it
// overwrites, never trusts. Hooks and protocol state are built anew.
func (r *run) start(inc int, prev []*Proc, line *recovery.Line, restartV float64) ([]*Proc, error) {
	cfg, n := &r.cfg, r.cfg.Nproc
	var tr *trace.Trace
	if !cfg.DisableTrace {
		tr = trace.NewTrace(n)
	}
	procs := prev
	if procs == nil {
		procs = make([]*Proc, n)
	}
	for rank, old := range procs {
		p := &Proc{
			rank: rank, n: n, code: r.code, net: r.net, tr: tr, store: r.store,
			counters: cfg.Counters, hooks: cfg.Hooks(rank, n), obsv: cfg.Observer, inc: inc,
			maxSteps: stepBudget, failAfter: r.plan.at(inc, rank),
			time: cfg.Time, noPrune: cfg.NoPrune,
		}
		// Under the paper's protocol every recovery line is a straight cut:
		// a message on a channel the program proves empty at all of them
		// needs no record.
		if _, paper := p.hooks.(NoHooks); paper {
			p.quiet = r.code.Prog.Quiet.Row(n, rank)
		}
		if cfg.Jitter != 0 {
			p.jittered = true
			p.jitter.Seed(uint64(cfg.Jitter), uint64(rank)<<32|uint64(inc))
		}
		if old != nil {
			p.env, p.pruned = old.env, old.pruned
			p.row, p.chans, p.instances = old.row, old.chans, old.instances
		}
		p.init(cfg.Input)
		if line != nil {
			if err := p.restore(line.Snapshots[rank]); err != nil {
				return nil, err
			}
		}
		p.vtime = max(p.vtime, restartV)
		procs[rank] = p
	}
	return procs, nil
}

// wait runs the processes of incarnation inc to their end. failure is the
// process failure (injected crash, exhausted save, suspected peer)
// that calls for a rollback; err ends the run.
func (r *run) wait(inc int, procs []*Proc) (failure, err error) {
	cfg, net := &r.cfg, r.net
	errs := make(chan error, len(procs))
	for _, p := range procs {
		go func() { errs <- p.run() }()
	}
	// On a hardened network a link whose frames go unacked too long
	// reports its peer: a silently lost peer — an unhealed partition, total
	// ack loss — takes the same abort→recover path as an injected crash.
	var suspectErr atomic.Pointer[error]
	net.watch(func(peer int, silence time.Duration) {
		err := fmt.Errorf("transport: process %d silent for %v: %w",
			peer, silence.Round(time.Millisecond), ErrProcFailed)
		if suspectErr.CompareAndSwap(nil, &err) {
			cfg.Counters.Inc(MetricHBSuspects, 1)
			if cfg.Observer != nil {
				cfg.Observer.OnEvent(obs.Event{
					Kind: obs.KindSuspect, Proc: peer, Inc: inc,
					Label: err.Error(),
				})
			}
			net.Abort()
		}
	})
	// A watchdog expiry or a drain request aborts the incarnation the same
	// way a failure does: blocked receivers wake with ErrAborted and every
	// process still reports in.
	watchdog := time.NewTimer(cfg.Timeout)
	cancel := cfg.Cancel // never ready when nil
	var timedOut, canceled bool
	var fatal error
	for left := len(procs); left > 0; {
		select {
		case <-watchdog.C:
			timedOut = true
			net.Abort()
		case <-cancel:
			canceled, cancel = true, nil
			net.Abort()
		case err := <-errs:
			left--
			switch {
			case err == nil:
			case errors.Is(err, ErrProcFailed):
				if failure == nil {
					failure = err
					net.Abort() // wake the others; they exit with ErrAborted
				}
			case errors.Is(err, ErrAborted):
				// Collateral of an abort; ignore.
			default:
				if fatal == nil {
					fatal = err
					net.Abort()
				}
			}
		}
	}
	watchdog.Stop()
	net.watch(nil)
	if fatal != nil {
		return nil, fatal
	}
	if canceled {
		// Park the job: keep the store as-is (checkpoints saved so far
		// form the resume point) and report the cancellation, which
		// takes precedence over any concurrent failure or timeout.
		return nil, ErrCanceled
	}
	if susp := suspectErr.Load(); failure == nil && susp != nil {
		// Every process exited with ErrAborted because a link pulled the
		// plug: the suspicion is the failure.
		failure = *susp
	}
	if timedOut && failure == nil {
		return nil, fmt.Errorf("sim: deadlock: no progress within %v", cfg.Timeout)
	}
	return failure, nil
}

// finish fills in what the processes of a cleanly completed incarnation
// leave behind: their variable maps, adopted (nothing runs on them once wait
// returned), and the trace's vector clocks stamped from its histories.
func (res *Result) finish(procs []*Proc) {
	if res.Trace = procs[0].tr; res.Trace != nil {
		res.Trace.StampClocks()
	}
	res.FinalVars = make([]map[string]int, len(procs))
	res.VTimes = make([]float64, len(procs))
	for rank, p := range procs {
		res.FinalVars[rank] = p.env.Vars
		res.VTimes[rank] = p.vtime
		res.VTime = max(res.VTime, p.vtime)
	}
}

// rollback takes the application back to a recovery line after incarnation
// inc failed: recovery.Rollback does the store work (select → scrub →
// discard, DESIGN decision 22), and what it found is published here, in
// the order scrub → degraded → restart, before the channels are rebuilt at
// the line. A nil line restarts from the initial state.
func (r *run) rollback(inc int, procs []*Proc, restartV float64) (*recovery.Line, error) {
	rb, err := recovery.Rollback(r.store, len(procs), r.cfg.Recover)
	if err != nil {
		return nil, err
	}
	line := rb.Line
	// Work lost to this rollback: every send, receive and checkpoint a
	// process executed past the checkpoint it returns to (recovery.Progress).
	lost := 0
	for p, pr := range procs {
		lost += recovery.Progress(storage.Snapshot{Peers: pr.row, Instances: pr.instances})
		if line != nil {
			lost -= recovery.Progress(line.Snapshots[p])
		}
	}
	r.cfg.Counters.IncRestartedEvents(lost)
	if q := len(rb.Scrub.Quarantined); q > 0 {
		r.cfg.Counters.Inc(MetricScrubQuarantined, q)
		r.emit(obs.KindScrub, inc, 0, "quarantined %d snapshot(s)", q)
	}
	if line == nil {
		r.emit(obs.KindRestart, inc+1, restartV, "from scratch")
	} else {
		if line.Degraded > 0 {
			r.cfg.Counters.Inc(MetricRecoveryDegraded, line.Degraded)
			r.emit(obs.KindDegraded, inc, 0, "recovery skipped %d candidate cut(s)", line.Degraded)
		}
		r.emit(obs.KindRestart, inc+1, restartV, "%d process(es) rolled back to recovery line", line.Rollbacks)
	}
	var members []storage.Snapshot // nil: from scratch
	if line != nil {
		members = line.Snapshots
	}
	if err := r.net.ResetForRecovery(members); err != nil {
		return nil, err
	}
	return line, nil
}
