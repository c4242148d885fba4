package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
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

// VCrash is Crash in virtual time: process Proc fails when its virtual
// clock reaches At during incarnation Inc (requires Config.Time).
type VCrash struct {
	Inc  int
	Proc int
	At   float64
}

// ErrCanceled reports a run stopped early because Config.Cancel closed.
// The store still holds every checkpoint saved so far: the job is parked,
// not lost, and a later Run over the same store resumes from its recovery
// line.
var ErrCanceled = errors.New("sim: run canceled")

// RecoveryFunc chooses the recovery line after a failure. The default is
// recovery.StraightCut. Returning recovery.ErrNoRecoveryLine restarts the
// application from its initial state.
type RecoveryFunc func(st storage.Store, n int) (*recovery.Line, error)

// Config configures a run.
type Config struct {
	Program *mpl.Program
	Nproc   int
	// Hooks builds the per-process protocol; nil runs the coordination-free
	// application-driven scheme.
	Hooks HooksFactory
	// Store is the stable storage; nil uses a fresh in-memory store.
	Store storage.Store
	// Input supplies input(i) data per process; nil makes input(...) an
	// error.
	Input func(rank, i int) int
	// MaxSteps bounds each process's instruction count per incarnation
	// (default 1 << 20).
	MaxSteps int
	// Failures[k] is injected during incarnation k. Incarnations beyond the
	// list run failure-free.
	Failures []Failure
	// Time enables virtual-time accounting with the given cost model.
	Time *TimeModel
	// VFailures[k] crashes a process when its virtual clock reaches the
	// given time during incarnation k (requires Time).
	VFailures []VFailure
	// Crashes schedules additional crashes by (incarnation, process); see
	// Crash. When several triggers name the same process in the same
	// incarnation, the earliest event count wins.
	Crashes []Crash
	// VCrashes schedules additional virtual-time crashes by incarnation
	// (requires Time); the earliest time wins on collision.
	VCrashes []VCrash
	// MaxRestarts bounds recovery attempts (default: one more than the
	// total number of scheduled failures).
	MaxRestarts int
	// Retry, when non-nil, specifies the storage retry layer applied when
	// the store reports transient faults (storage.ErrTransient) — attempt
	// cap, backoff shape, jitter, and an optional shared RetryBudget (fleet
	// drivers use the budget to bound retries across many concurrent
	// jobs). Nil selects the RetryPolicy defaults. A checkpoint save that
	// exhausts its attempts crashes the saving process, turning a storage
	// outage into an ordinary recovery instead of a failed run.
	Retry *RetryPolicy
	// Cancel, when non-nil, requests early termination when closed: the
	// run stops at the next incarnation boundary — or aborts the current
	// incarnation mid-flight — and returns ErrCanceled. Checkpoints
	// already saved remain in the store, so a canceled job is *parked*,
	// not lost: a later run over the same store resumes from its recovery
	// line. Fleet drain uses this to checkpoint-and-park in-flight jobs.
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
	// Counters, when set, is the metrics sink the run accumulates into
	// instead of a fresh private one — the live-telemetry tap: an
	// exposition server can snapshot it WHILE the run executes instead of
	// waiting for Result.Metrics. Pre-existing contents are kept (and so
	// appear in Result.Metrics); pass a fresh Counters for per-run totals.
	Counters *metrics.Counters
	// Net, when set, hardens the network: every message crosses a lossy
	// link layer (optionally driven by a fault injector, Net.Chaos) with
	// per-channel sequencing, duplicate suppression, ack/retransmit under
	// a netestim-driven RTO, and a heartbeat failure detector that turns
	// silent peers into ordinary crash→recovery. Nil keeps the legacy
	// reliable in-process fabric, behaviourally identical to prior
	// revisions.
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
	// WallClock overrides the wall-clock source used for duration
	// measurements (checkpoint save latency, blocked time). Nil means
	// time.Now. Determinism hook: golden tests pin it to a constant so
	// measured durations — which otherwise vary run to run — stay zero in
	// the canonical event stream.
	WallClock func() time.Time
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
	// FinalVars is each process's variable state at halt.
	FinalVars []map[string]int
	// Metrics are the accumulated counters across all incarnations.
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

// Run executes the program to completion under the configured protocol and
// failure schedule.
func Run(cfg Config) (*Result, error) {
	if cfg.Program == nil || cfg.Nproc <= 0 {
		return nil, errors.New("sim: Config requires Program and positive Nproc")
	}
	code, err := Compile(cfg.Program)
	if err != nil {
		return nil, err
	}
	hooksFactory := cfg.Hooks
	if hooksFactory == nil {
		hooksFactory = NoProtocol
	}
	st := cfg.Store
	if st == nil {
		st = storage.NewMemory()
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 1 << 20
	}
	maxRestarts := cfg.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = len(cfg.Failures) + len(cfg.VFailures) +
			len(cfg.Crashes) + len(cfg.VCrashes) + 1
	}
	for _, c := range cfg.Crashes {
		if c.Proc < 0 || c.Proc >= cfg.Nproc {
			return nil, fmt.Errorf("sim: crash names process %d of %d", c.Proc, cfg.Nproc)
		}
		if c.Inc < 0 {
			return nil, fmt.Errorf("sim: crash names incarnation %d", c.Inc)
		}
	}
	for _, c := range cfg.VCrashes {
		if c.Proc < 0 || c.Proc >= cfg.Nproc {
			return nil, fmt.Errorf("sim: vcrash names process %d of %d", c.Proc, cfg.Nproc)
		}
		if c.Inc < 0 {
			return nil, fmt.Errorf("sim: vcrash names incarnation %d", c.Inc)
		}
		if cfg.Time == nil {
			return nil, errors.New("sim: VCrashes require Config.Time")
		}
	}
	chooseLine := cfg.Recover
	if chooseLine == nil {
		chooseLine = recovery.StraightCut
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}

	n := cfg.Nproc
	net := NewNetwork(n)
	counters := cfg.Counters
	if counters == nil {
		counters = &metrics.Counters{}
	}
	if cfg.Net != nil {
		net.harden(*cfg.Net, counters, cfg.Observer, cfg.Jitter+0x7f4a7c15)
		// Stop retransmit timers and orphan delayed deliveries once the
		// run is over, whatever path it exits by.
		defer net.tr.shutdown()
	}
	res := &Result{Store: st}
	// Every runtime access to stable storage goes through the retry
	// wrapper; Result.Store and Scrub still see the caller's store
	// directly. The seed only perturbs backoff jitter, never results.
	var policy RetryPolicy
	if cfg.Retry != nil {
		policy = *cfg.Retry
	}
	rst := newRetryStore(st, policy, cfg.Jitter+0x5bd1e995, counters, cfg.Observer)

	var line *recovery.Line // nil = start from scratch
	var restartV float64    // wall (virtual) time at which the restart begins
	for incarnation := 0; ; incarnation++ {
		if cfg.Cancel != nil {
			select {
			case <-cfg.Cancel:
				return nil, ErrCanceled
			default:
			}
		}
		var tr *trace.Trace
		if !cfg.DisableTrace {
			tr = trace.NewTrace(n)
		}
		failAfter := make([]int, n)
		vfailAt := make([]float64, n)
		for p := range failAfter {
			failAfter[p] = -1
			vfailAt[p] = -1
		}
		if incarnation < len(cfg.Failures) {
			f := cfg.Failures[incarnation]
			if f.Proc < 0 || f.Proc >= n {
				return nil, fmt.Errorf("sim: failure names process %d of %d", f.Proc, n)
			}
			failAfter[f.Proc] = f.AfterEvents
		}
		if incarnation < len(cfg.VFailures) {
			f := cfg.VFailures[incarnation]
			if f.Proc < 0 || f.Proc >= n {
				return nil, fmt.Errorf("sim: vfailure names process %d of %d", f.Proc, n)
			}
			if cfg.Time == nil {
				return nil, errors.New("sim: VFailures require Config.Time")
			}
			vfailAt[f.Proc] = f.At
		}
		for _, c := range cfg.Crashes {
			if c.Inc != incarnation {
				continue
			}
			if failAfter[c.Proc] < 0 || c.AfterEvents < failAfter[c.Proc] {
				failAfter[c.Proc] = c.AfterEvents
			}
		}
		for _, c := range cfg.VCrashes {
			if c.Inc != incarnation {
				continue
			}
			if vfailAt[c.Proc] < 0 || c.At < vfailAt[c.Proc] {
				vfailAt[c.Proc] = c.At
			}
		}

		procs := make([]*Proc, n)
		for r := 0; r < n; r++ {
			procs[r] = newProc(r, code, net, tr, rst, counters, hooksFactory(r, n),
				cfg.Input, maxSteps, failAfter[r], cfg.Time, vfailAt[r],
				cfg.Observer, incarnation)
			procs[r].noPrune = cfg.NoPrune
			if cfg.Jitter != 0 {
				procs[r].jitter = rand.New(rand.NewSource(cfg.Jitter + int64(r)*7919 + int64(incarnation)))
			}
			if cfg.WallClock != nil {
				procs[r].wallNow = cfg.WallClock
			}
			if line != nil {
				if err := procs[r].restore(line.Snapshots[r]); err != nil {
					return nil, err
				}
			}
			if restartV > 0 && procs[r].vtime < restartV {
				procs[r].vtime = restartV
			}
		}

		errs := make(chan error, n)
		for _, p := range procs {
			p := p
			go func() { errs <- p.run() }()
		}
		var timedOut atomic.Bool
		watchdog := time.AfterFunc(timeout, func() {
			timedOut.Store(true)
			net.Abort()
		})
		// Cancellation watcher: a drain request aborts the incarnation the
		// same way a watchdog or failure detector does — blocked receivers
		// wake with ErrAborted — and the run returns ErrCanceled below.
		var canceled atomic.Bool
		var stopCancelWatch chan struct{}
		if cfg.Cancel != nil {
			stopCancelWatch = make(chan struct{})
			go func() {
				select {
				case <-cfg.Cancel:
					canceled.Store(true)
					net.Abort()
				case <-stopCancelWatch:
				}
			}()
		}
		// The heartbeat failure detector (hardened networks only) converts
		// a silently lost peer — an unhealed partition, total ack loss —
		// into the same abort→recover path as an injected crash.
		inc := incarnation
		var suspectErr atomic.Pointer[error]
		stopDetector := net.startDetector(func(peer int, silence time.Duration) {
			err := fmt.Errorf("heartbeat: process %d silent for %v: %w",
				peer, silence.Round(time.Millisecond), ErrProcFailed)
			if suspectErr.CompareAndSwap(nil, &err) {
				counters.Inc(MetricHBSuspects, 1)
				if cfg.Observer != nil {
					cfg.Observer.OnEvent(obs.Event{
						Kind: obs.KindSuspect, Proc: peer, Inc: inc,
						Label: err.Error(),
					})
				}
				net.Abort()
			}
		})
		var failure error
		var fatal error
		for i := 0; i < n; i++ {
			err := <-errs
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
		watchdog.Stop()
		stopDetector()
		if stopCancelWatch != nil {
			close(stopCancelWatch)
		}
		if fatal == nil && canceled.Load() {
			// Park the job: keep the store as-is (checkpoints saved so far
			// form the resume point) and report the cancellation, which
			// takes precedence over any concurrent failure or timeout.
			return nil, ErrCanceled
		}
		if failure == nil {
			if susp := suspectErr.Load(); susp != nil {
				// Every process exited with ErrAborted because the detector
				// pulled the plug: the suspicion is the failure.
				failure = *susp
			}
		}
		if fatal != nil {
			return nil, fatal
		}
		if timedOut.Load() && failure == nil {
			return nil, fmt.Errorf("sim: deadlock: no progress within %v", timeout)
		}
		if failure == nil {
			// Clean completion.
			res.Trace = tr
			res.FinalVars = make([]map[string]int, n)
			res.VTimes = make([]float64, n)
			for r, p := range procs {
				vars := make(map[string]int, len(p.env.Vars))
				for k, v := range p.env.Vars {
					vars[k] = v
				}
				res.FinalVars[r] = vars
				res.VTimes[r] = p.vtime
				if p.vtime > res.VTime {
					res.VTime = p.vtime
				}
			}
			res.Metrics = counters.Snapshot()
			return res, nil
		}

		// Failure path: recover. If virtual time is on, the restart begins
		// at the wall time the application had reached, plus the recovery
		// overhead R — lost work is then re-paid by the replay, exactly as
		// in the §4 model.
		if cfg.Time != nil {
			maxV := restartV
			for _, p := range procs {
				if p.vtime > maxV {
					maxV = p.vtime
				}
			}
			restartV = maxV + cfg.Time.Recovery
		}
		res.Restarts++
		counters.IncRollbacks(n)
		if cfg.Observer != nil {
			cfg.Observer.OnEvent(obs.Event{
				Kind: obs.KindRollback, Proc: -1, Inc: incarnation,
				VTime: restartV, Label: failure.Error(),
			})
		}
		if res.Restarts > maxRestarts {
			return nil, fmt.Errorf("sim: exceeded %d restarts: %w", maxRestarts, failure)
		}
		// Choose the line BEFORE scrubbing: selection must see corrupt
		// snapshots fail to load so Line.Degraded reports how far recovery
		// fell. Scrubbing afterwards clears the damaged keys from the
		// namespace, so the replay can regenerate them without tripping
		// over duplicates.
		line, err = chooseLine(rst, n)
		switch {
		case errors.Is(err, recovery.ErrNoRecoveryLine):
			line = nil // restart from scratch
		case err != nil:
			return nil, err
		}
		// Work lost to this rollback: every event a process executed past
		// the checkpoint it returns to, counted on its own clock component
		// (which orders its local events totally).
		lost := 0
		for p, pr := range procs {
			lost += int(pr.clock[p])
			if line != nil {
				lost -= int(line.Snapshots[p].Clock[p])
			}
		}
		counters.IncRestartedEvents(lost)
		rep, err := storage.Scrub(st)
		if err != nil {
			return nil, err
		}
		if q := len(rep.Quarantined); q > 0 || rep.TempFiles > 0 {
			counters.Inc(MetricScrubQuarantined, q)
			if cfg.Observer != nil {
				cfg.Observer.OnEvent(obs.Event{
					Kind: obs.KindScrub, Proc: -1, Inc: incarnation,
					Label: fmt.Sprintf("quarantined %d snapshot(s), removed %d temp file(s)", q, rep.TempFiles),
				})
			}
		}
		if line != nil && line.Degraded > 0 {
			counters.Inc(MetricRecoveryDegraded, line.Degraded)
			if cfg.Observer != nil {
				cfg.Observer.OnEvent(obs.Event{
					Kind: obs.KindDegraded, Proc: -1, Inc: incarnation,
					Label: fmt.Sprintf("recovery skipped %d candidate cut(s)", line.Degraded),
				})
			}
		}
		if cfg.Observer != nil {
			label := "from scratch"
			if line != nil {
				label = fmt.Sprintf("%d process(es) rolled back to recovery line", line.Rollbacks)
			}
			cfg.Observer.OnEvent(obs.Event{
				Kind: obs.KindRestart, Proc: -1, Inc: incarnation + 1,
				VTime: restartV, Label: label,
			})
		}
		if line != nil {
			res.RolledBack += line.Rollbacks
			if err := pruneStore(rst, line); err != nil {
				return nil, err
			}
			sendSeq, recvSeq := seqMatrices(line, n)
			net.ResetForRecovery(sendSeq, recvSeq)
		} else {
			if err := clearStore(rst, n); err != nil {
				return nil, err
			}
			zero := make([][]int, n)
			for i := range zero {
				zero[i] = make([]int, n)
			}
			net.ResetForRecovery(zero, zero)
		}
	}
}

// seqMatrices extracts the per-channel send/receive sequence numbers at
// the recovery line.
func seqMatrices(line *recovery.Line, n int) (sendSeq, recvSeq [][]int) {
	sendSeq = make([][]int, n)
	recvSeq = make([][]int, n)
	for p := 0; p < n; p++ {
		sendSeq[p] = append([]int(nil), line.Snapshots[p].SendSeqs...)
		recvSeq[p] = append([]int(nil), line.Snapshots[p].RecvSeqs...)
		if sendSeq[p] == nil {
			sendSeq[p] = make([]int, n)
		}
		if recvSeq[p] == nil {
			recvSeq[p] = make([]int, n)
		}
	}
	return sendSeq, recvSeq
}

// pruneStore deletes snapshots taken after the recovery line: the
// rolled-back execution will regenerate them deterministically. Per
// process, "after" is decided by the process's own vector-clock component,
// which orders its local events totally. Deletion runs newest-first so
// delta-encoded stores (storage.Incremental) can unwind their chains.
func pruneStore(st storage.Store, line *recovery.Line) error {
	for p, restore := range line.Snapshots {
		snaps, err := st.List(p)
		if err != nil {
			return err
		}
		cutTick := restore.Clock[p]
		var doomed []storage.Snapshot
		for _, s := range snaps {
			if s.Clock[p] > cutTick {
				doomed = append(doomed, s)
			}
		}
		sort.Slice(doomed, func(i, j int) bool {
			return doomed[i].Clock[p] > doomed[j].Clock[p]
		})
		for _, s := range doomed {
			if err := st.Delete(p, s.CFGIndex, s.Instance); err != nil {
				return err
			}
		}
	}
	return nil
}

// clearStore removes every snapshot (restart from scratch), newest-first
// per process for delta-encoded stores.
func clearStore(st storage.Store, n int) error {
	for p := 0; p < n; p++ {
		snaps, err := st.List(p)
		if err != nil {
			return err
		}
		sort.Slice(snaps, func(i, j int) bool {
			return snaps[i].Clock[p] > snaps[j].Clock[p]
		})
		for _, s := range snaps {
			if err := st.Delete(p, s.CFGIndex, s.Instance); err != nil {
				return err
			}
		}
	}
	return nil
}
