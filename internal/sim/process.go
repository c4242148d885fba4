package sim

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"strconv"
	stdtime "time"

	"repro/internal/metrics"
	"repro/internal/mpl"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Liveness-pruning counter names. Each manifest-pruned checkpoint save adds
// what a full-environment snapshot of the same state would have cost
// (MetricPruneBytesFull), how many of those bytes the manifest dropped
// (MetricPruneBytesSaved), and how many dead variables were excluded
// (MetricPruneVarsDropped). The prune ratio is saved/full, computed at
// export time (telemetry's chkptsim_prune_* families); full-env saves —
// protocol-forced checkpoints, sites without a manifest — touch none.
const (
	MetricPruneBytesFull   = "prune_bytes_full"
	MetricPruneBytesSaved  = "prune_bytes_saved"
	MetricPruneVarsDropped = "prune_vars_dropped"
)

// ErrProcFailed is the injected-failure signal.
var ErrProcFailed = errors.New("sim: process failed (injected)")

// ErrStepBudget means a process exceeded its instruction budget — almost
// always a livelock or an unproductive protocol loop.
var ErrStepBudget = errors.New("sim: step budget exhausted")

// stepBudget bounds each process's instruction count per incarnation.
const stepBudget = 1 << 20

// workSlices is how many preemptible chunks a work(N) instruction is
// divided into under virtual-time accounting, bounding how stale a
// process's clock can be when it reacts to polled protocol traffic.
const workSlices = 256

// reduceTmpVar receives peer contributions during a reduce; the '$' makes
// collision with program identifiers impossible.
const reduceTmpVar = "reduce$tmp"

// Proc is one process of the distributed execution. Protocol hooks receive
// it to send control traffic, take checkpoints, and inspect identity.
type Proc struct {
	rank     int
	n        int
	code     *Code
	net      *Network
	tr       *trace.Trace
	store    storage.Store
	counters *metrics.Counters
	hooks    Hooks
	obsv     obs.Observer // nil: observability off
	inc      int          // incarnation this process belongs to

	env *mpl.Env
	// pruned is the variable map of the last checkpoint that dropped a
	// variable, refilled for the next one.
	pruned map[string]int
	pc     int
	// row counts, by peer, the messages the state has exchanged; chans
	// caches, by peer, the channels of every peer touched in the run;
	// instances counts, by CFG index, the checkpoints taken.
	row       storage.Row
	chans     []peerChans
	instances storage.Counts

	steps      int
	maxSteps   int
	events     int
	failAfter  int // fail when events reaches this count; <0 = never
	midRecv    bool
	atBoundary bool // between instructions (OnStep/OnCtrl/marker phase)

	time  *TimeModel // nil: no virtual-time accounting
	vtime float64
	// workLeft/workQuantum slice a running work(N) instruction into
	// preemptible chunks so boundary polling sees intermediate virtual
	// times (a work instruction is otherwise atomic). -1 = no work in
	// progress. Mid-work protocol checkpoints resume at the instruction
	// start (the whole work replays); application checkpoints never land
	// mid-work.
	workLeft    int
	workQuantum int

	// lastSaveNS is the wall duration of the most recent checkpoint save,
	// stashed so record can attach it to the checkpoint's observer event.
	lastSaveNS int64

	// jitter, when jittered, yields the goroutine randomly at instruction
	// boundaries to diversify real-time interleavings (Config.Jitter).
	jittered bool
	jitter   rand.PCG

	// quiet has bit q set when a message to q writes no send-log record:
	// the run is the paper's protocol, whose recovery lines are straight
	// cuts, and the program proves channel rank→q empty at every one of
	// them at this n (mpl.Program.Quiet).
	quiet uint64
}

// init completes a Proc whose configuration fields are set into a process
// at the program start: zero counters, every declared variable 0. Memory a
// Proc inherited from its predecessor (run.start) is refilled, whatever
// state the predecessor crashed in; the constants are the Code's own map.
func (p *Proc) init(input func(rank, i int) int) {
	p.workLeft = -1
	if p.env == nil {
		// The closure holds the rank, not the Proc: it serves every incarnation.
		var inputFn func(int) int
		if input != nil {
			rank := p.rank
			inputFn = func(i int) int { return input(rank, i) }
		}
		p.env = &mpl.Env{Rank: p.rank, Nproc: p.n, Vars: make(map[string]int, len(p.code.Prog.Vars)), Consts: p.code.consts, Input: inputFn}
	}
	p.row, p.instances = p.row[:0], p.instances[:0]
	clear(p.env.Vars) // a crash mid-reduce leaves reduceTmpVar behind
	for _, name := range p.code.Prog.Vars {
		p.env.Vars[name] = 0
	}
}

// Rank returns the process id.
func (p *Proc) Rank() int { return p.rank }

// N returns the process count.
func (p *Proc) N() int { return p.n }

// Events returns the number of events recorded this incarnation.
func (p *Proc) Events() int { return p.events }

// Counters exposes the shared metrics counters (protocols record forced
// checkpoints and blocked time through them).
func (p *Proc) Counters() *metrics.Counters { return p.counters }

// resumePC is the program counter a restore should resume at for a
// checkpoint taken right now: the current instruction when it has not yet
// (fully) executed — at an instruction boundary or mid-receive — and the
// next instruction otherwise.
func (p *Proc) resumePC() int {
	if p.midRecv || p.atBoundary {
		return p.pc
	}
	return p.pc + 1
}

// restore rewinds the process init just zeroed to a snapshot: s's variables
// overlay the declared ones, so a pruned snapshot's dead variables keep the
// initial value 0. s is copied, never adopted: the recovery line it belongs
// to came through the Config.Recover hook, which may keep it.
func (p *Proc) restore(s storage.Snapshot) error {
	pc, err := strconv.Atoi(s.PC)
	if err != nil {
		return fmt.Errorf("sim: bad snapshot pc %q: %w", s.PC, err)
	}
	p.pc = pc
	maps.Copy(p.env.Vars, s.Vars)
	p.row = append(p.row, s.Peers...)
	p.instances = append(p.instances, s.Instances...)
	p.vtime = s.VTime
	return nil
}

// obsKind spells a local-history kind as the event stream does.
var obsKind = [...]obs.Kind{
	trace.KindCompute: obs.KindCompute, trace.KindSend: obs.KindSend,
	trace.KindRecv: obs.KindRecv, trace.KindCheckpoint: obs.KindChkpt,
}

// record appends an event to the trace (when tracing), publishes it to the
// observer and applies the failure trigger.
func (p *Proc) record(e trace.Event) error {
	if p.tr != nil {
		e.Proc = p.rank
		p.tr.Append(e)
	}
	if p.obsv != nil {
		oe := obs.Event{Kind: obsKind[e.Kind], Label: e.Label, Msg: obs.MsgRef(e.Msg)}
		if e.Kind == trace.KindCheckpoint {
			oe.Chkpt = obs.ChkptRef{Index: e.Chkpt.CFGIndex, Instance: e.Chkpt.Instance}
			oe.DurNS = p.lastSaveNS
		}
		p.emit(oe)
	}
	p.events++
	if p.failAfter >= 0 && p.events >= p.failAfter {
		return fmt.Errorf("%w: process %d after %d events", ErrProcFailed, p.rank, p.events)
	}
	return nil
}

// emit publishes an event to the observer, filling the process identity
// and virtual time. No-op without an observer.
func (p *Proc) emit(e obs.Event) {
	if p.obsv == nil {
		return
	}
	e.Proc = p.rank
	e.Inc = p.inc
	e.VTime = p.vtime
	p.obsv.OnEvent(e)
}

// TakeCheckpoint takes a full-environment local checkpoint with the given
// straight-cut index: records the event and persists the snapshot.
// Protocols call it for coordinated and forced checkpoints — which can land
// at arbitrary program points where no liveness manifest is known, so they
// always persist everything. Application chkpt statements prune to the
// site's manifest (the OpChkpt case of exec).
func (p *Proc) TakeCheckpoint(idx int) error {
	return p.takeCheckpoint(idx, nil, chkptLabelPrefix+strconv.Itoa(idx))
}

// takeCheckpoint persists a snapshot holding exactly the manifest variables
// (nil manifest = the whole environment). Pruned variables restore to their
// declared initial value — safe because liveness proved every path from
// this site redefines them before any use. The snapshot lends the store the
// process's live row, counters and environment, or the pruned map where the
// manifest drops a variable: Store.Save holds on to none once it returns.
func (p *Proc) takeCheckpoint(idx int, manifest []string, label string) error {
	i, ok := p.instances.Search(idx)
	if !ok {
		p.instances = slices.Insert(p.instances, i, storage.Count{Index: idx})
	}
	instance := p.instances[i].N
	p.instances[i].N++
	if p.time != nil {
		p.advance(p.time.CheckpointOverhead)
	}

	vars := p.env.Vars
	if manifest != nil {
		fullBytes := 0
		for k := range vars {
			fullBytes += len(k) + 8
		}
		keptBytes := fullBytes
		// A manifest names declared variables, each once: one as long as the
		// environment keeps them all, so the environment itself is lent.
		if len(manifest) < len(vars) {
			if p.pruned == nil {
				p.pruned = make(map[string]int, len(manifest))
			}
			clear(p.pruned)
			keptBytes = 0
			for _, name := range manifest {
				if v, ok := vars[name]; ok {
					p.pruned[name] = v
					keptBytes += len(name) + 8
				}
			}
			vars = p.pruned
		}
		p.counters.Inc(MetricPruneBytesFull, fullBytes)
		p.counters.Inc(MetricPruneBytesSaved, fullBytes-keptBytes)
		p.counters.Inc(MetricPruneVarsDropped, len(p.env.Vars)-len(vars))
	}
	snap := storage.Snapshot{
		Proc:      p.rank,
		CFGIndex:  idx,
		Instance:  instance,
		Vars:      vars,
		PC:        strconv.Itoa(p.resumePC()),
		N:         p.n,
		Peers:     p.row,
		Instances: p.instances,
		VTime:     p.vtime,
	}
	saveStart := stdtime.Now()
	if err := p.store.Save(snap); err != nil {
		if errors.Is(err, storage.ErrTransient) || errors.Is(err, storage.ErrFsync) {
			// The save exhausted its retries, or an fsync failed — which is
			// permanent (fsyncgate: the kernel may have dropped the dirty
			// pages, so retrying could "succeed" with nothing on disk). A
			// process that cannot persist its checkpoint is
			// indistinguishable from a crashed one, so convert the outage
			// into a crash: the runtime rolls back to the last recovery
			// line and replays from what storage verifiably holds, instead
			// of failing the whole run.
			p.counters.Inc(MetricSaveCrashes, 1)
			return fmt.Errorf("%w: process %d checkpoint save: %v", ErrProcFailed, p.rank, err)
		}
		return err
	}
	p.lastSaveNS = stdtime.Since(saveStart).Nanoseconds()
	p.counters.ObserveHist(metrics.HistChkptSaveMS, float64(p.lastSaveNS)/1e6)
	p.counters.IncCheckpoints(1)
	return p.record(trace.Event{
		Kind:  trace.KindCheckpoint,
		Chkpt: trace.Checkpoint{CFGIndex: idx, Instance: instance},
		Label: label,
	})
}

// SendCtrl sends an out-of-band control message (protocol coordination).
// It pays the same virtual-time setup cost as an application send.
func (p *Proc) SendCtrl(to int, tag string, payload []int) error {
	p.counters.IncCtrlMessages(1, 8)
	p.net.SendCtrl(Message{Kind: MsgCtrl, From: p.rank, To: to, Tag: tag, Piggyback: payload, ArriveV: p.chargeSend()})
	return nil
}

// SendMarker sends an in-band marker on the (rank, to) channel.
func (p *Proc) SendMarker(to int, tag string, payload []int) error {
	p.counters.IncCtrlMessages(1, 8)
	p.net.SendMarker(Message{Kind: MsgMarker, From: p.rank, To: to, Tag: tag, Piggyback: payload, ArriveV: p.chargeSend()})
	return nil
}

// RecvCtrl blocks for the next control message (protocol barriers),
// synchronizing the virtual clock to its arrival. The wait is charged to
// the blocked-time accounting: total wall time in Counters.AddBlocked plus
// per-stall wall and virtual-time distributions, and a block event on the
// observer — protocol coordination cost is precisely what the paper's
// scheme eliminates, so the runtime makes it visible.
func (p *Proc) RecvCtrl() (Message, error) {
	start := stdtime.Now()
	v0 := p.vtime
	m, err := p.net.Recv(ctrlFrom, p.rank)
	if err != nil {
		return Message{}, err
	}
	p.syncTo(m.ArriveV)
	blocked := stdtime.Since(start)
	p.counters.AddBlocked(blocked)
	p.counters.ObserveHist(metrics.HistBlockedWallMS, float64(blocked.Nanoseconds())/1e6)
	if p.time != nil {
		p.counters.ObserveHist(metrics.HistBarrierStallV, p.vtime-v0)
	}
	p.emit(obs.Event{Kind: obs.KindBlock, Tag: "ctrl", DurNS: blocked.Nanoseconds(), VDur: p.vtime - v0})
	return m, nil
}

// PollMarker removes a leading marker from the inbound (from, rank)
// channel, if one is at the head (protocol halt drains — the process is
// virtually idle, so the clock advances to the marker's arrival).
func (p *Proc) PollMarker(from int) (Message, bool) {
	m, ok := p.net.Poll(from, p.rank, math.Inf(1))
	if ok {
		p.syncTo(m.ArriveV)
	}
	return m, ok
}

// run executes the program until halt, failure, or abort.
func (p *Proc) run() error {
	for {
		if p.steps >= p.maxSteps {
			return fmt.Errorf("%w: process %d after %d steps", ErrStepBudget, p.rank, p.steps)
		}
		p.steps++

		p.atBoundary = true
		if p.jittered {
			// One draw in four yields, one to three times.
			if r := p.jitter.Uint64(); r&3 == 0 {
				for y := int((r >> 2) % 3); y >= 0; y-- {
					runtime.Gosched()
				}
			}
		}
		// Out-of-band control and stray markers are served between
		// instructions so protocols make progress even on channels the
		// application never receives from — when any is queued for this
		// process: under the application-driven scheme none ever is, and
		// the boundary costs one atomic load.
		if !p.net.quiet(p.rank) {
			horizon := math.Inf(1) // only what has virtually arrived
			if p.time != nil {
				horizon = p.vtime
			}
			for {
				m, ok := p.net.Poll(ctrlFrom, p.rank, horizon)
				if !ok {
					break
				}
				if err := p.hooks.OnCtrl(p, m); err != nil {
					return err
				}
			}
			for from := 0; from < p.n; from++ {
				if from == p.rank {
					continue
				}
				if m, ok := p.net.Poll(from, p.rank, horizon); ok {
					if err := p.hooks.OnMarker(p, m); err != nil {
						return err
					}
				}
			}
		}
		if err := p.hooks.OnStep(p); err != nil {
			return err
		}
		p.atBoundary = false

		in := p.code.Instrs[p.pc]
		switch in.Op {
		case OpAssign:
			v, err := mpl.Eval(in.Expr, p.env)
			if err != nil {
				return p.evalErr(in, err)
			}
			p.env.Vars[in.Var] = v
			if p.time != nil {
				p.advance(p.time.Compute)
			}
			if err := p.record(trace.Event{Kind: trace.KindCompute, Label: in.Label}); err != nil {
				return err
			}
			p.pc++
		case OpWork:
			if p.workLeft < 0 {
				units, err := mpl.Eval(in.Expr, p.env)
				if err != nil {
					return p.evalErr(in, err)
				}
				if units < 1 {
					units = 1
				}
				p.workLeft = units
				p.workQuantum = units/workSlices + 1
			}
			if p.time != nil {
				chunk := p.workQuantum
				if chunk > p.workLeft {
					chunk = p.workLeft
				}
				p.advance(float64(chunk) * p.time.Compute)
				p.workLeft -= chunk
			} else {
				p.workLeft = 0
			}
			if p.workLeft > 0 {
				continue // preemption point: re-poll at the loop top
			}
			p.workLeft = -1
			if err := p.record(trace.Event{Kind: trace.KindCompute, Label: "work"}); err != nil {
				return err
			}
			p.pc++
		case OpSend:
			dest, err := mpl.Eval(in.Expr, p.env)
			if err != nil {
				return p.evalErr(in, err)
			}
			if dest >= 0 && dest < p.n && dest != p.rank {
				if err := p.sendApp(dest, p.env.Vars[in.Var]); err != nil {
					return err
				}
			}
			p.pc++
		case OpRecv:
			src, err := mpl.Eval(in.Expr, p.env)
			if err != nil {
				return p.evalErr(in, err)
			}
			if src >= 0 && src < p.n && src != p.rank {
				if err := p.recvApp(src, in.Var); err != nil {
					return err
				}
			}
			p.pc++
		case OpBcast:
			root, err := mpl.Eval(in.Expr, p.env)
			if err != nil {
				return p.evalErr(in, err)
			}
			if root < 0 || root >= p.n {
				return fmt.Errorf("sim: process %d: bcast root %d out of range", p.rank, root)
			}
			if p.rank == root {
				val := p.env.Vars[in.Var]
				for q := 0; q < p.n; q++ {
					if q == p.rank {
						continue
					}
					if err := p.sendApp(q, val); err != nil {
						return err
					}
				}
			} else {
				if err := p.recvApp(root, in.Var); err != nil {
					return err
				}
			}
			p.pc++
		case OpReduce:
			root, err := mpl.Eval(in.Expr, p.env)
			if err != nil {
				return p.evalErr(in, err)
			}
			if root < 0 || root >= p.n {
				return fmt.Errorf("sim: process %d: reduce root %d out of range", p.rank, root)
			}
			if p.rank == root {
				// Gather contributions in rank order (deterministic) and
				// accumulate into the root's own value. The temp buffer
				// name contains '$' so it can never collide with a
				// program identifier.
				sum := p.env.Vars[in.Var]
				for q := 0; q < p.n; q++ {
					if q == p.rank {
						continue
					}
					if err := p.recvApp(q, reduceTmpVar); err != nil {
						return err
					}
					sum += p.env.Vars[reduceTmpVar]
				}
				delete(p.env.Vars, reduceTmpVar)
				p.env.Vars[in.Var] = sum
			} else {
				if err := p.sendApp(root, p.env.Vars[in.Var]); err != nil {
					return err
				}
			}
			p.pc++
		case OpChkpt:
			take, err := p.hooks.AtChkptStmt(p, in.Index)
			if err != nil {
				return err
			}
			if take {
				if err := p.takeCheckpoint(in.Index, p.code.Manifests[in.StmtID], in.Label); err != nil {
					return err
				}
			}
			p.pc++
		case OpJump:
			p.pc = in.Target
		case OpBranchFalse:
			ok, err := mpl.Truthy(in.Expr, p.env)
			if err != nil {
				return p.evalErr(in, err)
			}
			if ok {
				p.pc++
			} else {
				p.pc = in.Target
			}
		case OpHalt:
			p.emit(obs.Event{Kind: obs.KindHalt})
			return p.hooks.OnHalt(p)
		default:
			return fmt.Errorf("sim: process %d: unknown opcode %v", p.rank, in.Op)
		}
	}
}

func (p *Proc) evalErr(in Instr, err error) error {
	return fmt.Errorf("sim: process %d at pc %d (stmt #%d): %w", p.rank, p.pc, in.StmtID, err)
}

// peer returns q's entry in the row, added for a message it counts.
func (p *Proc) peer(q int) *storage.PeerSeq {
	i, ok := p.row.Search(q)
	if !ok {
		p.row = slices.Insert(p.row, i, storage.PeerSeq{Peer: q})
	}
	return &p.row[i]
}

// peerChans are the channels to and from peer, each looked up once a run.
type peerChans struct {
	peer    int
	out, in *channel
}

// link returns q's entry in chans, which caches what the caller looks up.
func (p *Proc) link(q int) *peerChans {
	i, ok := slices.BinarySearchFunc(p.chans, q, func(c peerChans, q int) int { return cmp.Compare(c.peer, q) })
	if !ok {
		p.chans = slices.Insert(p.chans, i, peerChans{peer: q})
	}
	return &p.chans[i]
}

// sendApp sends one application message to dest.
func (p *Proc) sendApp(dest, value int) error {
	e := p.peer(dest)
	seq := e.Sent
	e.Sent++
	l := p.link(dest)
	if l.out == nil {
		l.out = p.net.channel(p.rank, dest)
	}
	arrive := p.chargeSend()
	m := Message{
		Kind:      MsgApp,
		From:      p.rank,
		To:        dest,
		Seq:       seq,
		Value:     value,
		Piggyback: p.hooks.BeforeSend(p, dest),
		ArriveV:   arrive,
	}
	p.net.send(l.out, m, p.quiet&(1<<dest) != 0)
	p.counters.IncAppMessages(1)
	return p.record(trace.Event{
		Kind: trace.KindSend,
		Msg:  trace.MessageID{From: p.rank, To: dest, Seq: seq},
		Peer: dest,
	})
}

// recvApp blocks for the next application message from src, serving any
// in-band markers that arrive first.
func (p *Proc) recvApp(src int, varName string) error {
	p.midRecv = true
	defer func() { p.midRecv = false }()
	l := p.link(src)
	if l.in == nil {
		l.in = p.net.channel(src, p.rank)
	}
	for {
		m, err := l.in.pop() // hooks send no application message: l stays src's
		if err != nil {
			return err
		}
		p.syncTo(m.ArriveV)
		if m.Kind == MsgMarker {
			if err := p.hooks.OnMarker(p, m); err != nil {
				return err
			}
			continue
		}
		if want := p.row.At(src).Recvd; m.Seq != want {
			return fmt.Errorf("sim: process %d: FIFO violation from %d: seq %d, want %d",
				p.rank, src, m.Seq, want)
		}
		// The message is not yet delivered: forced checkpoints taken here
		// exclude it, and a restore re-executes this receive (the message
		// is re-injected as channel state).
		if err := p.hooks.BeforeDeliver(p, m); err != nil {
			return err
		}
		p.peer(src).Recvd = m.Seq + 1
		p.env.Vars[varName] = m.Value
		return p.record(trace.Event{
			Kind: trace.KindRecv,
			Msg:  trace.MessageID{From: src, To: p.rank, Seq: m.Seq},
			Peer: src,
		})
	}
}
