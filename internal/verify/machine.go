package verify

import (
	"errors"
	"fmt"
	"hash/fnv"
	"maps"

	"repro/internal/mpl"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// ErrBudget means an execution exceeded its instruction budget — almost
// always a livelock in a generated program (the generator is supposed to
// emit terminating programs, so hitting this is reported, not ignored).
var ErrBudget = errors.New("verify: instruction budget exhausted")

// ErrDeadlock reports a global state where no process can move but not all
// have halted: some process waits on a message that will never arrive.
var ErrDeadlock = errors.New("verify: deadlock")

// DefaultBudget bounds the total local instructions of one execution.
const DefaultBudget = 1 << 20

// parkKind classifies the visible operation a process is parked at.
type parkKind int

const (
	parkHalted parkKind = iota
	parkSend            // next event: send one message to park.peer
	parkRecv            // next event: receive the head message from park.peer
)

// park is the resolved visible operation a normalized process waits at.
type park struct {
	kind parkKind
	peer int
}

// msg is one in-flight message on a FIFO channel.
type msg struct {
	seq   int
	value int
	clock vclock.VC
}

// procState is one process of the product machine.
type procState struct {
	pc  int
	sub int // completed peer legs inside a bcast/reduce instruction
	acc int // reduce accumulator at the root

	env       *mpl.Env
	clock     vclock.VC
	sendSeq   []int
	recvSeq   []int
	instances map[int]int
	park      park
}

// Machine is a deterministic interpreter of a compiled MPL program's CFG
// product: n process states plus explicit per-channel FIFO queues. All
// nondeterminism is external — the caller picks which enabled process
// performs its next visible communication event — so a schedule ([]int of
// process ids) identifies an execution exactly.
//
// Between visible events each process is "normalized": local instructions
// (assign, work, jumps, branches, and checkpoint statements, which involve
// no interaction) run eagerly, so scheduling choices exist only where they
// can matter for the communication structure.
type Machine struct {
	code     *sim.Code
	n        int
	input    func(rank, i int) int
	procs    []*procState
	chans    [][][]msg // chans[from][to]
	tr       *trace.Trace
	budget   int
	schedule []int

	// Restore logging (the pruned-restore equivalence axis). When enabled,
	// the machine records a full local snapshot at every checkpoint event
	// and keeps every message the runtime's send log would, so any straight
	// cut of the finished execution can be re-instantiated as a restored
	// machine — chkpts[p] in event order, sendLog[from][to] in seq order
	// (none on a channel the program proves quiet). pending[p] holds the
	// records still waiting to learn whether each manifest variable's first
	// dynamic access after the checkpoint is a read or a write (the
	// prune-drop equivalent-mutant oracle).
	logRestore bool
	chkpts     [][]*chkptRecord
	pending    [][]*chkptRecord
	sendLog    [][][]msg
}

// chkptRecord is one process's local state at a checkpoint event — the
// verify-side analogue of storage.Snapshot, recorded unpruned so restore
// checks can compare full-env against manifest-pruned reconstruction.
type chkptRecord struct {
	index    int // straight-cut index C_i
	instance int
	stmtID   int // originating chkpt statement (manifest key)
	pc       int // resume pc: the instruction after the checkpoint
	vars     map[string]int
	clock    vclock.VC
	sendSeq  []int
	recvSeq  []int
	// instances is the per-index checkpoint counter AFTER this event, so a
	// restored machine numbers subsequent checkpoints like the runtime.
	instances map[int]int
	// First-access classification of the site's manifest variables in THIS
	// instance's continuation, filled in as the clean run executes past the
	// checkpoint: readFirst holds variables whose first dynamic access was a
	// read (a pruned restore that zeroed them would be observed), unresolved
	// those never accessed again (they survive to exit, where FinalVars
	// observes everything). Variables in neither set were overwritten before
	// any read — zeroing them at this instance is invisible.
	readFirst  map[string]bool
	unresolved map[string]bool
}

// NewMachine compiles nothing — it instantiates an already compiled
// program for n processes and normalizes every process to its first
// visible operation. input supplies the input(i) builtin per rank (nil
// makes input(...) an evaluation error, matching the runtime).
func NewMachine(code *sim.Code, n int, input func(rank, i int) int) (*Machine, error) {
	return newMachine(code, n, input, false)
}

// newMachine is NewMachine with restore logging optionally enabled from the
// start — recording must begin before the initial normalization, which can
// already execute checkpoint statements.
func newMachine(code *sim.Code, n int, input func(rank, i int) int, logRestore bool) (*Machine, error) {
	if n < 1 {
		return nil, fmt.Errorf("verify: need at least 1 process, got %d", n)
	}
	m := &Machine{
		code:   code,
		n:      n,
		input:  input,
		procs:  make([]*procState, n),
		chans:  make([][][]msg, n),
		tr:     trace.NewTrace(n),
		budget: DefaultBudget,
	}
	if logRestore {
		m.logRestore = true
		m.chkpts = make([][]*chkptRecord, n)
		m.pending = make([][]*chkptRecord, n)
		m.sendLog = make([][][]msg, n)
		for p := 0; p < n; p++ {
			m.sendLog[p] = make([][]msg, n)
		}
	}
	for p := 0; p < n; p++ {
		m.chans[p] = make([][]msg, n)
		var inputFn func(int) int
		if input != nil {
			rank := p
			inputFn = func(i int) int { return input(rank, i) }
		}
		m.procs[p] = &procState{
			env:       mpl.NewEnv(code.Prog, p, n, inputFn),
			clock:     vclock.New(n),
			sendSeq:   make([]int, n),
			recvSeq:   make([]int, n),
			instances: make(map[int]int),
		}
	}
	for p := 0; p < n; p++ {
		if err := m.normalize(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Trace returns the recorded execution.
func (m *Machine) Trace() *trace.Trace { return m.tr }

// Schedule returns the sequence of process ids stepped so far.
func (m *Machine) Schedule() []int {
	return append([]int(nil), m.schedule...)
}

// FinalVars returns each process's variables (call after Done).
func (m *Machine) FinalVars() []map[string]int {
	out := make([]map[string]int, m.n)
	for p, ps := range m.procs {
		out[p] = maps.Clone(ps.env.Vars)
	}
	return out
}

// Done reports whether every process has halted.
func (m *Machine) Done() bool {
	for _, ps := range m.procs {
		if ps.park.kind != parkHalted {
			return false
		}
	}
	return true
}

// enabled reports whether process p can perform its visible operation now.
func (m *Machine) enabled(p int) bool {
	ps := m.procs[p]
	switch ps.park.kind {
	case parkSend:
		return true
	case parkRecv:
		return len(m.chans[ps.park.peer][p]) > 0
	default:
		return false
	}
}

// Enabled returns the processes that can move, in ascending id order.
func (m *Machine) Enabled() []int {
	var out []int
	for p := 0; p < m.n; p++ {
		if m.enabled(p) {
			out = append(out, p)
		}
	}
	return out
}

// Dependent reports whether the visible operations processes p and q are
// parked at may not commute: one is the send and the other the receive on
// the same channel. All other pairs of enabled transitions are independent
// (channels have a single sender and a single receiver), which is what the
// explorer's sleep sets prune by.
func (m *Machine) Dependent(p, q int) bool {
	a, b := m.procs[p].park, m.procs[q].park
	if a.kind == parkSend && b.kind == parkRecv && a.peer == q && b.peer == p {
		return true
	}
	if b.kind == parkSend && a.kind == parkRecv && b.peer == p && a.peer == q {
		return true
	}
	return false
}

// Step performs process p's parked visible operation — one send completing
// or one message delivery — then re-normalizes p. p must be enabled.
func (m *Machine) Step(p int) error {
	if !m.enabled(p) {
		return fmt.Errorf("verify: process %d is not enabled (park %v)", p, m.procs[p].park.kind)
	}
	ps := m.procs[p]
	in := m.code.Instrs[ps.pc]
	switch ps.park.kind {
	case parkSend:
		dest := ps.park.peer
		m.touchRead(p, in.Var)
		value := ps.env.Vars[in.Var] // send/bcast/reduce all transmit Var
		seq := ps.sendSeq[dest]
		ps.sendSeq[dest] = seq + 1
		ps.clock.Tick(p)
		mg := msg{seq: seq, value: value, clock: ps.clock.Clone()}
		m.chans[p][dest] = append(m.chans[p][dest], mg)
		if m.logRestore && !m.code.Prog.Quiet.Has(m.n, p, dest) { // the runtime's log: none on a quiet channel
			m.sendLog[p][dest] = append(m.sendLog[p][dest], mg)
		}
		m.tr.Append(trace.Event{
			Proc: p, Kind: trace.KindSend, Clock: ps.clock,
			Msg: trace.MessageID{From: p, To: dest, Seq: seq}, Peer: dest,
		})
	case parkRecv:
		src := ps.park.peer
		queue := m.chans[src][p]
		mg := queue[0]
		m.chans[src][p] = queue[1:]
		if mg.seq != ps.recvSeq[src] {
			return fmt.Errorf("verify: process %d: FIFO violation from %d: seq %d, want %d",
				p, src, mg.seq, ps.recvSeq[src])
		}
		ps.recvSeq[src] = mg.seq + 1
		switch in.Op {
		case sim.OpRecv, sim.OpBcast:
			m.touchWrite(p, in.Var)
			ps.env.Vars[in.Var] = mg.value
		case sim.OpReduce:
			ps.acc += mg.value
		}
		ps.clock.Tick(p)
		ps.clock.Merge(mg.clock)
		m.tr.Append(trace.Event{
			Proc: p, Kind: trace.KindRecv, Clock: ps.clock,
			Msg: trace.MessageID{From: src, To: p, Seq: mg.seq}, Peer: src,
		})
	}
	m.schedule = append(m.schedule, p)
	if err := m.advanceAfterLeg(p, in); err != nil {
		return err
	}
	return m.normalize(p)
}

// advanceAfterLeg moves p past the communication leg just performed:
// point-to-point operations complete in one leg; collectives complete
// after their last peer leg.
func (m *Machine) advanceAfterLeg(p int, in sim.Instr) error {
	ps := m.procs[p]
	switch in.Op {
	case sim.OpSend, sim.OpRecv:
		ps.pc++
	case sim.OpBcast, sim.OpReduce:
		root, err := mpl.Eval(in.Expr, ps.env)
		if err != nil {
			return m.evalErr(p, in, err)
		}
		if p != root {
			// Non-root legs are single: recv (bcast) or send (reduce).
			ps.pc++
			return nil
		}
		ps.sub++
		if ps.sub >= m.n-1 {
			if in.Op == sim.OpReduce {
				m.touchRead(p, in.Var) // root folds its own contribution in
				ps.env.Vars[in.Var] += ps.acc
				ps.acc = 0
			}
			ps.sub = 0
			ps.pc++
		}
	}
	return nil
}

// normalize advances p through local instructions until it parks at a
// visible operation or halts.
func (m *Machine) normalize(p int) error {
	ps := m.procs[p]
	for {
		if m.budget <= 0 {
			return fmt.Errorf("%w: process %d at pc %d", ErrBudget, p, ps.pc)
		}
		m.budget--
		in := m.code.Instrs[ps.pc]
		switch in.Op {
		case sim.OpAssign:
			m.touchExprReads(p, in.Expr)
			v, err := mpl.Eval(in.Expr, ps.env)
			if err != nil {
				return m.evalErr(p, in, err)
			}
			m.touchWrite(p, in.Var)
			ps.env.Vars[in.Var] = v
			ps.pc++
		case sim.OpWork:
			m.touchExprReads(p, in.Expr)
			if _, err := mpl.Eval(in.Expr, ps.env); err != nil {
				return m.evalErr(p, in, err)
			}
			ps.pc++
		case sim.OpJump:
			ps.pc = in.Target
		case sim.OpBranchFalse:
			m.touchExprReads(p, in.Expr)
			ok, err := mpl.Truthy(in.Expr, ps.env)
			if err != nil {
				return m.evalErr(p, in, err)
			}
			if ok {
				ps.pc++
			} else {
				ps.pc = in.Target
			}
		case sim.OpChkpt:
			// Checkpoints involve no interaction: they are local events
			// taken eagerly, exactly like the application-driven protocol.
			instance := ps.instances[in.Index]
			ps.instances[in.Index] = instance + 1
			ps.clock.Tick(p)
			m.tr.Append(trace.Event{
				Proc: p, Kind: trace.KindCheckpoint, Clock: ps.clock,
				Chkpt: trace.Checkpoint{CFGIndex: in.Index, Instance: instance},
				Label: fmt.Sprintf("C_%d", in.Index),
			})
			if m.logRestore {
				rec := &chkptRecord{
					index: in.Index, instance: instance, stmtID: in.StmtID,
					pc: ps.pc + 1, vars: maps.Clone(ps.env.Vars), clock: ps.clock.Clone(),
					sendSeq:    append([]int(nil), ps.sendSeq...),
					recvSeq:    append([]int(nil), ps.recvSeq...),
					instances:  maps.Clone(ps.instances),
					readFirst:  make(map[string]bool),
					unresolved: make(map[string]bool),
				}
				for _, name := range m.code.Manifests[in.StmtID] {
					rec.unresolved[name] = true
				}
				m.chkpts[p] = append(m.chkpts[p], rec)
				if len(rec.unresolved) > 0 {
					m.pending[p] = append(m.pending[p], rec)
				}
			}
			ps.pc++
		case sim.OpSend:
			m.touchExprReads(p, in.Expr)
			dest, err := mpl.Eval(in.Expr, ps.env)
			if err != nil {
				return m.evalErr(p, in, err)
			}
			if dest < 0 || dest >= m.n || dest == p {
				ps.pc++ // guarded-boundary no-op, same as the runtime
				continue
			}
			ps.park = park{kind: parkSend, peer: dest}
			return nil
		case sim.OpRecv:
			m.touchExprReads(p, in.Expr)
			src, err := mpl.Eval(in.Expr, ps.env)
			if err != nil {
				return m.evalErr(p, in, err)
			}
			if src < 0 || src >= m.n || src == p {
				ps.pc++ // guarded-boundary no-op
				continue
			}
			ps.park = park{kind: parkRecv, peer: src}
			return nil
		case sim.OpBcast, sim.OpReduce:
			m.touchExprReads(p, in.Expr)
			root, err := mpl.Eval(in.Expr, ps.env)
			if err != nil {
				return m.evalErr(p, in, err)
			}
			if root < 0 || root >= m.n {
				return fmt.Errorf("verify: process %d: collective root %d out of range [0,%d)", p, root, m.n)
			}
			if m.n == 1 {
				ps.pc++ // single-process collectives are no-ops
				continue
			}
			if p == root {
				peer := m.nextPeer(p, ps.sub)
				if in.Op == sim.OpReduce && ps.sub == 0 {
					ps.acc = 0
				}
				kind := parkSend
				if in.Op == sim.OpReduce {
					kind = parkRecv
				}
				ps.park = park{kind: kind, peer: peer}
			} else {
				kind := parkRecv
				if in.Op == sim.OpReduce {
					kind = parkSend
				}
				ps.park = park{kind: kind, peer: root}
			}
			return nil
		case sim.OpHalt:
			ps.park = park{kind: parkHalted}
			return nil
		default:
			return fmt.Errorf("verify: process %d: unknown opcode %v", p, in.Op)
		}
	}
}

// touchRead resolves name as read-first in every pending checkpoint record
// of process p that has not yet seen an access to it.
func (m *Machine) touchRead(p int, name string) {
	m.touch(p, name, true)
}

// touchWrite resolves name as written-first (not recorded — absence from
// both sets is the classification).
func (m *Machine) touchWrite(p int, name string) {
	m.touch(p, name, false)
}

func (m *Machine) touch(p int, name string, read bool) {
	if !m.logRestore || len(m.pending[p]) == 0 {
		return
	}
	out := m.pending[p][:0]
	for _, rec := range m.pending[p] {
		if rec.unresolved[name] {
			delete(rec.unresolved, name)
			if read {
				rec.readFirst[name] = true
			}
		}
		if len(rec.unresolved) > 0 {
			out = append(out, rec)
		}
	}
	m.pending[p] = out
}

// touchExprReads resolves every variable mentioned in e as read. mpl
// evaluation has no short-circuiting, so the syntactic ident set is exactly
// the dynamic read set.
func (m *Machine) touchExprReads(p int, e mpl.Expr) {
	if !m.logRestore || len(m.pending[p]) == 0 {
		return
	}
	mpl.WalkExpr(e, func(x mpl.Expr) bool {
		if id, ok := x.(*mpl.Ident); ok {
			m.touchRead(p, id.Name)
		}
		return true
	})
}

// nextPeer returns the sub-th peer of a collective's root in ascending
// rank order, skipping the root itself — the same order the sim runtime
// uses, so both executions produce identical message structures.
func (m *Machine) nextPeer(root, sub int) int {
	q := 0
	for {
		if q != root {
			if sub == 0 {
				return q
			}
			sub--
		}
		q++
	}
}

func (m *Machine) evalErr(p int, in sim.Instr, err error) error {
	return fmt.Errorf("verify: process %d (stmt #%d, op %v): %w", p, in.StmtID, in.Op, err)
}

// Signature hashes the per-process event histories (kind, peer, message
// id, checkpoint index and instance). Two executions with equal signatures
// have identical local histories and message pairings, hence identical
// happened-before structure; the explorer uses signatures both to dedupe
// equivalent interleavings and to assert Kahn-style confluence (every
// schedule of a deterministic program must produce the same signature).
func (m *Machine) Signature() uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 64)
	put := func(vals ...int) {
		buf = buf[:0]
		for _, v := range vals {
			buf = append(buf,
				byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		h.Write(buf)
	}
	for p, hist := range m.tr.Events() {
		put(-1, p)
		for _, e := range hist {
			switch e.Kind {
			case trace.KindSend, trace.KindRecv:
				put(int(e.Kind), e.Msg.From, e.Msg.To, e.Msg.Seq)
			case trace.KindCheckpoint:
				put(int(e.Kind), e.Chkpt.CFGIndex, e.Chkpt.Instance)
			default:
				put(int(e.Kind))
			}
		}
	}
	return h.Sum64()
}

// RunSchedule replays a recorded schedule on a fresh machine, then — if
// the schedule ends before the program does — completes the run with the
// deterministic lowest-id choice. It is the replay entry point for
// counterexample reports.
func RunSchedule(code *sim.Code, n int, input func(rank, i int) int, schedule []int) (*Machine, error) {
	m, err := NewMachine(code, n, input)
	if err != nil {
		return nil, err
	}
	for i, p := range schedule {
		if err := m.Step(p); err != nil {
			return nil, fmt.Errorf("verify: replay step %d (proc %d): %w", i, p, err)
		}
	}
	for !m.Done() {
		en := m.Enabled()
		if len(en) == 0 {
			return m, fmt.Errorf("%w after %d steps", ErrDeadlock, len(m.schedule))
		}
		if err := m.Step(en[0]); err != nil {
			return nil, err
		}
	}
	return m, nil
}
