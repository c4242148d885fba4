// Package sim is the distributed runtime: it executes an MPL program on n
// concurrent processes (goroutines) connected by reliable FIFO channels —
// the paper's §2 system model — while recording the execution as a trace
// (clocks stamped at the end), taking checkpoints to stable storage, and
// optionally injecting failures and restarting from recovery lines.
//
// Programs are compiled to a flat instruction list so a process can resume
// from a checkpoint by restoring variables and jumping to the saved
// program counter. Checkpointing *protocols* (application-driven, SaS,
// Chandy-Lamport, CIC, uncoordinated) plug in through the Hooks interface
// in hooks.go.
package sim

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cfg"
	"repro/internal/liveness"
	"repro/internal/mpl"
)

// OpCode enumerates instruction kinds.
type OpCode int

// Instruction opcodes.
const (
	OpAssign OpCode = iota + 1
	OpWork
	OpSend
	OpRecv
	OpBcast
	OpReduce
	OpChkpt
	OpJump
	OpBranchFalse // jump to Target when Expr is zero, else fall through
	OpHalt
)

// String names the opcode.
func (o OpCode) String() string {
	switch o {
	case OpAssign:
		return "assign"
	case OpWork:
		return "work"
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpBcast:
		return "bcast"
	case OpReduce:
		return "reduce"
	case OpChkpt:
		return "chkpt"
	case OpJump:
		return "jump"
	case OpBranchFalse:
		return "branch-false"
	case OpHalt:
		return "halt"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Instr is one compiled instruction.
type Instr struct {
	Op     OpCode
	StmtID int      // originating statement (-1 for synthetic jumps/halt)
	Var    string   // assign target / message buffer
	Expr   mpl.Expr // assign value, work amount, peer expression, or branch condition
	Target int      // jump / branch-false target pc
	Index  int      // chkpt: straight-cut index i
	Label  string   // assign, chkpt: the event label ("x=", "C_2"), set by Compile
}

// Code is a compiled program.
type Code struct {
	Prog   *mpl.Program
	Instrs []Instr
	Enum   *cfg.Enumeration
	// Manifests maps each checkpoint statement's id to the variables live
	// at that site (sorted), from the backward liveness pass. Keyed by
	// statement id, not straight-cut index: two checkpoints in different
	// if-arms can share an index yet have different per-arm live sets. The
	// runtime persists only manifest variables unless pruning is disabled.
	Manifests map[int][]string
	// consts is the constants map every process of every run of it reads.
	consts map[string]int
}

// Compile lowers a program to instructions. The checkpoint enumeration
// must be unambiguous (run Phase I equalization first if needed).
func Compile(p *mpl.Program) (*Code, error) {
	enum, err := cfg.Enumerate(p)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	live, err := liveness.Compute(p)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	c := &Code{Prog: p, Enum: enum, Manifests: live.Live, consts: make(map[string]int, len(p.Consts))}
	for _, k := range p.Consts {
		c.consts[k.Name] = k.Value
	}
	c.Instrs = make([]Instr, 0, instrCount(p.Body)+1) // +1: the halt
	if err := c.compileBody(p.Body); err != nil {
		return nil, err
	}
	c.emit(Instr{Op: OpHalt, StmtID: -1})
	c.labelInstrs()
	return c, nil
}

// chkptLabelPrefix starts the event label of a checkpoint: "C_<index>".
const chkptLabelPrefix = "C_"

// labelInstrs sets Label on every assign and chkpt instruction, so the
// runtime builds no string per executed event. All labels are cut from one
// string: compiling pays one allocation for them, however many there are.
func (c *Code) labelInstrs() {
	size := 0
	for _, in := range c.Instrs {
		switch in.Op {
		case OpAssign:
			size += len(in.Var) + 1
		case OpChkpt:
			size += len(chkptLabelPrefix) + 20 // room for any int
		}
	}
	var b strings.Builder
	b.Grow(size)
	for i := range c.Instrs {
		in := &c.Instrs[i]
		start := b.Len()
		switch in.Op {
		case OpAssign:
			b.WriteString(in.Var)
			b.WriteByte('=')
		case OpChkpt:
			b.WriteString(chkptLabelPrefix)
			b.WriteString(strconv.Itoa(in.Index))
		default:
			continue
		}
		in.Label = b.String()[start:]
	}
}

// instrCount returns how many instructions compileBody emits for body.
func instrCount(body []mpl.Stmt) int {
	n := len(body)
	for _, s := range body {
		switch st := s.(type) {
		case *mpl.While:
			n += 1 + instrCount(st.Body) // the back jump
		case *mpl.If:
			n += instrCount(st.Then)
			if len(st.Else) > 0 {
				n += 1 + instrCount(st.Else) // the jump over the else arm
			}
		}
	}
	return n
}

func (c *Code) emit(i Instr) int {
	c.Instrs = append(c.Instrs, i)
	return len(c.Instrs) - 1
}

func (c *Code) compileBody(body []mpl.Stmt) error {
	for _, s := range body {
		switch st := s.(type) {
		case *mpl.Assign:
			c.emit(Instr{Op: OpAssign, StmtID: st.ID(), Var: st.Name, Expr: st.X})
		case *mpl.Work:
			c.emit(Instr{Op: OpWork, StmtID: st.ID(), Expr: st.Amount})
		case *mpl.Send:
			c.emit(Instr{Op: OpSend, StmtID: st.ID(), Var: st.Var, Expr: st.Dest})
		case *mpl.Recv:
			c.emit(Instr{Op: OpRecv, StmtID: st.ID(), Var: st.Var, Expr: st.Src})
		case *mpl.Bcast:
			c.emit(Instr{Op: OpBcast, StmtID: st.ID(), Var: st.Var, Expr: st.Root})
		case *mpl.Reduce:
			c.emit(Instr{Op: OpReduce, StmtID: st.ID(), Var: st.Var, Expr: st.Root})
		case *mpl.Chkpt:
			idx, ok := c.Enum.Index[st.ID()]
			if !ok {
				return fmt.Errorf("sim: checkpoint statement #%d not enumerated", st.ID())
			}
			c.emit(Instr{Op: OpChkpt, StmtID: st.ID(), Index: idx})
		case *mpl.While:
			top := c.emit(Instr{Op: OpBranchFalse, StmtID: st.ID(), Expr: st.Cond})
			if err := c.compileBody(st.Body); err != nil {
				return err
			}
			c.emit(Instr{Op: OpJump, StmtID: -1, Target: top})
			c.Instrs[top].Target = len(c.Instrs)
		case *mpl.If:
			br := c.emit(Instr{Op: OpBranchFalse, StmtID: st.ID(), Expr: st.Cond})
			if err := c.compileBody(st.Then); err != nil {
				return err
			}
			if len(st.Else) > 0 {
				jmp := c.emit(Instr{Op: OpJump, StmtID: -1})
				c.Instrs[br].Target = len(c.Instrs)
				if err := c.compileBody(st.Else); err != nil {
					return err
				}
				c.Instrs[jmp].Target = len(c.Instrs)
			} else {
				c.Instrs[br].Target = len(c.Instrs)
			}
		default:
			return fmt.Errorf("sim: unknown statement type %T", s)
		}
	}
	return nil
}
