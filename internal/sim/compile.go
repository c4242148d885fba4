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
type OpCode uint8

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

// Instr is one compiled instruction. Its fields are narrow and it holds no
// name or label, only a slot, so it is 40 bytes (TestInstrLayout): the
// instructions are most of what Compile allocates.
type Instr struct {
	Op     OpCode
	StmtID int32    // originating statement (-1 for synthetic jumps/halt)
	Var    int32    // assign target / message buffer: a slot of Code.Vars
	Expr   mpl.Expr // assign value, work amount, peer expression, or branch condition
	Target int32    // jump / branch-false target pc
	Index  int32    // chkpt: straight-cut index i
}

// Code is a compiled program.
type Code struct {
	Prog   *mpl.Program
	Instrs []Instr
	Enum   *cfg.Enumeration
	// Vars names the variable slots instructions address: Prog.Vars in
	// declaration order, then any undeclared assignment or receive target
	// (a hand-built program that skipped mpl.Check may have one).
	Vars []string
	// Manifests maps each checkpoint statement's id to the variables live
	// at that site (sorted), from the backward liveness pass. Keyed by
	// statement id, not straight-cut index: two checkpoints in different
	// if-arms can share an index yet have different per-arm live sets. The
	// runtime persists only manifest variables.
	Manifests map[int][]string
	// consts is the constants map every process of every run of it reads.
	consts map[string]int
	// assignLabels[slot] ("x=") and chkptLabels[index] ("C_2") are the
	// event labels, built once so the runtime builds no string per event.
	assignLabels, chkptLabels []string
	enum                      cfg.Enumeration // what Enum points at
}

// Compile lowers a program to instructions. The checkpoint enumeration
// must be unambiguous (run Phase I equalization first if needed).
func Compile(p *mpl.Program) (*Code, error) {
	c := &Code{Prog: p}
	if err := cfg.EnumerateInto(p, &c.enum); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	live, err := liveness.Compute(p)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	c.Enum, c.Vars, c.Manifests = &c.enum, live.Table.Names, live.Live
	c.consts = make(map[string]int, len(p.Consts))
	for _, k := range p.Consts {
		c.consts[k.Name] = k.Value
	}
	c.Instrs = make([]Instr, 0, instrCount(p.Body)+1) // +1: the halt
	if err := c.compileBody(p.Body, live.Table.Index); err != nil {
		return nil, err
	}
	c.emit(Instr{Op: OpHalt, StmtID: -1})
	c.buildLabels()
	return c, nil
}

// chkptLabelPrefix starts the event label of a checkpoint: "C_<index>".
const chkptLabelPrefix = "C_"

// buildLabels fills the label tables: one per variable slot and one per
// checkpoint index (index 0 unused). Both are cut from one slice and every
// label from one string, so compiling pays two allocations for them however
// many there are.
func (c *Code) buildLabels() {
	size := 0
	for _, v := range c.Vars {
		size += len(v) + 1
	}
	size += c.Enum.Count * (len(chkptLabelPrefix) + 20) // room for any int
	var b strings.Builder
	b.Grow(size)
	labels := make([]string, len(c.Vars)+c.Enum.Count+1)
	c.assignLabels, c.chkptLabels = labels[:len(c.Vars)], labels[len(c.Vars):]
	for slot, v := range c.Vars {
		start := b.Len()
		b.WriteString(v)
		b.WriteByte('=')
		c.assignLabels[slot] = b.String()[start:]
	}
	for i := 1; i <= c.Enum.Count; i++ {
		start := b.Len()
		b.WriteString(chkptLabelPrefix)
		b.WriteString(strconv.Itoa(i))
		c.chkptLabels[i] = b.String()[start:]
	}
}

// ChkptLabel returns the event label of straight-cut index i ("C_2"),
// from the table Compile built.
func (c *Code) ChkptLabel(i int) string { return c.chkptLabels[i] }

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

// here is the pc the next emitted instruction gets.
func (c *Code) here() int32 { return int32(len(c.Instrs)) }

func (c *Code) compileBody(body []mpl.Stmt, slots map[string]int) error {
	for _, s := range body {
		id := int32(s.ID())
		switch st := s.(type) {
		case *mpl.Assign:
			c.emit(Instr{Op: OpAssign, StmtID: id, Var: int32(slots[st.Name]), Expr: st.X})
		case *mpl.Work:
			c.emit(Instr{Op: OpWork, StmtID: id, Expr: st.Amount})
		case *mpl.Send:
			c.emit(Instr{Op: OpSend, StmtID: id, Var: int32(slots[st.Var]), Expr: st.Dest})
		case *mpl.Recv:
			c.emit(Instr{Op: OpRecv, StmtID: id, Var: int32(slots[st.Var]), Expr: st.Src})
		case *mpl.Bcast:
			c.emit(Instr{Op: OpBcast, StmtID: id, Var: int32(slots[st.Var]), Expr: st.Root})
		case *mpl.Reduce:
			c.emit(Instr{Op: OpReduce, StmtID: id, Var: int32(slots[st.Var]), Expr: st.Root})
		case *mpl.Chkpt:
			idx, ok := c.Enum.Index[st.ID()]
			if !ok {
				return fmt.Errorf("sim: checkpoint statement #%d not enumerated", st.ID())
			}
			c.emit(Instr{Op: OpChkpt, StmtID: id, Index: int32(idx)})
		case *mpl.While:
			top := c.emit(Instr{Op: OpBranchFalse, StmtID: id, Expr: st.Cond})
			if err := c.compileBody(st.Body, slots); err != nil {
				return err
			}
			c.emit(Instr{Op: OpJump, StmtID: -1, Target: int32(top)})
			c.Instrs[top].Target = c.here()
		case *mpl.If:
			br := c.emit(Instr{Op: OpBranchFalse, StmtID: id, Expr: st.Cond})
			if err := c.compileBody(st.Then, slots); err != nil {
				return err
			}
			if len(st.Else) > 0 {
				jmp := c.emit(Instr{Op: OpJump, StmtID: -1})
				c.Instrs[br].Target = c.here()
				if err := c.compileBody(st.Else, slots); err != nil {
					return err
				}
				c.Instrs[jmp].Target = c.here()
			} else {
				c.Instrs[br].Target = c.here()
			}
		default:
			return fmt.Errorf("sim: unknown statement type %T", s)
		}
	}
	return nil
}
