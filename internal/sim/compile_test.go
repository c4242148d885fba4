package sim

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mpl"
)

func TestCompileStraightLine(t *testing.T) {
	p, err := mpl.Parse(`
program s
var x
proc {
    x = 1
    chkpt
    send(rank + 1, x)
    recv(rank - 1, x)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	ops := []OpCode{OpAssign, OpChkpt, OpSend, OpRecv, OpHalt}
	if len(code.Instrs) != len(ops) {
		t.Fatalf("instrs = %d, want %d: %+v", len(code.Instrs), len(ops), code.Instrs)
	}
	for i, op := range ops {
		if code.Instrs[i].Op != op {
			t.Errorf("instr %d op = %v, want %v", i, code.Instrs[i].Op, op)
		}
	}
	if code.Instrs[1].Index != 1 {
		t.Errorf("chkpt index = %d, want 1", code.Instrs[1].Index)
	}
}

func TestCompileWhile(t *testing.T) {
	p, err := mpl.Parse(`
program w
var i
proc {
    i = 0
    while i < 3 {
        i = i + 1
    }
    i = 9
}
`)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	// assign, branchfalse, assign, jump, assign, halt
	if code.Instrs[1].Op != OpBranchFalse {
		t.Fatalf("instr 1 = %v", code.Instrs[1].Op)
	}
	if code.Instrs[3].Op != OpJump || code.Instrs[3].Target != 1 {
		t.Errorf("loop jump = %+v, want target 1", code.Instrs[3])
	}
	if code.Instrs[1].Target != 4 {
		t.Errorf("branch-false target = %d, want 4", code.Instrs[1].Target)
	}
}

func TestCompileIfElse(t *testing.T) {
	p, err := mpl.Parse(`
program b
var x
proc {
    if rank == 0 {
        x = 1
    } else {
        x = 2
    }
    x = 3
}
`)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	// branchfalse(→3), assign, jump(→4), assign, assign, halt
	br := code.Instrs[0]
	if br.Op != OpBranchFalse || br.Target != 3 {
		t.Errorf("branch = %+v", br)
	}
	if code.Instrs[2].Op != OpJump || code.Instrs[2].Target != 4 {
		t.Errorf("then-exit jump = %+v", code.Instrs[2])
	}
}

func TestCompileIfNoElse(t *testing.T) {
	p, err := mpl.Parse(`
program b
var x
proc {
    if rank == 0 {
        x = 1
    }
    x = 3
}
`)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	// branchfalse(→2), assign, assign, halt — no jump needed.
	if code.Instrs[0].Target != 2 {
		t.Errorf("branch target = %d, want 2", code.Instrs[0].Target)
	}
	for _, in := range code.Instrs {
		if in.Op == OpJump {
			t.Error("unexpected jump for else-less if")
		}
	}
}

func TestCompileRejectsAmbiguous(t *testing.T) {
	p, err := mpl.Parse(`
program amb
var x
proc {
    if rank == 0 {
        chkpt
    }
    x = 1
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(p); err == nil {
		t.Fatal("ambiguous enumeration accepted")
	}
}

// TestCompileRejectsUndeclaredSendVar compiles a built program that skipped
// mpl.Check and sends a variable it never declares: liveness must refuse
// it by name, not index slot 0 (a panic with no variables, the manifest of
// another variable with one).
func TestCompileRejectsUndeclaredSendVar(t *testing.T) {
	for _, vars := range [][]string{nil, {"a"}} {
		p := &mpl.Program{Name: "undeclared", Vars: vars, Body: []mpl.Stmt{
			&mpl.Chkpt{StmtBase: mpl.StmtBase{StmtID: 0}},
			&mpl.Send{StmtBase: mpl.StmtBase{StmtID: 1}, Dest: mpl.Int(0), Var: "x"},
		}}
		_, err := Compile(p)
		if err == nil || !strings.Contains(err.Error(), `send->0 (#1): undeclared variable "x"`) {
			t.Errorf("vars %v: Compile error = %v, want one naming send #1 and x", vars, err)
		}
	}
}

func TestCompileWholeCorpus(t *testing.T) {
	for name, p := range corpus.All() {
		t.Run(name, func(t *testing.T) {
			code, err := Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			// Jump/branch targets must be in range.
			for pc, in := range code.Instrs {
				switch in.Op {
				case OpJump, OpBranchFalse:
					if in.Target < 0 || in.Target >= len(code.Instrs) {
						t.Errorf("instr %d target %d out of range", pc, in.Target)
					}
				}
			}
			if code.Instrs[len(code.Instrs)-1].Op != OpHalt {
				t.Error("program does not end in halt")
			}
			// Compile sizes Instrs with a counting walk before emitting:
			// the count must be the number emitted.
			if cap(code.Instrs) != len(code.Instrs) {
				t.Errorf("%d instructions in an array sized for %d", len(code.Instrs), cap(code.Instrs))
			}
		})
	}
}
