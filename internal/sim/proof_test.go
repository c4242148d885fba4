package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mpl"
	"repro/internal/storage"
)

// farSrc is Figure 2's misplaced exchange moved to ranks 18 and 19 (ROADMAP
// 24). Phase II decides matches over n ∈ [2, 17], so it finds no message
// edge here and Phase III certifies a placement that is wrong at n ≥ 20.
const farSrc = `
program far
var x, y, iter
proc {
    x = rank + 1
    iter = 0
    while iter < 4 {
        if rank == 18 { chkpt  send(19, x)  recv(19, y) }
        else { if rank == 19 { recv(18, y)  send(18, x)  chkpt }
               else { chkpt } }
        x = x + y
        iter = iter + 1
    }
}
`

func transformed(t *testing.T, p *mpl.Program) *mpl.Program {
	t.Helper()
	rep, err := core.Transform(p, core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Program
}

// A run of the paper's protocol at an n whose Ĝ has a message edge the
// checked Ĝ lacks is refused before it saves anything, naming the edge; the
// same program runs at n = 17, inside the checked range, and under another
// protocol at n = 20. Its twin on ranks 2 and 3, whose exchange Phase II
// sees, is transformed and recovers from a crash of rank 3.
func TestRunRefusesAnUnprovedN(t *testing.T) {
	far := transformed(t, mustParseProg(t, farSrc))
	st := storage.NewMemory()
	_, err := Run(Config{Program: far, Nproc: 20, Store: st, Failures: []Failure{{Proc: 19, AfterEvents: 5}}})
	if !errors.Is(err, ErrUnprovedN) {
		t.Fatalf("far at n = 20: err = %v, want ErrUnprovedN", err)
	}
	for _, want := range []string{"n = 20", "send->18", "recv<-19", "[2, 17]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not name %s", err, want)
		}
	}
	for p := range 20 {
		if keys, _ := st.Keys(p); len(keys) != 0 {
			t.Fatalf("the refused run saved %d checkpoints of process %d", len(keys), p)
		}
	}
	if _, err := Run(Config{Program: far, Nproc: 17}); err != nil {
		t.Errorf("far at n = 17: %v", err)
	}
	sas := func(int, int) Hooks { return otherProtocol{} }
	if _, err := Run(Config{Program: far, Nproc: 20, Hooks: sas}); err != nil {
		t.Errorf("far at n = 20 under another protocol: %v", err)
	}

	twin := transformed(t, mustParseProg(t, strings.NewReplacer("18", "2", "19", "3").Replace(farSrc)))
	clean, err := Run(Config{Program: twin, Nproc: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Program: twin, Nproc: 4, Failures: []Failure{{Proc: 3, AfterEvents: 5}}, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatalf("twin with rank 3 crashing: %v", err)
	}
	if res.Restarts != 1 || !reflect.DeepEqual(res.FinalVars, clean.FinalVars) {
		t.Errorf("twin: %d restarts, final state %v, want 1 and %v", res.Restarts, res.FinalVars, clean.FinalVars)
	}
}

// otherProtocol is not the paper's protocol: the gate leaves it alone.
type otherProtocol struct{ NoHooks }

// The gate refuses nothing the repository runs wide: no corpus program, and
// no transformed Jacobi or stencil, at n = 256 or 1024.
func TestProofCoversTheCorpus(t *testing.T) {
	progs := corpus.All()
	progs["jacobi-transformed"] = transformed(t, corpus.JacobiFig2(8))
	progs["stencil-transformed"] = transformed(t, corpus.Stencil2D(4, 4))
	for name, p := range progs {
		for _, n := range []int{256, 1024} {
			if err := CheckProof(p, n); err != nil {
				t.Errorf("%s at n = %d: %v", name, n, err)
			}
		}
	}
}

// The gate compares the pairs of FIFO channels, not compatible statements:
// at n = 21 rank 20 is the last rank and sends rank 0 two messages, but
// rank 0's one receive takes the first, which the checked range pairs too;
// the second feeds nothing.
func TestProofSeesASecondSender(t *testing.T) {
	p := mustParseProg(t, `
program second
var x
proc {
    x = rank
    if rank == nproc - 1 { send(0, x) }
    if rank == 20 { send(0, x) }
    if rank == 0 { recv(nproc - 1, x) }
}
`)
	for _, n := range []int{21, 32} {
		if err := CheckProof(p, n); err != nil {
			t.Errorf("n = %d: %v", n, err)
		}
	}
}

// A send compatible with a receive at every n of the range, but paired
// with it at none, is refused at the n where it is the receive's first:
// below 20 rank 1's first send to rank 0 is the guarded one. Statement ids
// count in post-order, so the second send is #4.
func TestProofSeesAShiftedPair(t *testing.T) {
	p := mustParseProg(t, `
program shifted
var d, tok
proc {
    d = rank
    if rank == 1 {
        if nproc < 20 { send(0, d) }
        send(0, d)
    }
    if rank == 0 { recv(1, tok) }
}
`)
	err := CheckProof(p, 20)
	if !errors.Is(err, ErrUnprovedN) || !strings.Contains(err.Error(), "send->0 (#4) feeds recv<-1 (#6)") {
		t.Errorf("n = 20: err = %v, want ErrUnprovedN naming the second send", err)
	}
}
