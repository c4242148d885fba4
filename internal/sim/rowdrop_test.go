package sim_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpl"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/verify"
)

// dropCount is a memory store that saves process proc's snapshots with one
// count of peer zeroed: the received one when recvd, else the sent one. An
// entry left all zero is dropped.
type dropCount struct {
	*storage.Memory
	proc, peer int
	recvd      bool
}

func (d dropCount) Save(s storage.Snapshot) error {
	if s.Proc == d.proc {
		s.Peers = slices.Clone(s.Peers)
		if i, ok := s.Peers.Search(d.peer); ok {
			if d.recvd {
				s.Peers[i].Recvd = 0
			} else {
				s.Peers[i].Sent = 0
			}
			if s.Peers[i] == (storage.PeerSeq{Peer: d.peer}) {
				s.Peers = slices.Delete(s.Peers, i, i+1)
			}
		}
	}
	return d.Memory.Save(s)
}

// loggedHooks is the paper's scheme under another name, so that the runtime
// proves no channel quiet and every send writes a log record.
type loggedHooks struct{ sim.NoHooks }

// A row that loses a count is caught, and which standing check catches it is
// pinned. Figure 1's Jacobi, transformed, on 4 processes crashes once; every
// snapshot one process saves lacks one count of one neighbour. Each process
// sums what it exchanges rather than averaging it, so that no two rounds send
// the same value and a message received twice shows in the final state:
//   - a dropped sent count leaves the line's receiver with more messages than
//     their sender had sent: recovery.Consistent refuses the cut, and the run
//     ends in ErrInconsistentCut;
//   - a dropped received count reads as messages in flight across the line.
//     On a channel the program proves quiet there is no record to rebuild
//     them from, and channel.reset refuses the line; on a logged channel they
//     are re-injected, received twice, and the final state differs from the
//     one verify.Machine computes.
//
// No mutant runs to the machine's state. A line at which the two had
// exchanged nothing has no count to lose: such a run is made again.
func TestDroppedRowCountIsCaught(t *testing.T) {
	const n = 4
	left, right := mpl.Sub(mpl.Rank(), mpl.Int(1)), mpl.Add(mpl.Rank(), mpl.Int(1))
	prog := mpl.NewBuilder("jacobi_sum").
		Const("MAXITER", 8).
		Vars("x", "xl", "xr", "iter").
		Assign("x", mpl.Add(mpl.Rank(), mpl.Int(1))).
		While(mpl.Lt(mpl.V("iter"), mpl.V("MAXITER")), func(b *mpl.Builder) {
			b.Chkpt().Send(left, "x").Send(right, "x").Recv(left, "xl").Recv(right, "xr")
			b.Assign("x", mpl.Add(mpl.Add(mpl.V("x"), mpl.V("xl")), mpl.V("xr")))
			b.Assign("iter", mpl.Add(mpl.V("iter"), mpl.Int(1)))
		}).
		MustProgram()
	rep, err := core.Transform(prog, core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	code, err := sim.Compile(rep.Program)
	if err != nil {
		t.Fatal(err)
	}
	m, err := verify.RunSchedule(code, n, verify.DefaultInput, nil)
	if err != nil {
		t.Fatal(err)
	}
	// caughtBy runs the mutant that zeroes process p's count of q and names
	// the check that catches it.
	caughtBy := func(name string, p, q int, recvd, logged bool) string {
		cfg := sim.Config{
			Code: code, Nproc: n, Input: verify.DefaultInput, Timeout: 20 * time.Second, DisableTrace: true,
			Failures: []sim.Failure{{Proc: 1, AfterEvents: 30}},
		}
		if logged {
			cfg.Hooks = func(int, int) sim.Hooks { return loggedHooks{} }
		}
		// vacuous: the line's q had sent p, or received from it, nothing,
		// so no count was lost.
		vacuous := true
		cfg.Recover = func(st storage.Store, n int) (*recovery.Line, error) {
			line, err := recovery.StraightCut(st, n)
			vacuous = err == nil && ((recvd && line.Snapshots[q].Peers.At(p).Sent == 0) || (!recvd && line.Snapshots[q].Peers.At(p).Recvd == 0))
			return line, err
		}
		var res *sim.Result
		var err error
		for try := 0; vacuous; try++ {
			if try == 50 {
				t.Fatalf("%s: 50 runs recovered to a line with nothing to lose", name)
			}
			cfg.Store = dropCount{Memory: storage.NewMemory(), proc: p, peer: q, recvd: recvd}
			res, err = sim.Run(cfg)
		}
		switch {
		case errors.Is(err, recovery.ErrInconsistentCut):
			return "Consistent"
		case err != nil && strings.Contains(err.Error(), "write no log record"):
			return "channel.reset"
		case err != nil:
			t.Fatalf("%s: %v", name, err)
		case res.Restarts != 1:
			t.Fatalf("%s: %d restarts, want the one crash", name, res.Restarts)
		case reflect.DeepEqual(res.FinalVars, m.FinalVars()):
			t.Fatalf("%s: the run ends in the machine's state", name)
		}
		return "FinalVars"
	}
	caught := map[string]int{}
	for p := range n {
		for _, q := range []int{p - 1, p + 1} {
			if q < 0 || q == n {
				continue
			}
			for _, recvd := range []bool{false, true} {
				for _, logged := range []bool{false, true} {
					name, want := fmt.Sprintf("process %d's sent count of %d", p, q), "Consistent"
					if recvd {
						name, want = fmt.Sprintf("process %d's received count of %d", p, q), "channel.reset"
					}
					if logged {
						name += ", every send logged"
						if recvd {
							want = "FinalVars"
						}
					}
					by := caughtBy(name, p, q, recvd, logged)
					if by != want {
						t.Errorf("%s: caught by %s, want %s", name, by, want)
					}
					caught[by]++
				}
			}
		}
	}
	t.Logf("mutants caught by check: %v", caught)
}
