package sim_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mpl"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Under the paper's protocol a message on a channel core.Transform proved
// empty at every straight cut writes no send-log record, and recovery never
// asks for one: on the transformed Jacobi and stencil, a crash after each
// event of each process recovers, with no refusal, to the state
// verify.Machine computes. chkptc -report counts none of their sends as
// logged, and every message of the run goes on a quiet channel.
func TestCrashAtEveryEventWithElision(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		name string
		prog *mpl.Program
	}{
		{"jacobi", corpus.JacobiFig2(4)},
		{"stencil", corpus.Stencil2D(4, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := core.Transform(tc.prog, core.DefaultConfig)
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
			want := m.FinalVars()
			clean, err := sim.Run(sim.Config{Code: code, Nproc: n, Input: verify.DefaultInput})
			if err != nil {
				t.Fatal(err)
			}
			quiet := 0
			for _, history := range clean.Trace.Events() {
				for _, e := range history {
					if e.Kind == trace.KindSend && rep.Program.Quiet.Has(n, e.Msg.From, e.Msg.To) {
						quiet++
					}
				}
			}
			logged, sends := rep.SendsLogged()
			if sends == 0 || logged != 0 || int64(quiet) != clean.Metrics.AppMessages {
				t.Fatalf("chkptc reports %d of %d sends logged; %d of the run's %d messages on quiet channels, want all",
					logged, sends, quiet, clean.Metrics.AppMessages)
			}
			runs := 0
			for p, history := range clean.Trace.Events() {
				for after := 1; after <= len(history); after++ {
					res, err := sim.Run(sim.Config{
						Code: code, Nproc: n, Input: verify.DefaultInput, DisableTrace: true, Timeout: 20 * time.Second,
						Failures: []sim.Failure{{Proc: p, AfterEvents: after}},
					})
					if err != nil {
						t.Fatalf("crash of process %d after event %d: %v", p, after, err)
					}
					if res.Restarts != 1 || !reflect.DeepEqual(res.FinalVars, want) {
						t.Fatalf("crash of process %d after event %d: %d restarts, final state %v, want %v", p, after, res.Restarts, res.FinalVars, want)
					}
					runs++
				}
			}
			t.Logf("%d runs, one crash each; %d of %d send statements logged, %d messages on quiet channels", runs, logged, sends, quiet)
		})
	}
}

// The runtime really writes no record on a quiet channel: a line that is
// not a straight cut, with a message on one in flight, is refused by name.
// The straight cut of a crashed Jacobi is bent by making process 1 forget
// the last message it received from process 0. Ranks 0 and 1 need not have
// exchanged one by the cut when rank 3 crashes, so the run is repeated
// until they have.
func TestRunRefusesInFlightOnQuietChannel(t *testing.T) {
	rep, err := core.Transform(corpus.JacobiFig2(4), core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Program.Quiet.Has(4, 0, 1) {
		t.Fatal("channel 0->1 of the Jacobi is not quiet at n=4")
	}
	bent := 0
	for try := 0; try < 50 && bent == 0; try++ {
		_, err = sim.Run(sim.Config{
			Program: rep.Program, Nproc: 4, Input: verify.DefaultInput, DisableTrace: true, Timeout: 20 * time.Second,
			Failures: []sim.Failure{{Proc: 3, AfterEvents: 12}},
			Recover: func(st storage.Store, n int) (*recovery.Line, error) {
				line, err := recovery.StraightCut(st, n)
				if err != nil || line == nil {
					return line, err
				}
				if bent = line.Snapshots[0].Peers.At(1).Sent; bent > 0 {
					row := &line.Snapshots[1].Peers
					i, ok := row.Search(0)
					if !ok {
						*row = slices.Insert(*row, i, storage.PeerSeq{Peer: 0})
					}
					(*row)[i].Recvd = bent - 1
				}
				return line, nil
			},
		})
		if bent == 0 && err != nil {
			t.Fatalf("Run with nothing in flight: %v", err)
		}
	}
	want := "channel 0->1: message #"
	if bent == 0 || err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "write no log record") {
		t.Fatalf("Run with message #%d of 0->1 in flight: %v, want a refusal naming %q", bent-1, err, want)
	}
}

// Elision stays inside the process counts the analysis proved. Only rank 20
// sends, before its checkpoint, to rank 0, which receives after its own: at
// every count of the solver's bound the send never runs, and at 32
// processes its message is in flight across the straight cut when rank 0
// crashes between its checkpoint and its receive. The message is logged
// there, so the run recovers to the machine's state.
func TestElisionStaysInTheProvedRange(t *testing.T) {
	const n = 32
	prog, err := mpl.Parse(`program past_the_bound
var d, tok
proc {
    d = rank + 1
    if rank == 20 {
        send(0, d)
    }
    chkpt
    if rank < nproc - 1 {
        recv(rank + 1, tok)
    }
    if rank > 0 {
        send(rank - 1, tok)
    }
    if rank == 0 {
        recv(20, d)
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
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
	// Rank 0's events: its checkpoint, then the token that comes back only
	// once every rank has checkpointed; it crashes before receiving from 20.
	res, err := sim.Run(sim.Config{
		Code: code, Nproc: n, Input: verify.DefaultInput, DisableTrace: true, Timeout: 20 * time.Second,
		Failures: []sim.Failure{{Proc: 0, AfterEvents: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 || !reflect.DeepEqual(res.FinalVars, m.FinalVars()) {
		t.Fatalf("%d restarts; final state equals the machine's: %v", res.Restarts, reflect.DeepEqual(res.FinalVars, m.FinalVars()))
	}
}
