package recovery_test

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Recovery decides Definition 2.1 on a full cut from the channel counters
// each member saved; the verifiers decide it from vector clocks. On reliable
// FIFO channels the two must agree on every cut: each corpus program,
// untransformed and transformed, runs on verify.Machine under several
// schedules (the irregular program on 2 processes, the others on 4), every
// checkpoint is given the per-peer row its process had counted at it in the
// trace, and every straight cut and random mixed
// cuts must get from recovery the verdict trace.IsRecoveryLine gives on the
// Machine's clocks.
func TestCountersDecideCutsAsClocksDo(t *testing.T) {
	const mixed = 32
	rng := rand.New(rand.NewPCG(35, 1))
	names := make([]string, 0, len(corpus.All()))
	for name := range corpus.All() {
		names = append(names, name)
	}
	sort.Strings(names)
	checked, inconsistent := 0, 0
	for _, name := range names {
		prog, n := corpus.All()[name], 4
		if name == "irregular" {
			n = 2 // every other rank receives from rank 0
		}
		rep, err := core.Transform(prog, core.DefaultConfig)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, variant := range []struct {
			name string
			code func() (*sim.Code, error)
		}{
			{"untransformed", func() (*sim.Code, error) { return sim.Compile(prog) }},
			{"transformed", func() (*sim.Code, error) { return sim.Compile(rep.Program) }},
		} {
			code, err := variant.code()
			if err != nil {
				t.Fatalf("%s %s: %v", name, variant.name, err)
			}
			_, err = verify.Explore(code, n, verify.DefaultInput, verify.ExploreOptions{Depth: 4, MaxSchedules: 8}, func(m *verify.Machine) error {
				tr := m.Trace()
				at := countersAt(tr)
				agree := func(what string, cut trace.Cut) {
					t.Helper()
					snaps := make([]storage.Snapshot, len(cut))
					for i, cp := range cut {
						snaps[i] = at[cp.Proc][cp.EventSeq]
					}
					_, _, byCounters := recovery.Consistent(snaps)
					if byClocks := trace.IsRecoveryLine(cut); byCounters != byClocks {
						t.Errorf("%s %s, schedule %v, %s %v: counters say consistent=%v, clocks %v",
							name, variant.name, m.Schedule(), what, cut, byCounters, byClocks)
					}
					checked++
					if !byCounters {
						inconsistent++
					}
				}
				for _, i := range tr.CheckpointIndexes() {
					if cut, err := tr.StraightCut(i); err == nil {
						agree("straight cut", cut)
					}
				}
				var own [][]trace.Checkpoint // each process's checkpoints
				for _, h := range tr.Events() {
					var cps []trace.Checkpoint
					for _, e := range h {
						if e.Kind == trace.KindCheckpoint {
							cps = append(cps, e.Chkpt)
						}
					}
					if len(cps) == 0 {
						return nil // no full cut
					}
					own = append(own, cps)
				}
				for range mixed {
					cut := make(trace.Cut, n)
					for p := range cut {
						cut[p] = own[p][rng.IntN(len(own[p]))]
					}
					agree("mixed cut", cut)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s %s: %v", name, variant.name, err)
			}
		}
	}
	t.Logf("%d cuts checked, %d of them inconsistent", checked, inconsistent)
	if inconsistent == 0 {
		t.Fatal("no inconsistent cut was checked: the comparison is vacuous")
	}
}

// countersAt gives every checkpoint event of tr, by process and event
// sequence number, the snapshot counters its process had at it: the
// messages it had sent to and received from each peer.
func countersAt(tr *trace.Trace) []map[int]storage.Snapshot {
	at := make([]map[int]storage.Snapshot, tr.N())
	for p, h := range tr.Events() {
		at[p] = map[int]storage.Snapshot{}
		send, recv := make([]int, tr.N()), make([]int, tr.N())
		for _, e := range h {
			switch e.Kind {
			case trace.KindSend:
				send[e.Peer]++
			case trace.KindRecv:
				recv[e.Peer]++
			case trace.KindCheckpoint:
				at[p][e.Seq] = storage.Snapshot{Proc: p, N: tr.N(), Peers: rowOf(send, recv)}
			}
		}
	}
	return at
}

// rowOf is the row of the per-peer counts sent and recvd, as wide as sent,
// without the peers whose counts are both 0.
func rowOf(sent, recvd []int) storage.Row {
	var row storage.Row
	for q := range sent {
		if sent[q] != 0 || recvd[q] != 0 {
			row = append(row, storage.PeerSeq{Peer: q, Sent: sent[q], Recvd: recvd[q]})
		}
	}
	return row
}

// counted sets k's index to count k, in place as the runtime counts it, so
// one Counts is lent to every save of a history.
func counted(c storage.Counts, k storage.Key) storage.Counts {
	i, ok := c.Search(k.CFGIndex)
	if !ok {
		c = slices.Insert(c, i, storage.Count{Index: k.CFGIndex})
	}
	c[i].N = k.Instance + 1
	return c
}
